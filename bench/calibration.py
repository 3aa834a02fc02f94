"""Host-speed calibration for wall-clock metrics.

The benchmark host is shared: measured on a 2-vCPU VM, the same request
took from 1x to 2.5x its fastest time, with thread CPU time equal to wall
time, depending on what else ran on the physical cores. That drift is
larger than any bound worth setting. So around each timed request the
benchmark times ``reference_kernel``, a fixed mix of interpreter work,
small numpy calls and JSON text handling, and scales the request's time
by ``NOMINAL_S / reference time``. Scaled times read as if the host ran
the reference kernel in NOMINAL_S.

The kernel runs in a separate interpreter (``ReferenceProcess``) that
never imports qcorr, driven one call at a time over a pipe while the
measured process waits. Host-wide slowdowns reach both processes and
cancel; whatever the program does to its own process (tracing or
profiling hooks, a large live heap that slows the garbage collector,
memory bloat) slows only the measured requests and shows in the scaled
times. Costs the program puts on the whole host (busy background
threads or processes) still slow the kernel as well and are partly
cancelled; the unscaled figures that run.py prints beside the scaled
ones catch those.

    python3 bench/calibration.py    # serve: one timing per input line
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

#: reference-kernel time that defines nominal host speed
NOMINAL_S = 0.004

_MATS = np.random.default_rng(0).standard_normal((40, 4, 4)) * (1 + 1j)
_EYE2 = np.eye(2)


def reference_kernel() -> float:
    acc = 0.0
    for m in _MATS:
        h = m @ m.conj().T
        h = h + np.kron(h[:2, :2], _EYE2)
        acc += float(np.linalg.eigvalsh(h)[-1])
        acc += float(np.einsum("ij,ji->", h, h).real)
        row = {"re": [format(float(v), ".15g") for v in h[0].real], "acc": acc}
        acc += len(json.loads(json.dumps(row))["re"])
        for j in range(60):
            acc += (j * 0.5) ** 0.5
    return acc


def reference_seconds() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


class ReferenceProcess:
    """The reference kernel in a child interpreter, timed on request."""

    def __init__(self):
        # The measured process and the kernel share one CPU (the child
        # inherits the affinity), so both see the same host contention.
        # The last allowed CPU: on the 2-vCPU VM measured, tail latencies
        # spread less from run to run there than on the first.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
        self.seconds()

    def seconds(self) -> float:
        """One timing of the kernel, taken inside the child."""
        self._proc.stdin.write("\n")
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended (exit {self._proc.wait()})")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> ReferenceProcess:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    reference_kernel()
    for _ in sys.stdin:
        print(repr(reference_seconds()), flush=True)


if __name__ == "__main__":
    serve()
