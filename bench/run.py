"""qcorr benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/``; the
workloads (closed loops with one client) are in ``workloads.py``.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
fresh-interpreter probes before and after the loop), throughput, median
and tail request latency, peak resident memory and success rate. Times
are scaled to a nominal host speed by a reference kernel, run in its own
interpreter and timed around every request and set-up probe
(``calibration.py``); the unscaled set-up time, median and throughput
are printed beside them, on a line ``raw = {...}``. ``--trace 1`` runs
the same requests untraced and then traced, half the time each, and
prints per-function call counts and (unscaled) self times plus the
tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 if any output check failed
and 2 if the program cannot be imported.
"""
from __future__ import annotations

import os

# One thread for BLAS, pinned before numpy loads; the set-up probes inherit it.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from calibration import NOMINAL_S, ReferenceProcess  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: fresh-interpreter set-up probes before and again after the timed loop;
#: the median of all of them is setup_s
SETUP_RUNS = 8
#: tail percentiles tried from the top, in per mille
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10
PROBLEMS_SHOWN = 5


def import_program() -> None:
    """Import qcorr from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import qcorr
    except ImportError as exc:
        print(f"bench: cannot import qcorr from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(qcorr.__file__).resolve().parent != SRC / "qcorr":
        print(f"bench: qcorr was imported from {qcorr.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class LoopStats:
    """Per-request raw and host-speed-scaled latencies (see calibration.py)."""

    def __init__(self):
        self.raw: list[float] = []
        self.latencies: list[float] = []
        self.work = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        """Work units per second of scaled request time."""
        return self.work / math.fsum(self.latencies)

    def record(self, elapsed: float, reference: float, work: int,
               problems: list[str]) -> None:
        self.raw.append(elapsed)
        self.latencies.append(elapsed * NOMINAL_S / reference)
        self.work += work
        if problems:
            self.failed += 1
            self.problems.extend(problems[: PROBLEMS_SHOWN - len(self.problems)])


def _checked(wl, request, output) -> list[str]:
    try:
        return wl.check(request, output)
    except Exception as exc:  # a check that cannot read the output fails the request
        return [f"output check raised {exc!r}"]


def closed_loop(wl, seconds: float, ref: ReferenceProcess, tracer=None) -> LoopStats:
    """One client sends the next request when the previous one returns."""
    stats = LoopStats()
    requests = wl.requests()
    deadline = perf_counter() + seconds
    # each request is scaled by the mean of the reference timings around it
    reference = ref.seconds()
    while not stats.latencies or perf_counter() < deadline:
        request = next(requests)
        if tracer is not None:
            tracer.request_id += 1
        start = perf_counter()
        try:
            output = wl.run(request)
        except Exception as exc:  # a raising request is a failed operation
            elapsed, work, problems = perf_counter() - start, 0, [f"request raised {exc!r}"]
        else:
            elapsed = perf_counter() - start
            problems = _checked(wl, request, output)
            work = 0 if problems else wl.work(request)
        after = ref.seconds()
        stats.record(elapsed, (reference + after) / 2, work, problems)
        reference = after
    return stats


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(seconds, percentile, samples beyond) at the highest percentile of the
    ladder with at least TAIL_MIN_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for per_mille in TAIL_LADDER:
        rank = -(-per_mille * n // 1000)
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], per_mille / 10, n - rank
    return ordered[-1], 100.0, 0


def setup_probes(workload: str, seed: int, workdir: Path,
                 ref: ReferenceProcess) -> tuple[list[float], list[float], list[str]]:
    """(raw seconds, scaled seconds, problems) of SETUP_RUNS fresh interpreters;
    each is scaled by the mean of the reference timings before and after it,
    each of those the median of three."""
    raw, scaled, problems = [], [], []
    reference = sorted(ref.seconds() for _ in range(3))[1]
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload,
             str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            problems.append(f"set-up probe exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        after = sorted(ref.seconds() for _ in range(3))[1]
        raw.append(result["setup_s"])
        scaled.append(result["setup_s"] * NOMINAL_S * 2 / (reference + after))
        reference = after
        problems.extend(result["problems"])
    return raw, scaled, problems


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def end_to_end(wl, args, workdir: Path,
               ref: ReferenceProcess) -> tuple[dict, int, int, list[str]]:
    # probes on both sides of the loop see more of the host's drift in a run
    setup_raw, setup_times, setup_problems = setup_probes(args.workload, args.seed,
                                                          workdir, ref)
    warm = closed_loop(type(wl)(args.seed, workdir), 0.0, ref)
    stats = closed_loop(wl, args.seconds, ref)
    for probes, more in zip((setup_raw, setup_times, setup_problems),
                            setup_probes(args.workload, args.seed, workdir, ref)):
        probes.extend(more)
    attempted = stats.attempted + warm.attempted + 2 * SETUP_RUNS
    failed = stats.failed + warm.failed + len(setup_problems)
    tail, percentile, beyond = tail_latency(stats.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times) if setup_times else 0.0, "s"),
        "throughput_per_s": (stats.throughput, "1/s"),
        "latency_p50_ms": (statistics.median(stats.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }
    print(f"requests = {stats.attempted}; throughput counts {wl.unit}")
    print(f"latency_tail_ms is p{percentile:g} with {beyond} of "
          f"{stats.attempted} samples beyond it")
    raw = {"setup_s": statistics.median(setup_raw) if setup_raw else 0.0,
           "throughput_per_s": stats.work / math.fsum(stats.raw),
           "latency_p50_ms": statistics.median(stats.raw) * 1e3}
    print(f"raw = {json.dumps(raw)}")
    print(f"setup probes (s, scaled) = {' '.join(f'{t:.4f}' for t in setup_times)}")
    print(f"error_rate = {failed / attempted:g} ({failed} of {attempted})")
    return metrics, attempted, failed, setup_problems + warm.problems + stats.problems


def per_layer(wl, args, workdir: Path,
              ref: ReferenceProcess) -> tuple[dict, int, int, list[str]]:
    from tracing import SPAN_NAMES, Tracer

    closed_loop(type(wl)(args.seed, workdir), 0.0, ref)
    plain = closed_loop(wl, args.seconds / 2, ref)
    tracer = Tracer()
    with tracer.installed():
        traced = closed_loop(type(wl)(args.seed, workdir), args.seconds / 2, ref, tracer)
    totals = tracer.layer_totals()
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = totals[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    metrics["io.serialize_trajectory.bytes"] = (tracer.out_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (traced.throughput / plain.throughput, "ratio")

    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    layer_self: dict[str, float] = {}
    for name, (_, self_s) in totals.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    busy = math.fsum(traced.raw)
    print(f"traced requests = {traced.attempted}, {len(tracer.spans)} spans in {spans_path}")
    for layer, self_s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"self time share {layer:<9} {100 * self_s / busy:6.2f} %")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return metrics, attempted, failed, plain.problems + traced.problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("trajectory", "campaign", "single_state"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    print(f"machine = {json.dumps(machine_info())}")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        with ReferenceProcess() as ref:
            metrics, attempted, failed, problems = measure(wl, args, workdir, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
