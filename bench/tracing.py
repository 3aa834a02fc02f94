"""Per-layer tracing: in-memory spans around qcorr's public functions.

``Tracer.installed()`` replaces each listed function, in every ``qcorr``
module namespace that holds it, by a wrapper that records one span
(function, start, end, parent span, request id). Spans stay in memory;
self times and call counts are derived from them after the run, and
``write`` stores them as JSON lines. Nothing inside qcorr changes.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

#: layer (qcorr module) -> public functions timed in it
TRACED = {
    "bloch": ("random_density_matrix", "bloch_decompose", "check_density_matrix"),
    "eigen": ("hermitian_eigenvalues", "sym3_eigenvalues"),
    "measures": ("s_matrix", "geometric_discord_closed", "geometric_discord_eig",
                 "q_lower_bound", "negativity", "report_from_record", "full_report"),
    "channels": ("evolve", "apply_two_qubit_channel", "make_trajectory",
                 "detect_transition"),
    "protocol": ("run_direct_protocol",),
    "io": ("load_state_file", "serialize_trajectory", "report_text", "dump_json"),
    "batch": ("run_batch_campaigns",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
#: the one span whose returned text is counted in bytes
BYTES_SPAN = "io.serialize_trajectory"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name index, start, end, parent slot, request id)
        self.request_id = 0
        self.out_bytes = 0
        self._stack: list[int] = []

    def _wrap(self, index: int, fn):
        spans, stack = self.spans, self._stack
        count_bytes = SPAN_NAMES[index] == BYTES_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.request_id)
            if count_bytes:
                self.out_bytes += len(result.encode())
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        patched = []
        for index, name in enumerate(SPAN_NAMES):
            layer, fn_name = name.split(".")
            # a declared function that is gone raises, so the run fails
            original = getattr(importlib.import_module(f"qcorr.{layer}"), fn_name)
            wrapper = self._wrap(index, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "qcorr":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self seconds); self = duration minus child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        for slot, (index, start, end, _, _) in enumerate(self.spans):
            entry = totals[SPAN_NAMES[index]]
            entry[0] += 1
            entry[1] += end - start - child[slot]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"names": SPAN_NAMES,
                                 "fields": ["name", "start", "end", "parent", "request"]}))
            fh.write("\n")
            for index, start, end, parent, request in self.spans:
                fh.write(f"[{index},{start!r},{end!r},{parent},{request}]\n")
