#!/usr/bin/env python3
"""Record a BENCH_*.json file: benchmark medians, per-layer trace and CLI times.

Usage: python scripts/bench_record.py [--quick] --out BENCH_<n>.json

Runs ``bench/run.py`` from this checkout, unchanged:

* ``end_to_end``: ``--trace 0`` on every workload named in BENCHMARK.json,
  for SEEDS seeds at BENCHMARK.json's ``run_seconds`` (``--quick``: one
  seed, QUICK_SECONDS each). Each run's metrics are kept, with the median
  per metric.
* ``layers``: one ``--trace 1`` run per workload (calls and self seconds
  of every traced function).
* ``cli``: wall time of ``qcorr evolve``, ``measure``, ``protocol`` and
  ``batch --n 1000`` as fresh subprocesses, import included, best of
  CLI_REPEATS (``--quick``: QUICK_CLI_REPEATS); ``measure_2x32`` is
  ``measure`` on a random 2 x 32 state drawn from STATE_2X32_SEED, the
  large-d case of the Bloch record. Beside them, ``numpy`` times
  ``python -c "import numpy"``, the floor under every command, so that CLI
  times from different hosts can be read as time above bare numpy. Each
  command compiles qcorr's modules unless their bytecode is cached, so
  ``settings`` records the PYTHONDONTWRITEBYTECODE value the commands run
  with and whether ``src/qcorr/__pycache__`` existed before the CLI timings.

BLAS is pinned to one thread everywhere, as ``bench/run.py`` pins it.
The file also holds the ``machine`` line ``bench/run.py`` prints. The
script exits 1 if any benchmark run reports a failed output check or
any command exits non-zero; the file is written either way.
``--quick`` takes about 25 s on a 2-vCPU host.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
from compare_outputs import _random_state  # the output comparison's matrix state files

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
CLI_REPEATS = 5
QUICK_SECONDS = 1.0
QUICK_CLI_REPEATS = 3
STATE_2X32_SEED = 32
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
       **{var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}}


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One bench/run.py run: (machine info, its final JSON summary)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=ENV, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line.split("=", 1)[1]) for line in lines
                    if line.startswith("machine = ")), {})
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    summary["seed"] = seed
    return machine, summary


def time_cli(argv: list[str], repeats: int, cwd: str) -> dict:
    """Wall times of ``python *argv`` as a fresh subprocess."""
    times, codes = [], set()
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=ENV, capture_output=True)
        times.append(perf_counter() - start)
        codes.add(proc.returncode)
    return {"argv": argv, "best_s": min(times), "runs_s": times,
            "exit_codes": sorted(codes)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"one seed, {QUICK_SECONDS} s runs, best of {QUICK_CLI_REPEATS}")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = SEEDS[:1] if args.quick else SEEDS
    seconds = QUICK_SECONDS if args.quick else declared["run_seconds"]
    repeats = QUICK_CLI_REPEATS if args.quick else CLI_REPEATS

    machine, end_to_end, layers = {}, {}, {}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = []
        for seed in seeds:
            machine, summary = run_bench(workload, seed, seconds, 0)
            runs.append(summary)
        names = [m["name"] for m in declared["end_to_end"]]
        end_to_end[workload] = {
            "median": {name: statistics.median(run["metrics"][name]["value"] for run in runs)
                       for name in names if all(name in run["metrics"] for run in runs)},
            "runs": runs,
        }
        _, layers[workload] = run_bench(workload, seeds[0], seconds, 1)

    qcorr = ["-m", "qcorr"]
    commands = {
        "numpy": ["-c", "import numpy"],
        "evolve": [*qcorr, "evolve", "--state", "bell.json", "--output", "t.csv"],
        "measure": [*qcorr, "measure", "--state", "bell.json"],
        "protocol": [*qcorr, "protocol", "--state", "bell.json", "--shots", "4000", "--seed", "5"],
        "batch": [*qcorr, "batch", "--n", "1000", "--seed", "1"],
        "measure_2x32": [*qcorr, "measure", "--state", "matrix_2x32.json"],
    }
    pycache = (ROOT / "src" / "qcorr" / "__pycache__").is_dir()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "bell.json").write_text(json.dumps(
            {"kind": "bell", "c": [0.5, -0.06, 0.24], "mode": "deviation"}))
        Path(tmp, "matrix_2x32.json").write_text(json.dumps(
            _random_state(np.random.default_rng(STATE_2X32_SEED), 64, 64)))
        cli = {name: time_cli(argv, repeats, tmp) for name, argv in commands.items()}

    runs = [run for w in end_to_end.values() for run in w["runs"]] + list(layers.values())
    ok = all(run["correct"] for run in runs) and all(
        entry["exit_codes"] == [0] for entry in cli.values())
    doc = {
        "machine": machine,
        "settings": {"quick": args.quick, "seconds": seconds, "seeds": list(seeds),
                     "cli_repeats": repeats,
                     "pythondontwritebytecode": ENV.get("PYTHONDONTWRITEBYTECODE"),
                     "pycache_before_cli": pycache},
        "correct": ok,
        "end_to_end": end_to_end,
        "layers": layers,
        "cli": cli,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}" + ("" if ok else " (with failed checks)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
