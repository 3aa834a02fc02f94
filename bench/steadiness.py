"""Steadiness check: two sets of runs of every workload, spreads and medians vs bounds.

    python3 bench/steadiness.py [--first-seed 1] [--out PATH]

Runs ``bench/run.py --trace 0`` for RUNS seeds on every workload of
BENCHMARK.json at its ``run_seconds``, one run at a time, then does the
same again with the next RUNS seeds. For each end-to-end metric and set
it reports the median and the spread, which is the distance between the
first and third quartile (``statistics.quantiles``, n=4) as a share of
the median; a spread at or above the metric's bound marks the workload
unsteady, and a spread below a third of the bound is the target. It
also reports how much worse the second set's median is than the first's
and fails if that exceeds the bound. The unscaled set-up time, median
latency and throughput (the ``raw = {...}`` line of run.py) are kept
beside the scaled values, to show the host drift that the scaling takes
out. The summary, with the machine info of the runs, is written as JSON
to ``--out``. Exit code 1 if a workload is unsteady, the medians
disagree or a run failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    for key in ("machine", "raw"):
        line = next(line for line in lines if line.startswith(f"{key} = "))
        result[key] = json.loads(line.removeprefix(f"{key} = "))
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def worsening(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first (<= 0: not worse)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "steadiness.json"))
    args = parser.parse_args(argv)

    summary = {"runs": RUNS, "first_seed": args.first_seed, "seconds": seconds,
               "sets": [], "comparison": {}}
    failing = False
    for k in range(SETS):
        first = args.first_seed + k * RUNS
        seeds = list(range(first, first + RUNS))
        workloads = {}
        for workload in (w["name"] for w in spec["workloads"]):
            results = [run_once(workload, seed, seconds) for seed in seeds]
            summary["machine"] = results[-1]["machine"]
            failed = sum(r["failed"] for r in results)
            rows = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in results]
                median, share = spread(values)
                ok = share < metric["bound"]
                failing |= not ok
                rows[name] = {"median": median, "spread": share, "bound": metric["bound"],
                              "ok": ok, "values": values}
                if name in results[0]["raw"]:
                    raw = [r["raw"][name] for r in results]
                    rows[name]["raw_median"], rows[name]["raw_spread"] = spread(raw)
                    rows[name]["raw_values"] = raw
                flag = "ok" if ok else "UNSTEADY"
                if share >= metric["bound"] / 3:
                    flag += " (above a third of the bound)"
                raw_note = (f" raw spread {rows[name]['raw_spread']:7.4f}"
                            if "raw_spread" in rows[name] else "")
                print(f"set {k + 1} {workload:<13} {name:<17} median {median:<12.6g} "
                      f"spread {share:7.4f} bound {metric['bound']:<5} {flag}{raw_note}",
                      flush=True)
            failing |= failed > 0
            workloads[workload] = {"failed": failed, "metrics": rows}
            print(f"set {k + 1} {workload:<13} failed operations: {failed}", flush=True)
        summary["sets"].append({"seeds": [seeds[0], seeds[-1]], "workloads": workloads})

    for workload in summary["sets"][0]["workloads"]:
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            medians = [s["workloads"][workload]["metrics"][name]["median"]
                       for s in summary["sets"]]
            worse = worsening(medians[0], medians[-1], metric["better"])
            ok = worse <= metric["bound"]
            failing |= not ok
            rows[name] = {"medians": medians, "worse_by": worse, "bound": metric["bound"],
                          "ok": ok}
            print(f"set {SETS} vs 1 {workload:<13} {name:<17} worse by {worse:8.4f} "
                  f"bound {metric['bound']:<5} {'ok' if ok else 'MEDIANS DISAGREE'}")
        summary["comparison"][workload] = rows

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {out}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
