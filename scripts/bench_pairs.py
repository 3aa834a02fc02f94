#!/usr/bin/env python3
"""Paired benchmark runs of this checkout against another one.

Usage: python scripts/bench_pairs.py OTHER_ROOT --workload W [--pairs N]
                                     [--seconds S] [--first-seed K]

N is even (default 10).

Pair i runs ``bench/run.py --workload W --seed K+i --seconds S --trace 0``
once for this checkout and once for OTHER_ROOT (for example a copy of the
parent commit), each side with its own ``bench/run.py``, which imports
the ``src`` beside it. The side that runs first alternates from pair to
pair, OTHER_ROOT first in the first pair, so that each side runs first in
exactly half of the pairs and a drift of the host does not favour one
side.

Each run works on a fresh copy of its side's ``bench`` and ``src`` without
their ``__pycache__`` directories, under PYTHONDONTWRITEBYTECODE=1, as a
benchmark run on a new checkout does: both sides compile their own modules
from source whatever bytecode either tree holds, while numpy and the
standard library load their installed bytecode. (An empty
PYTHONPYCACHEPREFIX would also compile numpy in every set-up probe:
campaign setup_s 0.15 -> 0.54 s and peak_rss_mb +2.7 MB on both sides.)

The script prints each pair's values, then one line per end-to-end
metric of this checkout's BENCHMARK.json: the median of each side, the
relative change of this checkout's median against OTHER_ROOT's, the
number of pairs in which this checkout reads better (ties count for
neither side; "better" is the metric's declared direction) and the
quartiles of OTHER_ROOT's runs. It exits 1 if any run fails its output
checks or prints no result. Standard library only.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("other", "this")
#: the parts of a checkout a benchmark run reads
COPIED = ("bench", "src")


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run on a bytecode-free copy of ``root``'s ``bench`` and
    ``src``: its final JSON summary, with ``correct`` false when the run printed none."""
    with tempfile.TemporaryDirectory() as copy:
        for part in COPIED:
            shutil.copytree(root / part, Path(copy, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True, check=False)
    try:
        summary = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "metrics": {}, "error": proc.stderr.strip()[-500:]}
    summary["correct"] = summary.get("correct") is True and proc.returncode == 0
    return summary


def run_pairs(other: Path, workload: str, pairs: int, seconds: float,
              first_seed: int) -> list[dict]:
    """``pairs`` pairs of runs: per pair its seed, the side that ran first and
    each side's summary."""
    roots = {"other": other, "this": ROOT}
    results = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        seed = first_seed + i
        runs = {side: run_bench(roots[side], workload, seed, seconds) for side in order}
        results.append({"seed": seed, "first": order[0], "runs": runs})
    return results


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def summarize(results: list[dict], declared: list[dict]) -> list[dict]:
    """Per declared end-to-end metric that every run printed: both medians, the
    relative change, the pairs this checkout wins, and OTHER_ROOT's quartiles."""
    rows = []
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [pair["runs"][side]["metrics"].get(name, {}).get("value")
                         for pair in results] for side in SIDES}
        if not results or None in values["other"] + values["this"]:
            continue
        median = {side: statistics.median(values[side]) for side in SIDES}
        wins = sum((b > a) if higher else (b < a)
                   for a, b in zip(values["other"], values["this"]))
        change = (median["this"] - median["other"]) / median["other"] \
            if median["other"] else float("nan")
        rows.append({"name": name, "unit": metric["unit"], "better": metric["better"],
                     "other": median["other"], "this": median["this"], "change": change,
                     "wins": wins, "pairs": len(results),
                     "other_quartiles": quartiles(values["other"])})
    return rows


def report(results: list[dict], rows: list[dict], declared: list[dict]) -> str:
    lines = []
    for pair in results:
        lines.append(f"pair seed {pair['seed']} ({pair['first']} first)")
        for side in SIDES:
            run = pair["runs"][side]
            values = "  ".join(f"{m['name']}={run['metrics'][m['name']]['value']:.6g}"
                               for m in declared if m["name"] in run["metrics"])
            status = "" if run["correct"] else "  FAILED " + run.get("error", "checks")
            lines.append(f"  {side:<5}  {values}{status}")
    lines.append(f"{'metric':<18} {'unit':<6} {'better':<7} {'other median':>13} "
                 f"{'this median':>13} {'change':>9}  this ahead  other quartiles")
    for row in rows:
        low, high = row["other_quartiles"]
        lines.append(f"{row['name']:<18} {row['unit']:<6} {row['better']:<7} "
                     f"{row['other']:>13.6g} {row['this']:>13.6g} {100 * row['change']:>+8.2f}%"
                     f"  {row['wins']:>2} of {row['pairs']:<3}  {low:.6g} .. {high:.6g}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root", type=Path, help="root of the other checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2:
        parser.error(f"--pairs must be a positive even number, so that each side runs first "
                     f"in half of the pairs, got {args.pairs}")
    if not (args.other_root / "bench" / "run.py").is_file():
        parser.error(f"{args.other_root} holds no bench/run.py")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    print(f"workload {args.workload}: {args.pairs} pairs of {seconds:g} s runs, seeds "
          f"{args.first_seed}..{args.first_seed + args.pairs - 1}; other = {args.other_root}; "
          f"each run on a copy without __pycache__, PYTHONDONTWRITEBYTECODE=1")
    results = run_pairs(args.other_root.resolve(), args.workload, args.pairs, seconds,
                        args.first_seed)
    print(report(results, summarize(results, spec["end_to_end"]), spec["end_to_end"]))
    failed = [f"{side} seed {pair['seed']}" for pair in results
              for side in SIDES if not pair["runs"][side]["correct"]]
    if failed:
        print(f"failed runs: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
