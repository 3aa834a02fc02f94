"""The summary arithmetic and the run set-up of scripts/bench_pairs.py, on synthetic runs: no
benchmark runs."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = [{"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
            {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


def run(correct=True, **metrics):
    return {"correct": correct, "metrics": {k: {"value": v} for k, v in metrics.items()}}


def pairs(other, this):
    return [{"seed": 10 + i, "first": "other" if i % 2 == 0 else "this",
             "runs": {"other": run(**a), "this": run(**b)}}
            for i, (a, b) in enumerate(zip(other, this))]


def test_summary_medians_change_wins_and_quartiles():
    results = pairs(
        [dict(throughput_per_s=100.0, latency_p50_ms=2.0, peak_rss_mb=40.0),
         dict(throughput_per_s=110.0, latency_p50_ms=2.0),
         dict(throughput_per_s=120.0, latency_p50_ms=2.0, peak_rss_mb=40.0)],
        [dict(throughput_per_s=105.0, latency_p50_ms=1.0, peak_rss_mb=41.0),
         dict(throughput_per_s=108.0, latency_p50_ms=2.0, peak_rss_mb=41.0),
         dict(throughput_per_s=130.0, latency_p50_ms=3.0, peak_rss_mb=41.0)])
    rows = {row["name"]: row for row in bench_pairs.summarize(results, DECLARED)}
    assert set(rows) == {"throughput_per_s", "latency_p50_ms"}  # one run lacks peak_rss_mb
    tp = rows["throughput_per_s"]
    assert (tp["other"], tp["this"]) == (110.0, 108.0)
    assert tp["change"] == pytest.approx(-2.0 / 110.0)
    assert (tp["wins"], tp["pairs"]) == (2, 3)  # higher is better: pairs 1 and 3
    assert tp["other_quartiles"] == (105.0, 115.0)
    p50 = rows["latency_p50_ms"]
    assert (p50["other"], p50["this"], p50["change"]) == (2.0, 2.0, 0.0)
    assert p50["wins"] == 1  # lower is better, and the tie counts for neither side
    assert p50["other_quartiles"] == (2.0, 2.0)
    text = bench_pairs.report(results, list(rows.values()), DECLARED)
    assert "-1.82%" in text and " 2 of 3" in text and "105 .. 115" in text


def test_one_pair_has_its_value_as_quartiles():
    rows = bench_pairs.summarize(pairs([dict(throughput_per_s=90.0)],
                                       [dict(throughput_per_s=99.0)]), DECLARED[:1])
    assert rows[0]["change"] == pytest.approx(0.1)
    assert (rows[0]["wins"], rows[0]["other_quartiles"]) == (1, (90.0, 90.0))


def test_sides_alternate_and_a_failed_run_exits_1(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run(root, workload, seed, seconds):
        side = "this" if root == bench_pairs.ROOT else "other"
        calls.append((side, seed))
        return run(correct=(side, seed) != ("this", 6), throughput_per_s=1.0)

    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").touch()
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    argv = [str(tmp_path), "--workload", "single_state", "--pairs", "4",
            "--seconds", "1", "--first-seed", "5"]
    assert bench_pairs.main(argv) == 1
    assert calls == [("other", 5), ("this", 5), ("this", 6), ("other", 6),
                     ("other", 7), ("this", 7), ("this", 8), ("other", 8)]
    assert "failed runs: this seed 6" in capsys.readouterr().out
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda *args: run(throughput_per_s=1.0))
    assert bench_pairs.main(argv) == 0
    with pytest.raises(SystemExit) as exc:  # no benchmark to run there
        bench_pairs.main([str(tmp_path / "bench"), "--workload", "single_state"])
    assert exc.value.code == 2


def test_each_run_compiles_a_bytecode_free_copy(tmp_path, monkeypatch):
    # both sides compile their modules from source, whatever __pycache__ either tree holds
    for part in bench_pairs.COPIED:
        (tmp_path / part / "__pycache__").mkdir(parents=True)
        (tmp_path / part / "__pycache__" / "stale.cpython-311.pyc").touch()
        (tmp_path / part / "module.py").touch()
    seen = {}

    def fake_run(args, cwd, env, **kwargs):
        seen.update(args=args, env=env, files=sorted(
            str(path.relative_to(cwd)) for path in Path(cwd).rglob("*")))
        return subprocess.CompletedProcess(args, 0, '{"correct": true, "metrics": {}}\n', "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_bench(tmp_path, "campaign", 3, 1.0)["correct"] is True
    assert seen["args"][1:3] == ["bench/run.py", "--workload"]
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert seen["files"] == ["bench", "bench/module.py", "src", "src/module.py"]


@pytest.mark.parametrize("pairs", [1, 3, 5, 0, -2])
def test_an_odd_or_empty_pair_count_is_refused(tmp_path, monkeypatch, capsys, pairs):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").touch()
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), "--workload", "trajectory", "--pairs", str(pairs)])
    assert exc.value.code == 2
    assert f"--pairs must be a positive even number, so that each side runs first in half " \
        f"of the pairs, got {pairs}" in capsys.readouterr().err

