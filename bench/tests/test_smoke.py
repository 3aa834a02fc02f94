"""Smoke test of the benchmark harness.

    python3 -m pytest -q bench/tests

Each workload runs for a fraction of a second in both modes; every
declared metric must be printed and no operation may fail. The output
checks are also shown to reject a corrupted output.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import workloads  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_errors(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} = ") for line in lines[:-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert f"error_rate = 0 (0 of {result['attempted']})" in lines


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _corrupt_trajectory(out):
    traj, hit, text = out
    report = dataclasses.replace(traj.reports[40], d_g=traj.reports[40].d_g + 1e-6)
    traj.reports[40] = report
    return traj, hit, text


def _corrupt_campaign(results):
    return [dataclasses.replace(results[0], violations=1)] + results[1:]


def _nan_campaign(results):
    return [dataclasses.replace(results[0], worst=float("nan"))] + results[1:]


def _corrupt_single(out):
    code, text = out
    return code, text.replace("d_g = ", "d_g = 1", 1)


@pytest.mark.parametrize("workload, corrupt", [
    ("trajectory", _corrupt_trajectory),
    ("campaign", _corrupt_campaign),
    ("campaign", _nan_campaign),
    ("single_state", _corrupt_single),
])
def test_checks_reject_corrupted_output(tmp_path, workload, corrupt):
    wl = workloads.WORKLOADS[workload](3, tmp_path)
    request = next(wl.requests())
    output = wl.run(request)
    assert wl.check(request, output) == []
    assert wl.check(request, corrupt(output)) != []


def test_tracer_fails_on_a_missing_layer_function(monkeypatch):
    from qcorr import io as qio
    from tracing import Tracer

    monkeypatch.delattr(qio, "dump_json")
    with pytest.raises(AttributeError), Tracer().installed():
        pass


def test_campaign_oracle_catches_wrong_discord(tmp_path, monkeypatch):
    wl = workloads.Campaign(3, tmp_path)
    request = next(wl.requests())
    output = wl.run(request)
    monkeypatch.setattr(workloads, "_discord_eig", lambda s: float("nan"))
    assert len(wl.check(request, output)) == len(workloads.CAMPAIGN_DIMS)
