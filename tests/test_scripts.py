"""The example scripts refuse bad arguments as usage errors (exit 2), before
they write anything."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("points", ["1", "3", "4", "5.5"])
def test_run_dynamics_refuses_too_few_points(tmp_path, points):
    proc = run_script("run_dynamics.py", "--outdir", "out", "--points", points, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "argument --points" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, option", [
    (("--c", "2", "2", "2"), "--c"),
    (("--c", "nan", "0", "0"), "--c"),
    (("--seed", "-1"), "--seed"),
])
def test_run_protocol_demo_refuses_bad_arguments(tmp_path, args, option):
    proc = run_script("run_protocol_demo.py", *args, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"argument {option}:" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
