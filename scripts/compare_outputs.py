#!/usr/bin/env python3
"""Byte-for-byte comparison of qcorr's command outputs between two sources.

Runs a fixed set of ``qcorr`` commands (measure, protocol, evolve and
batch, in every output format) once with this checkout's ``src`` and
once with OTHER_SRC, on the same input files in a temporary directory,
and with them the command lines that argparse answers itself: help, and
a usage error of each kind. Every command runs as
``python -W error::RuntimeWarning -m qcorr ...``, so a numpy warning
makes it fail. Every file a command writes, its stdout, its stderr and
its exit code are compared; each output that differs is named and the
script exits 1, as it does when one of the commands that should succeed
fails here.
Beside each differing name it prints the largest absolute difference
between the numbers at the same token positions of the two outputs, or
"structure differs" when the text around the numbers, or their count,
is not the same.

Usage: python scripts/compare_outputs.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout, for example the
parent commit's. Passing this checkout's own ``src`` checks that every
command reruns to the same bytes.
"""
import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
#: a numpy overflow or invalid-value warning fails the command, so it shows as failed
PYTHON_FLAGS = ("-W", "error::RuntimeWarning")

#: state files written as inputs: name -> document
STATES = {
    "bell_deviation": {"kind": "bell", "c": [0.5, -0.06, 0.24], "mode": "deviation"},
    # entangled until part-way through its evolve grid, with a transition on it
    "bell_full": {"kind": "bell", "c": [0.6, -0.4, 0.3], "mode": "full"},
    # at --dt 0.005 --points 60 its switch at index 20 goes unconfirmed
    "bell_coarse": {"kind": "bell", "c": [0.8, -0.7, 0.45], "mode": "deviation"},
    # purity 0.285 < 1/3 at t = 0 and relaxing towards I/4: negativity never diagonalizes
    "bell_ball": {"kind": "bell", "c": [0.3, -0.2, 0.1], "mode": "full"},
}
#: a decimal number token; nan, inf and null count as text, so they only match themselves
NUMBER = re.compile(rb"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
#: random 2 x d matrix states, d -> rank
MATRIX_DIMS = {2: 3, 3: 2, 4: 5, 8: 3, 16: 7}
#: Werner states p |psi-><psi-| + (1 - p) I/4, name -> p: purity (1 + 3 p^2)/4 puts
#: p < 1/3 inside the separable ball and p > 1/3 is entangled
WERNER = {"werner_030": 0.30, "werner_034": 0.34}

EVOLVE_CONFIG = """\
state.c = 0.7762 -0.6143 0.2848
state.mode = deviation
relaxation.t2_b = 0.25
grid.n_points = 120
include_local_bloch = yes
"""


def _random_state(rng: np.random.Generator, dim: int, rank: int) -> dict:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return {"kind": "matrix", "dim": dim, "re": rho.real.tolist(), "im": rho.imag.tolist()}


def _werner_state(p: float) -> dict:
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0
    return {"kind": "matrix", "dim": 4, "re": rho.tolist(), "im": np.zeros((4, 4)).tolist()}


def write_inputs(inputs: Path) -> None:
    inputs.mkdir()
    rng = np.random.default_rng(2024)
    docs = dict(STATES)
    for d, rank in MATRIX_DIMS.items():
        docs[f"matrix_2x{d}"] = _random_state(rng, 2 * d, rank)
    for name, p in WERNER.items():
        docs[name] = _werner_state(p)
    for name, doc in docs.items():
        (inputs / f"{name}.json").write_text(json.dumps(doc))
    (inputs / "evolve.cfg").write_text(EVOLVE_CONFIG)


def commands(inputs: Path) -> dict[str, list[str]]:
    """label -> qcorr argv; outputs are written to the working directory."""
    cmds = {}
    for name in ["bell_deviation", "bell_full", *(f"matrix_2x{d}" for d in MATRIX_DIMS), *WERNER]:
        state = str(inputs / f"{name}.json")
        for fmt in ("csv", "json"):
            cmds[f"measure_{name}_{fmt}"] = ["measure", "--state", state,
                                             "--output", f"measure_{name}.{fmt}",
                                             "--format", fmt]
    for name in ("bell_deviation", "bell_full", "matrix_2x2"):
        state = str(inputs / f"{name}.json")
        cmds[f"protocol_{name}_exact"] = ["protocol", "--state", state,
                                          "--output", f"protocol_{name}_exact.json"]
        cmds[f"protocol_{name}_shots"] = ["protocol", "--state", state,
                                          "--shots", "4000", "--seed", "5",
                                          "--output", f"protocol_{name}_shots.json"]
    for name in WERNER:  # the protocol's negativity on both sides of the ball's edge
        cmds[f"protocol_{name}_exact"] = ["protocol", "--state", str(inputs / f"{name}.json"),
                                          "--output", f"protocol_{name}_exact.json"]
    for fmt in ("csv", "json"):
        cmds[f"evolve_state_{fmt}"] = ["evolve", "--state", str(inputs / "bell_deviation.json"),
                                       "--output", f"evolve_state.{fmt}", "--format", fmt]
        cmds[f"evolve_config_{fmt}"] = ["evolve", "--config", str(inputs / "evolve.cfg"),
                                        "--output", f"evolve_config.{fmt}", "--format", fmt]
        cmds[f"evolve_full_{fmt}"] = ["evolve", "--state", str(inputs / "bell_full.json"),
                                      "--output", f"evolve_full.{fmt}", "--format", fmt]
        # the points outside the separable ball, diagonalized, with local polarization
        cmds[f"evolve_full_local_{fmt}"] = ["evolve", "--state", str(inputs / "bell_full.json"),
                                            "--include-local-bloch",
                                            "--output", f"evolve_full_local.{fmt}",
                                            "--format", fmt]
        cmds[f"evolve_coarse_{fmt}"] = ["evolve", "--state", str(inputs / "bell_coarse.json"),
                                        "--dt", "0.005", "--points", "60",
                                        "--output", f"evolve_coarse.{fmt}", "--format", fmt]
        cmds[f"evolve_ball_{fmt}"] = ["evolve", "--state", str(inputs / "bell_ball.json"),
                                      "--output", f"evolve_ball.{fmt}", "--format", fmt]
    # an --epsilon that sets the units, and evolve flags over the config keys they override
    bell = str(inputs / "bell_deviation.json")
    cmds["measure_bell_deviation_eps_json"] = ["measure", "--state", bell, "--epsilon", "1e-4",
                                               "--no-include-local-bloch", "--format", "json",
                                               "--output", "measure_bell_deviation_eps.json"]
    cmds["protocol_bell_deviation_eps_shots"] = ["protocol", "--state", bell, "--epsilon", "1e-4",
                                                 "--shots", "4000", "--seed", "5", "--output",
                                                 "protocol_bell_deviation_eps_shots.json"]
    # eps far below the round-off of I/4: the measures are read off the deviation
    for eps in ("1e-12", "1e-200"):
        for command, ext in (("measure", "csv"), ("protocol", "json")):
            label = f"{command}_bell_deviation_eps{eps}"
            cmds[label] = [command, "--state", bell, "--epsilon", eps,
                           "--output", f"{label}.{ext}"]
    config = str(inputs / "evolve.cfg")
    cmds["evolve_config_flags"] = ["evolve", "--config", config, "--epsilon", "2e-5",
                                   "--t-max", "0.3", "--points", "40", "--no-include-local-bloch",
                                   "--output", "evolve_config_flags.csv"]
    cmds["evolve_config_dt_json"] = ["evolve", "--config", config, "--dt", "0.004",
                                     "--format", "json", "--output", "evolve_config_dt.json"]
    batch = ["batch", "--n", "200", "--seed", "11", "--dims", "2,3,4"]
    cmds["batch_text"] = batch
    for fmt in ("csv", "json"):
        cmds[f"batch_{fmt}"] = batch + ["--output", f"batch.{fmt}", "--format", fmt]
    # one-sample campaigns, and repeated, unsorted dims at an n that is no multiple
    # of any rank cycle: the row indexing of the stacked campaign pass
    # and n = 5000, several chunks of samples: the seams between them
    for label, (n, seed, dims) in {"n1": (1, 3, "2"), "n37": (37, 5, "5,2,2,8"),
                                   "n5000": (5000, 7, "2,3,4")}.items():
        cmds[f"batch_{label}"] = ["batch", "--n", str(n), "--seed", str(seed), "--dims", dims,
                                  "--output", f"batch_{label}.csv"]
    return cmds


def usage_commands(inputs: Path) -> dict[str, list[str]]:
    """label -> qcorr argv that argparse answers before any command runs: help
    (exit 0) or a usage error (exit 2)."""
    state = str(inputs / "bell_full.json")
    return {
        "usage_no_command": [],
        "usage_help": ["-h"],
        "usage_help_abbreviated": ["--he"],
        "usage_help_before_command": ["-h", "measure"],
        "usage_unknown_command": ["frobnicate"],
        "usage_unknown_flag_before_command": ["--bogus", "measure", "--state", state],
        "usage_dashdash_before_command": ["--", "measure", "--state", state],
        "usage_measure_help": ["measure", "-h"],
        "usage_evolve_help": ["evolve", "--help"],
        "usage_protocol_help_abbreviated": ["protocol", "--h"],
        "usage_batch_help": ["batch", "-h", "--n", "x"],
        "usage_measure_no_state": ["measure"],
        "usage_measure_state_without_value": ["measure", "--state"],
        "usage_measure_unknown_flag": ["measure", "--state", state, "--bogus"],
        "usage_measure_extra_positional": ["measure", "--state", state, "extra"],
        "usage_measure_dashdash": ["measure", "--", "--state", state],
        "usage_measure_bad_format": ["measure", "--state", state, "--format", "xml"],
        "usage_measure_bad_epsilon": ["measure", "--state", state, "--epsilon", "abc"],
        "usage_measure_flag_with_value": ["measure", "--state", state,
                                          "--include-local-bloch=yes"],
        "usage_protocol_bad_shots": ["protocol", "--state", state, "--shots", "abc"],
        "usage_evolve_points_without_value": ["evolve", "--points"],
        "usage_batch_extra_positionals": ["batch", "--n", "2", "extra", "more"],
    }


def run_side(src: Path, inputs: Path, workdir: Path) -> dict[str, bytes]:
    """Run every command with qcorr from ``src``; output name -> bytes."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("QCORR_LOG", None)
    probe = subprocess.run([sys.executable, "-c", "import qcorr; print(qcorr.__file__)"],
                           env=env, capture_output=True, text=True)
    found = Path(probe.stdout.strip()).resolve().parent if probe.returncode == 0 else None
    if found != src / "qcorr":
        sys.exit(f"compare_outputs: qcorr from {src} not importable "
                 f"(got {probe.stdout.strip() or probe.stderr.strip()})")
    workdir.mkdir()
    outputs = {}
    for label, argv in {**commands(inputs), **usage_commands(inputs)}.items():
        proc = subprocess.run([sys.executable, *PYTHON_FLAGS, "-m", "qcorr", *argv],
                              cwd=workdir, env=env, capture_output=True)
        outputs[f"{label}.stdout"] = proc.stdout
        outputs[f"{label}.stderr"] = proc.stderr
        outputs[f"{label}.exit"] = str(proc.returncode).encode()
    for path in sorted(workdir.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def number_difference(ours: bytes, theirs: bytes) -> str:
    """Largest |a - b| over the numbers at the same token positions, or
    "structure differs" when anything but those numbers differs."""
    a, b = NUMBER.split(ours), NUMBER.split(theirs)
    # split keeps the numbers at odd positions, the text between them at even ones
    if len(a) != len(b) or a[::2] != b[::2]:
        return "structure differs"
    largest = max((abs(float(x) - float(y)) for x, y in zip(a[1::2], b[1::2])), default=0.0)
    return f"largest number difference {largest:.3g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="src directory of the other checkout")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="qcorr-compare-") as tmp:
        tmp = Path(tmp)
        write_inputs(tmp / "inputs")
        ours = run_side(SRC, tmp / "inputs", tmp / "this")
        theirs = run_side(args.other_src.resolve(), tmp / "inputs", tmp / "other")
        succeeding = commands(tmp / "inputs")
    # a command that fails on both sides would compare equal and show nothing
    failed = sorted(f"{label}.exit" for label in succeeding if ours[f"{label}.exit"] != b"0")
    differ = sorted(name for name in ours.keys() | theirs.keys()
                    if ours.get(name) != theirs.get(name))
    for name in failed:
        print(f"failed here: {name[:-len('.exit')]} (exit {ours[name].decode()})")
    for name in differ:
        print(f"differs: {name} ({number_difference(ours.get(name, b''), theirs.get(name, b''))})")
    print(f"{len(ours.keys() | theirs.keys())} outputs compared, {len(differ)} differ")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
