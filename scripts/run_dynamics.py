#!/usr/bin/env python3
"""Reference relaxation runs for the two standard initial states.

Evolves the all-equal-coefficient state (monotone decay) and the
mixed-rate state (sudden transition) over the default grid, writes one
CSV per state and prints the transition analysis with one-sided slopes
of every measure around the detected point.

Usage: python scripts/run_dynamics.py [--outdir data] [--points 251]
"""
import argparse
from pathlib import Path

from qcorr import (
    BellDiagonalState,
    RelaxationParams,
    detect_transition,
    make_trajectory,
    one_sided_slopes,
)
from qcorr.channels import _MIN_TRANSITION_POINTS
from qcorr.io import format_float, serialize_trajectory

STATES = {
    "equal_coefficients": BellDiagonalState(0.2, -0.2, 0.2, mode="deviation"),
    "mixed_rates": BellDiagonalState(0.5, -0.06, 0.24, mode="deviation"),
}


def grid_points(text: str) -> int:
    """--points: an integer, at least the points the transition search needs."""
    points = int(text)
    if points < _MIN_TRANSITION_POINTS:
        raise argparse.ArgumentTypeError(
            f"the transition search needs at least {_MIN_TRANSITION_POINTS} points, got {points}")
    return points


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="data")
    parser.add_argument("--points", type=grid_points, default=251)
    parser.add_argument("--include-local-bloch", action="store_true",
                        help="fold the damping-induced local polarization into S")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    params = RelaxationParams()
    print(f"relaxation: T1 = {params.t1_a}/{params.t1_b} s, "
          f"T2 = {params.t2_a}/{params.t2_b} s, J = {params.j_coupling} Hz, "
          f"eps = {params.epsilon}")

    for name, state in STATES.items():
        traj = make_trajectory(
            state, params, n_points=args.points,
            include_local_bloch=args.include_local_bloch,
        )
        path = outdir / f"{name}.csv"
        path.write_text(serialize_trajectory(traj, "csv"))
        print(f"\n{name}: c = ({state.c1}, {state.c2}, {state.c3})  ->  {path}")
        hit = detect_transition(traj)
        if hit is None:
            print("  no sudden transition on the grid")
            continue
        print(f"  sudden transition at t* = {format_float(hit.t_star)} s "
              f"(grid index {hit.index})")
        for key in ("d_g", "q", "q_n"):
            left, right = one_sided_slopes(getattr(traj.reports, key), traj.times, hit.index)
            gap = abs(left - right) / max(abs(left), abs(right))
            print(f"    {key:<3} slopes: left {format_float(left)}, "
                  f"right {format_float(right)}  (split {gap:.1%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
