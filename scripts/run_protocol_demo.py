#!/usr/bin/env python3
"""Direct local-measurement protocol versus full decomposition.

Runs the 12-readout protocol on a Bell-diagonal state, compares the
resulting measures with the decomposition-based values, and shows how
the shot-noise error of the correlation estimates falls off as the
number of simulated readout repetitions grows.

Usage: python scripts/run_protocol_demo.py [--c 0.5 -0.3 0.2] [--seed 7]
"""
import argparse

import numpy as np

from qcorr import (
    BellDiagonalState,
    bloch_decompose,
    geometric_discord_closed,
    measurement_budget,
    q_lower_bound,
    run_direct_protocol,
    s_matrix,
)
from qcorr.io import format_float


def seed(text: str) -> int:
    """--seed: a non-negative integer, as numpy's SeedSequence takes."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--c", nargs=3, type=float, default=[0.5, -0.3, 0.2],
                        metavar=("C1", "C2", "C3"))
    parser.add_argument("--seed", type=seed, default=7)
    args = parser.parse_args()

    try:
        state = BellDiagonalState(*args.c)
    except ValueError as exc:  # outside the Bell tetrahedron, or not finite
        parser.error(f"argument --c: {exc}")
    rho = state.density_matrix()
    direct, tomography = measurement_budget(2)
    print(f"readout budget: direct {direct} vs full reconstruction {tomography}")

    exact = run_direct_protocol(rho)
    tomo = bloch_decompose(rho)
    s_direct = s_matrix(exact)
    s_tomo = s_matrix(tomo)
    for label, s in (("direct", s_direct), ("decomposition", s_tomo)):
        d_g, _ = geometric_discord_closed(s)
        print(f"{label:>14}: d_g = {format_float(d_g)}, "
              f"q = {format_float(q_lower_bound(s))}")
    print(f"max |direct - decomposition| over C: "
          f"{format_float(np.max(np.abs(exact.C - tomo.C)))}")

    print("\nshot-noise convergence (rms error of the 9 correlation readouts):")
    print(f"{'shots':>10}  {'rms error':>12}")
    for shots in (100, 1_000, 10_000, 100_000, 1_000_000):
        noisy = run_direct_protocol(rho, shots=shots, seed=args.seed)
        rms = float(np.sqrt(np.mean((noisy.C - exact.C) ** 2)))
        print(f"{shots:>10}  {rms:>12.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
