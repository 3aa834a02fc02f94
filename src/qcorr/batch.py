"""Seeded batch campaigns cross-checking the measures against each other.

Four families of checks run over freshly sampled random states:

* closed-form vs eigenvalue geometric discord (must agree to 1e-9),
* the ordering Q <= D_G (slack 1e-10),
* D_G >= N^2 on mixed two-qubit states (slack 1e-9),
* D_G = N^2 on pure two-qubit states (tolerance 1e-9).

Each campaign draws from its own child of the master seed, so reports
are reproducible and campaigns are insensitive to one another. Samples
are walked in chunks whose sampler blocks, one per d, hold at most
CHUNK_ENTRIES complex entries (or one sample), so memory stays flat in n.
Every measure runs once per chunk over its stack, item by item: each value
is the one a call per campaign gives, bit for bit, and since each generator
carries its stream across chunks, the chunk size never shows in a report.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bloch import _integer, _seed, bloch_decompose, random_density_matrix
from .io import format_float, render_table
from .measures import _closed_form, _spectral_negativity, geometric_discord_eig, s_matrix

CLOSED_VS_EIG_TOL = 1e-9
ORDER_TOL = 1e-10
MIXED_BOUND_TOL = 1e-9
PURE_IDENTITY_TOL = 1e-9
#: complex entries of the padded Ginibre block one chunk draws for one dimension
CHUNK_ENTRIES = 2**16


@dataclass(frozen=True)
class CampaignResult:
    name: str
    samples: int
    violations: int
    worst: float
    tolerance: float


def _score(table: np.ndarray, tolerances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a (campaign, sample) table of excess values: the violations, values
    not within the row's tolerance (NaN included), and the largest value (NaN if any is)."""
    return np.count_nonzero(~(table <= tolerances[:, None]), axis=1), np.max(table, axis=1)


def run_batch_campaigns(n: int, seed: int, dims=(2, 3)) -> list[CampaignResult]:
    """Run every campaign with n samples each; deterministic in seed.

    n and every entry of dims are integers (numpy integers included, bools refused).
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    dims = tuple(_integer(d, "every entry of dims") for d in dims)
    k = len(dims)
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(_seed(seed)).spawn(k + 2)]
    # rows: each 2 x d pair, then mixed and pure two qubits; ranks cycle 1..max_rank
    max_ranks = np.array([2 * d for d in dims] + [4, 1])
    # one block per dimension, its rows ascending, so the two-qubit rows close the d = 2 block
    rows_of = {}
    for row, d in enumerate(dims + (2, 2)):
        rows_of.setdefault(d, []).append(row)
    chunk = max(1, CHUNK_ENTRIES // max(len(rows) * 4 * d * d for d, rows in rows_of.items()))
    # per block, fixed across chunks: its rows, their (rows, 1) rank cycles, their generators
    blocks = [(d, rows, max_ranks[rows, None], [rngs[row] for row in rows])
              for d, rows in rows_of.items()]
    tolerances = np.array([CLOSED_VS_EIG_TOL, ORDER_TOL] * k + [MIXED_BOUND_TOL,
                                                                 PURE_IDENTITY_TOL])
    violations, worst = np.zeros(2 * k + 2, dtype=int), np.full(2 * k + 2, -np.inf)
    for start in range(0, n, chunk):
        index = np.arange(start, min(start + chunk, n))
        s = np.empty((k + 2, index.size, 3, 3))
        for d, rows, ranks, gens in blocks:
            rhos = random_density_matrix(2 * d, rank=1 + index % ranks, seed=gens)
            s[rows] = s_matrix(bloch_decompose(rhos, d), d)
            if d == 2:
                two_qubit = rhos[-2:]
        closed, _, q = _closed_form(s)
        # the pure rows lie outside the separable ball, so the purity test of
        # negativity() always fails on this stack and its spectral route runs;
        # float_power is C pow, as is ** on the float negativity() returns for one
        # state, so N^2 matches the single-state value bit for bit; array ** 2
        # squares instead and differs by an ulp on about 0.1 % of inputs
        nsq = np.float_power(_spectral_negativity(two_qubit), 2)
        # rows: each 2 x d pair's closed_vs_eig and order_q_le_dg, then mixed and pure
        table = np.empty((2 * k + 2, index.size))
        table[0:2 * k:2] = np.abs(closed[:k] - geometric_discord_eig(s[:k]))
        table[1:2 * k:2] = q[:k] - closed[:k]
        table[-2] = nsq[0] - closed[k]
        table[-1] = np.abs(closed[k + 1] - nsq[1])
        count, top = _score(table, tolerances)
        violations += count
        worst = np.maximum(worst, top)  # NaN stays NaN
    names = [f"{check}[d={d}]" for d in dims for check in ("closed_vs_eig", "order_q_le_dg")]
    names += ["mixed_dg_ge_nsq", "pure_dg_eq_nsq"]
    return [CampaignResult(name, n, *values) for name, *values
            in zip(names, violations.tolist(), worst.tolist(), tolerances.tolist())]


def render_batch_report(results: list[CampaignResult], fmt: str = "text") -> str:
    if fmt != "text":
        return render_table({f.name: [getattr(r, f.name) for r in results]
                             for f in fields(CampaignResult)}, fmt)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "ok" if r.violations == 0 else "VIOLATED"
        lines.append(
            f"{r.name:<{width}}  samples={r.samples}  violations={r.violations}  "
            f"worst={format_float(r.worst)}  tol={format_float(r.tolerance)}  [{status}]"
        )
    return "\n".join(lines) + "\n"
