"""Seeded batch campaigns cross-checking the measures against each other.

Four families of checks run over freshly sampled random states:

* closed-form vs eigenvalue geometric discord (must agree to 1e-9),
* the ordering Q <= D_G (slack 1e-10),
* D_G >= N^2 on mixed two-qubit states (slack 1e-9),
* D_G = N^2 on pure two-qubit states (tolerance 1e-9).

Each campaign draws from its own child of the master seed, so reports
are reproducible and campaigns are insensitive to one another. The sample
index is walked in chunks of c samples, with c = CHUNK_ENTRIES // max over
d of (rows_d 4 d^2), at least 1, where rows_d counts the campaigns on 2 x d
states. Within a chunk the campaigns that share a d are one padded block:
one sampler call, one ``bloch_decompose`` and one ``s_matrix``, with the
two-qubit campaigns as a view of the d = 2 block. One closed-form pass
over the chunk's (campaign, c) stack of S matrices gives D_G and Q, the
eigenvalue route runs once over the 2 x d rows, and the two-qubit states
go straight to the spectral route of the negativity: the pure ones lie
outside the separable ball, so its purity test could never pass. Each
works item by item, so every value is the one a call per campaign gives,
bit for bit. One pass over a (check, c) table scores every campaign, and
violations and the worst value accumulate across chunks. Each campaign's
generator carries its stream from chunk to chunk, so the chunk size never
shows in a report, and memory stays flat in n: no block holds more than
CHUNK_ENTRIES complex entries unless the rows of one sample alone do
(then c = 1).
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bloch import bloch_decompose, random_density_matrix
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
    """Run every campaign with n samples each; deterministic in seed."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    dims = tuple(dims)
    k = len(dims)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(k + 2)]
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
