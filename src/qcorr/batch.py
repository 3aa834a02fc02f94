"""Seeded batch campaigns cross-checking the measures against each other.

Four families of checks run over freshly sampled random states:

* closed-form vs eigenvalue geometric discord (must agree to 1e-9),
* the ordering Q <= D_G (slack 1e-10),
* D_G >= N^2 on mixed two-qubit states (slack 1e-9),
* D_G = N^2 on pure two-qubit states (tolerance 1e-9).

Each campaign draws from its own child of the master seed, so reports
are reproducible and campaigns are insensitive to one another. Only S and
the two two-qubit state stacks are kept, and each measure runs once over
the (campaign, n) stack; it works item by item, so every value is the
one a call per campaign gives, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bloch import bloch_decompose, random_density_matrix
from .io import format_float, render_table
from .measures import geometric_discord_closed, geometric_discord_eig, negativity, \
    q_lower_bound, s_matrix

CLOSED_VS_EIG_TOL = 1e-9
ORDER_TOL = 1e-10
MIXED_BOUND_TOL = 1e-9
PURE_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class CampaignResult:
    name: str
    samples: int
    violations: int
    worst: float
    tolerance: float


def _campaign(name: str, values: np.ndarray, tolerance: float) -> CampaignResult:
    """One campaign from its per-sample excess values: a violation is a value not
    within tolerance (NaN included), and ``worst`` is the largest value."""
    return CampaignResult(name=name, samples=values.size,
                          violations=int(np.count_nonzero(~(values <= tolerance))),
                          worst=float(np.max(values)), tolerance=tolerance)


def run_batch_campaigns(n: int, seed: int, dims=(2, 3)) -> list[CampaignResult]:
    """Run every campaign with n samples each; deterministic in seed."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    dims = tuple(dims)
    k = len(dims)
    children = iter(np.random.SeedSequence(seed).spawn(k + 2))
    s, two_qubit = np.empty((k + 2, n, 3, 3)), np.empty((2, n, 4, 4), dtype=complex)
    # rows: each 2 x d pair, then mixed and pure two qubits; ranks cycle 1..max_rank
    for row, (d, max_rank) in enumerate([(d, 2 * d) for d in dims] + [(2, 4), (2, 1)]):
        rhos = random_density_matrix(2 * d, rank=1 + np.arange(n) % max_rank,
                                     seed=np.random.default_rng(next(children)))
        s[row] = s_matrix(bloch_decompose(rhos, d), d)
        if row >= k:
            two_qubit[row - k] = rhos
    closed = geometric_discord_closed(s)[0]
    gap = np.abs(closed[:k] - geometric_discord_eig(s[:k]))
    order = q_lower_bound(s[:k]) - closed[:k]
    # float_power is C pow, as is ** on the float negativity() returns for one
    # state, so N^2 matches the single-state value bit for bit; array ** 2
    # squares instead and differs by an ulp on about 0.1 % of inputs
    nsq = np.float_power(negativity(two_qubit), 2)
    results = []
    for row, d in enumerate(dims):
        results += [_campaign(f"closed_vs_eig[d={d}]", gap[row], CLOSED_VS_EIG_TOL),
                    _campaign(f"order_q_le_dg[d={d}]", order[row], ORDER_TOL)]
    return results + [_campaign("mixed_dg_ge_nsq", nsq[0] - closed[k], MIXED_BOUND_TOL),
                      _campaign("pure_dg_eq_nsq", np.abs(closed[k + 1] - nsq[1]),
                                PURE_IDENTITY_TOL)]


def total_violations(results: list[CampaignResult]) -> int:
    return sum(r.violations for r in results)


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
