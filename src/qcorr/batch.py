"""Seeded batch campaigns cross-checking the measures against each other.

Four families of checks run over freshly sampled random states:

* closed-form vs eigenvalue geometric discord (must agree to 1e-9),
* the ordering Q <= D_G (slack 1e-10),
* D_G >= N^2 on mixed two-qubit states (slack 1e-9),
* D_G = N^2 on pure two-qubit states (tolerance 1e-9).

Each campaign draws from its own child of the master seed, so reports
are reproducible and campaigns are insensitive to one another.
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
    """One campaign from its per-sample excess values: a violation is a value above
    tolerance, and ``worst`` is the largest value."""
    return CampaignResult(name=name, samples=values.size,
                          violations=int(np.count_nonzero(values > tolerance)),
                          worst=float(np.max(values)), tolerance=tolerance)


def run_batch_campaigns(n: int, seed: int, dims=(2, 3)) -> list[CampaignResult]:
    """Run every campaign with n samples each; deterministic in seed."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    dims = tuple(dims)
    children = iter(np.random.SeedSequence(seed).spawn(len(dims) + 2))

    def draw(d: int, max_rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n states of one campaign, drawn in one block from its own stream with
        ranks cycling through 1..max_rank, their S matrices and closed-form discord."""
        rhos = random_density_matrix(2 * d, rank=1 + np.arange(n) % max_rank,
                                     seed=np.random.default_rng(next(children)))
        s = s_matrix(bloch_decompose(rhos, d), d)
        return rhos, s, geometric_discord_closed(s)[0]

    results: list[CampaignResult] = []
    for d in dims:
        _, s, closed = draw(d, 2 * d)
        results.append(_campaign(f"closed_vs_eig[d={d}]",
                                 np.abs(closed - geometric_discord_eig(s)), CLOSED_VS_EIG_TOL))
        results.append(_campaign(f"order_q_le_dg[d={d}]", q_lower_bound(s) - closed, ORDER_TOL))
    # float_power is C pow, as is ** on the float negativity() returns for one
    # state, so N^2 matches the single-state value bit for bit; array ** 2
    # squares instead and differs by an ulp on about 0.1 % of inputs
    rhos, _, closed = draw(2, 4)
    results.append(_campaign("mixed_dg_ge_nsq", np.float_power(negativity(rhos), 2) - closed,
                             MIXED_BOUND_TOL))
    rhos, _, closed = draw(2, 1)
    results.append(_campaign("pure_dg_eq_nsq",
                             np.abs(closed - np.float_power(negativity(rhos), 2)),
                             PURE_IDENTITY_TOL))
    return results


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
