"""Reference constructions the library is tested against.

The library evolves relaxation through Pauli transfer matrices; the
operator-sum Kraus sets here are the independent model those matrices
are checked against. A Kraus set is a tuple of 2x2 operators. The scalar
spin-spin coupling is a separate unitary; Bell-diagonal states are
invariant under it. The second half keeps the Ginibre sampler, the report
kernel, the batch campaigns, the PTM build and the JSON renderers in their
first form, the byte-level reference of the library's.
"""
import functools
import json

import numpy as np

from qcorr.batch import CLOSED_VS_EIG_TOL, MIXED_BOUND_TOL, ORDER_TOL, PURE_IDENTITY_TOL
from qcorr.bloch import PAULIS, SIGMA_Z, bloch_decompose
from qcorr.eigen import hermitian_asymmetry, hermitian_eigenvalues, sym3_eigenvalues


def gad_kraus(p: float, gamma: float) -> tuple[np.ndarray, ...]:
    """Generalized amplitude damping with decay probability p and bias gamma.

    E0 = sqrt(g) diag(1, sqrt(1-p))        E1 = sqrt(g)   sqrt(p) |0><1|
    E2 = sqrt(1-g) diag(sqrt(1-p), 1)      E3 = sqrt(1-g) sqrt(p) |1><0|

    gamma = 1/2 leaves the channel unital; gamma = 1/2 - eps/2 drives the
    qubit toward the eps-polarized thermal state.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    sg, sgbar = np.sqrt(gamma), np.sqrt(1.0 - gamma)
    sp, spbar = np.sqrt(p), np.sqrt(1.0 - p)
    return (
        sg * np.array([[1, 0], [0, spbar]], dtype=complex),
        sg * np.array([[0, sp], [0, 0]], dtype=complex),
        sgbar * np.array([[spbar, 0], [0, 1]], dtype=complex),
        sgbar * np.array([[0, 0], [sp, 0]], dtype=complex),
    )


def pd_kraus(lam: float) -> tuple[np.ndarray, ...]:
    """Phase damping: E4 = sqrt(1 - lam/2) I, E5 = sqrt(lam/2) sigma_z.

    Scales coherences by 1 - lam and leaves populations alone.
    """
    if not 0 <= lam <= 1:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return (
        np.sqrt(1.0 - lam / 2.0) * np.eye(2, dtype=complex),
        np.sqrt(lam / 2.0) * SIGMA_Z.astype(complex),
    )


def j_coupling_unitary(j: float, t: float) -> np.ndarray:
    """exp(-i 2 pi J t (sigma_z (x) sigma_z) / 4) for scalar coupling J (Hz)."""
    phase = 2.0 * np.pi * j * t / 4.0
    zz = np.array([1.0, -1.0, -1.0, 1.0])
    return np.diag(np.exp(-1j * phase * zz))


# ---------------------------------------------------------------------------
# The sampler, the report kernel, the campaigns and the PTM build as first written,
# arithmetic verbatim.
# The library computes the same floating-point operations in the same order
# with fewer numpy calls; test_bit_identity.py holds it to these bytes.

_EYE3 = np.eye(3)
_BELL_DIAGONAL_TOL = 1e-8
_DEGENERATE_SPREAD_TOL = 1e-14
_PPT_BALL_MARGIN = 1e-10
_BALL_TRACE_WEIGHTS = np.zeros(32)
_BALL_TRACE_WEIGHTS[::10] = np.sqrt(1.0 / 3.0 - _PPT_BALL_MARGIN)
_PAULI_1Q = np.array([np.eye(2), *PAULIS])
_PAULI_PRODUCTS = np.einsum("iab,jcd->ijacbd", _PAULI_1Q, _PAULI_1Q).reshape(4, 4, 4, 4)


@functools.cache
def _column_index(dim: int) -> np.ndarray:
    """(2, dim, dim) column index of each real and imaginary entry of a dim x dim G."""
    index = np.broadcast_to(np.arange(dim), (2, dim, dim)).copy()
    index.setflags(write=False)
    return index


def random_density_matrix(
    dim: int, rank: int | np.ndarray | None = None,
    seed: int | np.random.Generator | list | tuple = 0,
) -> np.ndarray:
    """The Ginibre sampler as first written: one array of normals per row, joined with
    ``np.concatenate`` and written through a boolean mask into a transposed view of G's
    floats; the trace normalisation and the halving divide the complex entries."""
    ranks = np.asarray(dim if rank is None else rank)
    if ranks.ndim > 2 or ranks.size == 0 or ranks.dtype.kind not in "iu":
        raise ValueError(f"rank must be an integer or a 1-D or 2-D integer array, got {rank!r}")
    if ranks.ndim < 2:
        seeds = [seed]
    elif isinstance(seed, (list, tuple)) and len(seed) == len(ranks):
        seeds = seed
    else:
        raise ValueError(f"a rank of shape {ranks.shape} takes a list of {len(ranks)} seeds, "
                         f"got {seed!r}")
    # builtin min/max/sum: cheaper than numpy's on a few ranks, and no integer overflow
    rows = ranks.reshape(len(seeds), -1).tolist()
    if min(map(min, rows)) < 1 or max(map(max, rows)) > dim:
        raise ValueError(f"rank must lie in [1, {dim}], got {rank}")
    # each state takes its 2 * dim * rank normals as (2, dim, rank) in C order: the real
    # parts of the first rank columns of G, then the imaginary parts, written straight
    # into G's float view; the rows' streams follow one another in the block's C order
    draws = [np.random.default_rng(s).standard_normal(2 * dim * sum(row))  # a Generator as is
             for s, row in zip(seeds, rows)]
    g = np.zeros((ranks.size, dim, dim), dtype=complex)
    parts = g.view(float).reshape(ranks.size, dim, dim, 2).transpose(0, 3, 1, 2)
    parts[_column_index(dim) < ranks.reshape(-1, 1, 1, 1)] = \
        draws[0] if len(draws) == 1 else np.concatenate(draws)
    h = g @ g.conj().swapaxes(1, 2)
    h /= h.trace(axis1=1, axis2=2).real[:, None, None]
    h += h.conj().swapaxes(1, 2)
    h /= 2.0
    return h.reshape(ranks.shape + (dim, dim))


def s_matrix(x: np.ndarray, c: np.ndarray, d: int) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return (x[..., :, None] * x[..., None, :] + c @ np.swapaxes(c, -1, -2)) / (2.0 * d)


def det3(m: np.ndarray) -> np.ndarray:
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(m, (-2, -1), (0, 1))
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def trace_invariants(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = np.trace(s, axis1=-2, axis2=-1)
        dev = s - (t1 / 3.0)[..., None, None] * _EYE3
        m2 = np.sum((dev * dev).reshape(dev.shape[:-2] + (9,)), axis=-1)
    return t1, m2, dev


def closed_form(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_g, theta, q) of a stack of symmetric S."""
    t1, m2, dev = trace_invariants(s)
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.sqrt(m2 / 6.0)
        degenerate = 3.0 * m2 <= _DEGENERATE_SPREAD_TOL
        unit = dev / np.where(degenerate, 1.0, p)[..., None, None]
        r = np.where(degenerate, 1.0, np.clip(det3(unit) / 2.0, -1.0, 1.0))
        theta = np.arccos(r)
        d_g = (4.0 / 3.0) * t1 - 4.0 * p * np.cos(theta / 3.0)
        return d_g, np.where(degenerate, np.nan, theta), (4.0 / 3.0) * t1 - 4.0 * p


def q_lower_bound(s: np.ndarray) -> np.ndarray:
    """Q = (4/3) tr[S] - (2/3) sqrt(6 tr[S^2] - 2 tr[S]^2) in its own pass over the
    trace invariants, as the batch campaigns first took it."""
    t1, m2, _ = trace_invariants(s)
    with np.errstate(over="ignore", invalid="ignore"):
        return (4.0 / 3.0) * t1 - 4.0 * np.sqrt(m2 / 6.0)


def geometric_discord_eig(s: np.ndarray):
    """2 (tr[S] - k_max) with the trace from np.trace; a float for one S."""
    k_max = sym3_eigenvalues(s)[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        d_g = 2.0 * (np.trace(s, axis1=-2, axis2=-1) - k_max)
    return float(d_g) if s.ndim == 2 else d_g


def is_bell_diagonal(x: np.ndarray, y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Bell-diagonal verdicts of a (n,)-stack of two-qubit records."""
    with np.errstate(invalid="ignore"):
        off = c * (1.0 - _EYE3)
    parts = (x, y, off.reshape(x.shape[:-1] + (9,)))
    return np.max(np.abs(np.concatenate(parts, axis=-1)), axis=-1) <= _BELL_DIAGONAL_TOL


def q_n(x: np.ndarray, y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Middle |c_i| / 2 where the record is Bell diagonal, NaN elsewhere."""
    middle = np.sort(np.abs(np.diagonal(c, axis1=-2, axis2=-1)), axis=-1)[..., 1] / 2.0
    return np.where(is_bell_diagonal(x, y, c), middle, np.nan)


def negativity(rho: np.ndarray) -> np.ndarray:
    """Negativity of an (n, 4, 4) stack: zeros when the purity ball certifies every
    state (with the Hermiticity check of the eigen layer), else the eigenvalue route."""
    entries = rho.reshape(-1, 16).view(float)
    with np.errstate(invalid="ignore"):
        radius = entries @ _BALL_TRACE_WEIGHTS
    norm = np.sqrt(np.einsum("ij,ij->i", entries, entries))
    if (norm < radius).all() and (hermitian_asymmetry(rho)
                                  <= 0.5 * _PPT_BALL_MARGIN * np.min(radius, initial=np.inf)):
        return np.zeros(rho.shape[:-2])
    lead = rho.shape[:-2]
    eigs = hermitian_eigenvalues(
        np.swapaxes(rho.reshape(lead + (2, 2, 2, 2)), -3, -1).reshape(lead + (4, 4)))
    return 2.0 * np.sum(np.where(eigs >= 0.0, 0.0, np.abs(eigs)), axis=-1)


def campaigns(n: int, seed: int, dims) -> list[tuple]:
    """(name, samples, violations, worst.hex(), tolerance) of each batch campaign,
    rebuilt from one-state draws and the measures above, one state at a time."""
    children = iter(np.random.SeedSequence(seed).spawn(len(dims) + 2))

    def draw(d, max_rank):
        rng = np.random.default_rng(next(children))
        samples = []
        for i in range(n):
            rho = random_density_matrix(2 * d, rank=1 + i % max_rank, seed=rng)
            record = bloch_decompose(rho, d)
            samples.append((rho, s_matrix(record.x, record.C, d)))
        return samples

    def campaign(name, values, tol):
        return name, n, sum(not v <= tol for v in values), float(np.max(values)).hex(), tol

    results = []
    for d in dims:
        samples = draw(d, 2 * d)
        closed = [closed_form(s)[0] for _, s in samples]
        results.append(campaign(f"closed_vs_eig[d={d}]",
                                [abs(c - geometric_discord_eig(s))
                                 for c, (_, s) in zip(closed, samples)], CLOSED_VS_EIG_TOL))
        results.append(campaign(f"order_q_le_dg[d={d}]",
                                [q_lower_bound(s) - c for c, (_, s) in zip(closed, samples)],
                                ORDER_TOL))
    # float(...) ** 2 is C pow, the power the single-state negativity's float takes
    mixed = [(float(negativity(rho)) ** 2, closed_form(s)[0]) for rho, s in draw(2, 4)]
    results.append(campaign("mixed_dg_ge_nsq", [nsq - dg for nsq, dg in mixed],
                            MIXED_BOUND_TOL))
    pure = [(float(negativity(rho)) ** 2, closed_form(s)[0]) for rho, s in draw(2, 1)]
    results.append(campaign("pure_dg_eq_nsq", [abs(dg - nsq) for nsq, dg in pure],
                            PURE_IDENTITY_TOL))
    return results


def local_ptm(p, gamma: float, lam) -> np.ndarray:
    p, lam = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(lam, dtype=float))
    ptm = np.zeros(p.shape + (4, 4))
    ptm[..., 0, 0] = 1.0
    ptm[..., 1, 1] = ptm[..., 2, 2] = np.sqrt(1.0 - p) * (1.0 - lam)
    ptm[..., 3, 0] = p * (2.0 * gamma - 1.0)
    ptm[..., 3, 3] = 1.0 - p
    return ptm


def relax(r0: np.ndarray, times: np.ndarray, params) -> np.ndarray:
    """R(t) = T_a(t) R0 T_b(t)^T over a grid of finite non-negative times."""
    gamma = 0.5 - params.epsilon / 2.0
    t1, t2 = np.array([[[params.t1_a], [params.t1_b]], [[params.t2_a], [params.t2_b]]])
    with np.errstate(over="ignore"):
        t_a, t_b = local_ptm(-np.expm1(-times / t1), gamma, -np.expm1(-times / t2))
    return t_a @ r0 @ np.swapaxes(t_b, -1, -2)


def pauli_states(r: np.ndarray) -> np.ndarray:
    """sum_ij R_ij sigma_i (x) sigma_j / 4 over a stack of coefficient matrices."""
    return (r.reshape(-1, 16) @ _PAULI_PRODUCTS.reshape(16, 16)).reshape(-1, 4, 4) / 4.0


# ---------------------------------------------------------------------------
# The JSON renderers as first written, verbatim: a dict per table row and a
# dump_json call per cell. test_bit_identity.py holds io's renderers to these bytes.

def format_float(x: float) -> str:
    return format(float(x), ".15g")


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    raise TypeError(f"cannot serialize {type(v)!r}")


def dump_json(value, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting (insertion-ordered keys)."""
    pad = " " * indent
    if isinstance(value, dict):
        items = [f'{pad}  {json.dumps(str(k))}: {dump_json(v, indent + 2).lstrip()}'
                 for k, v in value.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        rendered = [dump_json(v, indent + 2).lstrip() for v in value]
        return pad + "[" + ", ".join(rendered) + "]"
    return pad + _json_scalar(value)


def render_json_table(table: dict) -> str:
    """The JSON branch of ``io.render_table``: one dict per row, NaN array cells as None."""
    if not isinstance(next(iter(table.values())), (list, np.ndarray)):
        return dump_json(table) + "\n"
    columns = [[None if v != v else v for v in col.tolist()]
               if isinstance(col, np.ndarray) else col for col in table.values()]
    return dump_json([dict(zip(table, row)) for row in zip(*columns)]) + "\n"
