"""Reference constructions the library is tested against.

The library evolves relaxation through Pauli transfer matrices; the
operator-sum Kraus sets here are the independent model those matrices
are checked against. A Kraus set is a tuple of 2x2 operators. The scalar
spin-spin coupling is a separate unitary; Bell-diagonal states are
invariant under it. The second half keeps the report kernel and the PTM
build in their first form, the byte-level reference of the library's.
"""
import numpy as np

from qcorr.bloch import PAULIS, SIGMA_Z
from qcorr.eigen import hermitian_asymmetry, hermitian_eigenvalues


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
# The report kernel and the PTM build as first written, arithmetic verbatim.
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
