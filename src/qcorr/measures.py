"""Quantum-correlation measures for 2 x d states.

Everything quadratic runs through the 3x3 Gram-type matrix
S = (x x^T + C C^T) / (2d) built from the Bloch data: the geometric
discord is D_G = 2 (tr[S] - k_max) with k_max the largest eigenvalue of
S, evaluated both through the explicit trigonometric closed form and
through LAPACK's symmetric eigensolver, two unrelated algorithms, so
each route can audit the other. The lower bound Q replaces the angular
factor of the closed form by its theta = 0 limit. For Bell-diagonal
two-qubit states the negativity of quantumness reduces to half the
intermediate |c_i|, and the usual partial-transpose negativity
(normalized to 1 on Bell states) is provided for two qubits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BellDiagonalState, BlochRecord, bloch_decompose
from .eigen import SYMMETRY_TOL, hermitian_eigenvalues, sym3_eigenvalues

#: spread threshold on 3 tr[S^2] - tr[S]^2 below which the spectrum of S
#: is treated as fully degenerate and the angular factor is pinned to
#: theta = 0 (where the closed form and the eigenvalue route coincide).
DEGENERATE_SPREAD_TOL = 1e-14

#: Bloch components (x, y, off-diagonal C) must stay below this for a
#: state to count as Bell diagonal; channel evolution preserves the form
#: only up to round-off, hence a loose-ish gate.
BELL_DIAGONAL_TOL = 1e-8

UNITS_FULL = "eps^0"
UNITS_DEVIATION = "eps^2/eps^1"


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation measures of one state.

    ``theta`` is None when the spectrum of S is degenerate (the angle is
    0/0 there); ``q_n`` is None unless the state is Bell diagonal within
    tolerance; ``negativity`` is None for d > 2. ``units`` records the
    power of the thermal polarization the numbers carry: quadratic
    measures (d_g, q) scale as eps^2 and q_n as eps^1 in deviation mode.
    """

    d_g: float
    q: float
    theta: float | None
    q_n: float | None
    negativity: float | None
    units: str

    def as_record(self) -> dict:
        return {
            "d_g": self.d_g,
            "q": self.q,
            "theta": self.theta,
            "q_n": self.q_n,
            "negativity": self.negativity,
            "units": self.units,
        }


def s_matrix(record: BlochRecord, d: int | None = None) -> np.ndarray:
    """S = (x x^T + C C^T) / (2d); real symmetric PSD 3x3."""
    if d is None:
        d = record.d
    nb = d * d - 1
    if record.x.shape != (3,) or record.C.shape != (3, nb):
        raise ValueError(
            f"record shapes {record.x.shape}/{record.C.shape} do not match d={d}"
        )
    return (np.outer(record.x, record.x) + record.C @ record.C.T) / (2.0 * d)


def _check_smatrix(s_mat: np.ndarray) -> np.ndarray:
    s = np.asarray(s_mat, dtype=float)
    if s.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {s.shape}")
    if np.max(np.abs(s - s.T)) > SYMMETRY_TOL:
        raise ValueError("S matrix is not symmetric within 1e-12")
    return s


def _det3(m: np.ndarray) -> float:
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _trace_invariants(s: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(tr[S], tr[dev^2], dev) with dev the traceless part of S.

    tr[dev^2] = tr[S^2] - tr[S]^2/3 is evaluated as a sum of squares, so
    the radical 6 tr[S^2] - 2 tr[S]^2 = 6 tr[dev^2] of the closed form
    can never go negative through rounding.
    """
    t1 = float(np.trace(s))
    dev = s - (t1 / 3.0) * np.eye(3)
    m2 = float(np.sum(dev * dev))
    return t1, m2, dev


def geometric_discord_closed(s_mat: np.ndarray) -> tuple[float, float | None]:
    """Geometric discord from the closed form, with the angle it used.

    D_G = (4/3) tr[S] - (2/3) sqrt(6 tr[S^2] - 2 tr[S]^2) cos(theta/3),
    theta = arccos{ sqrt(2) (2 tr[S]^3 - 9 tr[S] tr[S^2] + 9 tr[S^3])
                    (3 tr[S^2] - tr[S]^2)^(-3/2) }.

    The arccos argument is evaluated as det(dev/p) / 2 with dev the
    deviatoric part of S and p = sqrt(tr[dev^2]/6), which is the same
    number written without the cancellation-prone power sums, and is
    clamped to [-1, 1] against round-off. Degenerate spectra (where the
    argument is 0/0) take theta = 0 and return None for the angle.
    """
    s = _check_smatrix(s_mat)
    t1, m2, dev = _trace_invariants(s)
    p = np.sqrt(m2 / 6.0)
    if 3.0 * m2 <= DEGENERATE_SPREAD_TOL:
        return (4.0 / 3.0) * t1 - 4.0 * p, None
    r = float(np.clip(_det3(dev / p) / 2.0, -1.0, 1.0))
    theta = float(np.arccos(r))
    return (4.0 / 3.0) * t1 - 4.0 * p * np.cos(theta / 3.0), theta


def geometric_discord_eig(s_mat: np.ndarray) -> float:
    """Geometric discord via the spectrum: 2 (tr[S] - k_max)."""
    s = _check_smatrix(s_mat)
    return 2.0 * (float(np.trace(s)) - float(sym3_eigenvalues(s)[0]))


def q_lower_bound(s_mat: np.ndarray) -> float:
    """Tight lower bound on the geometric discord (theta = 0 limit).

    Q = (4/3) tr[S] - (2/3) sqrt(6 tr[S^2] - 2 tr[S]^2); the radical is
    computed as a sum of squares of the deviatoric part, hence >= 0.
    """
    s = _check_smatrix(s_mat)
    t1, m2, _ = _trace_invariants(s)
    return (4.0 / 3.0) * t1 - 4.0 * np.sqrt(m2 / 6.0)


def negativity_of_quantumness_bell(state) -> float:
    """Negativity of quantumness of a Bell-diagonal state: middle |c_i| / 2.

    Accepts a BellDiagonalState or a length-3 coefficient sequence.
    """
    if isinstance(state, BellDiagonalState):
        coeffs = state.coefficients
    else:
        coeffs = np.asarray(state, dtype=float)
        if coeffs.shape != (3,):
            raise ValueError(f"expected 3 Bell coefficients, got shape {coeffs.shape}")
    return float(np.sort(np.abs(coeffs))[1]) / 2.0


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose of a two-qubit state over the second qubit."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial transpose implemented for dim 4 only, got {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(rho: np.ndarray) -> float:
    """Entanglement negativity of a two-qubit state, normalized so N(Bell) = 1.

    N = 2 sum |negative eigenvalues of the partial transpose|; zero for
    PPT states. With this normalization D_G = N^2 on pure states and
    D_G >= N^2 in general.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"negativity implemented for two qubits only, got shape {rho.shape}")
    eigs = hermitian_eigenvalues(partial_transpose(rho))
    return float(2.0 * np.sum(np.abs(eigs[eigs < 0.0])))


def is_bell_diagonal(record: BlochRecord, tol: float = BELL_DIAGONAL_TOL) -> bool:
    """True when x, y and the off-diagonal part of C vanish within tol (d = 2)."""
    if record.d != 2:
        return False
    off = record.C - np.diag(np.diagonal(record.C))
    return bool(
        np.max(np.abs(record.x)) <= tol
        and np.max(np.abs(record.y)) <= tol
        and np.max(np.abs(off)) <= tol
    )


def report_from_record(
    record: BlochRecord,
    d: int | None = None,
    rho: np.ndarray | None = None,
    units: str = UNITS_FULL,
) -> CorrelationReport:
    """Assemble a CorrelationReport from (already scaled) Bloch data.

    q_n is only filled in when the record is Bell diagonal within
    tolerance; negativity is evaluated on the accompanying full-state
    matrix when one is given and the system is two qubits.
    """
    if d is None:
        d = record.d
    s = s_matrix(record, d)
    d_g, theta = geometric_discord_closed(s)
    q = q_lower_bound(s)
    q_n = None
    if is_bell_diagonal(record):
        q_n = negativity_of_quantumness_bell(np.diagonal(record.C))
    neg = None
    if rho is not None and rho.shape == (4, 4):
        neg = negativity(rho)
    return CorrelationReport(d_g=d_g, q=q, theta=theta, q_n=q_n, negativity=neg, units=units)


def scaled_record(
    record: BlochRecord,
    mode: str = "full",
    epsilon: float | None = None,
    include_local_bloch: bool = True,
) -> tuple[BlochRecord, str]:
    """Bloch data in the units the measures are reported in, and those units.

    In ``deviation`` mode x, y and C are divided by epsilon, so d_g and q
    come out in units of eps^2 and q_n in units of eps. With
    ``include_local_bloch`` false the local Bloch vectors are zeroed,
    which evaluates the measures on the correlation part alone (the
    treatment under which Bell-diagonal dynamics stays Bell diagonal
    exactly). The arrays may carry leading stack axes.
    """
    if mode == "full":
        scale, units = 1.0, UNITS_FULL
    elif mode == "deviation":
        if epsilon is None or not epsilon > 0:
            raise ValueError("deviation mode requires a positive epsilon")
        scale, units = epsilon, UNITS_DEVIATION
    else:
        raise ValueError(f"mode must be 'full' or 'deviation', got {mode!r}")
    if include_local_bloch:
        x, y = record.x / scale, record.y / scale
    else:
        x, y = np.zeros_like(record.x), np.zeros_like(record.y)
    return BlochRecord(x=x, y=y, C=record.C / scale), units


def full_report(
    rho: np.ndarray,
    d: int | None = None,
    mode: str = "full",
    epsilon: float | None = None,
    include_local_bloch: bool = True,
) -> CorrelationReport:
    """All correlation measures of a state, in the units of ``scaled_record``."""
    rho = np.asarray(rho, dtype=complex)
    record = bloch_decompose(rho, d)
    scaled, units = scaled_record(record, mode, epsilon, include_local_bloch)
    return report_from_record(scaled, record.d, rho=rho, units=units)
