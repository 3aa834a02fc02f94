"""Quantum-correlation measures for 2 x d states.

Everything quadratic runs through the 3x3 Gram-type matrix
S = (x x^T + C C^T) / (2d) built from the Bloch data: the geometric
discord is D_G = 2 (tr[S] - k_max) with k_max the largest eigenvalue of
S, evaluated both through the explicit trigonometric closed form and
through LAPACK's symmetric eigensolver, two unrelated algorithms, so
each route can audit the other. The lower bound Q replaces the angular
factor of the closed form by its theta = 0 limit; a report takes D_G,
theta and Q from one pass over the trace invariants of S. For Bell-diagonal
two-qubit states the negativity of quantumness reduces to half the
intermediate |c_i|, and the usual partial-transpose negativity
(normalized to 1 on Bell states) is provided for two qubits; states in
the separable purity ball skip its eigensolver (see ``negativity``).

Every measure accepts leading stack axes (a stack of records, S
matrices or states) and then returns one value per item as an array;
a single input is the one-item case and returns plain numbers, with
None where a stack holds NaN.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochRecord, bloch_decompose
from .eigen import hermitian_asymmetry, hermitian_eigenvalues, sym3_eigenvalues

#: spread threshold on 3 tr[S^2] - tr[S]^2 below which the spectrum of S
#: is treated as fully degenerate and the angular factor is pinned to
#: theta = 0 (where the closed form and the eigenvalue route coincide).
DEGENERATE_SPREAD_TOL = 1e-14

#: Bloch components (x, y, off-diagonal C) must stay below this for a
#: state to count as Bell diagonal; channel evolution preserves the form
#: only up to round-off, hence a loose-ish gate.
BELL_DIAGONAL_TOL = 1e-8

#: relative margin of the purity test in ``negativity``: far above LAPACK's
#: backward error, far below the purity gap of any state worth diagonalizing
PPT_BALL_MARGIN = 1e-10
#: ||rho||_F / tr[rho] at the edge of the ball
_BALL_RADIUS = np.sqrt(1.0 / 3.0 - PPT_BALL_MARGIN)
#: picks Re rho_ii out of a flattened 4x4 complex matrix viewed as 32 floats, scaled
#: by _BALL_RADIUS
_BALL_TRACE_WEIGHTS = np.zeros(32)
_BALL_TRACE_WEIGHTS[::10] = _BALL_RADIUS
_BALL_TRACE_WEIGHTS.setflags(write=False)

UNITS_FULL = "eps^0"
UNITS_DEVIATION = "eps^2/eps^1"
_MEASURES = ("d_g", "q", "theta", "q_n", "negativity")  # the CorrelationReport columns
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
_OFF_DIAGONAL = 1.0 - _EYE3
_OFF_DIAGONAL.setflags(write=False)


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation measures of one state, or of a stack of states.

    ``theta`` is None when the spectrum of S is degenerate (the angle is
    0/0 there); ``q_n`` is None unless the state is Bell diagonal within
    tolerance; ``negativity`` is None for d > 2. ``units`` records the
    power of the thermal polarization the numbers carry: quadratic
    measures (d_g, q) scale as eps^2 and q_n as eps^1 in deviation units.

    The report of a stack holds one column per measure, a 1-D float array
    over the states in C order, with NaN where a one-state report holds None.
    It is also the sequence of those one-state reports: ``len``, indexing
    (negative too) and iteration give them, with NaN mapped back to None,
    and assigning a one-state report to an item writes it into the columns.

    d_g and q are not clamped at zero: on zero-discord states they may
    come out negative at round-off level (c = (1, 0, 0) gives d_g =
    -5.6e-17), so that cross-checks such as the batch campaigns see the
    raw round-off.
    """

    d_g: float | np.ndarray
    q: float | np.ndarray
    theta: float | np.ndarray | None
    q_n: float | np.ndarray | None
    negativity: float | np.ndarray | None
    units: str

    def __len__(self) -> int:
        return len(self.d_g)

    def __getitem__(self, i: int) -> CorrelationReport:
        d_g, q, *optional = (float(getattr(self, name)[i]) for name in _MEASURES)
        return CorrelationReport(d_g, q, *(None if v != v else v for v in optional), self.units)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __setitem__(self, i: int, report: CorrelationReport) -> None:
        for name in _MEASURES:
            value = getattr(report, name)
            getattr(self, name)[i] = np.nan if value is None else value

    def __eq__(self, other: object) -> bool:
        """Equal units and equal measures, column by column for a stack; NaN equals
        NaN and None equals None."""
        if not isinstance(other, CorrelationReport):
            return NotImplemented
        pairs = [(getattr(self, name), getattr(other, name)) for name in _MEASURES]
        return self.units == other.units and all(
            a is b if a is None or b is None
            else np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True)
            for a, b in pairs)

    def as_record(self) -> dict:
        return {name: getattr(self, name) for name in (*_MEASURES, "units")}


@np.errstate(over="ignore", invalid="ignore")  # inf, and NaN from inf * 0, pass on
def s_matrix(record: BlochRecord, d: int | None = None) -> np.ndarray:
    """S = (x x^T + C C^T) / (2d); real symmetric PSD 3x3, one per record."""
    if d is None:
        d = record.d
    x, c = record.x, record.C
    if x.shape[-1:] != (3,) or c.shape != x.shape[:-1] + (3, d * d - 1):
        raise ValueError(f"record shapes {x.shape}/{c.shape} do not match d={d}")
    return (x[..., :, None] * x[..., None, :] + c @ c.swapaxes(-1, -2)) / (2.0 * d)


def _det3(m: np.ndarray) -> np.ndarray:
    # entry views of a stack (axes reversed, and back by the last .T); scalars for one matrix
    a, b, c, d, e, f, g, h, i = m.reshape(m.shape[:-2] + (9,)).T
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)).T


def _symmetric_s(s_mat: np.ndarray) -> np.ndarray:
    """S as a float array; ValueError unless it is a (stack of) symmetric 3x3."""
    s = np.asarray(s_mat, dtype=float)
    if s.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {s.shape}")
    hermitian_asymmetry(s)
    return s


@np.errstate(over="ignore", invalid="ignore")  # S near the float limit: inf, NaN
def _closed_form(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_g, theta, q) of a float (stack of) symmetric 3x3 S in one pass over its
    trace invariants; theta is NaN where the spectrum is degenerate. tr[dev^2] =
    tr[S^2] - tr[S]^2/3 is a sum of squares, so the radical 6 tr[dev^2] never goes
    negative. S is taken as given: ``s_matrix`` output is exactly symmetric, and the
    public ``geometric_discord_closed`` and ``q_lower_bound`` check theirs."""
    t1 = 0.0 + s[..., 0, 0] + s[..., 1, 1] + s[..., 2, 2]  # np.trace's sum, from +0.0
    dev = s - (t1 / 3.0)[..., None, None] * _EYE3
    m2 = (dev * dev).reshape(dev.shape[:-2] + (9,)).sum(axis=-1)
    p = np.sqrt(m2 / 6.0)
    degenerate = 3.0 * m2 <= DEGENERATE_SPREAD_TOL
    # a degenerate S divides by 1 (p < 1e-7 there, and the max picks True = 1)
    unit = dev / np.maximum(p, degenerate)[..., None, None]
    r = np.where(degenerate, 1.0, np.minimum(np.maximum(_det3(unit) / 2.0, -1.0), 1.0))
    theta = np.arccos(r)
    t1, p = (4.0 / 3.0) * t1, 4.0 * p
    return t1 - p * np.cos(theta / 3.0), np.where(degenerate, np.nan, theta), t1 - p


def geometric_discord_closed(
    s_mat: np.ndarray,
) -> tuple[float | np.ndarray, float | np.ndarray | None]:
    """Geometric discord from the closed form, with the angle it used.

    D_G = (4/3) tr[S] - (2/3) sqrt(6 tr[S^2] - 2 tr[S]^2) cos(theta/3),
    theta = arccos{ sqrt(2) (2 tr[S]^3 - 9 tr[S] tr[S^2] + 9 tr[S^3])
                    (3 tr[S^2] - tr[S]^2)^(-3/2) }.

    The arccos argument is evaluated as det(dev/p) / 2 with dev the
    deviatoric part of S and p = sqrt(tr[dev^2]/6), which is the same
    number written without the cancellation-prone power sums, and is
    clamped to [-1, 1] against round-off. Degenerate spectra (where the
    argument is 0/0) take theta = 0 and return None for the angle (NaN
    in a stack).
    """
    d_g, theta, _ = _closed_form(_symmetric_s(s_mat))
    if theta.ndim == 0:
        return d_g, None if theta != theta else float(theta)
    return d_g, theta


def geometric_discord_eig(s_mat: np.ndarray) -> float | np.ndarray:
    """Geometric discord via the spectrum: 2 (tr[S] - k_max); NaN for an S
    with a non-finite entry, as from the closed form."""
    k_max = sym3_eigenvalues(s_mat)[..., 0]  # checks the shape and symmetry of S
    s = np.asarray(s_mat, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or NaN from inf - inf, passes on
        t1 = 0.0 + s[..., 0, 0] + s[..., 1, 1] + s[..., 2, 2]  # np.trace's sum, from +0.0
        d_g = 2.0 * (t1 - k_max)
    return float(d_g) if s.ndim == 2 else d_g


def q_lower_bound(s_mat: np.ndarray) -> float | np.ndarray:
    """Tight lower bound on the geometric discord (theta = 0 limit).

    Q = (4/3) tr[S] - (2/3) sqrt(6 tr[S^2] - 2 tr[S]^2), the q of the closed form's
    pass; the radical is computed as a sum of squares of the deviatoric part, hence >= 0.
    """
    return _closed_form(_symmetric_s(s_mat))[2]


def negativity_of_quantumness_bell(coeffs) -> float | np.ndarray:
    """Negativity of quantumness of Bell-diagonal states, from their coefficients
    (..., 3): the middle |c_i| / 2."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] != (3,):
        raise ValueError(f"expected 3 Bell coefficients, got shape {coeffs.shape}")
    q_n = np.sort(np.abs(coeffs), axis=-1)[..., 1] / 2.0
    return float(q_n) if coeffs.ndim == 1 else q_n


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose of two-qubit states over the second qubit."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial transpose implemented for dim 4 only, got {rho.shape}")
    lead = rho.shape[:-2]
    return np.swapaxes(rho.reshape(lead + (2, 2, 2, 2)), -3, -1).reshape(lead + (4, 4))


def _inside_separable_ball(rho: np.ndarray) -> bool:
    """True when every state of a two-qubit stack is certified PPT by its purity.

    With t = tr[A] and F = ||A||_F, Samuelson's inequality puts every
    eigenvalue of a Hermitian 4x4 A within sqrt(3/4 (F^2 - t^2/4)) of t/4.
    Both numbers are the same for rho and its partial transpose, so
    F < t sqrt(1/3 - PPT_BALL_MARGIN) gives lambda_min(rho^T_B) >=
    1.5 PPT_BALL_MARGIN t > 0. LAPACK solves the Hermitian matrix of one
    triangle, which differs from the Hermitian part of rho^T_B by at most
    sqrt(3) times the asymmetry of rho, so that must stay below half the
    margin too. A zero or negative trace, an overflow and NaN all fail
    the test. On a certified stack the Hermiticity check of
    ``hermitian_eigenvalues`` is run here, with its ValueError. A trajectory
    reads the same test off its Pauli coefficients (``channels._negativity``),
    where rho is Hermitian by construction and the check is moot.
    """
    entries = rho.reshape(-1, 16).view(float)
    with np.errstate(invalid="ignore"):  # inf * 0 or inf - inf: a NaN radius fails the test
        radius = entries @ _BALL_TRACE_WEIGHTS  # tr[rho] sqrt(1/3 - margin), item by item
    # einsum's summed squares overflow to inf without a warning, and an inf or NaN
    # norm fails the test
    norm = np.sqrt(np.einsum("ij,ij->i", entries, entries))
    if not (norm < radius).all():
        return False
    asymmetry = hermitian_asymmetry(rho)  # max |rho - rho^H| is that of rho^T_B
    return bool(asymmetry <= 0.5 * PPT_BALL_MARGIN * radius.min(initial=np.inf))


def negativity(rho: np.ndarray) -> float | np.ndarray:
    """Entanglement negativity of a two-qubit state, normalized so N(Bell) = 1.

    N = 2 sum |negative eigenvalues of the partial transpose|; zero for
    PPT states, NaN for a state with a non-finite entry. With this
    normalization D_G = N^2 on pure states and D_G >= N^2 in general.

    Two-qubit states with tr[rho^2] < 1/3 are separable (Zyczkowski,
    Horodecki, Sanpera and Lewenstein, PRA 58, 883, 1998), as the eps-close
    NMR states are (Braunstein et al., PRL 83, 1054, 1999). A stack whose every
    item lies inside that ball (``_inside_separable_ball``) returns zeros, the
    bytes the eigenvalue route gives, without diagonalizing; any other stack
    is diagonalized whole.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"negativity implemented for two qubits only, got shape {rho.shape}")
    if _inside_separable_ball(rho):
        return 0.0 if rho.ndim == 2 else np.zeros(rho.shape[:-2])
    neg = _spectral_negativity(rho)
    return float(neg) if rho.ndim == 2 else neg


def _spectral_negativity(rho: np.ndarray) -> np.ndarray:
    """``negativity`` of a complex (..., 4, 4) stack from the spectra of its partial
    transposes, without the purity test: the route for stacks that hold pure states,
    which lie outside the separable ball."""
    eigs = hermitian_eigenvalues(partial_transpose(rho))
    # NaN is not >= 0, so a NaN spectrum gives a NaN negativity
    return 2.0 * np.sum(np.where(eigs >= 0.0, 0.0, np.abs(eigs)), axis=-1)


def is_bell_diagonal(record: BlochRecord) -> bool | np.ndarray:
    """True when x, y and off-diagonal C vanish within BELL_DIAGONAL_TOL (d = 2)."""
    lead = record.x.shape[:-1]
    if record.d != 2:
        bell = np.zeros(lead, dtype=bool)
    else:
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN: a non-finite diagonal stays visible
            off = record.C * _OFF_DIAGONAL
        parts = (record.x, record.y, off.reshape(lead + (9,)))
        bell = np.abs(np.concatenate(parts, axis=-1)).max(axis=-1) <= BELL_DIAGONAL_TOL
    return bool(bell) if not lead else bell


def report_from_record(
    record: BlochRecord,
    *,
    rho: np.ndarray | None = None,
    units: str = UNITS_FULL,
) -> CorrelationReport:
    """Assemble a CorrelationReport from (already scaled) Bloch data.

    q_n is only filled in when the record is Bell diagonal within
    tolerance; negativity is evaluated on the accompanying full-state
    matrix when one is given and the system is two qubits. A stacked
    record, with a matching stack of states if any, gives one report of
    columns over the flattened stack; a single record is its one-item
    case and gives the report of plain numbers and None.
    """
    lead = record.x.ndim - 1
    if lead != 1:
        record = BlochRecord(*(a.reshape((-1,) + a.shape[lead:]) for a in
                               (record.x, record.y, record.C)))
    s = s_matrix(record)
    d_g, theta, q = _closed_form(s)
    middle = negativity_of_quantumness_bell(record.C.diagonal(axis1=-2, axis2=-1))
    q_n = np.where(is_bell_diagonal(record), middle, np.nan)
    two_qubits = rho is not None and rho.shape[-2:] == (4, 4)
    neg = negativity(rho.reshape(-1, 4, 4)) if two_qubits else np.full(d_g.shape, np.nan)
    report = CorrelationReport(d_g=d_g, q=q, theta=theta, q_n=q_n, negativity=neg, units=units)
    return report if lead else report[0]


def scaled_record(
    record: BlochRecord,
    *,
    epsilon: float | None = None,
    include_local_bloch: bool = True,
) -> tuple[BlochRecord, str]:
    """Bloch data in the units the measures are reported in, and those units.

    A positive finite epsilon (the thermal polarization) divides x, y and
    C, so d_g and q come out in units of eps^2 and q_n in units of eps;
    without one the data keep full units, and any other epsilon
    (zero, negative, infinite or NaN) is a ValueError. With
    ``include_local_bloch`` false the local Bloch vectors are zeroed,
    which evaluates the measures on the correlation part alone (the
    treatment under which Bell-diagonal dynamics stays Bell diagonal
    exactly). The arrays may carry leading stack axes.
    """
    if epsilon is not None and not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite (or None for full units), "
                         f"got {epsilon}")
    scale, units = (1.0, UNITS_FULL) if epsilon is None else (epsilon, UNITS_DEVIATION)
    if include_local_bloch:
        x, y = record.x / scale, record.y / scale
    else:
        x, y = np.zeros_like(record.x), np.zeros_like(record.y)
    return BlochRecord(x=x, y=y, C=record.C / scale), units


def full_report(
    rho: np.ndarray,
    *,
    deviation: np.ndarray | None = None,
    include_local_bloch: bool = True,
) -> CorrelationReport:
    """All correlation measures of a 2 x d state rho; for rho = I/(2d) + eps * deviation
    they may be read off the traceless ``deviation``, in units of eps^2 (d_g, q) and eps
    (q_n), with no round-off of rho divided by eps. The negativity is rho's."""
    rho = np.asarray(rho, dtype=complex)
    record = bloch_decompose(rho if deviation is None else deviation)
    if not include_local_bloch:  # in full units scaling would only divide by 1.0
        record, _ = scaled_record(record, include_local_bloch=False)
    units = UNITS_FULL if deviation is None else UNITS_DEVIATION
    return report_from_record(record, rho=rho, units=units)
