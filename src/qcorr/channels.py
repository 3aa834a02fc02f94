"""Open-system evolution of two-qubit states under NMR relaxation.

Each qubit relaxes through generalized amplitude damping toward the
thermal state (timescale T1), then phase damping (timescale T2), with
p(t) = 1 - exp(-t/T1), lambda(t) = 1 - exp(-t/T2) and gamma = 1/2 - eps/2,
eps being the thermal polarization. Evolution runs through the Pauli
transfer matrices of these channels, stacked over the time grid; the
tests check those matrices against the channels' operator-sum Kraus sets. A
trajectory reads its measures and the purity certificate of its negativity off
the Pauli coefficients; only points outside the separable ball become 4x4 states.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .bloch import PAULIS, BellDiagonalState, BlochRecord, _integer
from .eigen import hermitian_asymmetry
from .measures import CorrelationReport, _ball_negativity, report_from_record, scaled_record

COMPLETENESS_TOL = 1e-12

#: confirmation threshold for a sudden transition: the second difference
#: of d_g at the candidate must exceed this multiple of its median.
TRANSITION_SPIKE_FACTOR = 10.0
#: grid points the transition search needs: a switch after the first step, with a
#: second difference on each side of it
_MIN_TRANSITION_POINTS = 5

_PAULI_1Q = np.array([np.eye(2), *PAULIS])
#: sigma_i (x) sigma_j for i, j in (I, X, Y, Z), shape (4, 4, 4, 4)
_PAULI_PRODUCTS = np.einsum("iab,jcd->ijacbd", _PAULI_1Q, _PAULI_1Q).reshape(4, 4, 4, 4)
_PAULI_PRODUCTS.setflags(write=False)


def _real(value, name: str) -> float:
    """``value`` as a plain float, from one integer or float (numpy scalars and 0-d
    arrays included), or a ValueError naming ``name``: arrays, bools and strings are
    refused, as ``bloch._integer`` refuses bools."""
    array = np.asarray(value)
    if array.ndim or array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(array)


@dataclass(frozen=True)
class RelaxationParams:
    """Relaxation times (s), polarization and scalar coupling (Hz).

    Defaults are the chloroform values: hydrogen T1 = 3.57 s, T2 = 1.2 s;
    carbon T1 = 10 s, T2 = 0.19 s; J = 215.1 Hz; eps ~ 1e-5. Every field
    must be a real number (bools and strings are refused), finite and
    positive, and eps at most 1; each is stored as a plain float, so a numpy
    float32 eps cannot round gamma to float32.
    """

    t1_a: float = 3.57
    t2_a: float = 1.2
    t1_b: float = 10.0
    t2_b: float = 0.19
    epsilon: float = 1e-5
    j_coupling: float = 215.1

    def __post_init__(self):
        for f in fields(self):
            value = _real(getattr(self, f.name), f.name)
            if not 0 < value < np.inf:  # NaN fails
                raise ValueError(f"{f.name} must be positive and finite, got {value}")
            object.__setattr__(self, f.name, value)
        if not self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")


def completeness_defect(operators) -> float:
    """max |sum_k E_k^dag E_k - I| of a Kraus set; zero for a trace-preserving set."""
    acc = np.zeros((2, 2), dtype=complex)
    for op in operators:
        acc += op.conj().T @ op
    return float(np.max(np.abs(acc - np.eye(2))))


def apply_two_qubit_channel(rho: np.ndarray, kraus_a, kraus_b) -> np.ndarray:
    """Apply one channel per qubit: sum_ij (E_i (x) F_j) rho (E_i (x) F_j)^dag.

    kraus_a and kraus_b are sequences of 2x2 operators. The library evolves
    through transfer matrices and never calls this; it stays because the
    benchmark's traced run names it.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a two-qubit state, got shape {rho.shape}")
    for name, ks in (("A", kraus_a), ("B", kraus_b)):
        defect = completeness_defect(ks)
        if defect > COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus set for qubit {name} is not trace preserving "
                f"(completeness defect {defect:.3e})"
            )
    out = np.zeros((4, 4), dtype=complex)
    for ea in kraus_a:
        for eb in kraus_b:
            k = np.kron(ea, eb)
            out += k @ rho @ k.conj().T
    return (out + out.conj().T) / 2.0


def _build_ptm(p: np.ndarray, gamma: float, lam: np.ndarray) -> np.ndarray:
    """Pauli transfer matrix T_kl = tr[sigma_k L(sigma_l)] / 2, (I, X, Y, Z) order,
    of GAD(p, gamma) followed by PD(lam); arrays p, lam of one shape lead the (4, 4)."""
    ptm = np.zeros(p.shape + (4, 4))
    ptm[..., 0, 0] = 1.0
    ptm[..., 1, 1] = ptm[..., 2, 2] = np.sqrt(1.0 - p) * (1.0 - lam)
    ptm[..., 3, 0] = p * (2.0 * gamma - 1.0)
    ptm[..., 3, 3] = 1.0 - p
    return ptm


def _relax(r0: np.ndarray, times, params: RelaxationParams) -> np.ndarray:
    """R(t) = T_a(t) R0 T_b(t)^T over times, shape (n_t, 4, 4), from the Pauli
    coefficients R0_ij = tr[rho0 sigma_i (x) sigma_j] of the initial state. The
    times are not checked here: the caller passes finite non-negative ones, which
    with valid params give p and lambda in [0, 1] and gamma in [0, 1/2)."""
    # negated lifetimes: t / -T is exactly -(t / T), and t = 0 still gives +0.0
    lifetimes = np.array([[-params.t1_a], [-params.t1_b], [-params.t2_a], [-params.t2_b]])
    with np.errstate(over="ignore"):  # t/T = inf (subnormal T) is full relaxation
        decay = -np.expm1(times / lifetimes)  # p over T1, then lambda over T2
    # one PTM build for both qubits: qubit A in row 0, qubit B in row 1
    t_a, t_b = _build_ptm(decay[:2], 0.5 - params.epsilon / 2.0, decay[2:])
    return t_a @ r0 @ t_b.swapaxes(-1, -2)


def _states(r: np.ndarray) -> np.ndarray:
    """sum_ij R_ij sigma_i (x) sigma_j / 4 over a stack of coefficient matrices, in one matmul."""
    return (r.reshape(-1, 16) @ _PAULI_PRODUCTS.reshape(16, 16)).reshape(-1, 4, 4) / 4.0


def evolve(rho0: np.ndarray, t: float, params: RelaxationParams | None = None) -> np.ndarray:
    """State after relaxing for time t (seconds) from rho0.

    GAD comes before PD on each qubit (the two orders agree on all Bell
    coefficients). The channels form a semigroup, so evolving to each
    time from t = 0 is exact. t is one finite, non-negative real number (a
    numpy scalar or 0-d array too); an array of times, a string or a bool is a
    ValueError. rho0 must be finite and Hermitian within HERMITICITY_TOL: the
    Pauli coefficients hold its Hermitian part only.
    """
    t = _real(t, "t")
    if not 0 <= t < np.inf:  # NaN fails
        raise ValueError(f"time must be finite and non-negative, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ValueError(f"expected a two-qubit state, got shape {rho0.shape}")
    if not np.isfinite(rho0).all():
        raise ValueError("rho0 must be finite")
    hermitian_asymmetry(rho0)
    r0 = np.einsum("ijab,ba->ij", _PAULI_PRODUCTS, rho0).real
    times = np.array([t])
    return _states(_relax(r0, times, RelaxationParams() if params is None else params))[0]


def _negativity(r: np.ndarray) -> np.ndarray:
    """Negativity of the states of a coefficient stack R (n, 4, 4), as a fresh array.

    ``measures._ball_negativity`` with tr[rho] = R_00 and ||rho||_F^2 = sum_ij R_ij^2 / 4:
    only the points outside the ball are built as states, Hermitian by construction, and
    diagonalized.
    """
    flat = r.reshape(-1, 16)
    # summed squares that overflow are inf, and an inf or NaN norm fails the test
    norm = np.sqrt(np.einsum("ij,ij->i", flat, flat)) / 2.0
    # numpy's matmul sums a single row in another order than a stack: build two at least
    return _ball_negativity(norm, flat[:, 0], lambda rows: _states(
        r[np.resize(rows, max(rows.size, 2))])[:rows.size])


@dataclass
class Trajectory:
    """Time series of an evolving two-qubit state with its measures, by column:
    ``times`` (n,), ``bell_coeffs`` (n, 3) and the stacked CorrelationReport
    ``reports`` of (n,) columns, NaN where a one-state report holds None;
    ``reports`` is also the sequence of the n one-state reports. No 4x4 state is
    kept: the negativity's purity certificate is read off the Pauli coefficients."""

    times: np.ndarray
    bell_coeffs: np.ndarray
    reports: CorrelationReport = field(repr=False)


def make_trajectory(
    state0: BellDiagonalState,
    params: RelaxationParams | None = None,
    t_max: float | None = None,
    dt: float | None = None,
    n_points: int = 251,
    include_local_bloch: bool = False,
) -> Trajectory:
    """Evolve a Bell-diagonal state over a uniform time grid.

    The grid is t_i = i * dt for i = 0 .. n_points-1; by default dt is one
    quarter of the scalar-coupling period, 1/(4J), with 251 points. Give
    either t_max (then dt = t_max/(n_points - 1)) or dt, not both. Every
    point is evolved directly from t = 0. For a deviation-mode input the
    extracted Bloch data are divided by eps, so reported measures carry
    eps^2 (d_g, q) and eps (q_n) units.

    ``include_local_bloch`` controls whether the longitudinal local
    polarization that amplitude damping builds up enters the S matrix of
    the reports. Off by default: the reference treatment evaluates the
    measures on the Bell-diagonal correlation part alone, which is what
    makes q_n available along the whole trajectory.
    """
    n_points = _integer(n_points, "n_points")
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    if params is None:
        params = RelaxationParams()
    if t_max is not None and dt is not None:
        raise ValueError("give either t_max or dt, not both")
    if t_max is not None:
        t_max = _real(t_max, "t_max")
        if not t_max > 0:
            raise ValueError(f"t_max must be positive, got {t_max}")
        dt = t_max / (n_points - 1)
    elif dt is None:
        dt = 1.0 / (4.0 * params.j_coupling)
    else:
        dt = _real(dt, "dt")
    if not (0 < dt and (n_points - 1) * dt < np.inf):
        raise ValueError(f"dt must be positive and finite over {n_points} points, got {dt}")

    eps = params.epsilon if state0.mode == "deviation" else None
    coeffs0 = state0.coefficients if eps is None else eps * state0.coefficients
    times = np.arange(n_points) * dt
    # the Bell-diagonal state (I + sum_i c_i sigma_i (x) sigma_i) / 4 has R = diag(1, c)
    r = _relax(np.diag((1.0, *coeffs0.tolist())), times, params)
    stacked = BlochRecord(x=r[:, 1:, 0], y=r[:, 0, 1:], C=r[:, 1:, 1:])
    rec, units = scaled_record(stacked, epsilon=eps, include_local_bloch=include_local_bloch)
    reports = report_from_record(rec, negativity=_negativity(r), units=units)
    coeffs = np.diagonal(rec.C, axis1=1, axis2=2).copy()
    return Trajectory(times=times, bell_coeffs=coeffs, reports=reports)


@dataclass(frozen=True)
class TransitionPoint:
    """Grid point where the dominant Bell coefficient changes identity."""

    t_star: float
    index: int


def detect_transition(traj: Trajectory) -> TransitionPoint | None:
    """Locate a sudden transition in a trajectory, if any.

    A candidate is a grid point where the argmax of (|c1|, |c2|, |c3|)
    differs from the previous point; switches at the very first step are
    ignored (a tie at t = 0 resolving itself is not a transition). The
    candidate is confirmed when the second difference of d_g next to it
    spikes above TRANSITION_SPIKE_FACTOR times the median second
    difference. Returns the first confirmed point, or None.

    The median runs over the whole grid, so the spike test needs a grid
    fine and long enough that the slope jump of d_g stands out against its
    curvature times dt. At dt = 5 ms the deviation state c = (0.8, -0.7,
    0.45) switches at index 20: over 60 points it goes unconfirmed (spike
    2.5e-3, limit 3.3e-3), over 100 points it is confirmed.
    """
    n = len(traj.times)
    if n < _MIN_TRANSITION_POINTS:
        raise ValueError(f"trajectory must have at least {_MIN_TRANSITION_POINTS} points, "
                         f"got {n}")
    dominant = np.argmax(np.abs(traj.bell_coeffs), axis=1)
    switches = np.flatnonzero(dominant[2:] != dominant[1:-1]) + 2
    if not switches.size:
        return None
    d_g = traj.reports.d_g
    second = np.abs(d_g[2:] - 2.0 * d_g[1:-1] + d_g[:-2])  # second[k] sits at grid k+1
    # the kink at switch i lies in (t_{i-1}, t_i): check the second difference at both
    # ends, only the left one at the last grid point
    spike = np.maximum(second[switches - 2], second[np.minimum(switches - 1, n - 3)])
    ordered = np.sort(second)
    if ordered[-1] != ordered[-1]:  # NaN sorts last; the median is NaN, which no spike exceeds
        return None
    k = second.size // 2  # np.median's value without its first-call import of numpy.ma
    median = ordered[k] if second.size % 2 else (ordered[k - 1] + ordered[k]) / 2.0
    hits = switches[spike > TRANSITION_SPIKE_FACTOR * median]
    if not hits.size:
        return None
    return TransitionPoint(t_star=float(traj.times[hits[0]]), index=int(hits[0]))


def one_sided_slopes(values, times, index: int) -> tuple[float, float]:
    """(left, right) single-step difference quotients at a grid index."""
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    if not 1 <= index <= len(values) - 2:
        raise ValueError(f"index {index} needs one neighbor on each side")
    left = (values[index] - values[index - 1]) / (times[index] - times[index - 1])
    right = (values[index + 1] - values[index]) / (times[index + 1] - times[index])
    return float(left), float(right)
