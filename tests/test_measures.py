import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import classical_quantum_state, random_bell_state
from oracles import random_unitary
from qcorr import (
    BellDiagonalState,
    BlochRecord,
    bloch_decompose,
    full_report,
    geometric_discord_closed,
    geometric_discord_eig,
    hermitian_eigenvalues,
    is_bell_diagonal,
    negativity,
    negativity_of_quantumness_bell,
    q_lower_bound,
    random_density_matrix,
    report_from_record,
    s_matrix,
    sym3_eigenvalues,
)
from qcorr.measures import (
    BELL_DIAGONAL_TOL,
    DEGENERATE_SPREAD_TOL,
    PPT_BALL_MARGIN,
    partial_transpose,
    scaled_record,
)


def bell_record(c1, c2, c3):
    return BlochRecord(x=np.zeros(3), y=np.zeros(3), C=np.diag([c1, c2, c3]))


def test_s_matrix_bell_diagonal_shortcut():
    s = s_matrix(bell_record(0.5, -0.06, 0.24))
    assert np.allclose(s, np.diag([0.0625, 0.0009, 0.0144]), atol=1e-16)


def test_s_matrix_product_state():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    rec = bloch_decompose(np.outer(ket, ket.conj()))
    assert np.allclose(s_matrix(rec), np.diag([0.0, 0.0, 0.5]), atol=1e-15)


def test_s_matrix_zero_record():
    assert np.array_equal(s_matrix(bell_record(0, 0, 0)), np.zeros((3, 3)))


def test_s_matrix_shape_check():
    with pytest.raises(ValueError):
        s_matrix(bell_record(0, 0, 0), d=3)


def test_discord_closed_bell_state_degenerate():
    d_g, theta = geometric_discord_closed(np.diag([0.25, 0.25, 0.25]))
    assert theta is None
    assert d_g == pytest.approx(1.0, abs=1e-15)


def test_discord_reference_values():
    # all-equal coefficients 0.2: fully degenerate S, D_G = Q = 0.04
    s1 = s_matrix(bell_record(0.2, -0.2, 0.2))
    d_g, theta = geometric_discord_closed(s1)
    assert theta is None
    assert abs(d_g - 0.04) <= 1e-12
    assert abs(q_lower_bound(s1) - 0.04) <= 1e-12
    assert abs(geometric_discord_eig(s1) - 0.04) <= 1e-12
    # coefficients (0.5, 0.06, 0.24): D_G = (0.06^2 + 0.24^2)/2 = 0.0306
    s2 = s_matrix(bell_record(0.5, -0.06, 0.24))
    d_g2, theta2 = geometric_discord_closed(s2)
    assert theta2 is not None and 0.0 <= theta2 <= np.pi
    assert abs(d_g2 - 0.0306) <= 1e-12
    assert abs(geometric_discord_eig(s2) - 0.0306) <= 1e-12
    assert q_lower_bound(s2) <= d_g2


def test_discord_eig_trivial_cases():
    assert geometric_discord_eig(np.zeros((3, 3))) == 0.0
    assert geometric_discord_eig(np.diag([0.5, 0.3, 0.1])) == pytest.approx(0.8, abs=1e-15)


def test_discord_eig_rejects_bad_s():
    asymmetric = np.diag([0.3, 0.2, 0.1])
    asymmetric[0, 1] = 0.05
    for bad in (asymmetric, np.array([np.eye(3), asymmetric])):
        with pytest.raises(ValueError, match="symmetric"):
            geometric_discord_eig(bad)
    for shape in ((3,), (2, 2), (3, 4), (5, 3, 2)):
        with pytest.raises(ValueError, match="3x3"):
            geometric_discord_eig(np.zeros(shape))


def test_closed_form_rejects_bad_s():
    # the public views check S, as the eigenvalue route does; _closed_form takes it as given
    asymmetric = np.diag([0.3, 0.2, 0.1])
    asymmetric[0, 1] = 0.05
    for view in (geometric_discord_closed, q_lower_bound):
        for bad in (asymmetric, np.array([np.eye(3), asymmetric])):
            with pytest.raises(ValueError, match="symmetric"):
                view(bad)
        for shape in ((3,), (2, 2), (3, 4), (5, 3, 2)):
            with pytest.raises(ValueError, match="3x3"):
                view(np.zeros(shape))
        # a nested list is taken as its float array
        assert view(np.eye(3).tolist()) == view(np.eye(3))


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("n", [1, 2, 51])
def test_s_matrix_is_exactly_symmetric(d, n):
    # the report path and the campaigns hand s_matrix output to the closed form unchecked
    rng = np.random.default_rng(1000 * d + n)
    rho = random_density_matrix(2 * d, rng.integers(1, 2 * d + 1, n), seed=rng)
    record = bloch_decompose(rho, d)
    for exponent in (-150, -50, 0, 50, 150):
        scale = 10.0 ** exponent * rng.uniform(0.5, 2.0, (n, 1))
        scaled = BlochRecord(x=record.x * scale, y=record.y * scale,
                             C=record.C * scale[..., None])
        s = s_matrix(scaled, d)
        assert np.array_equal(s, s.swapaxes(-1, -2)), exponent
    # non-contiguous views, as the trajectory reads x and C off R[:, 1:, 0] and R[:, 1:, 1:]
    big = rng.standard_normal((n, 4, d * d))
    views = BlochRecord(x=big[:, 1:, 0], y=big[:, 0, 1:], C=big[:, 1:, 1:])
    assert not views.C.flags.c_contiguous
    s = s_matrix(views, d)
    assert np.array_equal(s, s.swapaxes(-1, -2))


def test_q_bound_degenerate_equality():
    assert q_lower_bound(np.diag([0.25, 0.25, 0.25])) == pytest.approx(1.0, abs=1e-15)


def test_negativity_of_quantumness_values():
    assert negativity_of_quantumness_bell((0.5, 0.06, 0.24)) == pytest.approx(0.12)
    assert negativity_of_quantumness_bell((0.2, 0.2, 0.2)) == pytest.approx(0.10)
    assert negativity_of_quantumness_bell(BellDiagonalState(1, -1, 1).coefficients) == pytest.approx(0.5)


def test_negativity_product_state():
    ket = np.zeros(4, dtype=complex)
    ket[1] = 1.0
    assert negativity(np.outer(ket, ket.conj())) <= 1e-14


def test_negativity_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    assert negativity(np.outer(phi, phi.conj())) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(0.0, np.pi / 2))
@settings(max_examples=60)
def test_negativity_schmidt_pure_states(angle):
    # a|00> + b|11| has partial-transpose negativity 2ab
    a, b = np.cos(angle), np.sin(angle)
    ket = np.zeros(4, dtype=complex)
    ket[0], ket[3] = a, b
    rho = np.outer(ket, ket.conj())
    assert negativity(rho) == pytest.approx(2 * a * b, abs=1e-12)


def test_negativity_rejects_other_dimensions():
    with pytest.raises(ValueError):
        negativity(np.eye(6) / 6.0)


def test_full_report_reference_states():
    state = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation")
    rep = full_report(state.density_matrix(epsilon=1e-5), deviation=state.deviation_matrix())
    assert abs(rep.d_g - 0.0306) <= 1e-12
    assert abs(rep.q_n - 0.12) <= 1e-12
    assert rep.units == "eps^2/eps^1"
    assert rep.negativity == pytest.approx(0.0, abs=1e-12)


def test_full_report_maximally_mixed():
    rep = full_report(np.eye(4) / 4.0)
    assert rep.d_g == pytest.approx(0.0, abs=1e-15)
    assert rep.q == pytest.approx(0.0, abs=1e-15)
    assert rep.q_n == pytest.approx(0.0, abs=1e-15)
    assert rep.negativity == pytest.approx(0.0, abs=1e-15)


def test_full_report_pure_state_identity():
    rng = np.random.default_rng(31)
    for _ in range(200):
        rho = random_density_matrix(4, rank=1, seed=rng)
        rep = full_report(rho)
        assert abs(rep.d_g - rep.negativity**2) <= 1e-9


def test_full_report_qn_absent_off_bell_form():
    rho = random_density_matrix(4, seed=17)
    rep = full_report(rho)
    assert rep.q_n is None
    assert rep.negativity is not None


def test_full_report_d3_has_no_negativity():
    rho = random_density_matrix(6, seed=19)
    rep = full_report(rho)
    assert rep.negativity is None
    assert rep.d_g >= -1e-12


@pytest.mark.parametrize("epsilon", [0.0, -1e-5, np.nan, np.inf, -np.inf])
def test_full_report_rejects_a_non_positive_epsilon(epsilon):
    # full_report reads eps units off a deviation; the report path's epsilon, for
    # trajectories and shot readouts, is scaled_record's
    with pytest.raises(ValueError, match="epsilon"):
        scaled_record(bloch_decompose(np.eye(4) / 4.0), epsilon=epsilon)


def test_is_bell_diagonal_gate():
    assert is_bell_diagonal(bell_record(0.3, 0.2, -0.1))
    rec = BlochRecord(x=np.array([1e-6, 0, 0]), y=np.zeros(3), C=np.diag([0.3, 0.2, 0.1]))
    assert not is_bell_diagonal(rec)
    with np.errstate(invalid="ignore"):  # the off-diagonal mask turns inf * 0 into NaN
        for bad in (np.inf, -np.inf, np.nan):
            assert not is_bell_diagonal(bell_record(bad, 0.2, 0.1))


def closed_form_by_parts(s):
    """(D_G, theta, Q) written out as separate formulas over S: the closed form
    with its angle, and the theta = 0 bound."""
    t1 = np.trace(s, axis1=-2, axis2=-1)
    dev = s - (t1 / 3.0)[..., None, None] * np.eye(3)
    m2 = np.sum((dev * dev).reshape(dev.shape[:-2] + (9,)), axis=-1)
    p = np.sqrt(m2 / 6.0)
    degenerate = 3.0 * m2 <= DEGENERATE_SPREAD_TOL
    m = np.moveaxis(dev / np.where(degenerate, 1.0, p)[..., None, None], (-2, -1), (0, 1))
    det = (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
           - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
           + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
    theta = np.arccos(np.where(degenerate, 1.0, np.clip(det / 2.0, -1.0, 1.0)))
    d_g = (4.0 / 3.0) * t1 - 4.0 * p * np.cos(theta / 3.0)
    q = (4.0 / 3.0) * t1 - 4.0 * np.sqrt(m2 / 6.0)
    return d_g, np.where(degenerate, np.nan, theta), q


def bell_gate_by_parts(record, tol=BELL_DIAGONAL_TOL):
    off = record.C * (1.0 - np.eye(3))
    return ((np.max(np.abs(record.x), axis=-1) <= tol)
            & (np.max(np.abs(record.y), axis=-1) <= tol)
            & (np.max(np.abs(off), axis=(-2, -1)) <= tol))


@given(st.integers(0, 2**32 - 1), st.integers(0, 12),
       st.sampled_from(["random", "mixed", "degenerate"]))
@settings(max_examples=120)
@example(seed=0, n=1, kind="degenerate")
def test_report_columns_equal_separate_formulas(seed, n, kind):
    # d_g, theta and q from the one shared pass must be the separate formulas' bytes;
    # degenerate rows have x = 0 and C = a O with O orthogonal, so S = a^2 I / 4
    rng = np.random.default_rng(seed)
    x, y = rng.normal(0.0, 0.3, (2, n, 3))
    c = rng.normal(0.0, 0.3, (n, 3, 3))
    flat = rng.random(n) < {"random": 0.0, "mixed": 0.5, "degenerate": 1.0}[kind]
    x[flat] = 0.0
    c[flat] = rng.uniform(0.0, 1.0, (flat.sum(), 1, 1)) * np.linalg.qr(
        rng.normal(size=(flat.sum(), 3, 3)))[0]
    # Bell-diagonal rows, exact or off by about the gate's tolerance
    bell = rng.random(n) < 0.4
    size = rng.choice([0.0, 1e-9, 1e-8, 1e-7], (bell.sum(), 1))
    x[bell], y[bell] = size * rng.normal(size=(2, bell.sum(), 3))
    c[bell] = (np.eye(3) * rng.uniform(-1.0, 1.0, (bell.sum(), 1, 3))
               + size[:, :, None] * rng.normal(size=(bell.sum(), 3, 3)) * (1.0 - np.eye(3)))
    record = BlochRecord(x=x, y=y, C=c)
    s = s_matrix(record, 2)
    d_g, theta, q = closed_form_by_parts(s)
    report = report_from_record(record)
    for got, want in ((report.d_g, d_g), (report.theta, theta), (report.q, q),
                      (q_lower_bound(s), q), *zip(geometric_discord_closed(s), (d_g, theta))):
        assert got.tobytes() == want.tobytes()
    gate = bell_gate_by_parts(record)
    assert np.array_equal(is_bell_diagonal(record), gate)
    middle = np.sort(np.abs(np.diagonal(c, axis1=1, axis2=2)), axis=1)[:, 1]
    q_n = np.where(gate, middle / 2.0, np.nan)
    assert report.q_n.tobytes() == q_n.tobytes()
    for i in range(n):  # the one-S view of the shared pass
        closed_i, theta_i = geometric_discord_closed(s[i])
        assert closed_i == d_g[i] and (theta_i is None) == np.isnan(theta[i])
        assert theta_i is None or theta_i == theta[i]


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=150)
def test_closed_form_matches_eigenvalue_route(seed, d):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(2 * d, rank=int(rng.integers(1, 2 * d + 1)), seed=rng)
    s = s_matrix(bloch_decompose(rho, d), d)
    assert np.max(np.abs(s - s.T)) == 0  # Gram-type sum, symmetric as stored
    assert sym3_eigenvalues(s)[-1] >= -1e-10
    closed, _ = geometric_discord_closed(s)
    assert abs(closed - geometric_discord_eig(s)) <= 1e-9


def test_eigenvalue_route_is_independent_of_closed_form():
    # a doubly degenerate top eigenvalue puts the closed form's arccos at
    # theta = pi, where it loses about half the digits; the spectral route
    # must not share that weakness
    rng = np.random.default_rng(2012)
    for _ in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = q @ np.diag([0.2025, 0.2025, 0.16]) @ q.T
        assert abs(geometric_discord_eig(s) - 2.0 * (np.trace(s) - 0.2025)) <= 1e-14


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_order_q_below_discord(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(4, rank=int(rng.integers(1, 5)), seed=rng)
    s = s_matrix(bloch_decompose(rho))
    closed, _ = geometric_discord_closed(s)
    assert q_lower_bound(s) <= closed + 1e-10


def test_zero_discord_on_classical_quantum_states():
    rng = np.random.default_rng(77)
    for _ in range(300):
        chi = classical_quantum_state(rng)
        closed, _ = geometric_discord_closed(s_matrix(bloch_decompose(chi)))
        assert closed <= 1e-10


def test_mixed_state_negativity_bound_and_range():
    rng = np.random.default_rng(55)
    for i in range(500):
        rho = random_density_matrix(4, rank=1 + i % 4, seed=rng)
        closed, _ = geometric_discord_closed(s_matrix(bloch_decompose(rho)))
        assert closed >= negativity(rho) ** 2 - 1e-9
        assert -1e-12 <= closed <= 1.0 + 1e-10


def test_local_unitary_invariance():
    rng = np.random.default_rng(88)
    for trial in range(40):
        state = random_bell_state(rng)
        rho = state.density_matrix()
        u = np.kron(random_unitary(2, seed=rng), random_unitary(2, seed=rng))
        rotated = u @ rho @ u.conj().T
        s0 = s_matrix(bloch_decompose(rho))
        s1 = s_matrix(bloch_decompose(rotated))
        assert abs(geometric_discord_closed(s0)[0] - geometric_discord_closed(s1)[0]) <= 1e-10
        assert abs(q_lower_bound(s0) - q_lower_bound(s1)) <= 1e-10
        # q_n via the singular values of C is unitarily invariant as well
        c0 = np.sort(np.abs(np.linalg.svd(bloch_decompose(rho).C, compute_uv=False)))
        c1 = np.sort(np.abs(np.linalg.svd(bloch_decompose(rotated).C, compute_uv=False)))
        assert np.max(np.abs(c0 - c1)) <= 1e-10


def test_report_units_annotation():
    rep = full_report(np.eye(4) / 4.0)
    assert rep.units == "eps^0"
    assert set(rep.as_record()) == {"d_g", "q", "theta", "q_n", "negativity", "units"}
    for state in (np.eye(4) / 4.0, BellDiagonalState(0.5, -0.3, 0.1).density_matrix()):
        rep = full_report(state)
        assert list(rep.as_record().items()) == list(dataclasses.asdict(rep).items())


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]), st.integers(1, 12))
@settings(max_examples=60)
def test_stacked_measures_equal_single_calls(seed, d, n):
    # one stack through every measure must reproduce the one-state calls
    # exactly; Bell-diagonal states (a degenerate S, q_n defined) are mixed in
    rng = np.random.default_rng(seed)
    rhos = [random_density_matrix(2 * d, rank=int(rng.integers(1, 2 * d + 1)), seed=rng)
            for _ in range(n)]
    if d == 2:
        rhos[0] = BellDiagonalState(0.2, -0.2, 0.2).density_matrix()
        rhos[-1] = random_bell_state(rng).density_matrix()
    rhos = np.array(rhos)
    records = bloch_decompose(rhos, d)
    s = s_matrix(records, d)
    closed, theta = geometric_discord_closed(s)
    stacked = {
        "eig": geometric_discord_eig(s),
        "q": q_lower_bound(s),
        "sym3": sym3_eigenvalues(s),
        "bell": is_bell_diagonal(records),
    }
    reports = report_from_record(records, rho=rhos)
    assert len(reports) == n
    # each column holds NaN exactly where the one-state reports hold None
    for key in ("theta", "q_n", "negativity"):
        column = getattr(reports, key)
        assert column.shape == (n,)
        assert np.array_equal(np.isnan(column), [getattr(r, key) is None for r in reports])
    if d == 2:
        stacked["negativity"] = negativity(rhos)
    for i in range(n):
        record = bloch_decompose(rhos[i], d)
        for field in ("x", "y", "C"):
            assert np.array_equal(getattr(records, field)[i], getattr(record, field))
        s_i = s_matrix(record, d)
        assert np.array_equal(s[i], s_i)
        closed_i, theta_i = geometric_discord_closed(s_i)
        assert closed[i] == closed_i
        assert np.isnan(theta[i]) if theta_i is None else theta[i] == theta_i
        assert stacked["eig"][i] == geometric_discord_eig(s_i)
        assert stacked["q"][i] == q_lower_bound(s_i)
        assert np.array_equal(stacked["sym3"][i], sym3_eigenvalues(s_i))
        assert stacked["bell"][i] == is_bell_diagonal(record)
        if d == 2:
            assert stacked["negativity"][i] == negativity(rhos[i])
        single = report_from_record(record, rho=rhos[i])
        assert reports[i] == reports[i - n] == single
        assert all(type(getattr(single, key)) is float for key in ("d_g", "q"))


def test_measures_return_empty_on_an_empty_stack():
    # the symmetry and Hermiticity checks take their max with an initial 0, so an
    # empty stack gives empty results instead of a zero-size reduction error
    s, rhos = np.zeros((0, 3, 3)), np.zeros((0, 4, 4))
    results = {
        "closed": geometric_discord_closed(s)[0],
        "theta": geometric_discord_closed(s)[1],
        "eig": geometric_discord_eig(s),
        "q": q_lower_bound(s),
        "negativity": negativity(rhos),
        "q_n": negativity_of_quantumness_bell(np.zeros((0, 3))),
    }
    for name, value in results.items():
        assert value.shape == (0,), name
    assert sym3_eigenvalues(s).shape == (0, 3)
    assert hermitian_eigenvalues(rhos).shape == (0, 4)
    rec = bloch_decompose(np.zeros((0, 6, 6)), 3)
    assert (rec.x.shape, rec.y.shape, rec.C.shape) == ((0, 3), (0, 8), (0, 3, 8))


# ---------------------------------------------------------------------------
# the separable-ball test in front of the eigenvalue route of `negativity`

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def negativity_by_eigenvalues(rho):
    """The eigenvalue route alone, with no purity test: the oracle."""
    rho = np.asarray(rho, dtype=complex)
    eigs = np.linalg.eigvalsh(partial_transpose(rho))[..., ::-1]
    neg = 2.0 * np.sum(np.where(eigs < 0.0, np.abs(eigs), 0.0), axis=-1)
    return float(neg) if rho.ndim == 2 else neg


def assert_same_bytes_as_oracle(rho):
    got, want = negativity(rho), negativity_by_eigenvalues(rho)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def local_rotation(rho, seed):
    """U_A (x) U_B rho (U_A (x) U_B)^dag: same purity, same negativity."""
    rng = np.random.default_rng(seed)
    u = np.kron(random_unitary(2, seed=rng), random_unitary(2, seed=rng))
    return u @ rho @ u.conj().T


def werner(p):
    return p * np.outer(SINGLET, SINGLET) + (1.0 - p) * np.eye(4) / 4.0


coefficient = st.floats(-1.0, 1.0)


@given(coefficient, coefficient, coefficient, st.floats(-5.0, 0.0), st.integers(0, 2**32 - 1))
@example(0.5, -0.06, 0.24, -5.0, 0)
@example(1.0, 1.0, 1.0, 0.0, 1)  # eps = 1: outside the ball, and not even PSD
@settings(max_examples=80)
def test_ball_test_keeps_the_bytes_of_deviation_states(c1, c2, c3, log_eps, seed):
    state = BellDiagonalState(c1, c2, c3, mode="deviation")
    assert_same_bytes_as_oracle(local_rotation(state.density_matrix(epsilon=10.0**log_eps), seed))


@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_ball_test_keeps_the_bytes_of_random_states(rank, seed):
    assert_same_bytes_as_oracle(random_density_matrix(4, rank, seed=seed))


@given(st.floats(1.0 / 3.0 - 1e-9, 1.0 / 3.0 + 1e-9), st.integers(0, 2**32 - 1))
@example(1.0 / 3.0 - 1e-9, 0)
@example(1.0 / 3.0 + 1e-9, 0)
@example(1.0 / 3.0, 0)
@settings(max_examples=60)
def test_ball_test_keeps_the_bytes_at_the_edge_of_the_ball(p, seed):
    # a Werner state's purity (1 + 3 p^2)/4 crosses 1/3 where it turns entangled
    rho = local_rotation(werner(p), seed)
    assert_same_bytes_as_oracle(rho)
    if p <= 1.0 / 3.0 - 1e-9:
        assert negativity(rho) == 0.0
    if p >= 1.0 / 3.0 + 1e-9:
        assert negativity(rho) > 0.0


@given(st.lists(st.tuples(st.sampled_from(["deviation", "random", "werner"]),
                          st.integers(0, 2**32 - 1)), min_size=1, max_size=12))
@settings(max_examples=60)
def test_ball_test_keeps_the_bytes_of_mixed_stacks(items):
    def draw(kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "deviation":
            state = BellDiagonalState(*rng.uniform(-1.0, 1.0, 3), mode="deviation")
            return local_rotation(state.density_matrix(epsilon=1e-5), rng)
        if kind == "random":
            return random_density_matrix(4, int(rng.integers(1, 5)), seed=rng)
        return local_rotation(werner(rng.uniform(0.0, 1.0)), rng)

    rhos = np.stack([draw(kind, seed) for kind, seed in items])
    assert_same_bytes_as_oracle(rhos)
    assert_same_bytes_as_oracle(rhos.reshape((1, len(items), 4, 4)))


@given(st.integers(0, 2**32 - 1), st.floats(-1.0, 0.0), st.sampled_from([0.0, 1e-12, 0.5]))
@example(0, -1.0, 0.0)
@example(0, 0.0, 0.0)
@settings(max_examples=60)
def test_ball_test_never_certifies_zero_or_negative_trace(seed, trace, spread):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    traceless = (g + g.conj().T) / 2.0
    traceless -= np.trace(traceless).real / 4.0 * np.eye(4)
    rho = trace * np.eye(4) / 4.0 + spread * traceless
    assert_same_bytes_as_oracle(rho)
    assert_same_bytes_as_oracle(-rho)


def test_negativity_of_minus_identity_quarter_is_two():
    assert negativity(-np.eye(4) / 4.0) == 2.0
    assert negativity(np.zeros((4, 4))) == 0.0


def test_ball_test_is_silent_on_huge_entries():
    # the sum of squares overflows to inf, which fails the test without a warning
    for rho in (1e200 * np.eye(4), 1e200 * werner(0.2), -1e200 * np.eye(4)):
        assert_same_bytes_as_oracle(rho)


def test_ball_test_still_rejects_non_hermitian_input():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = 1e-6  # purity 1/4 + 1e-12: inside the ball
    with pytest.raises(ValueError, match="Hermitian"):
        negativity(rho)
    with pytest.raises(ValueError, match="Hermitian"):
        negativity(np.stack([np.eye(4) / 4.0, rho]))


def test_ball_test_falls_back_when_asymmetry_exceeds_its_margin():
    # Hermitian within 1e-12 and inside the ball, yet LAPACK, which reads the lower
    # triangle only, sees the pair (x, x) in rho^T_B where rho has (x, 0): at this
    # tiny trace that makes the eigenvalue d - x negative
    x = 1e-12
    t = x / 0.27
    rho = np.eye(4, dtype=complex) * t / 4.0
    rho[0, 1] = x  # row 1, column 0 of rho^T_B
    assert np.linalg.norm(rho) <= t * np.sqrt(1.0 / 3.0 - PPT_BALL_MARGIN)
    assert negativity_by_eigenvalues(rho) > 0.0
    assert_same_bytes_as_oracle(rho)


def test_negativity_is_nan_on_non_finite_items():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = np.nan
    assert np.isnan(negativity(rho))
    bell = np.outer(SINGLET, SINGLET)
    stack = np.stack([bell, rho, np.full((4, 4), np.nan), np.eye(4) / 4.0])
    got = negativity(stack)
    assert np.isnan(got[1:3]).all()
    assert got[0] == negativity(bell) and got[3] == 0.0


@pytest.mark.parametrize("diagonal", [[1.0, np.inf, 0.0, 0.0], [1.0, -np.inf, np.inf, 0.0]])
def test_negativity_is_nan_on_infinite_entries(diagonal):
    # inf * 0 in the purity test and inf - inf in the Hermiticity check give NaN,
    # the intended signal, without a warning
    rho = np.diag(diagonal).astype(complex)
    assert np.isnan(negativity(rho))
    got = negativity(np.stack([rho, np.eye(4) / 4.0]))
    assert np.isnan(got[0]) and got[1] == 0.0


@pytest.mark.parametrize("c", [np.diag([1.0, np.inf, 0.0]), np.diag([-np.inf, np.inf, 1.0]),
                               np.full((3, 3), np.nan)])
def test_report_is_nan_on_non_finite_records(c):
    # inf * 0 in C C^T and in the Bell-diagonal gate gives NaN, the intended
    # signal, without a warning; a finite item of the stack is untouched
    bad = BlochRecord(x=np.zeros(3), y=np.zeros(3), C=c)
    report = report_from_record(bad)
    assert np.isnan(report.d_g) and np.isnan(report.q)
    assert report.theta is None and report.q_n is None and report.negativity is None
    finite = bell_record(0.3, -0.2, 0.1)
    stack = BlochRecord(*(np.stack([getattr(bad, f), getattr(finite, f)]) for f in "xyC"))
    assert list(report_from_record(stack)) == [report, report_from_record(finite)]


def test_geometric_discord_eig_is_nan_where_the_closed_form_is():
    s = 0.1 * np.eye(3)
    s[0, 1] = np.nan
    assert np.isnan(geometric_discord_closed(s)[0])
    assert np.isnan(geometric_discord_eig(s))
    stack = np.stack([0.1 * np.eye(3), s, np.full((3, 3), np.nan)])
    got = geometric_discord_eig(stack)
    assert got[0] == geometric_discord_eig(0.1 * np.eye(3)) and np.isnan(got[1:]).all()


@pytest.mark.parametrize("s, finite", [(np.diag([1.7e308, 1.7e308, 0.0]), False),
                                       (np.diag([1.5e308, 0.0, 0.0]), False),
                                       (np.diag([1e300, 1e300, 0.0]), False),
                                       (np.diag([1.2e154, 0.0, 0.0]), True)])
def test_s_measures_are_quiet_near_the_float_limit(s, finite):
    # tr[S], tr[dev^2] or 3 tr[dev^2] overflows on a finite S: inf, or NaN from
    # inf - inf, passes on without a warning; d_g and q stay finite while tr[dev^2] does
    assert np.isfinite([geometric_discord_closed(s)[0], q_lower_bound(s)]).all() == finite
    geometric_discord_eig(s)


@pytest.mark.parametrize("s", [np.diag([1.0, np.inf, 0.0]), np.diag([-np.inf, np.inf, 1.0]),
                               np.full((3, 3), np.nan)])
def test_s_measures_are_nan_on_non_finite_s(s):
    # inf - inf in the symmetry check and the trace invariants gives NaN, the
    # intended signal, without a warning; a finite item of the stack is untouched
    finite = np.diag([0.3, 0.2, 0.1])
    stack = np.stack([s, finite])
    for measure in (lambda m: geometric_discord_closed(m)[0], q_lower_bound,
                    geometric_discord_eig):
        assert np.isnan(measure(s))
        got = measure(stack)
        assert np.isnan(got[0]) and got[1] == measure(finite)
    assert geometric_discord_closed(s)[1] is None
    assert np.isnan(geometric_discord_closed(stack)[1][0])


@pytest.mark.xfail(strict=True, reason="the degeneracy test of the closed form is absolute "
                   "(ROADMAP item 1): a small S counts as degenerate and d_g falls to q")
@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
def test_closed_form_holds_on_a_small_s(eps):
    # I/4 + eps * deviation in full units: S is about eps^2 / 4, below the spread threshold
    deviation = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation").deviation_matrix()
    s = s_matrix(bloch_decompose(np.eye(4) / 4.0 + eps * deviation))
    d_g, theta = geometric_discord_closed(s)
    assert theta is not None
    assert d_g == pytest.approx(geometric_discord_eig(s), rel=1e-9, abs=0.0)
