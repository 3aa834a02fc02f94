import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classical_quantum_state, random_bell_state
from qcorr import (
    BellDiagonalState,
    BlochRecord,
    bloch_decompose,
    full_report,
    geometric_discord_closed,
    geometric_discord_eig,
    is_bell_diagonal,
    negativity,
    negativity_of_quantumness_bell,
    q_lower_bound,
    random_density_matrix,
    random_unitary,
    report_from_record,
    s_matrix,
    sym3_eigenvalues,
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


def test_q_bound_degenerate_equality():
    assert q_lower_bound(np.diag([0.25, 0.25, 0.25])) == pytest.approx(1.0, abs=1e-15)


def test_negativity_of_quantumness_values():
    assert negativity_of_quantumness_bell((0.5, 0.06, 0.24)) == pytest.approx(0.12)
    assert negativity_of_quantumness_bell((0.2, 0.2, 0.2)) == pytest.approx(0.10)
    assert negativity_of_quantumness_bell(BellDiagonalState(1, -1, 1)) == pytest.approx(0.5)


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
    rep = full_report(state.density_matrix(epsilon=1e-5), mode="deviation", epsilon=1e-5)
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


def test_full_report_needs_epsilon_in_deviation_mode():
    with pytest.raises(ValueError, match="epsilon"):
        full_report(np.eye(4) / 4.0, mode="deviation")


def test_is_bell_diagonal_gate():
    assert is_bell_diagonal(bell_record(0.3, 0.2, -0.1))
    rec = BlochRecord(x=np.array([1e-6, 0, 0]), y=np.zeros(3), C=np.diag([0.3, 0.2, 0.1]))
    assert not is_bell_diagonal(rec)


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
    reports = report_from_record(records, d, rho=rhos)
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
        single = report_from_record(record, d, rho=rhos[i])
        assert reports[i] == reports[i - n] == single
        assert all(type(getattr(single, key)) is float for key in ("d_g", "q"))
