import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bell_state
from oracles import gad_kraus, j_coupling_unitary, pd_kraus
from qcorr import (
    BellDiagonalState,
    RelaxationParams,
    bloch_decompose,
    check_density_matrix,
    evolve,
    make_trajectory,
    random_density_matrix,
)
from qcorr.bloch import PAULIS
from qcorr.channels import (
    _PAULI_PRODUCTS,
    _build_ptm,
    _relax,
    _states,
    apply_two_qubit_channel,
    completeness_defect,
)
from qcorr.eigen import HERMITICITY_TOL
from qcorr.measures import UNITS_DEVIATION, full_report


def bell_phi_plus():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    return np.outer(phi, phi.conj())


def apply_single(rho, kraus):
    return sum(op @ rho @ op.conj().T for op in kraus)


def test_relaxation_defaults():
    p = RelaxationParams()
    assert (p.t1_a, p.t2_a, p.t1_b, p.t2_b) == (3.57, 1.2, 10.0, 0.19)
    assert p.j_coupling == 215.1
    assert p.epsilon == 1e-5


def test_relaxation_validation():
    with pytest.raises(ValueError):
        RelaxationParams(t1_a=0.0)
    with pytest.raises(ValueError):
        RelaxationParams(epsilon=0.0)
    with pytest.raises(ValueError):
        RelaxationParams(epsilon=1.5)
    for name in ("t1_a", "t2_a", "t1_b", "t2_b", "epsilon", "j_coupling"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                RelaxationParams(**{name: value})
    for value in (0.0, -215.1):
        with pytest.raises(ValueError, match="j_coupling"):
            RelaxationParams(j_coupling=value)


@pytest.mark.parametrize("name, value", [("t1_a", True), ("epsilon", True),
                                         ("j_coupling", "215"), ("t2_b", "0.19")])
def test_relaxation_refuses_bools_and_strings(name, value):
    # True was stored as 1.0 and a string raised numpy's TypeError
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
        RelaxationParams(**{name: value})
    assert RelaxationParams(**{name: np.float32(0.5)}) == RelaxationParams(**{name: 0.5})


def test_gad_identity_at_p_zero():
    rho = random_density_matrix(2, seed=1)
    out = apply_single(rho, gad_kraus(0.0, 0.3))
    assert np.max(np.abs(out - rho)) <= 1e-15


def test_gad_full_decay_unbiased_reaches_maximally_mixed():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = random_density_matrix(2, seed=rng)
        out = apply_single(rho, gad_kraus(1.0, 0.5))
        assert np.max(np.abs(out - np.eye(2) / 2.0)) <= 1e-15


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=100)
def test_gad_completeness(p, gamma):
    assert completeness_defect(gad_kraus(p, gamma)) <= 1e-12


def test_gad_parameter_range():
    with pytest.raises(ValueError):
        gad_kraus(-0.1, 0.5)
    with pytest.raises(ValueError):
        gad_kraus(0.5, 1.1)


def test_pd_identity_and_full_dephasing():
    rho = random_density_matrix(2, seed=3)
    assert np.max(np.abs(apply_single(rho, pd_kraus(0.0)) - rho)) <= 1e-15
    out = apply_single(rho, pd_kraus(1.0))
    assert abs(out[0, 1]) <= 1e-15  # (1 - lam/2) r01 - (lam/2) r01 = 0 at lam = 1
    assert out[0, 0] == pytest.approx(rho[0, 0].real)


@given(st.floats(0, 1))
@settings(max_examples=60)
def test_pd_coherence_scaling(lam):
    rho = random_density_matrix(2, seed=4)
    out = apply_single(rho, pd_kraus(lam))
    assert out[0, 1] == pytest.approx((1.0 - lam) * rho[0, 1], abs=1e-14)
    assert completeness_defect(pd_kraus(lam)) <= 1e-12


def test_pd_parameter_range():
    with pytest.raises(ValueError):
        pd_kraus(1.2)


def test_apply_two_qubit_identity_channels():
    rho = random_density_matrix(4, seed=5)
    ident = (np.eye(2, dtype=complex),)
    assert np.max(np.abs(apply_two_qubit_channel(rho, ident, ident) - rho)) <= 1e-15


def test_apply_two_qubit_rejects_incomplete_sets():
    broken = (0.5 * np.eye(2, dtype=complex),)
    with pytest.raises(ValueError, match="trace preserving"):
        apply_two_qubit_channel(np.eye(4) / 4.0, broken, broken)


def test_pd_on_both_qubits_scales_transverse_coefficients():
    lam_a, lam_b = 0.3, 0.7
    out = apply_two_qubit_channel(bell_phi_plus(), pd_kraus(lam_a), pd_kraus(lam_b))
    rec = bloch_decompose(out)
    factor = (1 - lam_a) * (1 - lam_b)
    assert rec.C[0, 0] == pytest.approx(factor * 1.0, abs=1e-14)
    assert rec.C[1, 1] == pytest.approx(factor * -1.0, abs=1e-14)
    assert rec.C[2, 2] == pytest.approx(1.0, abs=1e-14)


def test_gad_on_both_qubits_fixed_point():
    rho = random_density_matrix(4, seed=6)
    out = apply_two_qubit_channel(rho, gad_kraus(1.0, 0.5), gad_kraus(1.0, 0.5))
    assert np.max(np.abs(out - np.eye(4) / 4.0)) <= 1e-14


def test_evolve_identity_at_t_zero():
    rho = BellDiagonalState(0.4, -0.2, 0.3).density_matrix()
    assert np.max(np.abs(evolve(rho, 0.0) - rho)) <= 1e-15


def test_evolve_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve(np.eye(4) / 4.0, -0.1)


def test_evolve_preserves_bell_diagonal_structure():
    params = RelaxationParams()
    rho0 = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation").density_matrix(
        params.epsilon
    )
    for t in (0.01, 0.1, 0.5, 2.0):
        rec = bloch_decompose(evolve(rho0, t, params))
        off = rec.C - np.diag(np.diagonal(rec.C))
        assert np.max(np.abs(off)) <= 1e-12
        # transverse local components stay zero; a z component of order eps
        # builds up from the damping bias
        assert np.max(np.abs(rec.x[:2])) <= 1e-10
        assert np.max(np.abs(rec.y[:2])) <= 1e-10
        assert abs(rec.x[2]) <= 2 * params.epsilon
        assert abs(rec.y[2]) <= 2 * params.epsilon


def test_evolve_long_time_fixed_point():
    params = RelaxationParams()
    rho0 = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation").density_matrix(
        params.epsilon
    )
    out = evolve(rho0, 100.0 * max(params.t1_a, params.t1_b), params)
    single = (np.eye(2, dtype=complex) - params.epsilon * np.diag([1.0, -1.0])) / 2.0
    assert np.max(np.abs(out - np.kron(single, single))) <= 1e-6


def test_evolve_semigroup_property():
    params = RelaxationParams()
    rho0 = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation").density_matrix(
        params.epsilon
    )
    onego = evolve(rho0, 0.7, params)
    twogo = evolve(evolve(rho0, 0.3, params), 0.4, params)
    assert np.max(np.abs(onego - twogo)) <= 1e-9


def test_evolve_outputs_are_states():
    rng = np.random.default_rng(9)
    params = RelaxationParams()
    for _ in range(10):
        rho = random_density_matrix(4, seed=rng)
        check_density_matrix(evolve(rho, float(rng.uniform(0, 3)), params))


def kraus_ptm(*kraus_sets):
    """T_kl = tr[sigma_k L(sigma_l)] / 2, L applying the Kraus sets in order."""
    basis = (np.eye(2), *PAULIS)
    ptm = np.empty((4, 4))
    for col, sigma in enumerate(basis):
        out = sigma
        for kraus in kraus_sets:
            out = apply_single(out, kraus)
        for row, tau in enumerate(basis):
            ptm[row, col] = np.trace(tau @ out).real / 2.0
    return ptm


def kraus_evolve(rho, t, params):
    """The operator-sum reference for evolve: GAD on both qubits, then PD."""
    gamma = 0.5 - params.epsilon / 2.0
    damped = apply_two_qubit_channel(
        rho,
        gad_kraus(-np.expm1(-t / params.t1_a), gamma),
        gad_kraus(-np.expm1(-t / params.t1_b), gamma),
    )
    return apply_two_qubit_channel(
        damped, pd_kraus(-np.expm1(-t / params.t2_a)), pd_kraus(-np.expm1(-t / params.t2_b))
    )


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=300)
def test_local_ptm_matches_kraus(p, gamma, lam):
    want = kraus_ptm(gad_kraus(p, gamma), pd_kraus(lam))
    assert np.max(np.abs(_build_ptm(np.float64(p), gamma, np.float64(lam)) - want)) <= 1e-15


def test_local_ptm_stacks_and_validates():
    p, lam = np.array([0.0, 0.3, 1.0]), np.array([0.5, 0.0, 1.0])
    stacked = _build_ptm(p, 0.4, lam)
    assert stacked.shape == (3, 4, 4)
    for i in range(3):
        assert np.array_equal(stacked[i], _build_ptm(p[i], 0.4, lam[i]))


@given(
    st.integers(0, 2**32 - 1),
    st.floats(0, 30),
    st.lists(st.floats(0.05, 20), min_size=4, max_size=4),
    st.sampled_from([1e-5, 0.3, 1.0]),
)
@settings(max_examples=150)
def test_evolve_matches_kraus_oracle(seed, t, times, eps):
    params = RelaxationParams(*times, epsilon=eps)
    rho = random_density_matrix(4, rank=1 + seed % 4, seed=seed)
    assert np.max(np.abs(evolve(rho, t, params) - kraus_evolve(rho, t, params))) <= 1e-14


@pytest.mark.parametrize("include_local_bloch", [False, True])
@pytest.mark.parametrize(
    "state", [BellDiagonalState(0.5, -0.06, 0.24, mode="deviation"),
              BellDiagonalState(0.9, -0.9, 0.8)],
)
def test_stacked_trajectory_matches_per_time_evolve(state, include_local_bloch):
    params = RelaxationParams()
    traj = make_trajectory(state, params, n_points=60, include_local_bloch=include_local_bloch)
    deviation = state.mode == "deviation"
    eps = params.epsilon if deviation else None
    rho0 = state.density_matrix(epsilon=eps)
    scale = eps if deviation else 1.0
    for t, coeffs, report in zip(traj.times, traj.bell_coeffs, traj.reports):
        single = evolve(rho0, float(t), params)
        # the Bloch data read off the stack are those of the per-time state;
        # q (not d_g, whose arccos amplifies round-off near a degenerate
        # top pair of S) sees x, which differs between the qubits
        assert np.max(np.abs(coeffs - np.diagonal(bloch_decompose(single).C) / scale)) <= 1e-10
        # in deviation mode, the report of the deviation the per-time state carries
        shift = (single - np.eye(4) / 4.0) / eps if deviation else None
        want = full_report(single, deviation=shift, include_local_bloch=include_local_bloch)
        assert abs(report.q - want.q) <= 1e-10
        assert (report.q_n is None) == (want.q_n is None)
        assert report.units == (UNITS_DEVIATION if deviation else "eps^0")


def states_by_einsum(r):
    """Reference: sum_ij R_ij sigma_i (x) sigma_j / 4 as one einsum over the stack."""
    return np.einsum("nij,ijab->nab", r, _PAULI_PRODUCTS) / 4.0


@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.booleans())
@settings(max_examples=100)
def test_states_matmul_equals_einsum(seed, n, bell):
    rng = np.random.default_rng(seed)
    if bell:  # a relaxing Bell-diagonal state, as make_trajectory builds it
        r0 = np.diag([1.0, *random_bell_state(rng).coefficients])
        r = _relax(r0, np.sort(rng.uniform(0.0, 5.0, n)), RelaxationParams())
    else:
        r = rng.standard_normal((n, 4, 4)) * 10.0 ** rng.uniform(-12, 3)
    assert _states(r).tobytes() == states_by_einsum(r).tobytes()
    # one row takes numpy's vector-matrix path, which may sum in another order
    assert np.max(np.abs(_states(r[:1]) - states_by_einsum(r[:1]))) <= 1e-15 * np.max(np.abs(r))


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, -1e-9])
def test_evolve_rejects_non_finite_and_negative_times(t):
    with pytest.raises(ValueError, match="finite and non-negative"):
        evolve(np.eye(4) / 4.0, t)


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf, -np.inf])
def test_evolve_names_the_bad_time(t):
    with pytest.raises(ValueError, match=f"^time must be finite and non-negative, got {t}$"):
        evolve(np.eye(4) / 4.0, t)


@pytest.mark.parametrize("t", [np.array([0.1, 0.2]), np.array([]), "0.1", True])
def test_evolve_takes_one_real_time(t):
    # an array ran its first time only (or raised IndexError when empty), and a
    # string or a bool ran as the number it spells
    rho = BellDiagonalState(0.4, -0.2, 0.3).density_matrix()
    with pytest.raises(ValueError, match="^t must be a real number, got "):
        evolve(rho, t)
    for scalar in (np.float64(0.1), np.float32(0.1), np.int64(1), np.array(0.1)):
        assert evolve(rho, scalar).tobytes() == evolve(rho, float(scalar)).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_evolve_refuses_a_non_finite_state(bad):
    rho = np.eye(4, dtype=complex) / 4.0
    rho[1, 2] = bad
    with pytest.raises(ValueError, match="rho0 must be finite"):
        evolve(rho, 0.1)


@pytest.mark.parametrize("entry", [0.1, 1e-11, 0.1j])
def test_evolve_refuses_a_non_hermitian_state(entry):
    # the Pauli coefficients hold only the Hermitian part: I/4 plus 0.1 at (0, 1)
    # alone came back with 0.05 at both (0, 1) and (1, 0) at t = 0
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] += entry
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve(rho, 0.0)
    rho[0, 1] = 0.5 * HERMITICITY_TOL  # within the tolerance: evolved as before
    assert np.max(np.abs(evolve(rho, 0.0) - rho)) <= HERMITICITY_TOL


@pytest.mark.parametrize("grid", [{"dt": np.inf}, {"t_max": np.inf}])
def test_trajectory_rejects_non_finite_grid(grid):
    with pytest.raises(ValueError, match="finite"):
        make_trajectory(BellDiagonalState(0.2, -0.2, 0.2, mode="deviation"), **grid)


@pytest.mark.parametrize("name, value", [("dt", True), ("dt", "0.001"), ("t_max", True),
                                         ("t_max", "1.0")])
def test_trajectory_grid_refuses_bools_and_strings(name, value):
    # dt=True ran a grid of 1 s steps and dt="0.001" raised a TypeError from a comparison
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
        make_trajectory(BellDiagonalState(0.2, -0.2, 0.2, mode="deviation"), **{name: value})


def test_j_coupling_unitary_basics():
    assert np.max(np.abs(j_coupling_unitary(215.1, 0.0) - np.eye(4))) == 0
    u = j_coupling_unitary(215.1, 0.0123)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-15


def test_j_coupling_half_period_phases():
    j = 215.1
    u = j_coupling_unitary(j, 1.0 / (2.0 * j))
    want = np.diag(np.exp(-1j * np.pi / 4 * np.array([1.0, -1.0, -1.0, 1.0])))
    assert np.max(np.abs(u - want)) <= 1e-15


def test_j_coupling_leaves_bell_diagonal_states_invariant():
    rng = np.random.default_rng(10)
    j = 215.1
    for _ in range(25):
        rho = random_bell_state(rng).density_matrix()
        for t in (1.0 / (4 * j), 3.0 / (4 * j), 0.37):
            u = j_coupling_unitary(j, t)
            assert np.max(np.abs(u @ rho @ u.conj().T - rho)) <= 1e-12
