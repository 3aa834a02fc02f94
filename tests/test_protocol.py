import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    BellDiagonalState,
    ROTATION_TABLE,
    bloch_decompose,
    geometric_discord_closed,
    measurement_budget,
    q_lower_bound,
    random_density_matrix,
    rotation_gate,
    run_direct_protocol,
    s_matrix,
)
from qcorr.bloch import SIGMA_X
from qcorr.protocol import LOCAL_ROTATIONS, _CNOT, _READOUTS, _UNITARIES, _UNITARIES_H


def bell_phi_plus():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    return np.outer(phi, phi.conj())


def test_rotation_gate_zero_angle():
    assert np.allclose(rotation_gate("z", 0.0), np.eye(2), atol=0)


def test_rotation_gate_pi_about_y_flips():
    ket1 = rotation_gate("y", np.pi) @ np.array([1.0, 0.0], dtype=complex)
    assert abs(abs(ket1[1]) - 1.0) <= 1e-15
    assert abs(ket1[0]) <= 1e-15


@given(st.sampled_from("xyz"), st.floats(-2 * np.pi, 2 * np.pi))
@settings(max_examples=60)
def test_rotation_gate_unitarity(axis, angle):
    u = rotation_gate(axis, angle)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


def test_rotation_gate_rejects_bad_axis():
    with pytest.raises(ValueError):
        rotation_gate("w", 0.1)


def test_rotation_convention_direction():
    # pins the handedness: conjugating sigma_y by a quarter turn about x
    # (in the state-transformation direction U rho U^dag) yields sigma_z
    from qcorr.bloch import SIGMA_Y, SIGMA_Z

    u = rotation_gate("x", np.pi / 2)
    assert np.max(np.abs(u @ SIGMA_Y @ u.conj().T - SIGMA_Z)) <= 1e-15


def test_cnot_truth_table():
    k = _CNOT
    basis = np.eye(4, dtype=complex)
    assert np.allclose(k @ basis[:, 2], basis[:, 3], atol=0)  # |10> -> |11>
    assert np.allclose(k @ basis[:, 3], basis[:, 2], atol=0)
    assert np.allclose(k @ basis[:, 0], basis[:, 0], atol=0)
    assert np.allclose(k @ k, np.eye(4), atol=0)


def test_cnot_builds_bell_state():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    ket = _CNOT @ np.kron(h, np.eye(2)) @ np.eye(4, dtype=complex)[:, 0]
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    assert np.max(np.abs(ket - phi)) <= 1e-15


def test_direct_correlation_bell_state():
    assert run_direct_protocol(bell_phi_plus()).C[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_direct_correlation_computational_state():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    assert run_direct_protocol(np.outer(ket, ket.conj())).C[2, 2] == pytest.approx(1.0, abs=1e-12)


def test_direct_correlation_prepared_sign():
    # the (2, 2) readout reproduces the prepared sign of the second coefficient
    eps = 1e-5
    rho = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation").density_matrix(eps)
    got = run_direct_protocol(rho).C[1, 1]
    want = bloch_decompose(rho).C[1, 1]
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(-0.06 * eps, abs=1e-12)


def test_direct_readouts_match_decomposition_everywhere():
    rng = np.random.default_rng(13)
    for _ in range(150):
        rho = random_density_matrix(4, seed=rng)
        rec, direct = bloch_decompose(rho), run_direct_protocol(rho)
        assert np.max(np.abs(direct.x - rec.x)) <= 1e-12
        assert np.max(np.abs(direct.C - rec.C)) <= 1e-12


def test_direct_local_trivial_cases():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    assert run_direct_protocol(np.outer(ket, ket.conj())).x[2] == pytest.approx(1.0, abs=1e-12)
    rho = BellDiagonalState(0.4, 0.3, -0.2).density_matrix()
    assert np.max(np.abs(run_direct_protocol(rho).x)) <= 1e-12


def test_table_covers_all_pairs_and_gates_are_unitary():
    assert set(ROTATION_TABLE) == {(n, l) for n in (1, 2, 3) for l in (1, 2, 3)}
    for entry in ROTATION_TABLE.values():
        u = np.kron(
            rotation_gate(entry.axis_a, entry.angle), rotation_gate(entry.axis_b, entry.angle)
        )
        u = _CNOT @ u
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12


def test_protocol_exact_mode_reproduces_s_matrix():
    rng = np.random.default_rng(19)
    for _ in range(30):
        rho = random_density_matrix(4, seed=rng)
        record = run_direct_protocol(rho)
        assert np.array_equal(record.y, np.zeros(3))  # y is not measured
        s_direct = s_matrix(record)
        s_tomo = s_matrix(bloch_decompose(rho))
        assert np.max(np.abs(s_direct - s_tomo)) <= 1e-12


def test_protocol_measures_match_tomography():
    rho = random_density_matrix(4, seed=23)
    rec = run_direct_protocol(rho)
    tomo = bloch_decompose(rho)
    s_p, s_t = s_matrix(rec), s_matrix(tomo)
    assert abs(geometric_discord_closed(s_p)[0] - geometric_discord_closed(s_t)[0]) <= 1e-10
    assert abs(q_lower_bound(s_p) - q_lower_bound(s_t)) <= 1e-10


def test_protocol_shot_mode_deterministic():
    rho = random_density_matrix(4, seed=29)
    a = run_direct_protocol(rho, shots=1000, seed=42)
    b = run_direct_protocol(rho, shots=1000, seed=42)
    assert np.array_equal(a.C, b.C)
    assert np.array_equal(a.x, b.x)
    c = run_direct_protocol(rho, shots=1000, seed=43)
    assert not np.array_equal(a.C, c.C)


def test_protocol_shot_mode_bell_state_concentration():
    # <sigma_x sigma_x> = 1 exactly, so every simulated outcome is +1
    record = run_direct_protocol(bell_phi_plus(), shots=1_000_000, seed=1)
    assert abs(record.C[0, 0] - 1.0) <= 5e-3


def test_protocol_shot_error_scales_with_shots():
    rho = BellDiagonalState(0.5, -0.3, 0.2).density_matrix()
    exact = run_direct_protocol(rho).C

    def rms(shots):
        errs = []
        for seed in range(12):
            est = run_direct_protocol(rho, shots=shots, seed=seed).C
            errs.append((est - exact).ravel())
        return float(np.sqrt(np.mean(np.concatenate(errs) ** 2)))

    ratio = rms(40_000) / rms(10_000)
    # quadrupling the shots should halve the error, up to sampling noise
    assert 0.35 <= ratio <= 0.65


def test_protocol_rejects_zero_shots():
    with pytest.raises(ValueError):
        run_direct_protocol(bell_phi_plus(), shots=0)


def test_protocol_rejects_other_shapes():
    for rho in (np.eye(2) / 2, np.eye(6) / 6, np.stack([bell_phi_plus()] * 2)):
        with pytest.raises(ValueError, match="expected a two-qubit state"):
            run_direct_protocol(rho)


def test_protocol_rejects_shots_beyond_int64():
    # rejected before any binomial is drawn
    with pytest.raises(ValueError, match="shots"):
        run_direct_protocol(bell_phi_plus(), shots=np.iinfo(np.int64).max + 1, seed=1)


@pytest.mark.parametrize("arg", [{"shots": 100.5}, {"shots": 100.0}, {"shots": True},
                                 {"shots": np.True_}, {"shots": "100"},
                                 {"shots": 100, "seed": 1.5}, {"shots": 100, "seed": False},
                                 {"seed": 2.0}])
def test_protocol_refuses_non_integer_shots_and_seeds(arg):
    name = "seed" if "seed" in arg else "shots"
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        run_direct_protocol(bell_phi_plus(), **arg)


def test_protocol_takes_numpy_integer_shots_and_seeds():
    rho = random_density_matrix(4, seed=31)
    want = run_direct_protocol(rho, shots=1000, seed=5)
    for shots, seed in ((np.int64(1000), np.int64(5)), (np.uint16(1000), np.uint8(5))):
        got = run_direct_protocol(rho, shots=shots, seed=seed)
        assert (got.x.tobytes(), got.C.tobytes()) == (want.x.tobytes(), want.C.tobytes())


def _fresh_unitary(nu, lam):
    if lam is None:
        return np.kron(rotation_gate(*LOCAL_ROTATIONS[nu]), np.eye(2, dtype=complex))
    entry = ROTATION_TABLE[(nu, lam)]
    return _CNOT @ np.kron(
        rotation_gate(entry.axis_a, entry.angle), rotation_gate(entry.axis_b, entry.angle)
    )


def test_readout_stack_is_constant_and_built_from_the_gates():
    assert _UNITARIES.shape == _UNITARIES_H.shape == (12, 4, 4)
    for stack in (_UNITARIES, _UNITARIES_H):
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0
    for k, (nu, lam) in enumerate(_READOUTS):
        u = _fresh_unitary(nu, lam)
        assert np.array_equal(_UNITARIES[k], u)
        assert np.array_equal(_UNITARIES_H[k], u.conj().T)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=100)
def test_protocol_equals_per_readout_loop(seed, rank):
    # the reference: one unitary built, applied and read out per readout
    rho = random_density_matrix(4, rank=rank, seed=seed)
    readout = np.kron(SIGMA_X, np.eye(2, dtype=complex))
    values = {}
    for nu, lam in _READOUTS:
        u = _fresh_unitary(nu, lam)
        values[nu, lam] = float(np.einsum("ij,ji->", readout, u @ rho @ u.conj().T).real)
    x_ref = np.array([values[nu, None] for nu in (1, 2, 3)])
    c_ref = np.array([[ROTATION_TABLE[nu, lam].sign * values[nu, lam] for lam in (1, 2, 3)]
                      for nu in (1, 2, 3)])
    record = run_direct_protocol(rho)
    assert np.array_equal(record.x, x_ref)
    assert np.array_equal(record.C, c_ref)


def test_measurement_budget():
    assert measurement_budget(2) == (12, 15)
    assert measurement_budget(3) == (27, 35)
    assert measurement_budget(10) == (300, 399)
    with pytest.raises(ValueError):
        measurement_budget(1)


def test_measurement_budget_takes_numpy_integers():
    # as plain ints: 4 d^2 - 1 of a uint8 d = 16 would wrap
    for d in (np.int64(3), np.uint8(16)):
        budget = measurement_budget(d)
        assert budget == (3 * int(d) ** 2, 4 * int(d) ** 2 - 1)
        assert [type(n) for n in budget] == [int, int]


@pytest.mark.parametrize("d", [2.5, 3.0, True, "3", None])
def test_measurement_budget_refuses_a_non_integer_d(d):
    with pytest.raises(ValueError, match="^d must be an integer, got "):
        measurement_budget(d)
