"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS line on success (run with ``pytest -s``
to see them); tolerances are pinned here and nowhere else.
"""
import time

import numpy as np

from conftest import classical_quantum_state, random_bell_state
from oracles import gad_kraus, j_coupling_unitary, pd_kraus
from qcorr import (
    BellDiagonalState,
    BlochRecord,
    RelaxationParams,
    bloch_decompose,
    detect_transition,
    evolve,
    geometric_discord_closed,
    geometric_discord_eig,
    hermitian_eigenvalues,
    make_trajectory,
    measurement_budget,
    negativity,
    negativity_of_quantumness_bell,
    one_sided_slopes,
    q_lower_bound,
    random_density_matrix,
    run_direct_protocol,
    s_matrix,
)
from qcorr.channels import completeness_defect
from qcorr.cli import main

RHO1 = BellDiagonalState(0.2, -0.2, 0.2, mode="deviation")
RHO2 = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation")


def passed(label: str, detail: str = ""):
    print(f"[PASS] {label}" + (f"  ({detail})" if detail else ""))


def test_criterion_1_closed_form_vs_eigenvalue_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for d, count in ((2, 10_000), (3, 1_000)):
        for i in range(count):
            rho = random_density_matrix(2 * d, rank=1 + i % (2 * d), seed=rng)
            s = s_matrix(bloch_decompose(rho, d), d)
            closed, _ = geometric_discord_closed(s)
            worst = max(worst, abs(closed - geometric_discord_eig(s)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    passed("criterion 1: closed form vs eigenvalue route",
           f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_protocol_exactness_and_budget():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1_000):
        rho = random_density_matrix(4, seed=rng)
        gap = np.abs(run_direct_protocol(rho).C - bloch_decompose(rho).C)
        worst = max(worst, float(gap.max()))
    assert worst <= 1e-12
    assert measurement_budget(2) == (12, 15)
    passed("criterion 2: protocol readout exactness", f"worst residual {worst:.2e}")


def test_criterion_3_initial_state_values():
    cases = [
        (RHO1, {"d_g": 0.0400, "q": 0.0400, "q_n": 0.1000}),
        (RHO2, {"d_g": 0.0306, "q_n": 0.1200}),
    ]
    eps = 1e-5
    for state, want in cases:
        # route 1: measures straight from the prepared coefficients
        rec = BlochRecord(x=np.zeros(3), y=np.zeros(3), C=np.diag(state.coefficients))
        s = s_matrix(rec)
        closed, _ = geometric_discord_closed(s)
        by_eig = geometric_discord_eig(s)
        # route 2: through the composed high-temperature matrix
        rho = state.density_matrix(epsilon=eps)
        full = bloch_decompose(rho)
        s_full = s_matrix(
            BlochRecord(x=full.x / eps, y=full.y / eps, C=full.C / eps)
        )
        closed_full, _ = geometric_discord_closed(s_full)
        for value in (closed, by_eig, closed_full, geometric_discord_eig(s_full)):
            assert abs(value - want["d_g"]) <= 1e-12
        if "q" in want:
            assert abs(q_lower_bound(s) - want["q"]) <= 1e-12
            assert abs(q_lower_bound(s_full) - want["q"]) <= 1e-12
        q_n = negativity_of_quantumness_bell(state)
        assert abs(q_n - want["q_n"]) <= 1e-12
        assert abs(negativity_of_quantumness_bell(np.diagonal(full.C / eps))
                   - want["q_n"]) <= 1e-12
    passed("criterion 3: reference initial-state values (both routes)")


def test_criterion_4_sudden_transition():
    params = RelaxationParams()
    traj = make_trajectory(RHO2, params)
    hit = detect_transition(traj)
    assert hit is not None
    dominant = np.argmax(np.abs(traj.bell_coeffs), axis=1)
    switches = [i for i in range(2, len(traj.times)) if dominant[i] != dominant[i - 1]]
    assert switches == [hit.index], "expected exactly one dominant-coefficient switch"

    # independent oracle: crossing of the transverse and longitudinal
    # exponential envelopes |c1| e^{-kT t} = |c3| e^{-kL t}
    k_t = 0.5 / params.t1_a + 1.0 / params.t2_a + 0.5 / params.t1_b + 1.0 / params.t2_b
    k_l = 1.0 / params.t1_a + 1.0 / params.t1_b
    crossing = np.log(0.5 / 0.24) / (k_t - k_l)
    step = float(traj.times[1] - traj.times[0])
    assert abs(hit.t_star - crossing) <= step

    gaps = {}
    for key in ("d_g", "q", "q_n"):
        series = np.array([getattr(r, key) for r in traj.reports])
        left, right = one_sided_slopes(series, traj.times, hit.index)
        gaps[key] = abs(left - right) / max(abs(left), abs(right))
    assert gaps["d_g"] > 0.20
    assert gaps["q_n"] > 0.20
    assert gaps["q"] <= 0.02
    passed(
        "criterion 4: sudden transition",
        f"t*={hit.t_star:.6f} vs crossing {crossing:.6f}, slope gaps "
        f"d_g {gaps['d_g']:.1%}, q_n {gaps['q_n']:.1%}, q {gaps['q']:.2%}",
    )


def test_criterion_5_monotone_regime():
    traj = make_trajectory(RHO1, RelaxationParams())
    for key in ("d_g", "q", "q_n"):
        series = np.array([getattr(r, key) for r in traj.reports])
        assert np.all(np.diff(series) <= 1e-12), f"{key} increased along the grid"
    assert detect_transition(traj) is None
    passed("criterion 5: monotonically decaying regime")


def test_criterion_6_channel_validity():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 20):
        for gamma in np.linspace(0.0, 1.0, 20):
            worst = max(worst, completeness_defect(gad_kraus(p, gamma)))
    for lam in np.linspace(0.0, 1.0, 20):
        worst = max(worst, completeness_defect(pd_kraus(lam)))
    assert worst <= 1e-12

    params = RelaxationParams()
    rng = np.random.default_rng(1006)
    evolved = []
    for state in (RHO1, RHO2):
        traj = make_trajectory(state, params, n_points=251)
        evolved.extend(traj.states)
    for _ in range(20):
        rho = random_density_matrix(4, seed=rng)
        for t in (0.0, 0.05, 0.5, 2.0, 20.0):
            evolved.append(evolve(rho, t, params))
    for rho in evolved:
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert hermitian_eigenvalues(rho)[-1] >= -1e-10
    passed("criterion 6: channel validity",
           f"completeness defect {worst:.2e}, {len(evolved)} states checked")


def test_criterion_7_identities():
    rng = np.random.default_rng(1007)
    worst_pure = 0.0
    for _ in range(1_000):
        rho = random_density_matrix(4, rank=1, seed=rng)
        closed, _ = geometric_discord_closed(s_matrix(bloch_decompose(rho)))
        assert q_lower_bound(s_matrix(bloch_decompose(rho))) <= closed + 1e-10
        worst_pure = max(worst_pure, abs(closed - negativity(rho) ** 2))
    assert worst_pure <= 1e-9

    worst_mixed = -np.inf
    for i in range(10_000):
        rho = random_density_matrix(4, rank=1 + i % 4, seed=rng)
        s = s_matrix(bloch_decompose(rho))
        closed, _ = geometric_discord_closed(s)
        assert q_lower_bound(s) <= closed + 1e-10
        worst_mixed = max(worst_mixed, negativity(rho) ** 2 - closed)
    assert worst_mixed <= 1e-9

    worst_cq = 0.0
    for _ in range(1_000):
        chi = classical_quantum_state(rng)
        s = s_matrix(bloch_decompose(chi))
        closed, _ = geometric_discord_closed(s)
        assert q_lower_bound(s) <= closed + 1e-10
        worst_cq = max(worst_cq, closed)
    assert worst_cq <= 1e-10
    passed(
        "criterion 7: measure identities",
        f"pure |d_g - N^2| {worst_pure:.2e}, mixed max(N^2 - d_g) {worst_mixed:.2e}, "
        f"classical-quantum max d_g {worst_cq:.2e}",
    )


def test_criterion_8_bell_diagonal_structure():
    rng = np.random.default_rng(1008)
    j = RelaxationParams().j_coupling
    worst_s = 0.0
    worst_u = 0.0
    for _ in range(200):
        state = random_bell_state(rng)
        rho = state.density_matrix()
        s = s_matrix(bloch_decompose(rho))
        want = np.diag(state.coefficients**2 / 4.0)
        worst_s = max(worst_s, float(np.max(np.abs(s - want))))
        for t in (1.0 / (4 * j), 7.0 / (4 * j), 0.2):
            u = j_coupling_unitary(j, t)
            worst_u = max(worst_u, float(np.max(np.abs(u @ rho @ u.conj().T - rho))))
    assert worst_s <= 1e-12
    assert worst_u <= 1e-12
    passed("criterion 8: Bell-diagonal structure",
           f"S defect {worst_s:.2e}, coupling-invariance defect {worst_u:.2e}")


def test_criterion_9_byte_identical_reruns(tmp_path, capsys):
    import json

    state_file = tmp_path / "rho2.json"
    state_file.write_text(
        json.dumps({"kind": "bell", "c": [0.5, -0.06, 0.24], "mode": "deviation"})
    )
    for fmt in ("csv", "json"):
        out_a = tmp_path / f"a.{fmt}"
        out_b = tmp_path / f"b.{fmt}"
        for out in (out_a, out_b):
            assert main(
                ["evolve", "--state", str(state_file), "--output", str(out),
                 "--format", fmt]
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
    batch_a = tmp_path / "batch_a.csv"
    batch_b = tmp_path / "batch_b.csv"
    for out in (batch_a, batch_b):
        assert main(["batch", "--n", "200", "--seed", "11", "--output", str(out)]) == 0
    assert batch_a.read_bytes() == batch_b.read_bytes()
    capsys.readouterr()
    passed("criterion 9: byte-identical reruns of evolve and batch")


def test_criterion_4_and_5_full_measure_consistency():
    # the trajectory reports and standalone evaluation agree point by point
    traj = make_trajectory(RHO2, n_points=25)
    for i in (0, 10, 24):
        rec = BlochRecord(
            x=np.zeros(3), y=np.zeros(3), C=np.diag(traj.bell_coeffs[i])
        )
        closed, _ = geometric_discord_closed(s_matrix(rec))
        assert abs(closed - traj.reports[i].d_g) <= 1e-12
    passed("cross-check: trajectory reports match standalone evaluation")
