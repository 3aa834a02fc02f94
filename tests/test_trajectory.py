import dataclasses

import numpy as np
import pytest

from qcorr import (
    BellDiagonalState,
    RelaxationParams,
    Trajectory,
    check_density_matrix,
    detect_transition,
    make_trajectory,
    one_sided_slopes,
)
from qcorr.measures import CorrelationReport

RHO1 = BellDiagonalState(0.2, -0.2, 0.2, mode="deviation")
RHO2 = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation")


def transverse_rate(p: RelaxationParams) -> float:
    return 0.5 / p.t1_a + 1.0 / p.t2_a + 0.5 / p.t1_b + 1.0 / p.t2_b


def longitudinal_rate(p: RelaxationParams) -> float:
    return 1.0 / p.t1_a + 1.0 / p.t1_b


def test_default_grid():
    traj = make_trajectory(RHO1, n_points=11)
    params = RelaxationParams()
    assert len(traj.times) == 11
    assert traj.times[0] == 0.0
    assert traj.times[1] == pytest.approx(1.0 / (4 * params.j_coupling))
    assert len(traj.states) == len(traj.reports) == 11
    assert traj.bell_coeffs.shape == (11, 3)


def test_reports_view_reads_and_writes_the_columns():
    traj = make_trajectory(RHO2, n_points=11, include_local_bloch=True)
    reports = traj.reports
    assert len(reports) == 11 and reports[-1] == reports[10]
    q_n = reports.q_n.tolist()
    assert [r.q_n for r in reports] == [None if np.isnan(v) else v for v in q_n]
    assert np.isnan(q_n).any() and not np.isnan(q_n).all()  # both None and numbers
    reports[3] = dataclasses.replace(reports[3], d_g=1.0, q_n=None)
    assert reports.d_g[3] == 1.0 and np.isnan(reports.q_n[3]) and reports[3].q_n is None


def test_t_max_grid():
    traj = make_trajectory(RHO1, t_max=1.0, n_points=5)
    assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        make_trajectory(RHO1, t_max=1.0, dt=0.1)
    with pytest.raises(ValueError):
        make_trajectory(RHO1, n_points=1)
    with pytest.raises(ValueError):
        make_trajectory(RHO1, t_max=-1.0)


def test_initial_point_reproduces_reference_values():
    # the t = 0 channel application is an exact identity only up to the
    # sqrt/square round trip in the Kraus weights; after the 1/eps
    # rescaling that leaves ~1e-12 noise on the coefficients
    traj = make_trajectory(RHO2, n_points=5)
    first = traj.reports[0]
    assert abs(first.d_g - 0.0306) <= 5e-12
    assert abs(first.q_n - 0.12) <= 5e-12
    assert np.allclose(traj.bell_coeffs[0], [0.5, -0.06, 0.24], atol=1e-11)


def test_trajectory_states_are_valid():
    traj = make_trajectory(RHO2, n_points=40)
    for rho in traj.states:
        check_density_matrix(rho)


def test_monotone_regime():
    traj = make_trajectory(RHO1)
    for key in ("d_g", "q", "q_n"):
        series = np.array([getattr(r, key) for r in traj.reports])
        assert np.all(np.diff(series) <= 1e-12)
    assert detect_transition(traj) is None


def test_no_revival_across_the_transition():
    # the measures stay non-increasing on both reference runs; the sudden
    # transition is a kink, not a jump or a revival
    traj = make_trajectory(RHO2)
    for key in ("d_g", "q", "q_n"):
        series = np.array([getattr(r, key) for r in traj.reports])
        assert np.all(np.diff(series) <= 1e-12)


def test_sudden_transition_location_and_uniqueness():
    params = RelaxationParams()
    traj = make_trajectory(RHO2, params)
    hit = detect_transition(traj)
    assert hit is not None
    dominant = np.argmax(np.abs(traj.bell_coeffs), axis=1)
    switches = [i for i in range(2, len(traj.times)) if dominant[i] != dominant[i - 1]]
    assert switches == [hit.index]
    # grid point where |c1| exp(-kT t) crosses |c3| exp(-kL t)
    crossing = np.log(0.5 / 0.24) / (transverse_rate(params) - longitudinal_rate(params))
    assert abs(hit.t_star - crossing) <= traj.times[1]


def test_slope_split_at_transition():
    traj = make_trajectory(RHO2)
    hit = detect_transition(traj)
    series = {
        key: np.array([getattr(r, key) for r in traj.reports])
        for key in ("d_g", "q", "q_n")
    }

    def rel_gap(values):
        left, right = one_sided_slopes(values, traj.times, hit.index)
        return abs(left - right) / max(abs(left), abs(right))

    assert rel_gap(series["d_g"]) > 0.20
    assert rel_gap(series["q_n"]) > 0.20
    assert rel_gap(series["q"]) <= 0.02


def test_including_local_bloch_changes_dg_but_not_coeffs():
    kwargs = dict(n_points=100)
    plain = make_trajectory(RHO2, **kwargs)
    withx = make_trajectory(RHO2, include_local_bloch=True, **kwargs)
    assert np.allclose(plain.bell_coeffs, withx.bell_coeffs, atol=1e-14)
    dg_plain = np.array([r.d_g for r in plain.reports])
    dg_withx = np.array([r.d_g for r in withx.reports])
    # the damping bias adds a longitudinal term to S at late times
    assert np.max(np.abs(dg_plain - dg_withx)) > 1e-6
    # the polarization also breaks the Bell-diagonal gate for q_n
    assert withx.reports[-1].q_n is None
    assert plain.reports[-1].q_n is not None


def test_full_mode_trajectory():
    state = BellDiagonalState(0.9, -0.9, 0.8)
    traj = make_trajectory(state, n_points=20)
    assert traj.reports[0].units == "eps^0"
    assert abs(traj.bell_coeffs[0, 0] - 0.9) <= 1e-12
    for rho in traj.states:
        check_density_matrix(rho)


def synthetic_trajectory(values):
    n = len(values)
    values, missing = np.array(values, dtype=float), np.full(n, np.nan)
    report = CorrelationReport(d_g=values, q=values, theta=missing, q_n=missing,
                               negativity=missing, units="eps^0")
    return Trajectory(
        times=np.arange(n, dtype=float),
        states=np.tile(np.eye(4, dtype=complex) / 4.0, (n, 1, 1)),
        bell_coeffs=np.tile([0.3, 0.2, 0.1], (n, 1)),
        reports=report,
    )


def test_detect_transition_constant_trajectory():
    assert detect_transition(synthetic_trajectory([0.5] * 20)) is None


def test_detect_transition_needs_five_points():
    with pytest.raises(ValueError):
        detect_transition(synthetic_trajectory([0.5] * 4))


def test_one_sided_slopes():
    values = [0.0, 1.0, 3.0]
    left, right = one_sided_slopes(values, [0.0, 1.0, 2.0], 1)
    assert (left, right) == (1.0, 2.0)
    with pytest.raises(ValueError):
        one_sided_slopes(values, [0.0, 1.0, 2.0], 2)
