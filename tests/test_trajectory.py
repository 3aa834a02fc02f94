import dataclasses
import gc
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcorr import (
    BellDiagonalState,
    RelaxationParams,
    Trajectory,
    check_density_matrix,
    detect_transition,
    evolve,
    make_trajectory,
    one_sided_slopes,
)
from qcorr.channels import TRANSITION_SPIKE_FACTOR, TransitionPoint
from qcorr.measures import PPT_BALL_MARGIN, CorrelationReport

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
    assert len(traj.reports) == 11
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


def test_reports_iterate_within_their_length(monkeypatch):
    # iteration and unpacking index the stack within its length, never past its end
    indices = []
    getitem = CorrelationReport.__getitem__
    monkeypatch.setattr(CorrelationReport, "__getitem__",
                        lambda self, i: indices.append(i) or getitem(self, i))
    reports = make_trajectory(RHO2, n_points=5).reports
    first, *rest = reports
    assert [first, *rest] == [getitem(reports, i) for i in range(5)]
    assert indices == [0, 1, 2, 3, 4]


def test_reports_compare_by_column():
    # NaN equals NaN in a column, so a stack with missing q_n still equals itself
    a = make_trajectory(RHO2, n_points=5, include_local_bloch=True).reports
    b = make_trajectory(RHO2, n_points=5, include_local_bloch=True).reports
    assert np.isnan(a.q_n).any()
    assert a == b and not a != b
    b.d_g[2] += 1e-16
    assert a != b
    assert a != dataclasses.replace(a, units="eps^0")
    assert a != make_trajectory(RHO2, n_points=6, include_local_bloch=True).reports
    one, same = a[1], dataclasses.replace(a[1])
    assert one == same and one.q_n is None and hash(one) == hash(same)
    assert one != dataclasses.replace(one, q_n=0.0) and one != a[0] and one != a


def test_t_max_grid():
    traj = make_trajectory(RHO1, t_max=1.0, n_points=5)
    assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        make_trajectory(RHO1, t_max=1.0, dt=0.1)
    with pytest.raises(ValueError):
        make_trajectory(RHO1, n_points=1)
    with pytest.raises(ValueError, match="^n_points must be an integer, got True$"):
        make_trajectory(RHO1, n_points=True)  # a bool, refused as every integer argument
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


def evolved_states(state, params, times):
    """The physical state at each grid time, evolved on its own from t = 0."""
    rho0 = state.density_matrix(params.epsilon)
    return [evolve(rho0, float(t), params) for t in times]


def test_trajectory_states_are_valid():
    params = RelaxationParams()
    traj = make_trajectory(RHO2, params, n_points=40)
    for rho in evolved_states(RHO2, params, traj.times):
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
    state, params = BellDiagonalState(0.9, -0.9, 0.8), RelaxationParams()
    traj = make_trajectory(state, params, n_points=20)
    assert traj.reports[0].units == "eps^0"
    assert abs(traj.bell_coeffs[0, 0] - 0.9) <= 1e-12
    for rho in evolved_states(state, params, traj.times):
        check_density_matrix(rho)


def synthetic_trajectory(values):
    n = len(values)
    values, missing = np.array(values, dtype=float), np.full(n, np.nan)
    report = CorrelationReport(d_g=values, q=values, theta=missing, q_n=missing,
                               negativity=missing, units="eps^0")
    return Trajectory(
        times=np.arange(n, dtype=float),
        bell_coeffs=np.tile([0.3, 0.2, 0.1], (n, 1)),
        reports=report,
    )


def test_detect_transition_constant_trajectory():
    assert detect_transition(synthetic_trajectory([0.5] * 20)) is None


def test_detect_transition_needs_five_points():
    with pytest.raises(ValueError):
        detect_transition(synthetic_trajectory([0.5] * 4))


def transition_by_loop(traj):
    """The detection rule as a loop over the grid: the first argmax switch of |c_i|
    (from index 2 on) whose second difference of d_g, at either end of the step,
    exceeds TRANSITION_SPIKE_FACTOR times the median |second difference|."""
    n = len(traj.times)
    dominant = np.argmax(np.abs(traj.bell_coeffs), axis=1)
    d_g = traj.reports.d_g
    second = d_g[2:] - 2.0 * d_g[1:-1] + d_g[:-2]  # second[k] sits at grid k+1
    median = float(np.median(np.abs(second)))
    for i in range(2, n):
        if dominant[i] == dominant[i - 1]:
            continue
        spike = abs(second[i - 2])
        if i <= n - 2:
            spike = max(spike, abs(second[i - 1]))
        if spike > TRANSITION_SPIKE_FACTOR * median:
            return TransitionPoint(t_star=float(traj.times[i]), index=i)
    return None


@settings(max_examples=300)
@given(
    n=st.integers(5, 300),
    seed=st.integers(0, 2**32 - 1),
    switches=st.lists(st.integers(1, 299), max_size=5),
    spike=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]),
    noise=st.sampled_from([0.0, 1e-4]),
    structured=st.booleans(),
)
@example(n=5, seed=0, switches=[2], spike=1.0, noise=1e-4, structured=True)
@example(n=5, seed=1, switches=[2], spike=0.0, noise=1e-4, structured=True)
@example(n=300, seed=2, switches=[299], spike=1.0, noise=1e-4, structured=True)
@example(n=300, seed=3, switches=[299], spike=0.0, noise=1e-4, structured=True)
@example(n=40, seed=4, switches=[], spike=1.0, noise=1e-4, structured=True)
@example(n=7, seed=5, switches=[1, 2, 3, 4, 5, 6], spike=1e-2, noise=1e-4, structured=True)
@example(n=20, seed=6, switches=[9], spike=0.0, noise=0.0, structured=True)
def test_detect_transition_equals_loop_rule(n, seed, switches, spike, noise, structured):
    # structured: the dominant |c_i| changes exactly at ``switches`` and d_g, a smooth
    # random walk of step ``noise``, gets a kink of size ``spike`` there (with neither,
    # d_g is constant and the spike ties its limit of 0); otherwise both are noise
    rng = np.random.default_rng(seed)
    if structured:
        dominant = np.zeros(n, dtype=int)
        for i in sorted({i for i in switches if i < n}):
            dominant[i:] = (dominant[i - 1] + rng.integers(1, 3)) % 3
        coeffs = rng.uniform(-0.5, 0.5, (n, 3))
        coeffs[np.arange(n), dominant] = rng.choice([-1.0, 1.0], n) * rng.uniform(0.6, 1.0, n)
        d_g = np.cumsum(np.cumsum(rng.normal(0.0, noise, n)))
        for i in switches:
            if i < n:
                d_g[i:] += spike * rng.uniform(0.5, 1.0) * np.arange(n - i)
    else:
        coeffs = rng.uniform(-1.0, 1.0, (n, 3))
        d_g = rng.normal(0.0, 1.0, n)
    missing = np.full(n, np.nan)
    traj = Trajectory(
        times=np.arange(n) * rng.uniform(1e-4, 1e-2),
        bell_coeffs=coeffs,
        reports=CorrelationReport(d_g=d_g, q=d_g, theta=missing, q_n=missing,
                                  negativity=missing, units="eps^0"),
    )
    assert detect_transition(traj) == transition_by_loop(traj)


def test_coarse_short_grid_misses_a_real_switch():
    # the docstring's example: the median over a short coarse grid hides the kink
    state = BellDiagonalState(0.8, -0.7, 0.45, mode="deviation")
    for n_points, want in ((60, None), (100, 20)):
        traj = make_trajectory(state, dt=0.005, n_points=n_points)
        switches = np.flatnonzero(np.diff(np.argmax(np.abs(traj.bell_coeffs), axis=1))) + 1
        assert switches.tolist() == [20]
        hit = detect_transition(traj)
        assert (hit and hit.index) == want


def test_one_sided_slopes():
    values = [0.0, 1.0, 3.0]
    left, right = one_sided_slopes(values, [0.0, 1.0, 2.0], 1)
    assert (left, right) == (1.0, 2.0)
    with pytest.raises(ValueError):
        one_sided_slopes(values, [0.0, 1.0, 2.0], 2)


def test_nan_second_difference_confirms_nothing():
    # a real switch with a large kink, but one NaN in d_g: the median is NaN and no
    # spike exceeds it, as in the loop rule with np.median
    values = np.zeros(40)
    values[20:] = np.arange(20) * 1.0
    traj = synthetic_trajectory(values)
    traj.bell_coeffs[20:] = [0.1, 0.2, 0.3]
    assert detect_transition(traj) == transition_by_loop(traj) == TransitionPoint(20.0, 20)
    traj.reports.d_g[5] = np.nan
    assert transition_by_loop(traj) is None
    assert detect_transition(traj) is None


def test_detect_transition_does_not_import_numpy_ma():
    # np.median imports numpy.ma on its first call in a process (about 20 ms)
    code = ("import sys\n"
            "from qcorr import BellDiagonalState, detect_transition, make_trajectory\n"
            "state = BellDiagonalState(0.7762, -0.6143, 0.2848, mode='deviation')\n"
            "traj = make_trajectory(state)\n"
            "assert detect_transition(traj) is not None\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("state, calls", [
    (RHO2, 0),  # eps-close to I/4: the purity test certifies every point PPT
    (BellDiagonalState(0.6, -0.4, 0.3, mode="full"), 1),  # entangled at first
])
def test_trajectory_negativity_diagonalizes_only_outside_the_ball(monkeypatch, state, calls):
    import qcorr.measures

    seen = []
    original = qcorr.measures.hermitian_eigenvalues

    def counted(mat):
        seen.append(np.shape(mat))
        return original(mat)

    monkeypatch.setattr(qcorr.measures, "hermitian_eigenvalues", counted)
    params = RelaxationParams()
    traj = make_trajectory(state, params, n_points=251)
    # outside: ||rho||_F >= tr[rho] sqrt(1/3 - margin), read off the evolved states
    states = np.array(evolved_states(state, params, traj.times))
    norms = np.linalg.norm(states, axis=(1, 2))
    outside = norms >= np.trace(states, axis1=1, axis2=2).real * np.sqrt(1 / 3 - PPT_BALL_MARGIN)
    assert len(seen) == calls and seen == [(outside.sum(), 4, 4)] * calls
    negativity = traj.reports.negativity
    assert negativity[~outside].tobytes() == np.zeros((~outside).sum()).tobytes()
    assert negativity.dtype == np.float64 and negativity.flags.writeable
    if state.mode == "full":  # the first 51 of 251 points, the first 48 of them entangled
        assert outside.sum() == 51 and (negativity > 0).sum() == 48


def test_deviation_trajectory_builds_no_state(monkeypatch):
    import qcorr.channels

    def refuse(r):
        raise AssertionError("a 4x4 state stack was built")

    want = make_trajectory(RHO2, n_points=251)
    monkeypatch.setattr(qcorr.channels, "_states", refuse)
    traj = make_trajectory(RHO2, n_points=251)
    assert traj.reports == want.reports
    assert traj.reports.negativity.tobytes() == np.zeros(251).tobytes()


def test_trajectory_peak_memory_per_point():
    # no (n, 4, 4) complex stack: the Pauli coefficients, their record and the
    # report columns set the peak (1,156 bytes a point with the stack)
    n = 40_000
    make_trajectory(RHO2, n_points=7)  # first-call allocations outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        traj = make_trajectory(RHO2, n_points=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == n
    assert peak < 800 * n, f"{peak / n:.0f} bytes per point"
