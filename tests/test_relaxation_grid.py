"""make_trajectory builds its relaxation grid (times and decays) on every call, so a
trajectory's bytes never depend on the calls before it: after the same grid (a "hit"),
another grid (a "miss") or a grid in between (an "eviction"), a trajectory equals the
one built again from the same arguments."""
import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from qcorr import BellDiagonalState, RelaxationParams, make_trajectory

DEVIATION = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation")
FULL = BellDiagonalState(0.9, -0.9, 0.8)
PARAMS = RelaxationParams()
DT = 0.005
N = 51
#: every field changed on its own; t1 and t2 stay ordered as in the defaults
OTHER_PARAMS = {"t1_a": 3.0, "t2_a": 0.9, "t1_b": 8.0, "t2_b": 0.25,
                "epsilon": 0.3, "j_coupling": 120.0}


def columns(traj) -> list:
    """Every array of a trajectory as bytes, with the report's other fields."""
    values = [traj.times, traj.bell_coeffs,
              *(getattr(traj.reports, f.name) for f in dataclasses.fields(traj.reports))]
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in values]


@pytest.mark.parametrize("include_local_bloch", [False, True])
def test_trajectory_after_a_hit_equals_a_cold_build(include_local_bloch):
    make_trajectory(FULL, PARAMS, dt=DT, n_points=N)
    warm = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N,
                           include_local_bloch=include_local_bloch)
    want = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N,
                           include_local_bloch=include_local_bloch)
    assert columns(warm) == columns(want)


@pytest.mark.parametrize("change", [
    *({"params": dataclasses.replace(PARAMS, **{name: value})}
      for name, value in OTHER_PARAMS.items()),
    {"dt": 0.004},
    {"n_points": N + 1},
], ids=[*OTHER_PARAMS, "dt", "n_points"])
@pytest.mark.parametrize("state", [DEVIATION, FULL], ids=["deviation", "full"])
def test_trajectory_after_a_miss_equals_a_cold_build(change, state):
    # each grid field changed on its own, after a trajectory on the default grid
    grid = {"params": PARAMS, "dt": DT, "n_points": N, **change}
    make_trajectory(state, PARAMS, dt=DT, n_points=N)
    warm = make_trajectory(state, **grid)
    assert columns(warm) == columns(make_trajectory(state, **grid))


def test_trajectory_after_an_eviction_equals_a_cold_build():
    first = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N)
    make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=2 * N)
    again = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N)
    assert columns(again) == columns(first)


def test_equal_params_reuse_the_grid():
    first = make_trajectory(DEVIATION, RelaxationParams(), dt=DT, n_points=N)
    equal = RelaxationParams(t1_a=3.57, t2_a=1.2, t1_b=10.0, t2_b=0.19,
                             epsilon=1e-5, j_coupling=215.1)
    assert columns(make_trajectory(DEVIATION, equal, dt=DT, n_points=N)) == columns(first)


def test_t_max_reuses_the_grid_of_an_equal_dt():
    t_max = (N - 1) * DT
    assert t_max / (N - 1) == DT
    want = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N)
    assert columns(make_trajectory(DEVIATION, PARAMS, t_max=t_max, n_points=N)) == columns(want)


def test_each_trajectory_owns_its_times():
    want = columns(make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N))
    traj = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N)
    assert traj.times.flags.writeable
    traj.times[:] = -1.0
    assert columns(make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N)) == want


def test_params_of_numpy_scalars_key_the_same_grid():
    numpy_params = RelaxationParams(t1_a=np.array(3.57), t2_a=np.float64(1.2),
                                    epsilon=np.float32(0.25))
    assert all(type(getattr(numpy_params, f.name)) is float
               for f in dataclasses.fields(numpy_params))
    plain = dataclasses.replace(PARAMS, epsilon=float(np.float32(0.25)))
    assert numpy_params == plain and hash(numpy_params) == hash(plain)
    warm = make_trajectory(DEVIATION, numpy_params, dt=DT, n_points=N)
    assert columns(warm) == columns(make_trajectory(DEVIATION, plain, dt=DT, n_points=N))


@pytest.mark.parametrize("grid", [{"n_points": 51.5}, {"n_points": 51.0},
                                  {"t_max": 1.0, "n_points": 2.5}, {"n_points": "51"}])
def test_trajectory_refuses_a_non_integer_point_count(grid):
    with pytest.raises(ValueError, match="n_points must be an integer"):
        make_trajectory(DEVIATION, **grid)


def test_trajectory_takes_numpy_integer_point_counts():
    traj = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=np.int64(N))
    assert columns(traj) == columns(make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N))


def test_a_dt_of_any_number_type_gives_float_times():
    for dt in (np.float64(DT), np.float32(DT), 1):
        traj = make_trajectory(DEVIATION, PARAMS, dt=dt, n_points=N)
        assert traj.times.dtype == np.float64
        assert columns(traj) == columns(make_trajectory(DEVIATION, PARAMS, dt=float(dt),
                                                        n_points=N))


def test_trajectory_keeps_no_memory_alive():
    n = 5000
    make_trajectory(DEVIATION, n_points=7)  # first-call allocations outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        traj = make_trajectory(DEVIATION, n_points=n)
        del traj
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # nothing of the grid (40 bytes per point) or of the trajectory stays behind
    assert held < 4096
