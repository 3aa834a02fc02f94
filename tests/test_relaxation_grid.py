"""The relaxation grid of make_trajectory is built and checked once per
(params, dt, n_points) and reused, without moving a byte of any trajectory."""
import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from qcorr import BellDiagonalState, RelaxationParams, make_trajectory
from qcorr import channels
from qcorr.channels import _relaxation_grid

DEVIATION = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation")
FULL = BellDiagonalState(0.9, -0.9, 0.8)
PARAMS = RelaxationParams()
DT = 0.005
N = 51
#: every field changed on its own; t1 and t2 stay ordered as in the defaults
OTHER_PARAMS = {"t1_a": 3.0, "t2_a": 0.9, "t1_b": 8.0, "t2_b": 0.25,
                "epsilon": 0.3, "j_coupling": 120.0}


@pytest.fixture(autouse=True)
def cold_cache():
    _relaxation_grid.cache_clear()
    yield
    _relaxation_grid.cache_clear()


def columns(traj) -> list:
    """Every array of a trajectory as bytes, with the report's other fields."""
    values = [traj.times, traj.states, traj.bell_coeffs,
              *(getattr(traj.reports, f.name) for f in dataclasses.fields(traj.reports))]
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in values]


def cold(state, params, **grid):
    """The trajectory built with no grid cached."""
    _relaxation_grid.cache_clear()
    return make_trajectory(state, params, **grid)


@pytest.mark.parametrize("include_local_bloch", [False, True])
def test_trajectory_after_a_hit_equals_a_cold_build(include_local_bloch):
    make_trajectory(FULL, PARAMS, dt=DT, n_points=N)
    warm = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N,
                           include_local_bloch=include_local_bloch)
    assert _relaxation_grid.cache_info().hits == 1
    want = cold(DEVIATION, PARAMS, dt=DT, n_points=N, include_local_bloch=include_local_bloch)
    assert columns(warm) == columns(want)


@pytest.mark.parametrize("change", [
    *({"params": dataclasses.replace(PARAMS, **{name: value})}
      for name, value in OTHER_PARAMS.items()),
    {"dt": 0.004},
    {"n_points": N + 1},
], ids=[*OTHER_PARAMS, "dt", "n_points"])
@pytest.mark.parametrize("state", [DEVIATION, FULL], ids=["deviation", "full"])
def test_trajectory_after_a_miss_equals_a_cold_build(change, state):
    # each key field on its own leads to a new grid, never to the cached one
    grid = {"params": PARAMS, "dt": DT, "n_points": N, **change}
    make_trajectory(state, PARAMS, dt=DT, n_points=N)
    warm = make_trajectory(state, **grid)
    misses = _relaxation_grid.cache_info().misses
    assert columns(warm) == columns(cold(state, **grid))
    assert misses == 2


def test_trajectory_after_an_eviction_equals_a_cold_build():
    first = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N)
    make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=2 * N)
    again = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N)
    misses = _relaxation_grid.cache_info().misses
    assert columns(again) == columns(first)
    assert columns(again) == columns(cold(DEVIATION, PARAMS, dt=DT, n_points=N))
    assert misses == 3


def test_equal_params_reuse_the_grid():
    make_trajectory(DEVIATION, RelaxationParams(), dt=DT, n_points=N)
    equal = RelaxationParams(t1_a=3.57, t2_a=1.2, t1_b=10.0, t2_b=0.19,
                             epsilon=1e-5, j_coupling=215.1)
    warm = make_trajectory(DEVIATION, equal, dt=DT, n_points=N)
    assert _relaxation_grid.cache_info().hits == 1
    assert columns(warm) == columns(cold(DEVIATION, equal, dt=DT, n_points=N))


def test_t_max_reuses_the_grid_of_an_equal_dt():
    t_max = (N - 1) * DT
    assert t_max / (N - 1) == DT
    make_trajectory(FULL, PARAMS, dt=DT, n_points=N)
    warm = make_trajectory(DEVIATION, PARAMS, t_max=t_max, n_points=N)
    assert _relaxation_grid.cache_info().hits == 1
    assert columns(warm) == columns(cold(DEVIATION, PARAMS, t_max=t_max, n_points=N))


def test_each_trajectory_owns_its_times():
    traj = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N)
    assert traj.times.flags.writeable
    traj.times[:] = -1.0
    after = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=N)
    assert _relaxation_grid.cache_info().hits == 1
    assert columns(after) == columns(cold(DEVIATION, PARAMS, dt=DT, n_points=N))


def test_checks_run_once_per_grid(monkeypatch):
    calls = []
    check = channels._check_ptm_args
    monkeypatch.setattr(channels, "_check_ptm_args",
                        lambda *args: calls.append(args[0].shape) or check(*args))
    for n in (N, N, N, N + 1, N + 1, N):
        make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=n)
    assert calls == [(2, N), (2, N + 1), (2, N)]


def test_params_of_numpy_scalars_key_the_same_grid():
    numpy_params = RelaxationParams(t1_a=np.array(3.57), t2_a=np.float64(1.2),
                                    epsilon=np.float32(0.25))
    assert all(type(getattr(numpy_params, f.name)) is float
               for f in dataclasses.fields(numpy_params))
    plain = dataclasses.replace(PARAMS, epsilon=float(np.float32(0.25)))
    assert numpy_params == plain and hash(numpy_params) == hash(plain)
    warm = make_trajectory(DEVIATION, numpy_params, dt=DT, n_points=N)
    assert columns(warm) == columns(cold(DEVIATION, plain, dt=DT, n_points=N))


def test_grid_key_holds_plain_numbers(monkeypatch):
    keys = []
    grid = channels._relaxation_grid
    monkeypatch.setattr(channels, "_relaxation_grid",
                        lambda *key: keys.append(key) or grid(*key))
    make_trajectory(DEVIATION, PARAMS, dt=np.float64(DT), n_points=np.int64(N))
    make_trajectory(DEVIATION, PARAMS, t_max=np.float32(0.25), n_points=np.uint8(N))
    assert [(type(dt), type(n)) for _, dt, n in keys] == [(float, int)] * 2


@pytest.mark.parametrize("grid", [{"n_points": 51.5}, {"n_points": 51.0},
                                  {"t_max": 1.0, "n_points": 2.5}, {"n_points": "51"}])
def test_trajectory_refuses_a_non_integer_point_count(grid):
    with pytest.raises(ValueError, match="n_points must be an integer"):
        make_trajectory(DEVIATION, **grid)


def test_trajectory_takes_numpy_integer_point_counts():
    traj = make_trajectory(DEVIATION, PARAMS, dt=DT, n_points=np.int64(N))
    assert columns(traj) == columns(cold(DEVIATION, PARAMS, dt=DT, n_points=N))


def test_cache_keeps_40_bytes_per_point_of_the_last_grid():
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
    # times (8 bytes) and four decays (32 bytes) per point, plus the cache
    # entry, its key and the array headers
    assert 40 * n <= held <= 40 * n + 4096
