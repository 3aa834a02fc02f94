"""The report kernel and the PTM build keep the bytes of their first form.

``tests/oracles.py`` holds the arithmetic of S, the trace invariants, the
closed form, the Bell gate, q_n, the negativity's purity test, the local
PTM and the relaxation as first written. The library computes the same
floating-point operations in the same order with fewer numpy calls; these
tests compare every column with ``.tobytes()``, so a reordered product or
a lost -0.0 shows, as does a NaN where a number was (or the reverse).
"""
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qcorr import (
    BellDiagonalState,
    BlochRecord,
    RelaxationParams,
    bloch_decompose,
    make_trajectory,
    random_density_matrix,
)
from qcorr.channels import _relax, local_ptm
from qcorr.measures import (
    _closed_form,
    geometric_discord_closed,
    q_lower_bound,
    report_from_record,
    s_matrix,
)

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-300, 1e300]


def same_bits(got, want) -> bool:
    """Same type, dtype, shape and bytes (a NaN payload included)."""
    got_arr, want_arr = np.asarray(got), np.asarray(want)
    return (type(got) is type(want) and got_arr.dtype == want_arr.dtype
            and got_arr.shape == want_arr.shape and got_arr.tobytes() == want_arr.tobytes())


def oracle_columns(x, y, c, rho):
    """(d_g, q, theta, q_n, negativity) of a flat record stack, the first way."""
    d = round(np.sqrt(y.shape[-1] + 1))
    d_g, theta, q = oracles.closed_form(oracles.s_matrix(x, c, d))
    q_n = oracles.q_n(x, y, c) if d == 2 else np.full(d_g.shape, np.nan)
    neg = oracles.negativity(rho) if rho is not None else np.full(d_g.shape, np.nan)
    return d_g, q, theta, q_n, neg


def assert_report_bits(record, rho):
    report = report_from_record(record, rho=rho)
    flat = [a.reshape((-1,) + a.shape[record.x.ndim - 1:]) for a in (record.x, record.y, record.C)]
    want = oracle_columns(*flat, None if rho is None else rho.reshape(-1, 4, 4))
    for name, column in zip(("d_g", "q", "theta", "q_n", "negativity"), want):
        assert same_bits(getattr(report, name), column), name


def random_stack(rng, d, n, kind):
    """States and their record: random, zero S, degenerate S, or with non-finite entries."""
    rho = (random_density_matrix(2 * d, rng.integers(1, 2 * d + 1, n), seed=rng) if n
           else np.empty((0, 2 * d, 2 * d), dtype=complex))
    record = bloch_decompose(rho, d)
    x, y, c = record.x.copy(), record.y.copy(), record.C.copy()
    if kind == "zero":
        x[...], y[...], c[...] = 0.0, -0.0, -0.0
    elif kind == "degenerate":  # C C^T = a^2 I with x = 0: S is a multiple of I
        x[...] = 0.0
        c[...] = 0.0
        c[..., [0, 1, 2], [0, 1, 2]] = rng.choice([-1.0, 1.0], (n, 3)) * rng.uniform(0, 1, (n, 1))
    elif kind == "bell" and d == 2:  # Bell diagonal within, and just outside, the gate
        x[...] = rng.choice([0.0, 1e-9, 2e-8], x.shape)
        y[...] = rng.choice([0.0, -1e-9, -2e-8], y.shape)
        c *= np.where(np.eye(3, dtype=bool), 1.0, rng.choice([0.0, 1e-9, 1e-7], c.shape))
    elif kind == "special":
        for a in (x, y, c):
            mask = rng.random(a.shape) < 0.2
            a[mask] = rng.choice(SPECIAL, mask.sum())
    return rho, BlochRecord(x=x, y=y, C=c)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]), st.integers(0, 12),
       st.sampled_from(["random", "zero", "degenerate", "bell", "special"]))
@example(seed=0, d=2, n=0, kind="random")
@example(seed=0, d=3, n=0, kind="random")
@example(seed=1, d=2, n=5, kind="zero")
@example(seed=2, d=2, n=5, kind="degenerate")
@example(seed=3, d=2, n=12, kind="special")
@settings(max_examples=200)
def test_report_columns_keep_their_bytes(seed, d, n, kind):
    rho, record = random_stack(np.random.default_rng(seed), d, n, kind)
    assert_report_bits(record, rho if d == 2 else None)
    assert_report_bits(record, None)
    if n >= 4:  # two leading axes
        assert_report_bits(BlochRecord(*(a[:4].reshape((2, 2) + a.shape[1:])
                                         for a in (record.x, record.y, record.C))),
                           rho[:4].reshape(2, 2, 2 * d, 2 * d) if d == 2 else None)


def random_symmetric(rng, n, kind):
    """A stack of symmetric S: random signs and scales, degenerate, or with special entries."""
    s = rng.standard_normal((n, 3, 3)) * 10.0 ** rng.uniform(-8, 3, (n, 1, 1))
    if kind == "degenerate":
        s = rng.standard_normal((n, 1, 1)) * np.eye(3) + 1e-9 * rng.standard_normal((n, 3, 3))
    elif kind == "special":
        mask = rng.random(s.shape) < 0.15
        s[mask] = rng.choice(SPECIAL + [-0.0, -5e-324], mask.sum())
    return np.triu(s) + np.swapaxes(np.triu(s, 1), -1, -2)


@given(st.integers(0, 2**32 - 1), st.integers(0, 9),
       st.sampled_from(["random", "degenerate", "special"]))
@example(seed=0, n=0, kind="random")
@example(seed=4, n=9, kind="special")
@settings(max_examples=200)
def test_closed_form_keeps_its_bytes(seed, n, kind):
    s = random_symmetric(np.random.default_rng(seed), n, kind)
    for sub in (s, s.reshape((1,) + s.shape), *s[:3]):  # a stack, two axes, single S
        for got, want in zip(_closed_form(sub), oracles.closed_form(sub)):
            assert same_bits(got, want)
        t1, m2, _ = oracles.trace_invariants(sub)
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(q_lower_bound(sub), (4.0 / 3.0) * t1 - 4.0 * np.sqrt(m2 / 6.0))


@pytest.mark.parametrize("s", [np.zeros((3, 3)), np.full((3, 3), -0.0), np.eye(3) / 3.0,
                               np.diag([0.5, 0.25, 0.25]), np.diag([1.0, np.inf, 0.0]),
                               np.diag([np.nan, 1.0, 1.0]), np.diag([1e300, 1e300, 0.0])])
def test_one_s_keeps_its_bytes_and_types(s):
    # one 3x3 S: np.float64 d_g and q, and a 0-d theta (None from the public view)
    for got, want in zip(_closed_form(s), oracles.closed_form(s)):
        assert same_bits(got, want)
    d_g, theta = geometric_discord_closed(s)
    assert same_bits(d_g, oracles.closed_form(s)[0])
    want_theta = oracles.closed_form(s)[1]
    assert theta is None if want_theta != want_theta else theta == float(want_theta)


@given(st.integers(0, 2**32 - 1), st.integers(0, 40))
@example(seed=0, n=0)
@settings(max_examples=100)
def test_s_matrix_keeps_its_bytes(seed, n):
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        _, record = random_stack(rng, d, n, rng.choice(["random", "special"]))
        assert same_bits(s_matrix(record), oracles.s_matrix(record.x, record.C, d))


def ptm_grid(rng, n):
    """p and lambda in [0, 1] with their end points, of one shape or broadcasting."""
    p = rng.choice([0.0, 1.0, rng.uniform(), 5e-324, 1.0 - 2**-53], (2, n))
    lam = rng.choice([0.0, 1.0, rng.uniform(), 1e-300], (2, n))
    return p, (lam if rng.random() < 0.5 else lam[:1, :1])


@given(st.integers(0, 2**32 - 1), st.integers(0, 20), st.floats(0.0, 1.0))
@example(seed=0, n=0, gamma=0.5)
@settings(max_examples=100)
def test_local_ptm_keeps_its_bytes(seed, n, gamma):
    p, lam = ptm_grid(np.random.default_rng(seed), n)
    assert same_bits(local_ptm(p, gamma, lam), oracles.local_ptm(p, gamma, lam))
    assert same_bits(local_ptm(0.3, gamma, 0.7), oracles.local_ptm(0.3, gamma, 0.7))


@pytest.mark.parametrize("args, name, shown", [
    ((np.array([2.0]), 0.5, np.zeros(3)), "p", np.full(3, 2.0)),  # p as broadcast
    ((0.5, 1.5, 0.5), "gamma", 1.5),
    ((0.5, 0.5, np.array([0.2, np.nan])), "lambda", np.array([0.2, np.nan])),
    ((np.array([-0.0, -5e-324]), 0.5, 0.1), "p", np.array([-0.0, -5e-324])),
    ((np.array([0.5, 0.5]), np.nan, np.array([np.inf, 0.5])), "gamma", np.nan),
])
def test_local_ptm_range_messages(args, name, shown):
    with pytest.raises(ValueError, match=re.escape(f"{name} must lie in [0, 1], got {shown}")):
        local_ptm(*args)


def test_local_ptm_accepts_an_empty_grid():
    assert local_ptm(np.empty(0), 0.5, np.empty(0)).shape == (0, 4, 4)


@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
@settings(max_examples=60)
def test_relax_keeps_its_bytes(seed, n):
    rng = np.random.default_rng(seed)
    params = RelaxationParams(*rng.uniform(0.01, 20.0, 4), rng.uniform(1e-9, 1.0),
                              rng.uniform(1.0, 500.0))
    times = np.sort(rng.uniform(0.0, 10.0, n))
    times[0] = 0.0
    r0 = rng.standard_normal((4, 4))
    assert same_bits(_relax(r0, times, params), oracles.relax(r0, times, params))


@pytest.mark.parametrize("times, bad", [([0.0, -1.0], "-1.0"), ([np.nan], "nan"),
                                        ([1.0, np.inf], "inf"), ([-np.inf, 2.0], "-inf")])
def test_relax_names_the_first_bad_time(times, bad):
    with pytest.raises(ValueError, match=f"time must be finite and non-negative, got {bad}$"):
        _relax(np.eye(4), times, RelaxationParams())
    assert _relax(np.eye(4), [], RelaxationParams()).shape == (0, 4, 4)


coefficient = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1e-300, 5e-324])


@given(coefficient, coefficient, coefficient, st.sampled_from(["deviation", "full"]),
       st.integers(5, 60), st.booleans(), st.floats(1e-9, 1.0))
@example(0.5, -0.06, 0.24, "deviation", 51, True, 1e-5)
@example(0.8, -0.7, 0.45, "deviation", 51, False, 1e-5)
@example(0.0, -0.0, 0.0, "full", 5, False, 1.0)
@settings(max_examples=100)
def test_trajectory_keeps_its_bytes(c1, c2, c3, mode, n_points, local, eps):
    try:
        state = BellDiagonalState(c1, c2, c3, mode=mode)
    except ValueError:  # outside the Bell tetrahedron
        return
    params = RelaxationParams(epsilon=eps)
    traj = make_trajectory(state, params, n_points=n_points, include_local_bloch=local)
    scale = params.epsilon if mode == "deviation" else 1.0
    coeffs0 = state.coefficients if mode == "full" else params.epsilon * state.coefficients
    r = oracles.relax(np.diag([1.0, *coeffs0]), traj.times, params)
    states = oracles.pauli_states(r)
    x = r[:, 1:, 0] / scale if local else np.zeros((n_points, 3))
    y = r[:, 0, 1:] / scale if local else np.zeros((n_points, 3))
    c = r[:, 1:, 1:] / scale
    assert same_bits(traj.states, states)
    assert same_bits(traj.bell_coeffs, np.diagonal(c, axis1=1, axis2=2).copy())
    for name, column in zip(("d_g", "q", "theta", "q_n", "negativity"),
                            oracle_columns(x, y, c, states)):
        assert same_bits(getattr(traj.reports, name), column), name
