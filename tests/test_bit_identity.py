"""The sampler, the report kernel and the PTM build keep the bytes of their first form.

``tests/oracles.py`` holds the Ginibre sampler, the arithmetic of S, the
trace invariants, the closed form, Q, the eigenvalue route, the Bell gate,
q_n, the negativity (purity test, then spectrum), the batch campaigns, the
local PTM and the relaxation as first written. The library computes the same
floating-point operations in the same order with fewer numpy calls; these
tests compare every column with ``.tobytes()``, so a reordered product or
a lost -0.0 shows, as does a NaN where a number was (or the reverse).
The JSON renderers are held to the text of their first form, which built
a dict per table row and rendered every cell on its own.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from qcorr import (
    BellDiagonalState,
    BlochRecord,
    RelaxationParams,
    bloch_decompose,
    make_trajectory,
    random_density_matrix,
)
from qcorr.channels import _build_ptm, _negativity, _relax
from qcorr.io import dump_json, render_table, serialize_trajectory
import qcorr.batch
from qcorr.batch import run_batch_campaigns
from qcorr.measures import (
    PPT_BALL_MARGIN,
    _closed_form,
    _inside_separable_ball,
    _spectral_negativity,
    geometric_discord_closed,
    geometric_discord_eig,
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


@given(st.integers(2, 16), st.integers(1, 3), st.integers(1, 12), st.data())
@settings(max_examples=150)
def test_sampler_keeps_its_bytes(dim, rows, n, data):
    # every state of the sampler is its first form's: a scalar and a 1-D rank on an int
    # seed, and two consecutive 2-D blocks on the same one to three Generators
    dtype = data.draw(st.sampled_from([np.int8, np.uint8, np.int16, np.int64]))
    pure = data.draw(st.booleans())  # rank-1 rows: pure states
    ranks = [1] * (rows * n) if pure else data.draw(
        st.lists(st.integers(1, dim), min_size=rows * n, max_size=rows * n))
    seeds = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=rows, max_size=rows))
    ranks = np.array(ranks, dtype=dtype).reshape(rows, n)
    for rank in (ranks[0, 0], ranks[0]):
        assert same_bits(random_density_matrix(dim, rank, seeds[0]),
                         oracles.random_density_matrix(dim, rank, seeds[0]))
    got, want = ([np.random.default_rng(seed) for seed in seeds] for _ in range(2))
    for _ in range(2):
        assert same_bits(random_density_matrix(dim, ranks, got),
                         oracles.random_density_matrix(dim, ranks, want))


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


@given(st.integers(0, 2**32 - 1), st.integers(0, 9),
       st.sampled_from(["random", "degenerate", "special"]))
@example(seed=0, n=0, kind="random")
@example(seed=4, n=9, kind="special")
@settings(max_examples=200)
def test_q_and_eigenvalue_route_keep_their_bytes(seed, n, kind):
    # the campaigns take Q from the closed-form pass, and the eigenvalue route sums
    # the trace from diagonal views: both are the bytes of their first form
    s = random_symmetric(np.random.default_rng(seed), n, kind)
    for sub in (s, s.reshape((1,) + s.shape), *s[:3]):  # a stack, two axes, single S
        assert same_bits(_closed_form(sub)[2], oracles.q_lower_bound(sub))
        assert same_bits(geometric_discord_eig(sub), oracles.geometric_discord_eig(sub))


def rejected_two_qubit_stack(rng, n, kind):
    """(n, 4, 4) states the purity test rejects: the first is pure; "ball" puts the
    others near I/4, "special" writes special entries into Hermitian pairs."""
    rho = random_density_matrix(4, np.r_[1, rng.integers(1, 5, n - 1)], seed=rng)
    if kind == "ball":
        rho[1:] = np.eye(4) / 4.0 + 1e-3 * (rho[1:] - np.eye(4) / 4.0)
    elif kind == "special":
        items, rows, cols = rng.integers(0, n, 4), rng.integers(0, 4, 4), rng.integers(0, 4, 4)
        values = rng.choice(SPECIAL, 4)
        rho[items, rows, cols] = values
        rho[items, cols, rows] = values
    return rho


@given(st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.sampled_from(["random", "ball", "special"]))
@example(seed=0, n=1, kind="random")
@example(seed=5, n=12, kind="special")
@settings(max_examples=200)
def test_spectral_negativity_keeps_its_bytes(seed, n, kind):
    # on a stack the purity test rejects, negativity() is its spectral route
    rho = rejected_two_qubit_stack(np.random.default_rng(seed), n, kind)
    assert not _inside_separable_ball(rho)
    want = oracles.negativity(rho)
    assert same_bits(_spectral_negativity(rho), want)
    assert same_bits(_spectral_negativity(rho.reshape(1, n, 4, 4)), want.reshape(1, n))


def test_spectral_negativity_keeps_a_nan_item():
    rho = rejected_two_qubit_stack(np.random.default_rng(7), 3, "random")
    rho[1, 2, 2] = np.nan
    got = _spectral_negativity(rho)
    assert np.isnan(got[1]) and np.isfinite(got[[0, 2]]).all()
    assert same_bits(got, oracles.negativity(rho))


@pytest.mark.parametrize("dims", [(), (2, 2), (5, 2, 2, 8)])
@pytest.mark.parametrize("entries", [1, 700, qcorr.batch.CHUNK_ENTRIES])
def test_campaign_reports_keep_their_bytes(monkeypatch, dims, entries):
    # a report is the one-state oracle's, worst to the last bit, whatever the chunk seams
    monkeypatch.setattr(qcorr.batch, "CHUNK_ENTRIES", entries)
    for n, seed in ((1, 0), (13, 21)):
        got = [(r.name, r.samples, r.violations, r.worst.hex(), r.tolerance)
               for r in run_batch_campaigns(n, seed, dims)]
        assert got == oracles.campaigns(n, seed, dims), (n, seed)


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
    assert same_bits(_build_ptm(p, gamma, lam), oracles.local_ptm(p, gamma, lam))
    one = _build_ptm(np.float64(0.3), gamma, np.float64(0.7))
    assert same_bits(one, oracles.local_ptm(0.3, gamma, 0.7))


def test_local_ptm_accepts_an_empty_grid():
    assert _build_ptm(np.empty(0), 0.5, np.empty(0)).shape == (0, 4, 4)


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
    assert same_bits(traj.bell_coeffs, np.diagonal(c, axis1=1, axis2=2).copy())
    for name, column in zip(("d_g", "q", "theta", "q_n", "negativity"),
                            oracle_columns(x, y, c, states)):
        assert same_bits(getattr(traj.reports, name), column), name


#: the Bell states |Phi+>, |Phi->, |Psi+>, |Psi-> as Bell coefficients (c1, c2, c3)
BELL_VERTICES = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0],
                          [-1.0, -1.0, -1.0]])
weight = st.floats(0.0, 1.0)


@given(st.tuples(weight, weight, weight, weight), st.sampled_from(["deviation", "full"]),
       st.integers(2, 80), st.booleans())
# c = (0.335, -0.335, 0.335): outside the ball at t = 0 only
@example((0.50125, 0.16625, 0.16625, 0.16625), "full", 5, False)
@example((0.575, 0.075, 0.225, 0.125), "full", 251, True)  # c = (0.6, -0.4, 0.3)
@example((1.0, 0.0, 0.0, 0.0), "full", 2, False)  # a pure Bell state
@example((0.45, 0.17, 0.3, 0.08), "deviation", 51, True)  # c = (0.5, -0.06, 0.24)
@settings(max_examples=150)
def test_trajectory_negativity_keeps_its_bytes(weights, mode, n_points, local):
    # Bell-diagonal starts as mixtures of the four Bell states: entangled in full mode
    # where one weight exceeds 1/2
    total = sum(weights)
    assume(total > 0)
    try:
        state = BellDiagonalState(*(np.array(weights) @ BELL_VERTICES / total), mode=mode)
    except ValueError:  # round-off outside the Bell tetrahedron
        return
    params = RelaxationParams()
    traj = make_trajectory(state, params, n_points=n_points, include_local_bloch=local)
    coeffs0 = state.coefficients if mode == "full" else params.epsilon * state.coefficients
    r = oracles.relax(np.diag([1.0, *coeffs0]), traj.times, params)
    want = oracles.negativity(oracles.pauli_states(r))
    assert same_bits(traj.reports.negativity, want)
    assert same_bits(_negativity(r), want)


def ball_edge_stack(rng, n, ulps):
    """(n, 4, 4) coefficient stacks R with ||rho||_F / tr[rho], that is ||R||_F / 2 R_00,
    at sqrt(1/3 - PPT_BALL_MARGIN) (1 + ulps 2^-52) up to the round-off of the scaling."""
    r = rng.standard_normal((n, 4, 4))
    r[:, 0, 0] = 0.0
    trace = 10.0 ** rng.uniform(-3.0, 3.0, n)
    norm = 2.0 * trace * np.sqrt(1.0 / 3.0 - PPT_BALL_MARGIN) * (1.0 + ulps * 2.0**-52)
    r *= (np.sqrt(norm**2 - trace**2) / np.sqrt(np.sum(r**2, axis=(1, 2))))[:, None, None]
    r[:, 0, 0] = trace
    return r


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(-4, 4),
       st.integers(0, 3), st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=3))
@example(seed=0, n=1, ulps=0, entangled=0, special=[])
@example(seed=1, n=12, ulps=-1, entangled=1, special=[np.nan, np.inf])
@settings(max_examples=200)
def test_ball_edge_negativity_keeps_its_bytes(seed, n, ulps, entangled, special):
    # at the edge the Pauli and the matrix reading of the purity test may disagree;
    # both routes give +0.0 there. Entangled Bell rows and rows with inf or NaN
    # entries send the oracle down its spectral route for the whole stack.
    rng = np.random.default_rng(seed)
    r = np.concatenate([ball_edge_stack(rng, n, ulps),
                        np.tile(np.diag([1.0, 1.0, -1.0, 1.0]), (entangled, 1, 1))])
    rows = rng.integers(0, len(r), len(special))
    r[rows, rng.integers(0, 4, len(special)), rng.integers(0, 4, len(special))] = special
    with np.errstate(invalid="ignore"):  # inf * 0 in the matmul of the states
        got = _negativity(r)
        want = oracles.negativity(oracles.pauli_states(r))
    assert same_bits(got, want)
    assert got.flags.writeable and got.flags.owndata


# ---------------------------------------------------------------------------
# JSON rendering

EDGE_FLOATS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]
plain_float = st.floats() | st.sampled_from(EDGE_FLOATS)
scalar = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | plain_float | st.text()
          | st.integers(-2**63, 2**63 - 1).map(np.int64) | plain_float.map(np.float64))
float_array = arrays(float, st.integers(0, 6), elements=plain_float) | arrays(
    float, st.tuples(st.integers(0, 3), st.integers(0, 3)), elements=plain_float)
document = st.recursive(scalar | float_array, lambda items: (
    st.lists(items, max_size=4) | st.lists(items, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4) | st.integers(), items, max_size=4)), max_leaves=20)


def oracle_or_none(render, value):
    """The first renderer's text, or None for a value it cannot render."""
    try:
        return render(value)
    except TypeError:
        return None


@given(document, st.integers(0, 6))
@example({"x_est": np.array([0.5, -0.0, np.nan]), "c_est": np.eye(3), "shots": None,
          "seed": np.int64(5), "ok": True, "units": "eps^0"}, 0)
@example((5e-324, [1.7976931348623157e308, -np.inf], ()), 2)
@settings(max_examples=200)
def test_dump_json_keeps_its_text(value, indent):
    want = oracle_or_none(lambda v: oracles.dump_json(v, indent), value)
    assume(want is not None)
    assert dump_json(value, indent) == want


list_cell = scalar | plain_float.map(lambda v: [v]) | st.dictionaries(st.text(max_size=3),
                                                                      scalar, max_size=2)
column = (arrays(float, st.integers(0, 8), elements=plain_float) | st.lists(list_cell, max_size=8)
          | arrays(st.sampled_from([np.int64, bool]), st.integers(0, 8)))


@given(st.dictionaries(st.text(max_size=6) | st.integers(-9, 9)
                       | st.sampled_from(["nan", "%s", "a%", 'q": nan,']),
                       column, min_size=1, max_size=5))
@example({"t": np.array([0.0, 0.5]), "q_n": np.array([np.nan, -0.0]), "name": ["a", None]})
@example({"nan": np.array([np.nan]), "%": [np.nan], 'x": nan,': [None]})
@example({"i": np.array([12345678901234567]), "b": np.array([True]), "f": np.array([0.5])})
@example({"d_g": 0.25, "theta": None, "units": "eps^0"})  # one record
@settings(max_examples=200)
def test_json_tables_keep_their_text(table):
    want = oracle_or_none(oracles.render_json_table, table)
    assume(want is not None)
    assert render_table(table, "json") == want


def trajectory_table(traj) -> dict:
    rep = traj.reports
    return {"t": traj.times, **{f"c{i + 1}": traj.bell_coeffs[:, i] for i in range(3)},
            "d_g": rep.d_g, "q": rep.q, "q_n": rep.q_n, "negativity": rep.negativity}


@pytest.mark.parametrize("local", [False, True])
def test_trajectory_json_keeps_its_text(local):
    traj = make_trajectory(BellDiagonalState(0.5, -0.06, 0.24, mode="deviation"),
                           n_points=51, include_local_bloch=local)
    assert serialize_trajectory(traj, "json") == oracles.render_json_table(trajectory_table(traj))


def traced_peak(render, *args) -> tuple[str, int]:
    tracemalloc.start()
    try:
        text = render(*args)
        return text, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_json_takes_less_memory():
    # one row template filled from the columns, without a dict per row: the same text
    # at 20,000 points (q_n has null cells) in at most 3/4 of the first renderer's peak
    traj = make_trajectory(BellDiagonalState(0.5, -0.06, 0.24, mode="deviation"),
                           n_points=20_000, include_local_bloch=True)
    assert np.isnan(traj.reports.q_n).any()
    want, oracle_peak = traced_peak(oracles.render_json_table, trajectory_table(traj))
    got, peak = traced_peak(serialize_trajectory, traj, "json")
    assert got == want
    assert peak <= 0.75 * oracle_peak, (peak, oracle_peak)
