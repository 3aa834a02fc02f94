import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gellmann_basis
from qcorr import (
    BellDiagonalState,
    BlochRecord,
    InvalidStateError,
    bloch_decompose,
    check_density_matrix,
    random_density_matrix,
)
from qcorr.bloch import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z


def product_operators(d):
    """sigma_nu (x) I, I (x) tau_lam, then sigma_nu (x) tau_lam in row-major (nu, lam)
    order: the operators whose expectations are x, y and C."""
    taus = gellmann_basis(d)
    ops = [np.kron(s, np.eye(d)) for s in PAULIS] + [np.kron(np.eye(2), t) for t in taus]
    return np.array(ops + [np.kron(s, t) for s in PAULIS for t in taus])


def contract(rho, d):
    """(x, y, C) as tr[rho O] over the explicit product operators O."""
    vals = np.einsum("aij,...ji->...a", product_operators(d), rho).real
    nb = d * d - 1
    c = vals[..., 3 + nb:].reshape(vals.shape[:-1] + (3, nb))
    return vals[..., :3], vals[..., 3:3 + nb], c


def compose(record, d):
    """The density matrix of a single Bloch record, by its Gell-Mann expansion."""
    coeffs = np.concatenate([record.x / (2.0 * d), record.y / 4.0, record.C.reshape(-1) / 4.0])
    return np.tensordot(coeffs, product_operators(d), axes=1) + np.eye(2 * d) / (2.0 * d)


def test_pauli_algebra():
    sx, sy, sz = PAULIS
    assert np.allclose(sz @ sz, np.eye(2), atol=0)
    assert abs(np.trace(sx @ sy)) == 0
    assert np.allclose(sx @ sy, 1j * sz, atol=0)


def test_gellmann_d2_is_pauli():
    for got, want in zip(gellmann_basis(2), (SIGMA_X, SIGMA_Y, SIGMA_Z)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gellmann_orthogonality_and_tracelessness(d):
    gens = gellmann_basis(d)
    assert len(gens) == d * d - 1
    for a, ga in enumerate(gens):
        assert abs(np.trace(ga)) <= 1e-12
        assert np.max(np.abs(ga - ga.conj().T)) == 0
        for b, gb in enumerate(gens):
            want = 2.0 if a == b else 0.0
            assert abs(np.trace(ga @ gb).real - want) <= 1e-12


def test_gellmann_rejects_small_dimension():
    with pytest.raises(ValueError):
        gellmann_basis(1)


def test_decompose_maximally_mixed():
    rec = bloch_decompose(np.eye(4) / 4.0)
    assert np.allclose(rec.x, 0, atol=1e-15)
    assert np.allclose(rec.y, 0, atol=1e-15)
    assert np.allclose(rec.C, 0, atol=1e-15)


def test_decompose_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rec = bloch_decompose(np.outer(phi, phi.conj()))
    assert np.allclose(rec.x, 0, atol=1e-15)
    assert np.allclose(rec.y, 0, atol=1e-15)
    assert np.allclose(rec.C, np.diag([1.0, -1.0, 1.0]), atol=1e-15)


def test_decompose_bell_diagonal_coefficients():
    state = BellDiagonalState(0.3, -0.2, 0.1)
    rec = bloch_decompose(state.density_matrix())
    assert np.allclose(rec.C, np.diag([0.3, -0.2, 0.1]), atol=1e-15)
    assert np.allclose(rec.x, 0, atol=1e-15)
    assert np.allclose(rec.y, 0, atol=1e-15)


def test_decompose_dimension_mismatch():
    with pytest.raises(ValueError):
        bloch_decompose(np.eye(4) / 4.0, d=3)
    with pytest.raises(ValueError):
        bloch_decompose(np.eye(5) / 5.0)


@pytest.mark.parametrize("shape, d, message", [
    ((3, 4), None, r"expected a square matrix, got shape \(3, 4\)"),
    ((5, 5), None, r"total dimension 5 is not 2\*d"),
    ((2, 2), None, "subsystem dimension must be at least 2, got 1"),
    ((4,), None, r"expected a square matrix, got shape \(4,\)"),
    ((6, 6), 2, r"state of dimension 6 does not match 2\*d with d=2"),
    ((2, 6, 6), 4, r"state of dimension 6 does not match 2\*d with d=4"),
], ids=["not-square", "odd-dimension", "d-below-2", "vector", "d-mismatch", "stack-d-mismatch"])
def test_decompose_rejects_bad_shapes(shape, d, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        bloch_decompose(np.zeros(shape), d)


@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.sampled_from([(), (1,), (5,), (2, 3)]))
@settings(max_examples=80)
def test_decompose_equals_gellmann_contraction(seed, d, lead):
    # the coordinates read off the qubit blocks are the traces against the explicit
    # product operators, on one state and on stacks
    n = int(np.prod(lead))
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, 2 * d + 1, n)
    rhos = random_density_matrix(2 * d, rank=ranks, seed=rng).reshape(lead + (2 * d, 2 * d))
    for rec in (bloch_decompose(rhos, d), bloch_decompose(rhos)):
        assert (rec.x.shape, rec.y.shape, rec.C.shape) == (
            lead + (3,), lead + (d * d - 1,), lead + (3, d * d - 1))
        for got, want in zip((rec.x, rec.y, rec.C), contract(rhos, d)):
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 5])
def test_decompose_stack_equals_single_calls(d):
    rhos = random_density_matrix(2 * d, rank=1 + np.arange(6) % (2 * d), seed=d)
    stacked = bloch_decompose(rhos.reshape(2, 3, 2 * d, 2 * d))
    for i, rho in enumerate(rhos):
        single = bloch_decompose(rho)
        for name in ("x", "y", "C"):
            assert np.array_equal(getattr(stacked, name)[divmod(i, 3)], getattr(single, name))


def test_decompose_memory_is_quadratic_in_d():
    # per-d index arrays, not a stack of 16 d^4 complex entries (5.3 MB at d = 12)
    rho = random_density_matrix(24, seed=12)
    tracemalloc.start()
    try:
        bloch_decompose(rho, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_stacked_record_dimension():
    rec = BlochRecord(x=np.zeros((51, 3)), y=np.zeros((51, 3)), C=np.zeros((51, 3, 3)))
    assert rec.d == 2
    stacked = bloch_decompose(np.array([random_density_matrix(6, seed=s) for s in range(4)]))
    assert stacked.d == 3
    assert stacked.x.shape == (4, 3) and stacked.C.shape == (4, 3, 8)


def test_compose_zero_record_is_maximally_mixed():
    rec = BlochRecord(x=np.zeros(3), y=np.zeros(3), C=np.zeros((3, 3)))
    assert np.allclose(compose(rec, 2), np.eye(4) / 4.0, atol=0)


def test_compose_bell_record():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.max(np.abs(compose(bloch_decompose(rho), 2) - rho)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4])
def test_roundtrip_on_random_states(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(50):
        rho = random_density_matrix(2 * d, seed=rng)
        rec = bloch_decompose(rho, d)
        assert np.linalg.norm(rec.x) <= 1.0 + 1e-10
        assert np.max(np.abs(compose(rec, d) - rho)) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=60)
def test_roundtrip_record_to_record(seed, d):
    # compose/decompose are mutual inverses on any record, PSD or not
    rng = np.random.default_rng(seed)
    nb = d * d - 1
    rec = BlochRecord(
        x=rng.uniform(-1, 1, 3), y=rng.uniform(-1, 1, nb), C=rng.uniform(-1, 1, (3, nb))
    )
    back = bloch_decompose(compose(rec, d), d)
    assert np.max(np.abs(back.x - rec.x)) <= 1e-12
    assert np.max(np.abs(back.y - rec.y)) <= 1e-12
    assert np.max(np.abs(back.C - rec.C)) <= 1e-12


def test_random_density_matrix_rank_one_is_pure():
    rho = random_density_matrix(4, rank=1, seed=5)
    assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-12


def test_random_density_matrix_invariants_bulk():
    rng = np.random.default_rng(2024)
    for i in range(10_000):
        dim = (4, 6, 8)[i % 3]
        rho = random_density_matrix(dim, rank=1 + i % dim, seed=rng)
        assert np.max(np.abs(rho - rho.conj().T)) == 0
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        # numpy spectrum as the independent positivity oracle for bulk checks
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10


def test_random_density_matrix_deterministic():
    a = random_density_matrix(6, rank=3, seed=123)
    b = random_density_matrix(6, rank=3, seed=123)
    assert np.array_equal(a, b)


def test_random_density_matrix_rank_out_of_range():
    with pytest.raises(ValueError):
        random_density_matrix(4, rank=0)
    with pytest.raises(ValueError):
        random_density_matrix(4, rank=5)
    for rank in ([1, 5], [0, 2], np.ones((2, 2), dtype=int), [[2]], [], (), 2.5, [2, 2.5],
                 True, [True, False], np.bool_(True), "2"):
        with pytest.raises(ValueError, match="rank"):
            random_density_matrix(4, rank=rank)


@given(st.sampled_from([4, 6, 8, 10, 16, 32]), st.data(), st.booleans())
@settings(max_examples=80)
def test_stacked_draw_equals_single_draws(dim, data, int_seed):
    # a stacked draw is bit for bit the one-at-a-time draws from the same stream
    kind = data.draw(st.sampled_from(["one", "uniform", "mixed"]))
    if kind == "mixed":
        ranks = data.draw(st.lists(st.integers(1, dim), min_size=2, max_size=30))
    else:
        n = 1 if kind == "one" else data.draw(st.integers(2, 30))
        ranks = [data.draw(st.integers(1, dim))] * n
    ranks = data.draw(st.sampled_from([list, tuple, np.array]))(ranks)
    seed = data.draw(st.integers(0, 2**63 - 1))
    stacked = random_density_matrix(dim, rank=ranks,
                                    seed=seed if int_seed else np.random.default_rng(seed))
    assert stacked.shape == (len(ranks), dim, dim)
    rng = np.random.default_rng(seed)
    for rho, rank in zip(stacked, ranks):
        single = random_density_matrix(dim, rank=rank, seed=rng)
        assert single.shape == (dim, dim)
        assert np.array_equal(rho, single)
        assert rho.tobytes() == single.tobytes()
    if kind == "one":
        assert np.array_equal(random_density_matrix(dim, rank=int(ranks[0]), seed=seed),
                              stacked[0])


def test_stacked_draw_narrow_integer_ranks():
    # 2 * dim * rank overflows uint8 at dim = 50; the draw must not wrap
    ranks = np.array([3, 2, 3], dtype=np.uint8)
    stacked = random_density_matrix(50, rank=ranks, seed=1)
    rng = np.random.default_rng(1)
    for rho, rank in zip(stacked, ranks):
        assert np.array_equal(rho, random_density_matrix(50, rank=int(rank), seed=rng))


def test_a_large_draw_keeps_no_memory_alive():
    # nothing of a large draw stays behind once dropped: the sampler keeps only the
    # (2, dim, dim) column index of each dim, built here before tracing
    ranks = np.full(2000, 16, dtype=np.int8)
    random_density_matrix(16, 1)
    tracemalloc.start()
    try:
        rho = random_density_matrix(16, ranks, 3)
        assert rho.nbytes == 2000 * 16 * 16 * 16
        del rho
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 4096


@pytest.mark.parametrize("dim", [4.0, "4", True, np.True_, None, np.float64(4.0)])
def test_random_density_matrix_refuses_a_non_integer_dim(dim):
    with pytest.raises(ValueError, match="^dim must be an integer, got "):
        random_density_matrix(dim, 1)


def test_random_density_matrix_takes_numpy_integer_dims():
    for dim in (np.int64(4), np.uint8(4), np.int8(4)):
        assert random_density_matrix(dim, 2, 7).tobytes() == \
            random_density_matrix(4, 2, 7).tobytes()


def rows_of_seeds(data, int_seeds, rows):
    seeds = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=rows, max_size=rows))
    return seeds, lambda: [s if int_seeds else np.random.default_rng(s) for s in seeds]


@given(st.integers(2, 16), st.integers(1, 4), st.data(), st.booleans())
@settings(max_examples=60)
def test_block_draw_equals_row_draws(dim, rows, data, int_seeds):
    # row j of a 2-D rank is the stack one call draws from seed j
    n = data.draw(st.integers(1, 12))
    ranks = np.array(data.draw(st.lists(st.integers(1, dim), min_size=rows * n,
                                        max_size=rows * n))).reshape(rows, n)
    seeds, make = rows_of_seeds(data, int_seeds, rows)
    block = random_density_matrix(dim, rank=ranks, seed=make())
    assert block.shape == (rows, n, dim, dim)
    for j in range(rows):
        want = random_density_matrix(dim, rank=ranks[j], seed=seeds[j])
        assert block[j].tobytes() == want.tobytes()


@given(st.integers(2, 16), st.integers(1, 4), st.data())
@settings(max_examples=40)
def test_consecutive_block_draws_equal_one_draw(dim, rows, data):
    # a Generator carries its stream, so two chunks are the bits of one whole draw
    n = data.draw(st.integers(2, 12))
    cut = data.draw(st.integers(1, n - 1))
    ranks = np.array(data.draw(st.lists(st.integers(1, dim), min_size=rows * n,
                                        max_size=rows * n))).reshape(rows, n)
    _, make = rows_of_seeds(data, False, rows)
    rngs = make()
    chunks = [random_density_matrix(dim, rank=part, seed=rngs)
              for part in (ranks[:, :cut], ranks[:, cut:])]
    whole = random_density_matrix(dim, rank=ranks, seed=make())
    assert np.concatenate(chunks, axis=1).tobytes() == whole.tobytes()


@pytest.mark.parametrize("rank, seed", [
    (np.ones((2, 3), dtype=int), [1]),  # fewer seeds than rows
    (np.ones((2, 3), dtype=int), (1, 2, 3)),  # more seeds than rows
    (np.ones((2, 3), dtype=int), 1),  # one seed for two rows
    (np.ones((1, 2, 3), dtype=int), [1]),  # 3-D rank
    (np.array([[1, 2], [4, 5]]), [1, 2]),  # out of range in the second row
    (np.array([[1, 0], [4, 4]]), [1, 2]),  # out of range in the first row
])
def test_block_draw_rejects_bad_rank_or_seeds(rank, seed):
    with pytest.raises(ValueError, match="rank"):
        random_density_matrix(4, rank=rank, seed=seed)


def test_check_density_matrix_accepts_valid():
    check_density_matrix(random_density_matrix(4, seed=8))


def test_check_density_matrix_rejects_bad_trace():
    with pytest.raises(InvalidStateError, match="trace"):
        check_density_matrix(np.eye(4) / 2.0)


def test_check_density_matrix_rejects_negative():
    bad = np.diag([0.7, 0.4, -0.05, -0.05]).astype(complex)
    with pytest.raises(InvalidStateError) as err:
        check_density_matrix(bad)
    assert err.value.min_eigenvalue == pytest.approx(-0.05)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1j * np.nan])
def test_check_density_matrix_rejects_non_finite(value):
    rho = (np.eye(4) / 4.0).astype(complex)
    rho[1, 2] = rho[2, 1] = value
    with pytest.raises(InvalidStateError, match="non-finite"):
        check_density_matrix(rho)


@pytest.mark.parametrize("mode", ["full", "deviation"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_bell_diagonal_rejects_non_finite(mode, value):
    with pytest.raises(InvalidStateError, match="finite"):
        BellDiagonalState(0.1, value, 0.2, mode=mode)


def test_bell_diagonal_tetrahedron_constraint():
    BellDiagonalState(1.0, -1.0, 1.0)  # a Bell state sits on a vertex
    with pytest.raises(InvalidStateError):
        BellDiagonalState(1.0, 1.0, 1.0)
    # the same coefficients are fine as a deviation description
    BellDiagonalState(1.0, 1.0, 1.0, mode="deviation")


def test_bell_diagonal_populations_sum_to_one():
    state = BellDiagonalState(0.5, -0.3, 0.2)
    pops = state.populations()
    assert abs(sum(pops) - 1.0) <= 1e-15
    assert np.allclose(
        sorted(pops),
        sorted(np.linalg.eigvalsh(state.density_matrix()).tolist()),
        atol=1e-14,
    )


_COEFFS = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e-3, -1e-3, 1e3, -1e3]),
)


@given(_COEFFS, _COEFFS, _COEFFS, st.booleans())
@settings(max_examples=300)
def test_deviation_matrix_equals_kron_sum(c1, c2, c3, opposite):
    if opposite:
        c2 = -c1
    want = np.zeros((4, 4), dtype=complex)
    for c, s in zip((c1, c2, c3), PAULIS):
        want += c * np.kron(s, s)
    want /= 4.0
    got = BellDiagonalState(c1, c2, c3, mode="deviation").deviation_matrix()
    assert got.dtype == complex
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_bell_diagonal_deviation_needs_epsilon():
    state = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation")
    with pytest.raises(ValueError, match="epsilon"):
        state.density_matrix()
    rho = state.density_matrix(epsilon=1e-5)
    check_density_matrix(rho)


def test_paulis_are_read_only():
    with pytest.raises(ValueError):
        PAULIS[0][0, 0] = 5.0
