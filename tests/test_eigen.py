import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcorr import (
    InvalidStateError,
    check_density_matrix,
    geometric_discord_closed,
    geometric_discord_eig,
    hermitian_eigenvalues,
    negativity,
    q_lower_bound,
    sym3_eigenvalues,
)


def test_sym3_identity():
    assert np.allclose(sym3_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0], atol=0)


def test_sym3_diagonal_is_exact():
    got = sym3_eigenvalues(np.diag([0.0625, 0.0009, 0.0144]))
    assert got.tolist() == [0.0625, 0.0144, 0.0009]


def test_sym3_rejects_asymmetric():
    m = np.eye(3)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        sym3_eigenvalues(m)


def test_sym3_rejects_wrong_shape():
    with pytest.raises(ValueError, match="3x3"):
        sym3_eigenvalues(np.eye(4))


def test_sym3_matches_jacobi_on_random_matrices():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        a = rng.standard_normal((3, 3))
        m = (a + a.T) / 2.0
        gap = np.max(np.abs(sym3_eigenvalues(m) - hermitian_eigenvalues(m)))
        worst = max(worst, gap)
    assert worst <= 1e-10


@given(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
def test_sym3_descending_and_trace(entries):
    m = np.zeros((3, 3))
    m[np.triu_indices(3)] = entries
    m = (m + m.T) - np.diag(np.diagonal(m))
    eigs = sym3_eigenvalues(m)
    assert eigs[0] >= eigs[1] >= eigs[2]
    assert abs(np.sum(eigs) - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))


def test_jacobi_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(4)), np.ones(4), atol=0)


def test_jacobi_rank_one_projector():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    eigs = hermitian_eigenvalues(np.outer(phi, phi.conj()))
    assert np.allclose(eigs, [1, 0, 0, 0], atol=1e-14)


def test_jacobi_partial_transpose_of_bell_state():
    # PT of the |00>+|11> projector has the hand-computable spectrum
    # (1/2, 1/2, 1/2, -1/2): char. poly (x - 1/2)^3 (x + 1/2).
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert np.allclose(hermitian_eigenvalues(pt), [0.5, 0.5, 0.5, -0.5], atol=1e-14)


def test_jacobi_matches_numpy_up_to_dim_16():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 17))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2.0
        want = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.max(np.abs(hermitian_eigenvalues(h) - want)) <= 1e-10


def test_jacobi_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (g + g.conj().T) / 2.0
        assert abs(np.sum(hermitian_eigenvalues(h)) - np.trace(h).real) <= 1e-10


def test_jacobi_rejects_non_hermitian():
    m = np.eye(3, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(m)


def test_non_finite_items_get_nan_spectra():
    # LAPACK reads the lower triangle only, so a NaN above the diagonal is
    # invisible to it; a matrix of NaN would make the whole stack fail
    s = 0.1 * np.eye(3)
    s[0, 1] = np.nan
    assert np.isnan(sym3_eigenvalues(s)).all()
    h = np.eye(4, dtype=complex) / 4.0
    h[0, 1] = np.nan
    assert np.isnan(hermitian_eigenvalues(h)).all()
    stack = np.stack([np.diag([4.0, 1.0, 2.0, 3.0]), h, np.full((4, 4), np.nan)])
    got = hermitian_eigenvalues(stack.reshape(3, 1, 4, 4))
    assert got.shape == (3, 1, 4)
    assert got[0, 0].tolist() == [4.0, 3.0, 2.0, 1.0]
    assert np.isnan(got[1:]).all()
    # inf - inf on the diagonal of a - a^H: a NaN asymmetry, without a warning
    assert np.isnan(sym3_eigenvalues(np.diag([1.0, np.inf, 0.0]))).all()


@pytest.mark.parametrize("diagonal", [[1.0, np.inf, 0.0, 0.0], [1.0, -np.inf, np.inf, 0.0],
                                      [-np.inf, 0.5, 0.5, 0.0]])
def test_infinite_diagonal_gives_nan_spectra(diagonal):
    h = np.diag(diagonal).astype(complex)
    assert np.isnan(hermitian_eigenvalues(h)).all()
    assert np.isnan(sym3_eigenvalues(np.diag(diagonal[:3]))).all()
    got = hermitian_eigenvalues(np.stack([h, np.eye(4) / 4.0]))
    assert np.isnan(got[0]).all() and got[1].tolist() == [0.25] * 4


def test_off_diagonal_inf_fails_the_symmetry_check():
    m = np.eye(3)
    m[0, 1] = np.inf
    with pytest.raises(ValueError, match="symmetric"):
        sym3_eigenvalues(m)
    # finite entries of +-1e308: a - a^H overflows to inf, which fails the one
    # check of the eigen layer without a warning, on every route through it
    s = np.zeros((3, 3))
    s[0, 1], s[1, 0] = 1e308, -1e308
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1], h[1, 0] = 1e308, -1e308
    for function in (sym3_eigenvalues, geometric_discord_closed, q_lower_bound,
                     geometric_discord_eig):
        with pytest.raises(ValueError, match="symmetric"):
            function(s)
    for function in (hermitian_eigenvalues, negativity):
        with pytest.raises(ValueError, match="Hermitian"):
            function(h)
    with pytest.raises(InvalidStateError, match="Hermitian"):
        check_density_matrix(h)
