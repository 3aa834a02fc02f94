"""Eigenvalues of small real symmetric and complex Hermitian matrices.

``hermitian_asymmetry`` is the package's one symmetric/Hermitian check (the
state check and the S measures call it too): a residual that overflows is
inf and fails, and a non-finite entry otherwise leaves a NaN residual. Both
eigenvalue functions apply it and hand their input to LAPACK's ``eigvalsh``,
returning the spectrum in descending order along the last axis, for every
matrix of a stack (a single matrix is the one-item case). A matrix with a
non-finite entry gets an all-NaN spectrum while the rest of its stack is
solved as usual (LAPACK reads one triangle only, so it would miss a NaN
in the other, and a matrix of NaN would fail the whole stack).
Because the solver shares no formula with the trigonometric closed form
of the geometric discord, ``sym3_eigenvalues`` gives the discord an
independent second route. Results are deterministic for a fixed numpy
and BLAS/LAPACK build, like every matmul and QR in the package; they
are not promised bit-identical across builds.
"""
from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12


@np.errstate(over="ignore", invalid="ignore")  # inf fails; NaN is the signal
def hermitian_asymmetry(a: np.ndarray) -> float:
    """max |a - a^H| over a stack of matrices; ValueError above HERMITICITY_TOL (an
    overflow is inf), naming a real a symmetric and a complex one Hermitian. Otherwise
    NaN exactly when an entry is not finite (NaN on the diagonal, or inf or NaN off it)."""
    asymmetry = np.abs(a - a.swapaxes(-1, -2).conj()).max(initial=0.0)
    if asymmetry > HERMITICITY_TOL:
        kind = "Hermitian" if np.iscomplexobj(a) else "symmetric"
        raise ValueError(f"matrix is not {kind} within {HERMITICITY_TOL}")
    return asymmetry


def _descending_spectra(a: np.ndarray, asymmetry: float) -> np.ndarray:
    """eigvalsh of a checked stack, descending; NaN spectra for the matrices
    with a non-finite entry, which only a NaN asymmetry can signal."""
    if asymmetry == asymmetry:
        return np.linalg.eigvalsh(a)[..., ::-1]
    stack = a.reshape((-1,) + a.shape[-2:])
    finite = np.isfinite(stack).all(axis=(-2, -1))
    eigs = np.full(stack.shape[:-1], np.nan)
    eigs[finite] = np.linalg.eigvalsh(stack[finite])[..., ::-1]
    return eigs.reshape(a.shape[:-1])


def _symmetric_3x3(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """``mat`` as floats, and its asymmetry; ValueError unless a (stack of) symmetric 3x3."""
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    return m, hermitian_asymmetry(m)


def sym3_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of real symmetric 3x3 matrices, sorted descending."""
    return _descending_spectra(*_symmetric_3x3(mat))


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of complex Hermitian matrices, sorted descending."""
    a = np.asarray(mat, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _descending_spectra(a, hermitian_asymmetry(a))
