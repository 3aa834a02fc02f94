"""Eigenvalues of small real symmetric and complex Hermitian matrices.

Both functions validate their input and hand it to LAPACK through
``np.linalg.eigvalsh``, returning the spectrum in descending order along
the last axis. Leading stack axes are allowed and every matrix of a
stack is checked; a single matrix is the one-item case.
Because the solver shares no formula with the trigonometric closed form
of the geometric discord, ``sym3_eigenvalues`` gives the discord an
independent second route. Results are deterministic for a fixed numpy
and BLAS/LAPACK build, like every matmul and QR in the package; they
are not promised bit-identical across builds.
"""
from __future__ import annotations

import numpy as np

SYMMETRY_TOL = 1e-12
HERMITICITY_TOL = 1e-12


def sym3_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of real symmetric 3x3 matrices, sorted descending."""
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if np.abs(m - np.swapaxes(m, -1, -2)).max(initial=0.0) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within 1e-12")
    return np.linalg.eigvalsh(m)[..., ::-1]


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of complex Hermitian matrices, sorted descending."""
    a = np.asarray(mat, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.abs(a - np.swapaxes(a, -1, -2).conj()).max(initial=0.0) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within 1e-12")
    return np.linalg.eigvalsh(a)[..., ::-1]
