"""Reference constructions the library is tested against.

The library evolves relaxation through Pauli transfer matrices; the
operator-sum Kraus sets here are the independent model those matrices
are checked against. A Kraus set is a tuple of 2x2 operators. The scalar
spin-spin coupling is a separate unitary; Bell-diagonal states are
invariant under it.
"""
import numpy as np

from qcorr.bloch import SIGMA_Z


def gad_kraus(p: float, gamma: float) -> tuple[np.ndarray, ...]:
    """Generalized amplitude damping with decay probability p and bias gamma.

    E0 = sqrt(g) diag(1, sqrt(1-p))        E1 = sqrt(g)   sqrt(p) |0><1|
    E2 = sqrt(1-g) diag(sqrt(1-p), 1)      E3 = sqrt(1-g) sqrt(p) |1><0|

    gamma = 1/2 leaves the channel unital; gamma = 1/2 - eps/2 drives the
    qubit toward the eps-polarized thermal state.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    sg, sgbar = np.sqrt(gamma), np.sqrt(1.0 - gamma)
    sp, spbar = np.sqrt(p), np.sqrt(1.0 - p)
    return (
        sg * np.array([[1, 0], [0, spbar]], dtype=complex),
        sg * np.array([[0, sp], [0, 0]], dtype=complex),
        sgbar * np.array([[spbar, 0], [0, 1]], dtype=complex),
        sgbar * np.array([[0, 0], [sp, 0]], dtype=complex),
    )


def pd_kraus(lam: float) -> tuple[np.ndarray, ...]:
    """Phase damping: E4 = sqrt(1 - lam/2) I, E5 = sqrt(lam/2) sigma_z.

    Scales coherences by 1 - lam and leaves populations alone.
    """
    if not 0 <= lam <= 1:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return (
        np.sqrt(1.0 - lam / 2.0) * np.eye(2, dtype=complex),
        np.sqrt(lam / 2.0) * SIGMA_Z.astype(complex),
    )


def j_coupling_unitary(j: float, t: float) -> np.ndarray:
    """exp(-i 2 pi J t (sigma_z (x) sigma_z) / 4) for scalar coupling J (Hz)."""
    phase = 2.0 * np.pi * j * t / 4.0
    zz = np.array([1.0, -1.0, -1.0, 1.0])
    return np.diag(np.exp(-1j * phase * zz))
