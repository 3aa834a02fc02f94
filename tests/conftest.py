import numpy as np
from hypothesis import HealthCheck, settings

from oracles import random_unitary
from qcorr import BellDiagonalState, random_density_matrix

# derandomize: every run draws the same examples, so a tier-1 result does not
# depend on the draw or on a local example database
settings.register_profile(
    "qcorr", deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("qcorr")


def random_bell_state(rng: np.random.Generator) -> BellDiagonalState:
    """Uniform rejection sample from the Bell-diagonal tetrahedron."""
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        try:
            return BellDiagonalState(*c, mode="full")
        except ValueError:
            continue


def classical_quantum_state(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    """chi = sum_i p_i |i><i| (x) rho_Bi with a random orthonormal {|i>}."""
    basis = random_unitary(2, seed=rng)
    probs = rng.dirichlet(np.ones(2))
    chi = np.zeros((2 * d, 2 * d), dtype=complex)
    for i in range(2):
        ket = basis[:, i]
        chi += probs[i] * np.kron(
            np.outer(ket, ket.conj()), random_density_matrix(d, seed=rng)
        )
    return chi
