"""Direct measurement of correlation-matrix elements by local readout.

Each two-point correlator tr[(sigma_nu (x) sigma_lam) rho] equals the
single-spin magnetization tr[(sigma_1 (x) I) xi] of the rotated state
xi = U rho U^dag with U = CNOT . (R_A (x) R_B), for a fixed table of
local rotation axes and angles. A two-qubit state is therefore fully
characterized for correlation purposes by 3 d^2 local readouts instead
of the 4 d^2 - 1 a full reconstruction needs.

Rotations follow R_phi(theta) = exp(-i theta sigma_phi / 2). The two
table entries carrying a minus sign negate the readout value, not the
unitary; with that convention every entry reproduces the correlator
exactly (verified operator-by-operator in the test suite).

The 12 readout unitaries (9 correlators, 3 locals) are built once, at
import, as one read-only (12, 4, 4) stack; a protocol run applies them
all in one stacked product and returns the readouts as a BlochRecord
(y = 0, since the qubit-B vector is not measured).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import SIGMA_X, SIGMA_Y, SIGMA_Z, BlochRecord, _integer, _seed

_AXES = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CNOT.setflags(write=False)

_READOUT = np.kron(SIGMA_X, np.eye(2, dtype=complex))
_READOUT.setflags(write=False)


@dataclass(frozen=True)
class RotationSpec:
    """Rotation axes/angle and readout sign for one correlator (nu, lam)."""

    axis_a: str
    axis_b: str
    angle: float
    sign: int


ROTATION_TABLE: dict[tuple[int, int], RotationSpec] = {
    (1, 1): RotationSpec("x", "x", 0.0, +1),
    (2, 2): RotationSpec("z", "z", np.pi / 2, +1),
    (3, 3): RotationSpec("y", "y", np.pi / 2, +1),
    (1, 2): RotationSpec("x", "z", 3 * np.pi / 2, +1),
    (2, 1): RotationSpec("z", "x", 3 * np.pi / 2, +1),
    (1, 3): RotationSpec("x", "y", np.pi / 2, +1),
    (3, 1): RotationSpec("y", "x", np.pi / 2, +1),
    (2, 3): RotationSpec("z", "y", np.pi / 2, -1),
    (3, 2): RotationSpec("y", "z", np.pi / 2, -1),
}


def rotation_gate(axis: str, angle: float) -> np.ndarray:
    """exp(-i angle sigma_axis / 2)."""
    sigma = _AXES.get(axis)
    if sigma is None:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    eye = np.eye(2, dtype=complex)
    return np.cos(angle / 2.0) * eye - 1j * np.sin(angle / 2.0) * sigma


#: the protocol's readouts in run order: the 9 correlators row-major, then the 3 locals
_READOUTS = [(nu, lam) for nu in (1, 2, 3) for lam in (1, 2, 3)]
_READOUTS += [(nu, None) for nu in (1, 2, 3)]
_SIGNS = np.array([float(ROTATION_TABLE[pair].sign) for pair in _READOUTS[:9]]).reshape(3, 3)


def _readout_unitary(nu: int, lam: int | None) -> np.ndarray:
    """CNOT . (R_A (x) R_B) for the table entry (nu, lam), or R_A (x) I of the entry (nu, 1)
    if lam is None: that entry has sign +1 and an R_B about x, which fixes sigma_1, so its
    R_A alone takes sigma_nu onto the sigma_1 readout."""
    entry = ROTATION_TABLE[(nu, 1 if lam is None else lam)]
    if lam is None:
        return np.kron(rotation_gate(entry.axis_a, entry.angle), np.eye(2, dtype=complex))
    return _CNOT @ np.kron(
        rotation_gate(entry.axis_a, entry.angle), rotation_gate(entry.axis_b, entry.angle)
    )


#: the readout unitaries U in _READOUTS order, and their conjugate transposes
_UNITARIES = np.array([_readout_unitary(nu, lam) for nu, lam in _READOUTS])
_UNITARIES.setflags(write=False)
_UNITARIES_H = _UNITARIES.conj().transpose(0, 2, 1).copy()
_UNITARIES_H.setflags(write=False)


def run_direct_protocol(
    rho: np.ndarray, shots: int | None = None, seed: int = 0
) -> BlochRecord:
    """Run all 12 readouts (9 correlation + 3 local) on a two-qubit state.

    The record holds the 3 local readouts as x, the 9 signed correlators
    as C and y = 0, since the protocol does not measure y.

    Without ``shots`` every readout is the exact expectation value. With
    ``shots`` each readout becomes the average of that many simulated +-1
    outcomes of the sigma_1 (x) I observable, drawn binomially from the
    exact expectation; one child generator per readout, in fixed order
    (the 9 correlators row-major, then the 3 locals), keeps results
    deterministic for a given seed.

    The noise floor per readout is ~1/sqrt(shots) on the physical state,
    so resolving expectations of order eps (a high-temperature deviation
    signal) takes shots >> 1/eps^2; ensemble magnetization detection is
    the exact-mode idealization of that limit.
    """
    if shots is not None:
        shots = _integer(shots, "shots")
        if not 1 <= shots <= np.iinfo(np.int64).max:  # binomial's range
            raise ValueError(f"shots must be an integer in 1..2**63 - 1, got {shots}")
    seed = _seed(seed)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a two-qubit state, got shape {rho.shape}")
    # the sigma_1 (x) I readouts of U rho U^dag in _READOUTS order, signs not yet applied
    readouts = np.einsum("ij,kji->k", _READOUT, _UNITARIES @ rho @ _UNITARIES_H).real
    if shots is not None:
        # expectation can stick out of [-1, 1] by round-off
        probs = np.clip((1.0 + readouts) / 2.0, 0.0, 1.0).tolist()
        for k, child in enumerate(np.random.SeedSequence(seed).spawn(len(_READOUTS))):
            ups = np.random.default_rng(child).binomial(shots, probs[k])
            readouts[k] = 2.0 * ups / shots - 1.0
    return BlochRecord(x=readouts[9:], y=np.zeros(3), C=readouts[:9].reshape(3, 3) * _SIGNS)


def measurement_budget(d: int) -> tuple[int, int]:
    """(direct, tomography) readout counts for a 2 x d system: (3d^2, 4d^2 - 1)."""
    d = _integer(d, "d")
    if d < 2:
        raise ValueError(f"subsystem dimension must be at least 2, got {d}")
    return 3 * d * d, 4 * d * d - 1
