"""States of a qubit-qudit (2 x d) system in matrix and Bloch form.

The Bloch data of a density matrix rho on C^2 (x) C^d are the local
vectors x_nu = tr[rho (sigma_nu (x) I_d)], y_lam = tr[rho (I_2 (x) tau_lam)]
and the correlation matrix c_{nu,lam} = tr[rho (sigma_nu (x) tau_lam)],
where sigma are the Pauli matrices and tau the generalized Gell-Mann
generators normalized to tr[tau_a tau_b] = 2 delta_ab. With that
normalization the expansion

    rho = I/(2d) + sum_nu x_nu sigma_nu (x) I_d / (2d)
        + sum_lam y_lam I_2 (x) tau_lam / 4
        + sum_{nu,lam} c_{nu,lam} sigma_nu (x) tau_lam / 4

holds exactly (for d = 2 all prefactors reduce to the familiar 1/4).
``bloch_decompose`` reads (x, y, C) off the qubit blocks of a state, or of
a stack of states (leading axes before the matrix axes), with per-d index
arrays of O(d^2) entries.
``random_density_matrix`` draws stacks of Ginibre states of mixed rank in
one padded matrix product, bit for bit the states of one call per state.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .eigen import hermitian_eigenvalues

TRACE_TOL = 1e-12
PSD_TOL = -1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
for _m in PAULIS:
    _m.setflags(write=False)


class InvalidStateError(ValueError):
    """A matrix fails the density-matrix requirements; a failed positivity test names
    the smallest eigenvalue in the message."""


@dataclass(frozen=True)
class BlochRecord:
    """Bloch data (x, y, C) of a 2 x d state, or of a stack of them.

    The arrays may share leading stack axes: x has shape (..., 3),
    y (..., d^2 - 1) and C (..., 3, d^2 - 1).
    """

    x: np.ndarray
    y: np.ndarray
    C: np.ndarray

    @property
    def d(self) -> int:
        return round((self.y.shape[-1] + 1) ** 0.5)


#: 2 x the weights, in M_nu (nu = x, y, z, I), of the six entries _coordinate_map reads
_SLOT_WEIGHTS = 2.0 * np.array([[0, 1, 1, 0, 0, 0], [0, 0, 0, 0, -1, 1],
                                [1, 0, 0, -1, 0, 0], [1, 0, 0, 1, 0, 0]])


@functools.cache
def _coordinate_map(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, weights): the float-view positions in rho of the six entries each
    coordinate reads at its (j, k) or (l, l) in the qubit blocks a, b, c, e (Re a, Re b,
    Re c, Re e, Im b, Im c; on an antisymmetric generator Im a, Im b, Im c, Im e, Re c,
    Re b), and the d x d weights of the diagonal generators and, last, of the trace."""
    j, k = np.triu_indices(d, 1)
    l = np.arange(d)
    imag = np.repeat([0, 1, 0], [j.size, j.size, d])  # 1 on antisymmetric generators
    at = 2 * (np.concatenate([j, j, l]) * 2 * d + np.concatenate([k, k, l])) + imag
    a, b, c, e = (at + 2 * d * (2 * d * p + q) for p in (0, 1) for q in (0, 1))
    index = np.array([a, b, c, e, np.where(imag, c - 1, b + 1), np.where(imag, b - 1, c + 1)])
    norm = np.sqrt(2.0 / (l[1:] * (l[1:] + 1)))
    diagonal = (np.triu(np.ones((d, d)), 1) - np.diag(l))[:, 1:] * norm
    return index, np.hstack([diagonal, np.ones((d, 1))]) / 2.0  # halved against _SLOT_WEIGHTS


def bloch_decompose(rho: np.ndarray, d: int | None = None) -> BlochRecord:
    """Extract the Bloch data (x, y, C) of a 2 x d state or a stack of them.

    With M_nu = tr_A[(sigma_nu (x) I_d) rho], x_nu = tr M_nu, and C_{nu,lam}
    (y_lam for M_I = tr_A rho) is 2 Re M_jk on the symmetric generator (j, k),
    -2 Im M_jk on the antisymmetric one and sqrt(2 / (l (l + 1))) (sum_{j<l}
    M_jj - l M_ll) on the diagonal one l (Bertlmann and Krammer, J. Phys. A
    41, 235303, 2008).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    dim = rho.shape[-1]
    if d is None:
        if dim % 2:
            raise ValueError(f"total dimension {dim} is not 2*d")
        d = dim // 2
    if dim != 2 * d:
        raise ValueError(f"state of dimension {dim} does not match 2*d with d={d}")
    if d < 2:
        raise ValueError(f"subsystem dimension must be at least 2, got {d}")
    index, weights = _coordinate_map(d)
    coords = _SLOT_WEIGHTS @ rho.reshape(rho.shape[:-2] + (4 * d * d,)).view(float)[..., index]
    pairs = d * (d - 1) // 2
    coords[..., pairs:2 * pairs] *= -1.0
    coords[..., 2 * pairs:] = coords[..., 2 * pairs:] @ weights
    return BlochRecord(x=coords[..., :3, -1], y=coords[..., 3, :-1], C=coords[..., :3, :-1])


def _integer(value, name: str) -> int:
    """``value`` as a plain int (numpy integers included), or a ValueError naming
    ``name``: bools are refused, as state files refuse JSON true as a number."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _seed(value, name: str = "seed") -> int:
    """``value`` as a seed of ``np.random.SeedSequence``, a non-negative plain int, or a
    ValueError naming ``name``: the one seed rule of the sampler, campaigns, protocol and CLI."""
    seed = _integer(value, name)
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise InvalidStateError unless rho is Hermitian, unit trace and PSD, in that
    order; one ``hermitian_eigenvalues`` call checks Hermiticity and gives the spectrum."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"state: expected a square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidStateError("state: matrix has non-finite entries")
    try:
        spectrum = hermitian_eigenvalues(rho)
    except ValueError as exc:
        raise InvalidStateError(f"state: {exc}") from exc
    with np.errstate(over="ignore"):  # entries near the float limit: an inf trace fails
        tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"state: trace {tr.real!r} differs from 1 beyond {TRACE_TOL}")
    smallest = float(spectrum[-1])
    if smallest < PSD_TOL:
        raise InvalidStateError(
            f"state: smallest eigenvalue {smallest!r} is below {PSD_TOL}")


@functools.cache
def _column_index(dim: int) -> np.ndarray:
    """(2, dim, dim) column index of each real and imaginary entry of a dim x dim G."""
    index = np.broadcast_to(np.arange(dim), (2, dim, dim)).copy()
    index.setflags(write=False)
    return index


def random_density_matrix(
    dim: int, rank: int | np.ndarray | None = None,
    seed: int | np.random.Generator | list | tuple = 0,
) -> np.ndarray:
    """Random density matrix G G^dag / tr[G G^dag] with Ginibre G of rank ``rank``.

    ``dim`` is an integer (numpy integers included, bools refused), and ``rank``
    (default dim) is an int in [1, dim] for one (dim, dim) state, a
    1-D int sequence for a (len(rank), dim, dim) stack, one state per entry, or
    a 2-D (rows, n) int array for a (rows, n, dim, dim) block with one seed per
    row in a list or tuple ``seed``: row j is the stack
    ``random_density_matrix(dim, rank[j], seed[j])``, bit for bit. A seed is a
    Generator, used as is, or a non-negative integer.
    Every G is zero-padded to dim x dim, so a block is one matrix product, and a
    stack is bit for bit the states one-at-a-time calls draw from the same
    streams; consecutive calls on the same Generators give the bits of one call
    over the concatenated ranks. Normalisation and halving multiply the float
    view by 1 / c, the bits of numpy's complex division by c + 0i (CHANGES.md
    gives the argument, in its entry on sampling without complex division).
    """
    dim = _integer(dim, "dim")
    ranks = np.asarray(dim if rank is None else rank)
    if ranks.ndim > 2 or ranks.size == 0 or ranks.dtype.kind not in "iu":
        raise ValueError(f"rank must be an integer or a 1-D or 2-D integer array, got {rank!r}")
    if ranks.ndim < 2:
        seeds = [seed]
    elif isinstance(seed, (list, tuple)) and len(seed) == len(ranks):
        seeds = seed
    else:
        raise ValueError(f"a rank of shape {ranks.shape} takes a list of {len(ranks)} seeds, "
                         f"got {seed!r}")
    seeds = [s if isinstance(s, np.random.Generator) else _seed(s) for s in seeds]
    # builtin min/max/sum: cheaper than numpy's on a few ranks, and no integer overflow
    rows = ranks.reshape(len(seeds), -1).tolist()
    if min(map(min, rows)) < 1 or max(map(max, rows)) > dim:
        raise ValueError(f"rank must lie in [1, {dim}], got {rank}")
    # each state takes its 2 * dim * rank normals as (2, dim, rank) in C order: the real
    # parts of the first rank columns of G, then the imaginary parts, written straight
    # into G's float view; the rows' streams follow one another in the block's C order,
    # each drawn straight into its slice of one buffer
    sizes = [2 * dim * sum(row) for row in rows]
    normals = np.empty(sum(sizes))
    stop = 0
    for s, size in zip(seeds, sizes):
        start, stop = stop, stop + size
        np.random.default_rng(s).standard_normal(out=normals[start:stop])  # a Generator as is
    g = np.zeros((ranks.size, dim, dim), dtype=complex)
    parts = g.view(float).reshape(ranks.size, dim, dim, 2).transpose(0, 3, 1, 2)
    parts[_column_index(dim) < ranks.reshape(-1, 1, 1, 1)] = normals
    h = g @ g.conj().swapaxes(1, 2)
    floats = h.view(float).reshape(ranks.size, -1)
    floats *= 1.0 / h.trace(axis1=1, axis2=2).real[:, None]
    h += h.conj().swapaxes(1, 2)
    floats *= 0.5
    return h.reshape(ranks.shape + (dim, dim))


@dataclass(frozen=True)
class BellDiagonalState:
    """Two-qubit state diagonal in the Bell basis, rho = (I + sum_i c_i s_i x s_i)/4.

    In ``full`` mode the coefficients must keep all four Bell populations
    non-negative (the tetrahedron constraint). In ``deviation`` mode the
    coefficients are understood in units of the thermal polarization and
    carry no positivity constraint of their own; the physical state is
    I/4 + eps * deviation_matrix() for small eps.
    """

    c1: float
    c2: float
    c3: float
    mode: str = "full"

    def __post_init__(self):
        if self.mode not in ("full", "deviation"):
            raise ValueError(f"mode must be 'full' or 'deviation', got {self.mode!r}")
        if not all(map(math.isfinite, (self.c1, self.c2, self.c3))):
            raise InvalidStateError(
                f"Bell coefficients ({self.c1}, {self.c2}, {self.c3}) must be finite"
            )
        if self.mode == "full":
            smallest = min(self.populations())
            if smallest < PSD_TOL:
                raise InvalidStateError(
                    f"Bell coefficients ({self.c1}, {self.c2}, {self.c3}) violate "
                    f"the tetrahedron constraint: population {smallest!r}")

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3])

    def populations(self) -> tuple[float, float, float, float]:
        """Eigenvalues of the full-state matrix (the four Bell populations)."""
        c1, c2, c3 = self.c1, self.c2, self.c3
        return (
            (1 - c1 - c2 - c3) / 4.0,
            (1 - c1 + c2 + c3) / 4.0,
            (1 + c1 - c2 + c3) / 4.0,
            (1 + c1 + c2 - c3) / 4.0,
        )

    def deviation_matrix(self) -> np.ndarray:
        """The traceless part sum_i c_i sigma_i (x) sigma_i / 4."""
        c1, c2, c3 = self.c1, self.c2, self.c3
        return np.array([[c3, 0, 0, c1 - c2], [0, -c3, c1 + c2, 0],
                         [0, c1 + c2, -c3, 0], [c1 - c2, 0, 0, c3]], dtype=complex) / 4.0

    def density_matrix(self, epsilon: float | None = None) -> np.ndarray:
        """The physical 4x4 state; deviation mode requires epsilon."""
        if self.mode == "deviation" and epsilon is None:
            raise ValueError("epsilon is required to compose a deviation-mode state")
        scale = 1.0 if self.mode == "full" else epsilon
        with np.errstate(over="ignore", invalid="ignore"):  # huge c: rejected below
            rho = np.eye(4, dtype=complex) / 4.0 + scale * self.deviation_matrix()
        if not np.isfinite(rho).all():
            raise InvalidStateError(f"Bell coefficients {self.c1, self.c2, self.c3} overflow")
        return rho
