"""Permutation-invariant (Dicke) representation of N spin-1/2 particles.

A collective state of N exchangeable two-level systems decomposes into
total-spin sectors j = N/2, N/2 - 1, ..., down to 0 (N even) or 1/2 (N odd).
Operators symmetric under particle exchange are block diagonal in this basis,
so the state space grows quadratically with N instead of exponentially.

Total spin j and projection m are represented internally as the integers
2j and 2m, which keeps sector bookkeeping exact for even and odd N alike.
Within each sector the basis is ordered by decreasing m; sectors are ordered
by decreasing j.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProbe, InvalidArgument, _array, _count, _instance, _real

# Kinds accepted by collective_operator.
_OPERATOR_KINDS = ("x", "y", "z", "plus", "minus")


def _as_twice(value, name):
    """Convert a (half-)integer quantum number to the exact integer 2*value."""
    twice = 2.0 * _real(value, name)
    if not math.isfinite(twice) or abs(twice - round(twice)) > 1e-9:
        raise InvalidArgument(f"{name} must be integer or half-integer, got {value}")
    return int(round(twice))


def dicke_dimension(n_particles):
    """Dimension of the block-diagonal collective state space.

    Counts one basis element per (j, m) pair, not per degenerate copy:
    (N+1)(N+3)/4 for odd N and (N+2)^2/4 for even N.
    """
    n = _count(n_particles, "n_particles", 1)
    if n % 2:
        return (n + 1) * (n + 3) // 4
    return (n + 2) ** 2 // 4


def _depth(n_particles, j):
    """(N, k) with k = N/2 - j, for a valid sector j of N particles."""
    n = _count(n_particles, "n_particles", 1)
    twoj = _as_twice(j, "j")
    if twoj < 0 or twoj > n or (n - twoj) % 2:
        raise InvalidArgument(f"j={j} is not a valid sector for N={n}")
    return n, (n - twoj) // 2


def degeneracy(n_particles, j):
    """Number of copies of the spin-j multiplet in the decomposition of N spins.

    The multiplets with total spin >= j, less those with spin >= j + 1, in
    exact integer arithmetic:

        d_N^j = C(N, k) - C(N, k - 1),  k = N/2 - j

    Parameters
    ----------
    n_particles : int
        Number of spin-1/2 particles.
    j : int or float
        Total spin, integer or half-integer, with 0 <= j <= N/2 and
        2j of the same parity as N.
    """
    return _multiplicity(*_depth(n_particles, j))


def _multiplicity(n, k):
    """d_N^j for k = N/2 - j, unchecked."""
    return math.comb(n, k) - math.comb(n, k - 1) if k else 1


def cumulative_degeneracy(n_particles, j):
    """Number of multiplets with total spin >= j, equal to C(N, N/2 - j)."""
    n, k = _depth(n_particles, j)
    return math.comb(n, k)


@dataclass(frozen=True)
class Sector:
    """One total-spin block: 2j (exact), its dimension 2j+1, the row offset
    of the block inside the stacked basis, and its multiplicity d_N^j."""

    twoj: int
    dim: int
    offset: int
    multiplicity: int

    @property
    def j(self):
        return self.twoj / 2.0

    def m_values(self):
        """Projections m in decreasing order, as floats."""
        return np.arange(self.twoj, -self.twoj - 2, -2) / 2.0


@dataclass(frozen=True)
class DickeSpace:
    """Index bookkeeping for the collective basis of N spins."""

    n_particles: int
    sectors: tuple
    total_dim: int

    def sector(self, twoj):
        for s in self.sectors:
            if s.twoj == twoj:
                return s
        raise InvalidArgument(f"no sector with 2j={twoj} for N={self.n_particles}")

    def index(self, twoj, twom):
        """Flat basis index of |j, m> given 2j and 2m."""
        s = self.sector(twoj)
        if abs(twom) > twoj or (twoj - twom) % 2:
            raise InvalidArgument(f"2m={twom} invalid in sector 2j={twoj}")
        return s.offset + (twoj - twom) // 2

    @property
    def max_sector(self):
        return self.sectors[0]


def build_space(n_particles):
    """Construct the sector layout for N particles.

    Sectors are ordered by decreasing j; the stacked dimension matches
    dicke_dimension and the multiplicity-weighted dimensions sum to 2^N.
    """
    n = _count(n_particles, "n_particles", 1)
    sectors = []
    offset = 0
    for k, twoj in enumerate(range(n, -1, -2)):
        sectors.append(Sector(twoj=twoj, dim=twoj + 1, offset=offset,
                              multiplicity=_multiplicity(n, k)))
        offset += twoj + 1
    if offset != dicke_dimension(n):
        raise InvalidArgument(f"sector layout inconsistent for N={n}")
    return DickeSpace(n_particles=n, sectors=tuple(sectors), total_dim=offset)


# ---------------------------------------------------------------------------
# Block-diagonal operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Operator that is block diagonal over the total-spin sectors.

    Blocks are dense complex arrays, one per sector, in sector order.
    """

    space: DickeSpace
    blocks: tuple

    def __post_init__(self):
        if len(self.blocks) != len(self.space.sectors):
            raise InvalidArgument("one block per sector required")
        for s, b in zip(self.space.sectors, self.blocks):
            if b.shape != (s.dim, s.dim):
                raise InvalidArgument(
                    f"block for 2j={s.twoj} has shape {b.shape}, expected {(s.dim, s.dim)}")

    def to_dense(self):
        out = np.zeros((self.space.total_dim,) * 2, dtype=complex)
        for s, b in zip(self.space.sectors, self.blocks):
            out[s.offset:s.offset + s.dim, s.offset:s.offset + s.dim] = b
        return out

    def dagger(self):
        return BlockOperator(self.space, tuple(b.conj().T for b in self.blocks))

    def _pairwise(self, other, op):
        """op on each pair of blocks of self and other (_blocks_of)."""
        other = _blocks_of(other, self.space, "operand")
        return BlockOperator(self.space, tuple(op(a, b) for a, b in zip(self.blocks, other.blocks)))

    def __add__(self, other):
        return self._pairwise(other, np.add)

    def __sub__(self, other):
        return self._pairwise(other, np.subtract)

    def __matmul__(self, other):
        return self._pairwise(other, np.matmul)

    def __mul__(self, scalar):
        return BlockOperator(self.space, tuple(scalar * b for b in self.blocks))

    __rmul__ = __mul__

    def expectation(self, rho):
        """Tr(self @ rho) for a BlockOperator or DensityOperator of this space."""
        rho = _blocks_of(rho, self.space, "rho")
        return sum(np.einsum("ij,ji->", a, b) for a, b in zip(self.blocks, rho.blocks))

    def ravel(self):
        """The blocks raveled and concatenated in sector order (sum of d_s^2)."""
        return np.concatenate([b.ravel() for b in self.blocks])

    @classmethod
    def unravel(cls, space, flat):
        """The BlockOperator whose ravel() is flat, its blocks views of flat."""
        ends = np.cumsum([s.dim ** 2 for s in space.sectors])[:-1]
        return cls(space, tuple(f.reshape(s.dim, s.dim)
                                for s, f in zip(space.sectors, np.split(flat, ends))))


def _sector_blocks(space, matrix, what):
    """The sector blocks of a d x d matrix as a BlockOperator. A collective
    state and its derivatives have no entry between two sectors: one above
    1e-10, like another shape, is InvalidArgument."""
    mat = _array(matrix, what)
    d = space.total_dim
    if mat.shape != (d, d):
        raise InvalidArgument(f"{what} has shape {mat.shape}, expected ({d}, {d})")
    cuts = [slice(s.offset, s.offset + s.dim) for s in space.sectors]
    op = BlockOperator(space, tuple(np.array(mat[sl, sl]) for sl in cuts))
    if np.max(np.abs(mat - op.to_dense())) > 1e-10:
        raise InvalidArgument(f"{what} has an entry between two sectors above 1e-10")
    return op


def _spin_block(twoj, kind):
    """Standard spin-j matrix of J_kind in the |j, m> basis, m decreasing."""
    dim = twoj + 1
    j = twoj / 2.0
    m = np.arange(twoj, -twoj - 2, -2) / 2.0
    # Raising part: <j, m+1| J_+ |j, m> = sqrt((j - m)(j + m + 1)).
    plus = np.zeros((dim, dim), dtype=complex)
    plus[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt((j - m[1:]) * (j + m[1:] + 1.0))
    return {"z": np.diag(m).astype(complex), "plus": plus, "minus": plus.conj().T,
            "x": (plus + plus.conj().T) / 2.0, "y": (plus - plus.conj().T) / 2.0j}[kind]


def collective_operator(space, kind):
    """Collective angular-momentum operator J_kind as a BlockOperator.

    Parameters
    ----------
    space : DickeSpace
    kind : str
        One of "x", "y", "z", "plus", "minus".
    """
    _instance(space, DickeSpace, "space")
    if kind not in _OPERATOR_KINDS:
        raise InvalidArgument(f"kind must be one of {_OPERATOR_KINDS}, got {kind!r}")
    return BlockOperator(space, tuple(_spin_block(s.twoj, kind) for s in space.sectors))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state over the stacked (j, m) basis. Unit norm is enforced."""

    space: DickeSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _array(self.amplitudes, "amplitudes")
        d = _instance(self.space, DickeSpace, "space").total_dim
        if amp.shape != (d,):
            raise InvalidArgument(f"amplitudes have shape {amp.shape}, expected ({d},)")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise InvalidArgument(f"state norm {norm!r} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "amplitudes", amp)

    def projector(self):
        """|psi><psi| block by block; one with an entry between two sectors
        above 1e-10 (the product of the two largest sector peaks) is refused."""
        parts = [self.amplitudes[s.offset:s.offset + s.dim] for s in self.space.sectors]
        peaks = [0.0] + sorted(np.abs(p).max() for p in parts)
        if peaks[-2] * peaks[-1] > 1e-10:
            raise InvalidArgument("projector has an entry between two sectors above 1e-10")
        return DensityOperator(self.space, BlockOperator(
            self.space, tuple(np.outer(p, p.conj()) for p in parts)))

    def max_sector_weight(self):
        s = self.space.max_sector
        block = self.amplitudes[s.offset:s.offset + s.dim]
        return float(np.vdot(block, block).real)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Mixed state over the stacked basis, held as its sector blocks: a
    BlockOperator of the space, or a d x d matrix split by _sector_blocks;
    matrix is the d x d view, built on each read. Hermiticity (1e-10), unit
    trace (1e-10) and positivity (eigenvalues >= -1e-8) hold block by block."""

    space: DickeSpace
    blocks: BlockOperator

    def __post_init__(self):
        space = _instance(self.space, DickeSpace, "space")
        blocks = _blocks_of(self.blocks, space, "density matrix") if isinstance(
            self.blocks, BlockOperator) else _sector_blocks(space, self.blocks, "density matrix")
        if max(np.max(np.abs(b - b.conj().T)) for b in blocks.blocks) > 1e-10:
            raise InvalidArgument("density matrix is not Hermitian within 1e-10")
        trace = sum(np.trace(b).real for b in blocks.blocks)
        if abs(trace - 1.0) > 1e-10:
            raise InvalidArgument(f"density matrix trace {trace!r} deviates from 1 beyond 1e-10")
        if min(np.linalg.eigvalsh(b).min() for b in blocks.blocks) < -1e-8:
            raise InvalidArgument("density matrix has an eigenvalue below -1e-8")
        object.__setattr__(self, "blocks", blocks)

    @property
    def matrix(self):
        return self.blocks.to_dense()

    def purity(self):
        return float(sum(np.einsum("ij,ji->", b, b).real for b in self.blocks.blocks))

    def sector_weights(self):
        """Population carried by each total-spin sector."""
        return np.array([np.trace(b).real for b in self.blocks.blocks])


def _blocks_of(value, space, what):
    """The BlockOperator of a BlockOperator or DensityOperator on space, else InvalidArgument."""
    blocks = value.blocks if isinstance(value, DensityOperator) else value
    if not isinstance(blocks, BlockOperator) or blocks.space != space:
        raise InvalidArgument(f"{what} must be a BlockOperator or DensityOperator of "
                              f"N = {space.n_particles}, got {type(value).__name__}")
    return blocks


def _spinor_powers(n, spinors):
    """sqrt(C(n, k)) a^(n-k) b^k for k = 0 ... n, per one-spin state (a, b)
    on the last axis of spinors (the maximal-sector amplitudes of its n-fold
    power, k = n/2 - m), C(n, k + 1) = C(n, k) (n - k) / (k + 1) exactly."""
    k = np.arange(n + 1)
    row = itertools.accumulate(range(n), lambda c, i: c * (n - i) // (i + 1), initial=1)
    a, b = (np.asarray(spinors)[..., i, None] for i in (0, 1))
    return np.sqrt(np.array(list(row), dtype=float)) * a ** (n - k) * b ** k


def _power_state(space, spinors):
    """The sum of the N-fold powers of the one-spin states (rows of spinors),
    normalised, as a StateVector on the maximal sector; a norm below 1e-10
    before normalisation raises DegenerateProbe."""
    s = _instance(space, DickeSpace, "space").max_sector
    amplitudes = np.zeros(space.total_dim, dtype=complex)
    amplitudes[s.offset:s.offset + s.dim] = _spinor_powers(s.twoj, spinors).sum(axis=0)
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-10:
        raise DegenerateProbe("superposed probe has vanishing norm")
    return StateVector(space, amplitudes / norm)


def coherent_state(space, theta, phi):
    """Spin-coherent state on the maximal sector, pointing along (theta, phi).

    The N-fold power of the one-spin state (cos(theta/2), sin(theta/2) e^{-i phi}),
    with amplitudes

        <j, m | theta, phi> = sqrt(C(2j, j+m)) cos(theta/2)^(j+m)
                              sin(theta/2)^(j-m) exp(-i (j-m) phi)

    and j = N/2; all other sectors carry zero amplitude.
    """
    theta, phi = _real(theta, "theta"), _real(phi, "phi")
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise InvalidArgument("theta and phi must be finite")
    return _power_state(space, [[math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(-1j * phi)]])


# Seed direction (theta, phi) for each Cartesian axis; the partner branch of
# the superposition sits at the antipode (pi - theta, phi + pi).
_GHZ_SEEDS = {"x": (np.pi / 2.0, 0.0), "y": (np.pi / 2.0, np.pi / 2.0), "z": (0.0, 0.0)}


def _ghz_spinors(axis):
    """The one-spin states (cos(theta/2), sin(theta/2) e^{-i phi}) whose N-fold
    powers are the two branches of ghz_state(space, axis), as rows."""
    theta, phi = _GHZ_SEEDS[axis]
    return np.array([[math.cos(t / 2.0), math.sin(t / 2.0) * np.exp(-1j * p)]
                     for t, p in ((theta, phi), (np.pi - theta, phi + np.pi))])


def ghz_state(space, axis):
    """Equal superposition of the two coherent states along +axis and -axis.

    The two branches are antipodal, hence orthogonal, so the sum of their
    powers has norm sqrt(2) up to rounding; it is normalised numerically. The
    phase convention is that of the coherent-state construction.
    """
    if axis not in _GHZ_SEEDS:
        raise InvalidArgument(f"axis must be one of ('x', 'y', 'z'), got {axis!r}")
    return _power_state(space, _ghz_spinors(axis))


def simultaneous_probe(space):
    """Normalized sum of the three axis superposition states: the six powers
    of their branches, summed and normalized numerically (_power_state), as
    the three components interfere."""
    return _power_state(space, np.concatenate([_ghz_spinors(a) for a in _GHZ_SEEDS]))
