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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericalError, _array, _count, _instance, _real

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
    return DickeSpace(n_particles=n, sectors=tuple(sectors), total_dim=offset)


# ---------------------------------------------------------------------------
# Block-diagonal operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Operator that is block diagonal over the total-spin sectors.

    Blocks: one ndarray of integers, reals or complex numbers per sector, in
    sector order, held as given; else InvalidArgument. A scalar factor must
    be one real or complex number.
    """

    space: DickeSpace
    blocks: tuple

    __array_ufunc__ = None  # array * op calls __rmul__, which refuses the array

    def __post_init__(self):
        sectors = _instance(self.space, DickeSpace, "space").sectors
        if not isinstance(self.blocks, (tuple, list)) or len(self.blocks) != len(sectors):
            raise InvalidArgument("one block per sector required")
        for s, b in zip(sectors, self.blocks):
            if not isinstance(b, np.ndarray) or b.shape != (s.dim, s.dim) \
                    or b.dtype.kind not in "iufc":
                raise InvalidArgument(f"block for 2j={s.twoj} must be a numeric ndarray of shape "
                                      f"{(s.dim, s.dim)}")

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
        if isinstance(scalar, (bool, np.bool_)) or not isinstance(scalar, numbers.Complex):
            raise InvalidArgument(f"a BlockOperator scales by one number, got {scalar!r}")
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


def _collective_exponential(space, v, t=1.0):
    """exp(-i v . J t) as a BlockOperator, from one eigh of each sector's
    v . J block; a failed eigh is NumericalError."""
    ops = zip(*(collective_operator(space, a).blocks for a in "xyz"))
    try:
        eig = [np.linalg.eigh(sum(c * j for c, j in zip(v, sector))) for sector in ops]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"collective rotation diagonalization failed: {exc}") from exc
    return BlockOperator(space, tuple((u * np.exp(-1j * w * t)) @ u.conj().T for w, u in eig))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure symmetric state: its N + 1 amplitudes on the maximal sector
    j = N/2, m decreasing. That sector has multiplicity 1, so the amplitudes
    are an N-spin state, held as a read-only copy with finite entries and
    unit norm (1e-12)."""

    space: DickeSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _array(self.amplitudes, "amplitudes").copy()
        amp.flags.writeable = False
        dim = _instance(self.space, DickeSpace, "space").max_sector.dim
        if amp.shape != (dim,) or not np.isfinite(amp).all():
            raise InvalidArgument(f"amplitudes must be {dim} finite numbers, got shape {amp.shape}")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise InvalidArgument(f"state norm {norm!r} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "amplitudes", amp)

    def projector(self):
        """|psi><psi| as a DensityOperator: one maximal-sector block, zero elsewhere."""
        top = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(self.space, BlockOperator(self.space, (top,) + tuple(
            np.zeros((s.dim, s.dim), dtype=complex) for s in self.space.sectors[1:])))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Mixed collective state, held as its sector blocks: read-only copies of
    those of a BlockOperator of the space, or the blocks of a DensityOperator
    (_blocks_of); anything else, a d x d array too, is InvalidArgument.
    Finite entries, Hermiticity (1e-10), unit trace (1e-10) and positivity
    (eigenvalues >= -1e-8) hold. blocks.to_dense() is the d x d view."""

    space: DickeSpace
    blocks: BlockOperator

    def __post_init__(self):
        blocks = _blocks_of(self.blocks, _instance(self.space, DickeSpace, "space"),
                            "density matrix")
        if not isinstance(self.blocks, DensityOperator):  # a state's blocks are such copies
            blocks = BlockOperator(self.space, tuple(b.copy() for b in blocks.blocks))
            for b in blocks.blocks:
                b.flags.writeable = False
        if not all(np.isfinite(b).all() for b in blocks.blocks):
            raise InvalidArgument("density matrix has an entry that is not finite")
        if max(np.max(np.abs(b - b.conj().T)) for b in blocks.blocks) > 1e-10:
            raise InvalidArgument("density matrix is not Hermitian within 1e-10")
        trace = sum(np.trace(b).real for b in blocks.blocks)
        if abs(trace - 1.0) > 1e-10:
            raise InvalidArgument(f"density matrix trace {trace!r} deviates from 1 beyond 1e-10")
        if min(np.linalg.eigvalsh(b).min() for b in blocks.blocks) < -1e-8:
            raise InvalidArgument("density matrix has an eigenvalue below -1e-8")
        object.__setattr__(self, "blocks", blocks)

    def purity(self):
        """tr(rho^2) of the N-spin state: sector s's block is shared over its
        d_N^j copies (embed_collective), so sum_s tr(rho_s^2) / d_N^j."""
        return float(sum(np.einsum("ij,ji->", b, b).real / s.multiplicity
                         for s, b in zip(self.space.sectors, self.blocks.blocks)))

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
    normalised, as a StateVector on the maximal sector; the branches of a
    coherent, GHZ or joint probe sum to norm 1, sqrt(2) (antipodes) or >= 1."""
    amplitudes = _spinor_powers(_instance(space, DickeSpace, "space").n_particles,
                                spinors).sum(axis=0)
    return StateVector(space, amplitudes / np.linalg.norm(amplitudes))


def coherent_state(space, theta, phi):
    """Spin-coherent state on the maximal sector, pointing along (theta, phi).

    The N-fold power of the one-spin state (cos(theta/2), sin(theta/2) e^{-i phi}),
    with amplitudes

        <j, m | theta, phi> = sqrt(C(2j, j+m)) cos(theta/2)^(j+m)
                              sin(theta/2)^(j-m) exp(-i (j-m) phi)

    and j = N/2, as the N + 1 amplitudes of a StateVector.
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
