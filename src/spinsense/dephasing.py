"""Collective description of independent local dephasing.

Each particle couples to its own environment through the same single-spin
operator a = axis . sigma/2 with |axis| = 2, so a^2 = 1 on every site. The
resulting double-commutator dissipator is permutation invariant and closes
on the block-diagonal (j, m) representation, but unlike the Hamiltonian it
also connects neighbouring total-spin sectors j -> j, j-1, j+1.

The generator used everywhere downstream is rate-free,

    L[rho] = 2 * (sum_n a_n rho a_n - N rho),

so that the physical evolution is d rho / d Theta = L[rho] where Theta(t)
is the integrated dephasing strength of the chosen noise profile.

Local dephasing is covariant under collective rotations: with U the
collective rotation that carries J_z onto axis . J / 2, L[X] =
U L_z[U^dag X U] U^dag. Along z the generator keeps m and m' fixed and only
moves weight between neighbouring j, so L_z splits into independent real
tridiagonal chains, one per (m, m'), over j = N/2, N/2 - 1, ... down to
max(|m|, |m'|) (Chase & Geremia, PRA 78, 052101 (2008); Shammah et al.,
PRA 98, 063815 (2018)). A chain's generator depends only on m m' and
{|m|, |m'|}, so the orbit (m, m'), (m', m), (-m, -m'), (-m', -m) shares one,
built and exponentiated once. Each chain has nonnegative off-diagonal
entries and nonpositive column sums, so its exponential is a nonnegative
contraction, and scaling and squaring (a short Taylor step, then repeated
squaring) reaches working precision at any Theta and N. An eigenbasis of
the chain would not: it is as ill-conditioned as the similarity that
symmetrises it.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dicke import BlockOperator, DickeSpace, collective_operator
from .errors import InvalidArgument


class NoiseKind(str, enum.Enum):
    """Temporal profile of the dephasing rate."""

    MARKOVIAN = "markovian"
    NONMARKOVIAN = "nonmarkovian"
    NONE = "none"


def _member(enum_type, value):
    """enum_type(value), with an unknown value refused as InvalidArgument."""
    try:
        return enum_type(value)
    except ValueError:
        raise InvalidArgument(
            f"expected one of {[e.value for e in enum_type]}, got {value!r}") from None


def _real(value, what):
    """float(value), with a value that is not a real number refused as InvalidArgument."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidArgument(f"{what} must be a real number, got {value!r}") from None


def _vector(value, what):
    """value as an array of 3 finite floats, anything else refused as InvalidArgument."""
    try:
        vec = np.asarray(value, dtype=float)
        if vec.shape == (3,) and np.all(np.isfinite(vec)):
            return vec
    except (TypeError, ValueError):
        pass
    raise InvalidArgument(f"{what} must be 3 finite components, got {value}")


@dataclass(frozen=True)
class NoiseSpec:
    """Dephasing model: profile kind, strength gamma, and local coupling axis.

    The axis is stored renormalized to Euclidean norm 2 (so the single-site
    coupling squares to the identity); inputs further than 1e-6 from that
    normalization trigger a warning. kind = NONE forces gamma = 0.
    """

    kind: NoiseKind
    gamma: float
    axis: tuple

    def __init__(self, kind, gamma, axis):
        kind = _member(NoiseKind, kind)
        gamma = _real(gamma, "gamma")
        if not np.isfinite(gamma) or gamma < 0.0:
            raise InvalidArgument(f"gamma must be finite and >= 0, got {gamma}")
        if kind is NoiseKind.NONE:
            gamma = 0.0
        vec = _vector(axis, "axis")
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise InvalidArgument("axis must be nonzero")
        if abs(norm - 2.0) > 1e-6:
            warnings.warn(
                f"noise axis renormalized from |axis|={norm:.6g} to 2", stacklevel=2)
        vec = 2.0 * vec / norm
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "axis", (vec[0], vec[1], vec[2]))


def gamma_profile(spec, t):
    """Instantaneous dephasing rate gamma_t at time t >= 0."""
    if t < 0.0 or not np.isfinite(t):
        raise InvalidArgument(f"t must be finite and >= 0, got {t}")
    if spec.kind is NoiseKind.MARKOVIAN:
        return spec.gamma
    if spec.kind is NoiseKind.NONMARKOVIAN:
        return spec.gamma ** 2 * t
    return 0.0


def integrated_strength(spec, t):
    """Theta(t) = integral of gamma_t from 0 to t; the natural evolution clock."""
    if t < 0.0 or not np.isfinite(t):
        raise InvalidArgument(f"t must be finite and >= 0, got {t}")
    if spec.kind is NoiseKind.MARKOVIAN:
        return spec.gamma * t
    if spec.kind is NoiseKind.NONMARKOVIAN:
        return spec.gamma ** 2 * t ** 2 / 2.0
    return 0.0


def _lambda_weights(n, j):
    """Sector weights; the j = 0 singular cases are defined as 0 because every
    ladder factor vanishes there as well."""
    half_n = n / 2.0
    if j == 0.0:
        lam_stay = 0.0
        lam_drop = 0.0
    else:
        lam_stay = (half_n + 1.0) / (2.0 * j * (j + 1.0))
        lam_drop = (half_n + j + 1.0) / (2.0 * j * (2.0 * j + 1.0))
    lam_lift = (half_n - j) / (2.0 * (j + 1.0) * (2.0 * j + 1.0))
    return lam_stay, lam_drop, lam_lift


# exp(h G) by a Taylor series of this degree once ||h G||_1 <= _TAYLOR_NORM,
# where its truncation error is below 3e-18.
_TAYLOR_DEGREE = 10
_TAYLOR_NORM = 0.125


@dataclass(frozen=True, eq=False)
class ChainBatch:
    """All z-frame chains of one length L, stacked along the first axis.

    Chain c holds the elements |j, m_c><j, m'_c| for L values of j, descending
    from N/2; indices[c] are their flat row-major positions in a d x d matrix.
    generator[orbit[c]] is the real tridiagonal L_z restricted to the chain
    (row = target), one per orbit (m, m'), (m', m), (-m, -m'), (-m', -m) of
    chains that share it, built for the orbit's pair (2m, 2m') = (top, c).
    """

    indices: np.ndarray
    generator: np.ndarray
    orbit: np.ndarray

    def exponential(self, thetas):
        """exp(theta generator[r]) for every representative r at each of thetas, by
        scaling and squaring with its own number of squarings per theta.
        Shape (len(thetas),) + generator.shape."""
        thetas = np.asarray(thetas, dtype=float)
        if not np.all(np.isfinite(thetas) & (thetas >= 0.0)):
            raise InvalidArgument(f"theta must be finite and >= 0, got {thetas}")
        width = float(np.abs(self.generator).sum(axis=1).max())
        squarings = np.array([max(0, math.ceil(math.log2(theta * width / _TAYLOR_NORM)))
                              if theta * width > 0.0 else 0 for theta in thetas], dtype=int)
        step = self.generator * (thetas / 2.0 ** squarings)[:, None, None, None]
        eye = np.eye(self.generator.shape[-1])
        out = eye + step / _TAYLOR_DEGREE
        for k in range(_TAYLOR_DEGREE - 1, 0, -1):
            out = step @ out
            out /= k
            out += eye
        for k in range(squarings.max(initial=0)):
            more = squarings > k
            part = out[more]
            out[more] = part @ part
        return out


def _chain_batch(space, length, lam):
    """Chains of the given length: those with max(|2m|, |2m'|) = N - 2(L-1)."""
    n = space.n_particles
    d = space.total_dim
    top = n - 2 * (length - 1)
    # the pairs (a, b) = (2m, 2m') on the border of the square of side top,
    # a descending, then b descending
    side = np.arange(top, -top - 2, -2)
    a, b = np.meshgrid(side, side, indexing="ij")
    border = (np.abs(a) == top) | (np.abs(b) == top)
    a, b = a[border], b[border]
    # each orbit holds exactly one pair (top, c); the representatives run
    # c = -top ... top
    c = np.where(np.abs(a) == top, np.sign(a) * b, np.sign(b) * a)
    orbit = (c + top) // 2
    reps = np.arange(-top, top + 1, 2)
    twom, twomb = a[:, None], b[:, None]
    sectors = space.sectors[:length]
    twoj = np.array([s.twoj for s in sectors])
    offset = np.array([s.offset for s in sectors])
    rows = offset + (twoj - twom) // 2
    cols = offset + (twoj - twomb) // 2
    j, m, mb = twoj / 2.0, top / 2.0, reps[:, None] / 2.0
    lam_stay, lam_drop, lam_lift = lam[:length].T
    diag = 8.0 * lam_stay * m * mb - 2.0 * n
    # j -> j - 1 from column a to row a + 1; j -> j + 1 from column a to row a - 1.
    drop = (8.0 * lam_drop * np.sqrt((j + m) * (j - m) * (j + mb) * (j - mb)))[:, :-1]
    lift = (8.0 * lam_lift * np.sqrt(
        (j + m + 1.0) * (j - m + 1.0) * (j + mb + 1.0) * (j - mb + 1.0)))[:, 1:]
    idx = np.arange(length)
    generator = np.zeros((len(reps), length, length))
    generator[:, idx, idx] = diag
    generator[:, idx[1:], idx[:-1]] = drop
    generator[:, idx[:-1], idx[1:]] = lift
    return ChainBatch(indices=rows * d + cols, generator=generator, orbit=orbit)


@dataclass(frozen=True, eq=False)
class DephasingSuperoperator:
    """Rate-free dephasing generator, held in the frame of its noise axis.

    rotation and axis_rotation are the U (U J_z U^dag = axis . J / 2) and
    the 3 x 3 R of axis_frame; chains holds the z-frame generator as one
    ChainBatch per chain length. Entries of a state between different
    sectors lie outside the collective representation: L maps them to zero
    and exp(Theta L) leaves them as they are. From the maximal sector, each
    dephased sector block is a real kernel, the same for every state, times
    a centred window of the maximal-sector block (transfer_kernels).
    """

    space: DickeSpace
    rotation: BlockOperator
    axis_rotation: np.ndarray
    chains: tuple

    @property
    def nnz(self):
        """Nonzero couplings of the z-frame generator."""
        return sum(int(np.count_nonzero(b.generator[b.orbit])) for b in self.chains)

    def apply(self, rho_matrix):
        """L[rho] for a dense d x d matrix."""
        return self._through_chains(rho_matrix, np.zeros_like, lambda b: b.generator)

    def propagate(self, rho_matrix, theta):
        """exp(theta L)[rho] for a dense d x d matrix, at any theta >= 0."""
        return self._through_chains(rho_matrix, np.copy, lambda b: b.exponential([theta])[0])

    def transfer_kernels(self, thetas):
        """Per sector s, the real (len(thetas), d_s, d_s) stack K_s with
        exp(theta L)[X]_s = K_s * X[s:d0 - s, s:d0 - s] in the noise frame, at
        each of thetas, for X the maximal-sector block (d0 = N + 1). Every
        chain starts in the maximal sector, at (a, b) there, and the first
        column of its exponential carries that element to (a - k, b - k) in
        sector k."""
        d, count = self.space.total_dim, len(thetas)
        kernels = [np.zeros((count, s.dim, s.dim)) for s in self.space.sectors]
        for batch in self.chains:
            a, b = np.divmod(batch.indices[:, 0], d)
            columns = batch.exponential(thetas)[..., 0][:, batch.orbit]
            for k in range(columns.shape[-1]):
                kernels[k][:, a - k, b - k] = columns[..., k]
        return kernels

    def _through_chains(self, rho_matrix, start, chain_map):
        """U chain_map[U^dag rho U] U^dag, chain_map(batch) per orbit. U is block
        diagonal, so only the sector blocks pass through; start(rho) sets the rest."""
        d = self.space.total_dim
        rho_matrix = np.asarray(rho_matrix, dtype=complex)
        blocks = [(slice(s.offset, s.offset + s.dim), u)
                  for s, u in zip(self.space.sectors, self.rotation.blocks)]
        frame = np.zeros((d, d), dtype=complex)
        for sl, u in blocks:
            frame[sl, sl] = u.conj().T @ rho_matrix[sl, sl] @ u
        flat = frame.reshape(d * d)
        for batch in self.chains:
            flat[batch.indices] = np.einsum(
                "cab,cb->ca", chain_map(batch)[batch.orbit], flat[batch.indices])
        out = start(rho_matrix)
        for sl, u in blocks:
            out[sl, sl] = u @ frame[sl, sl] @ u.conj().T
        return out


def axis_frame(space, axis):
    """The collective rotation onto a nonzero axis and its 3 x 3 rotation.

    U = exp(-i beta k . J), with k along z x axis (x when the axis is along
    +-z) and beta the polar angle of the axis, carries J_z onto n . J for
    the unit vector n along the axis. Each sector block of U comes from the
    eigendecomposition of that sector's beta k . J block. R is the rotation
    by beta about k (Rodrigues): U^dag J_a U = sum_b R[a, b] J_b, and
    R[:, 2] = n.
    """
    vec = np.asarray(axis, dtype=float)
    n = vec / np.linalg.norm(vec)
    sin_beta = float(np.hypot(n[0], n[1]))
    k = np.array([-n[1] / sin_beta, n[0] / sin_beta, 0.0]) if sin_beta > 0.0 \
        else np.array([1.0, 0.0, 0.0])
    beta = float(np.arctan2(sin_beta, n[2]))
    blocks = []
    for sector in zip(*(collective_operator(space, a).blocks for a in "xyz")):
        w, v = np.linalg.eigh(sum(c * j for c, j in zip(beta * k, sector)))
        blocks.append((v * np.exp(-1j * w)) @ v.conj().T)
    r = math.cos(beta) * np.eye(3) + math.sin(beta) * np.cross(np.eye(3), k) \
        + (1.0 - math.cos(beta)) * np.outer(k, k)
    return BlockOperator(space, tuple(blocks)), r


def build_dephasing_superoperator(space, spec):
    """Build the rate-free dephasing generator for the given noise axis.

    rotation and axis_rotation are the U and R of axis_frame. The chains
    depend only on N; the build is deterministic.
    """
    if not isinstance(space, DickeSpace):
        raise InvalidArgument("space must be a DickeSpace")
    rotation, axis_rotation = axis_frame(space, spec.axis)
    n = space.n_particles
    lam = np.array([_lambda_weights(n, s.twoj / 2.0) for s in space.sectors])
    chains = tuple(_chain_batch(space, length, lam)
                   for length in range(1, len(space.sectors) + 1))
    return DephasingSuperoperator(space=space, rotation=rotation,
                                  axis_rotation=axis_rotation, chains=chains)
