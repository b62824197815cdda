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
squaring) reaches working precision at any N, with Theta clamped where the
chains saturate (_THETA_SATURATED). An eigenbasis of the chain would not:
it is as ill-conditioned as the similarity that symmetrises it.

A state that starts in the maximal sector needs no chain: its sector
blocks follow in closed form (TransferKernels).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dicke import BlockOperator, DickeSpace, _blocks_of, _collective_exponential
from .errors import InvalidArgument, _instance, _member, _nonnegative, _strengths, _vector


class NoiseKind(str, enum.Enum):
    """Temporal profile of the dephasing rate."""

    MARKOVIAN = "markovian"
    NONMARKOVIAN = "nonmarkovian"
    NONE = "none"


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
        gamma = _nonnegative(gamma, "gamma")
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
    t = _nonnegative(t, "t")
    if _instance(spec, NoiseSpec, "spec").kind is NoiseKind.MARKOVIAN:
        return spec.gamma
    if spec.kind is NoiseKind.NONMARKOVIAN:
        return spec.gamma ** 2 * t
    return 0.0


def integrated_strength(spec, t):
    """Theta(t) = integral of gamma_t from 0 to t; the natural evolution clock.
    A float for one time t, an array for an array of times; a Theta beyond
    the floats is refused, naming the first t that reaches it."""
    t = _nonnegative(t, "t") if np.ndim(t) == 0 else _strengths(t, "t")
    nonmarkovian = _instance(spec, NoiseSpec, "spec").kind is NoiseKind.NONMARKOVIAN
    try:  # gamma is 0 without noise; a float's ** raises where an array's gives inf
        with np.errstate(over="ignore", invalid="ignore"):
            theta = spec.gamma ** 2 * t ** 2 / 2.0 if nonmarkovian else spec.gamma * t
    except OverflowError:
        theta = math.inf
    if not np.all(np.isfinite(theta)):
        first = float(np.min(np.asarray(t)[~np.isfinite(theta)]))
        raise InvalidArgument(f"Theta(t) at gamma = {spec.gamma!r} overflows from t = {first!r}")
    return theta


def _lambda_weights(n, j):
    """Sector weights; the j = 0 singular cases are defined as 0 because every
    ladder factor vanishes there as well."""
    half_n = n / 2.0
    lam_lift = (half_n - j) / (2.0 * (j + 1.0) * (2.0 * j + 1.0))
    if j == 0.0:
        return 0.0, 0.0, lam_lift
    return ((half_n + 1.0) / (2.0 * j * (j + 1.0)),
            (half_n + j + 1.0) / (2.0 * j * (2.0 * j + 1.0)), lam_lift)


# exp(h G) by a Taylor series of this degree once ||h G||_1 <= _TAYLOR_NORM,
# where its truncation error is below 3e-18.
_TAYLOR_DEGREE = 10
_TAYLOR_NORM = 0.125

# Every chain's rates are -4 d, d = 0, 1, ...: past this Theta its exponential
# moves by e^-40 = 4e-18 or less, and the clamp keeps the squarings' rounding
# to |exp(10 L) - exp(20 L)| <= 2.3e-12 (N = 2 to 96); at Theta = 5e6 it was 1.1e-6.
_THETA_SATURATED = 10.0


@dataclass(frozen=True, eq=False)
class ChainBatch:
    """All z-frame chains of one length L, stacked along the first axis.

    Chain c holds the elements |j, m_c><j, m'_c| for L values of j, descending
    from N/2; indices[c] are their positions in BlockOperator.ravel(), the
    sector blocks raveled and concatenated.
    generator[orbit[c]] is the real tridiagonal L_z restricted to the chain
    (row = target), one per orbit (m, m'), (m', m), (-m, -m'), (-m', -m) of
    chains that share it, built for the orbit's pair (2m, 2m') = (top, c).
    """

    indices: np.ndarray
    generator: np.ndarray
    orbit: np.ndarray

    def exponential(self, theta):
        """exp(theta generator[r]) for every representative r, by scaling and
        squaring, theta clamped at _THETA_SATURATED. Shape generator.shape."""
        theta = min(float(_strengths(theta)), _THETA_SATURATED)
        width = theta * float(np.abs(self.generator).sum(axis=1).max()) / _TAYLOR_NORM
        squarings = max(0, math.ceil(math.log2(width))) if width > 0.0 else 0
        step = self.generator * (theta / 2.0 ** squarings)
        eye = np.eye(self.generator.shape[-1])
        out = eye + step / _TAYLOR_DEGREE
        for k in range(_TAYLOR_DEGREE - 1, 0, -1):
            out = step @ out
            out /= k
            out += eye
        for _ in range(squarings):
            out = out @ out
        return out


def _chain_batch(space, length, lam):
    """Chains of the given length: those with max(|2m|, |2m'|) = N - 2(L-1)."""
    n = space.n_particles
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
    twoj = np.array([s.twoj for s in space.sectors[:length]])
    first = np.cumsum((twoj + 1) ** 2) - (twoj + 1) ** 2
    indices = first + (twoj - twom) // 2 * (twoj + 1) + (twoj - twomb) // 2
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
    return ChainBatch(indices=indices, generator=generator, orbit=orbit)


@dataclass(frozen=True, eq=False)
class DephasingSuperoperator:
    """Rate-free dephasing generator, held in the frame of its noise axis.

    rotation is the U (U J_z U^dag = axis . J / 2) of axis_frame for the
    NoiseSpec axis it records; chains holds the z-frame generator as one
    ChainBatch per chain length. apply and propagate act on the sector
    blocks of a BlockOperator or DensityOperator of the space, anything else
    is InvalidArgument, and return a BlockOperator: the chains cover every
    entry of the blocks.
    """

    space: DickeSpace
    rotation: BlockOperator
    chains: tuple
    axis: tuple

    @property
    def nnz(self):
        """Nonzero couplings of the z-frame generator."""
        return sum(int(np.count_nonzero(b.generator[b.orbit])) for b in self.chains)

    def apply(self, rho):
        """L[rho] as a BlockOperator."""
        return self._through_chains(rho, lambda b: b.generator)

    def propagate(self, rho, theta):
        """exp(theta L)[rho] as a BlockOperator, at any finite theta >= 0."""
        return self._through_chains(rho, lambda b: b.exponential(theta))

    def _through_chains(self, rho, chain_map):
        """U chain_map[U^dag rho U] U^dag, chain_map(batch) per orbit, on the
        raveled noise-frame blocks."""
        u = self.rotation
        flat = (u.dagger() @ _blocks_of(rho, self.space, "rho") @ u).ravel()
        for batch in self.chains:
            flat[batch.indices] = np.einsum(
                "cab,cb->ca", chain_map(batch)[batch.orbit], flat[batch.indices])
        return u @ BlockOperator.unravel(self.space, flat) @ u.dagger()


def _frame_rotation(axis):
    """(beta, k, R) of the rotation that carries z onto a nonzero axis.

    k is the unit vector along z x axis (x when the axis is along +-z) and
    beta the polar angle of the axis; exp(-i beta k . J) carries J_z onto
    n . J for the unit vector n along the axis. R is the rotation by beta
    about k (Rodrigues), with R[:, 2] = n.
    """
    vec = np.asarray(axis, dtype=float)
    n = vec / np.linalg.norm(vec)
    sin_beta = float(np.hypot(n[0], n[1]))
    k = np.array([-n[1] / sin_beta, n[0] / sin_beta, 0.0]) if sin_beta > 0.0 \
        else np.array([1.0, 0.0, 0.0])
    beta = float(np.arctan2(sin_beta, n[2]))
    r = math.cos(beta) * np.eye(3) + math.sin(beta) * _skew(k) \
        + (1.0 - math.cos(beta)) * np.outer(k, k)
    return beta, k, r


def _skew(v):
    """The matrix [v]_x of the cross product v x ."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def axis_frame(space, axis):
    """The collective rotation onto a nonzero axis and its 3 x 3 rotation.

    U = exp(-i beta k . J) with (beta, k, R) of _frame_rotation. Each sector
    block of U comes from the eigendecomposition of that sector's
    beta k . J block, and U^dag J_a U = sum_b R[a, b] J_b.
    """
    beta, k, r = _frame_rotation(axis)
    return _collective_exponential(space, beta * k), r


def build_dephasing_superoperator(space, spec):
    """Build the rate-free dephasing generator for the given noise axis.

    rotation is the U of axis_frame. The chains depend only on N; the build
    is deterministic.
    """
    rotation, _ = axis_frame(_instance(space, DickeSpace, "space"),
                             _instance(spec, NoiseSpec, "spec").axis)
    n = space.n_particles
    lam = np.array([_lambda_weights(n, s.twoj / 2.0) for s in space.sectors])
    chains = tuple(_chain_batch(space, length, lam)
                   for length in range(1, len(space.sectors) + 1))
    return DephasingSuperoperator(space=space, rotation=rotation, chains=chains, axis=spec.axis)


@dataclass(frozen=True, eq=False)
class TransferKernels:
    """Closed-form dephasing of a state that starts in the maximal sector.

    In the noise-frame product basis local dephasing multiplies |x><y| by
    exp(-4 Theta d(x, y)), d the Hamming distance; the Johnson-scheme
    eigenvalues of each weight layer (Delsarte, Philips Res. Rep. Suppl. 10
    (1973)) split that decay over the sectors. In the noise frame, sector s
    of exp(Theta L)[X] is K_s(Theta) * X[w, w], with X the maximal-sector
    block, w = s:N + 1 - s its centred window and K_s a real kernel, the
    same for every state. With a = s + i and b = s + i' the spins
    flipped along the noise axis at window indices i and i', lo = min(a, b),
    hi = max(a, b), q = exp(-8 Theta) and mu_s the multiplicity of sector s,

        K_s(i, i') = mu_s sqrt(C(N-2s, i) C(N-2s, i') / (C(N, a) C(N, b)))
                     exp(-4 Theta (hi - lo)) (1 - q)^s
                     sum_u C(lo-s, u) C(N-lo-s, hi-lo+u) q^u / C(N-2s, hi-s),

    where the sum divided by C(N-2s, hi-s) is a hypergeometric pmf in u:
    every term is nonnegative, and 1 - q is taken as -expm1(-8 Theta).
    K(i, i') = K(i', i) = K(d-1-i, d-1-i') holds exactly and folds every
    (i, i') onto an entry (s, lo, hi) with lo <= hi, lo + hi <= N - 2s. On
    the distinct entries that the blocks they were built on read, in the
    order (s, lo, hi), the kernels hold the counts C(lo-s, u)
    C(N-lo-s, hi-lo+u) for u = 0 ... N // 2, exactly 0 for u > lo - s, in
    one table, and each entry's divisor C(N-2s, hi-s) / (mu_s sqrt(...)),
    hi - lo and s; places holds, per stack of windows, where each of its
    (c, a, a) block entries sits among them. Counts below 2^53 are exact,
    so K_0(0) = 1 exactly for N <= 56.
    """

    space: DickeSpace
    counts: np.ndarray
    divisor: np.ndarray
    gap: np.ndarray
    sector: np.ndarray
    places: tuple

    def values(self, thetas):
        """The (len(thetas), c, a, a) kernel blocks of each stack of windows, in
        the order they were built on, one stack at a time: thetas are checked and
        the distinct entries evaluated at the call, by one product of powers of q
        with the counts, then the divisor, the decay of the gap and (1 - q)^s."""
        thetas, n = _strengths(thetas), self.space.n_particles
        decay = np.exp(-4.0 * np.outer(thetas, np.arange(n + 1)))
        out = decay[:, :2 * len(self.counts):2] @ self.counts
        out /= self.divisor
        out *= decay[:, self.gap]
        out *= ((-np.expm1(-8.0 * thetas))[:, None] ** np.arange(n // 2 + 1))[:, self.sector]
        return (out[:, place] for place in self.places)


def build_transfer_kernels(space, windows=None):
    """The TransferKernels of a DickeSpace for the given stacks of windows, one
    (sectors, indices) pair of integer arrays per stack: sectors (c,)
    the sector s of each of its c windows and indices (c, a) the window
    indices that its blocks K_s[i, i'] read; by default one stack per sector,
    on its whole window. Every block entry (s, i, i') is folded by the kernel
    symmetries and each distinct (s, lo, hi) kept once: exact binomials, each
    rounded once, and counts filled one power of q at a time, so that no
    temporary grows with them."""
    n = _instance(space, DickeSpace, "space").n_particles
    if windows is None:
        windows = [(np.array([s]), np.arange(n + 1 - 2 * s)[None]) for s in range(n // 2 + 1)]
    try:
        stacks = [(np.asarray(s), np.asarray(i)) for s, i in windows]
    except (TypeError, ValueError):
        stacks = []
    if not stacks or any(s.ndim != 1 or i.ndim != 2 or len(i) != len(s) or s.dtype.kind not in
                         "iu" or i.dtype.kind not in "iu" for s, i in stacks):
        raise InvalidArgument("windows must be (sectors, indices) pairs of integer arrays of "
                              f"shapes (c,) and (c, a), got {windows!r}")
    stacks = [(s.astype(int, copy=False), i.astype(int, copy=False)) for s, i in stacks]
    sectors = np.concatenate([s for s, _ in stacks])
    indices = np.concatenate([i.ravel() for _, i in stacks])
    widths = [i.shape[1] for _, i in stacks for _ in i]
    if not (np.all((sectors >= 0) & (sectors <= n // 2))
            and np.all((indices >= 0) & (indices <= np.repeat(n - 2 * sectors, widths)))):
        raise InvalidArgument(f"windows must hold sectors 0 ... {n // 2} and indices inside "
                              f"their windows, got {windows!r}")
    # every block entry (s, i, i') as the digits of one 64-bit integer in base N + 1,
    # folded onto (s, lo, hi): lo = (w - |i + i' - w| - |i - i'|) / 2, hi - lo = |i - i'|
    digits = lambda code: (code // (n + 1) ** 2, code // (n + 1) % (n + 1), code % (n + 1))
    s, i, k = digits(np.concatenate([((s[:, None, None] * (n + 1) + i[:, :, None]) * (n + 1)
                                      + i[:, None, :]).ravel() for s, i in stacks]))
    w, gap = n - 2 * s, np.abs(i - k)
    lo = (w - np.abs(i + k - w) - gap) // 2
    entries, inverse = np.unique((s * (n + 1) + lo) * (n + 1) + lo + gap, return_inverse=True)
    first = np.cumsum([0] + [i.size * i.shape[1] for _, i in stacks]).tolist()
    places = tuple(inverse[a:b].reshape(i.shape + i.shape[1:])
                   for a, b, (_, i) in zip(first, first[1:], stacks))
    s, i, k = digits(entries)
    mu = np.array([float(sector.multiplicity) for sector in space.sectors])
    binom = np.array([[math.comb(a, b) for b in range(n + 1)] for a in range(n + 1)], dtype=float)
    w, gap, counts = n - 2 * s, k - i, np.empty((n // 2 + 1, entries.size))
    divisor = binom[w, k] / (mu[s] * np.sqrt(
        binom[w, i] / binom[n, s + i] * binom[w, k] / binom[n, s + k]))
    for u, row in enumerate(counts):
        # C(i, u) = 0 for u > i, where clipping u only keeps the index in range
        np.multiply(binom[i, u], binom[w - i, gap + np.minimum(u, i)], out=row)
    return TransferKernels(space=space, counts=counts, divisor=divisor, gap=gap, sector=s,
                           places=places)
