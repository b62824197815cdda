"""High-level experiments: interrogation-time sweeps, particle-number scans,
power-law fits, and Husimi distributions of probe states.

A sweep fixes the total acquisition time T and asks how long each shot
should run: M = T/t shots of duration t give a total-variance bound
I(t) = t * tr(Q(t)^{-1}) / T for the joint strategy, or the matching sum of
single-parameter bounds for the individual strategy, on a logarithmic time
grid in chunks. Without noise the probe stays pure and
Q(t) = 4 M(t) Sigma M(t)^T, Sigma its spin covariance. Under noise a chunk
has a fixed memory budget, with the total-spin sector blocks stacked by the
size of the probe's support in them and no dense d x d matrix. In the noise
frame a dephased probe is, per sector, a real transfer kernel shared by all
probes times a centred window of its maximal-sector block, P B P^dag with B
real symmetric and P a diagonal of phases. The probes are built there in
closed form; probes with equal moduli share each eigensolve, and a cancelled
amplitude is exactly zero, so each B is diagonalised on its support alone.
The QFIM, which the field rotation leaves unchanged, is taken there, where
the field is h J_z: each derivative is three fixed components, J_z and the
Hermitian parts of the ladder J_+, times scalars of t, so a chunk takes one
Gram Gamma of them per stack of windows and its QFIMs are C Gamma C^T. The
first dip of the curve is refined on a finer lattice, evaluated only across
the dip's coarse neighbours, and by a parabola in log-log coordinates.
"""

from __future__ import annotations

import enum
import itertools
import math
import dataclasses
from dataclasses import dataclass, replace

import numpy as np

from .dicke import StateVector, _ghz_spinors, _spinor_powers, build_space
from .dephasing import (NoiseKind, NoiseSpec, _frame_rotation, build_transfer_kernels,
                        integrated_strength)
from .dynamics import _AXES, _PAULI, FieldParams, _parallel, _rotation_integral
from .errors import (AssumptionViolated, ExperimentFailed, InvalidArgument, NumericalError,
                     _array, _count, _instance, _member, _positive, _real, _vector)
from .estimation import _QFIM_EPS, _qfim_bounds

_DEFAULT_FIELD = (0.01, 0.01, 0.01)
_DEFAULT_AXIS = (2.0 / math.sqrt(3.0),) * 3

# Rescan lattice: size and half-width factor; sweep_time evaluates a slice.
_RESCAN_POINTS = 40
_RESCAN_FACTOR = 4.0

# Working-memory budget of one chunk of grid times, in bytes (_chunk_size).
_CHUNK_BYTES = 1 << 20


class SweepScenario(str, enum.Enum):
    """Joint three-parameter estimation, or one experiment per component."""

    SIMULTANEOUS = "sim"
    INDIVIDUAL = "ind"


@dataclass(frozen=True)
class TimeGrid:
    """Logarithmic grid of shot durations."""

    count: int = 60
    start: float = 1e-2
    stop: float = 100.0

    def __post_init__(self):
        _count(self.count, "grid count", 2)
        object.__setattr__(self, "start", _real(self.start, "grid start"))
        object.__setattr__(self, "stop", _real(self.stop, "grid stop"))
        if not (0.0 < self.start < self.stop) or not np.isfinite(self.stop):
            raise InvalidArgument(
                f"grid bounds must satisfy 0 < start < stop, got ({self.start}, {self.stop})")

    def values(self):
        return np.geomspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """Everything a time sweep needs; defaults follow the standard scenario
    of a weak diagonal field probed over a total budget of 100."""

    n_particles: int
    scenario: SweepScenario = SweepScenario.SIMULTANEOUS
    kind: NoiseKind = NoiseKind.MARKOVIAN
    gamma: float = 0.05
    field: tuple = _DEFAULT_FIELD
    axis: tuple = _DEFAULT_AXIS
    total_time: float = 100.0
    grid: TimeGrid = dataclasses.field(default_factory=TimeGrid)

    def __post_init__(self):
        _count(self.n_particles, "n_particles", 1)
        object.__setattr__(self, "total_time", _positive(self.total_time, "total_time"))
        if _instance(self.grid, TimeGrid, "grid").stop > self.total_time * (1.0 + 1e-12):
            raise InvalidArgument(
                f"grid extends to {self.grid.stop}, beyond the total budget {self.total_time}")
        object.__setattr__(self, "scenario", _member(SweepScenario, self.scenario))
        object.__setattr__(self, "kind", _member(NoiseKind, self.kind))
        object.__setattr__(self, "field", FieldParams(self.field).phi)
        object.__setattr__(self, "axis",
                           tuple(float(x) for x in _vector(self.axis, "axis")))
        self.noise_spec()  # checks gamma and axis here, not first inside a sweep

    def noise_spec(self):
        return NoiseSpec(kind=self.kind, gamma=self.gamma, axis=self.axis)

    def field_params(self):
        return FieldParams(self.field)


@dataclass(frozen=True)
class RefinementMeta:
    """Where the optimum came from: grid index of the selected sampled
    minimum, and whether it is a boundary optimum, on a grid edge or next to
    a singular point (in which case no refinement is attempted)."""

    grid_index: int
    boundary: bool


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Sampled bound curve and the refined optimum."""

    config: SweepConfig
    times: np.ndarray
    bounds: np.ndarray
    t_opt: float
    i_min: float
    refinement: RefinementMeta

    @property
    def curve(self):
        """Finite (t, I) pairs as an (k, 2) array."""
        mask = np.isfinite(self.bounds)
        return np.column_stack([self.times[mask], self.bounds[mask]])


_SIGMA = np.array([_PAULI[a] for a in _AXES])

# Relative tolerance of the exact tests _frame_probes reads off the frame
# amplitudes, per entry against the sum of its terms' moduli: the power form
# sqrt(C(N, k)) a^(N-k) b^k rounds at about N eps, 8.9e-14 at N = 400.
_TAU = 1e-13


def _frame_probes(scenario, n, axis):
    """The scenario's probes in the frame of a nonzero axis, in closed form,
    and the R of that frame (_frame_rotation).

    Each branch of a GHZ probe is the N-fold power of a one-spin state xi
    (_ghz_spinors), so its maximal-sector amplitudes in the frame are the
    terms sqrt(C(N, k)) a^(N-k) b^k (_spinor_powers), with (a, b) = u^dag xi and
    u = exp(-i beta k . sigma / 2) the spin-1/2 form of axis_frame's U. A GHZ
    probe sums its two branches and the joint probe all six, normalised.
    Symmetries of the axis make some amplitudes cancel and some probes share
    their moduli (on a body diagonal the 3-fold rotation about it is a
    diagonal phase in the frame), which the amplitudes show to rounding, at
    most _TAU times the sum of an entry's term moduli: an amplitude within
    it is a cancellation zero, set to exactly 0, and a probe joins a group
    when its moduli agree with the group's within it. Returns the groups,
    [(|phi|, [(e, axes), ...]), ...] in the order x, y, z: phi = |phi| e with
    the group's |phi| and the probe's own e, 1 at the zeros, and axes the
    slice of (x, y, z) a probe is differentiated along.
    """
    beta, k, r = _frame_rotation(axis)
    u_dag = math.cos(beta / 2.0) * np.eye(2) \
        + 1j * math.sin(beta / 2.0) * (k @ _SIGMA.reshape(3, 4)).reshape(2, 2)
    terms = _spinor_powers(n, np.array([_ghz_spinors(c) @ u_dag.T for c in _AXES]))
    if scenario is SweepScenario.SIMULTANEOUS:
        probes = [(terms.reshape(6, n + 1), slice(0, 3))]
    else:
        probes = [(branches, slice(i, i + 1)) for i, branches in enumerate(terms)]
    groups = []
    for branches, axes in probes:
        phi = branches.sum(axis=0)
        rounding = _TAU * np.abs(branches).sum(axis=0)
        phi[np.abs(phi) <= rounding] = 0.0
        norm = np.linalg.norm(phi)
        modulus, e = np.abs(phi) / norm, np.exp(1j * np.angle(phi))
        for shared, members in groups:
            if np.all(np.abs(modulus - shared) <= rounding / norm):
                members.append((e, axes))
                break
        else:
            groups.append((modulus, [(e, axes)]))
    return groups, r


def _sweep_probes(config, space, spec):
    """What _dephased_qfims needs of the probes, once per sweep: groups, phi
    the field along the noise axis, columns those (z, x, y) of the frame's R
    scaled by (1, 1/2, -1/2) (_chunk_qfim) and the TransferKernels built on
    the groups' stacks of windows, in order. A group holds the
    probes of one |phi| (_frame_probes): its windows stacked by support size,
    each probe's axes and the fixed maps of _gammas from its Gram rows to its
    components. On neighbours c, c + 1 of the support the parts of the probes'
    links conj(e_c) e_c+1 are L W, L the ladder basis: their singular vectors
    above rounding, often just one."""
    frame_groups, r = _frame_probes(config.scenario, space.n_particles, spec.axis)
    groups = []
    for modulus, probes in frame_groups:
        links = np.array([e[:-1].conj() * e[1:] for e, _ in probes])
        pairs = (modulus[:-1] > 0.0) & (modulus[1:] > 0.0)
        parts = np.zeros((np.count_nonzero(pairs) + 1, 2 * len(probes)))  # a zero row past them
        parts[:-1] = links.T[pairs].view(float)
        left, sigma, w = np.linalg.svd(parts, full_matrices=False)
        rank = np.count_nonzero(sigma > sigma[0] * max(parts.shape) * np.finfo(float).eps)
        basis = np.zeros((len(pairs), rank))
        basis[pairs] = (left * sigma)[:-1, :rank]
        w = w[:rank].reshape(rank, len(probes), 2).transpose(1, 0, 2)  # Re, Im of U per probe
        sym, anti = np.zeros((len(probes), rank + 1, 3)), np.zeros((len(probes), rank, 3))
        sym[:, 0, 0], sym[:, 1:, 1:], anti[..., 1:] = 0.5, w * [1.0, -1.0], w[..., ::-1]
        groups.append((_windows(modulus, links, basis), [a for _, a in probes], (sym, anti)))
    return groups, np.dot(config.field, r[:, 2]) * r[:, 2], r[:, [2, 0, 1]] * [1.0, 0.5, -0.5], \
        build_transfer_kernels(space, [pair for windows, *_ in groups for pair, *_ in windows])


def _windows(modulus, links, basis):
    """The windows w = s:N + 1 - s that meet the support S (same m as the
    maximal sector; J_+ has sqrt((i + 1)(d - 1 - i)) at (i, i + 1)) of every
    sector, in stacks of one size a of S in w, built for every window at once
    from a mask of S per sector. Per stack of c windows: the pair of their
    (c,) sectors and the (c, a) indices of S in them, to build K_s[S, S] on
    (build_transfer_kernels); |phi_S| |phi_S|^T; m and the ladder basis on S;
    and for the columns o of the windows off S next to S, the flat indices
    of B^ at (o -+ 1, o -+ 1) in the c x a x a blocks and their fixed map
    onto each probe's Gamma (_gammas), or None."""
    n = modulus.size - 1
    s = np.arange(n // 2 + 1)[:, None]
    g = np.arange(-1, n + 2)  # padded by a column each side
    inside = (g >= s) & (g <= n - s)
    sup = inside & (np.concatenate(([0.0], modulus, [0.0])) > 0.0)
    place = np.cumsum(sup, axis=1)  # of each g of S in its window's S, from 1; a at the end
    ladder = np.sqrt(np.maximum((g - s + 1.0) * (n - s - g), 0.0))  # 0 off the window
    # (Z, P1, P2)[o -+ 1, o] = (0, U[o - 1, o], conj U[o, o + 1]) (1, i, -i)
    ws, wo = np.nonzero(inside[:, 1:-1] & ~sup[:, 1:-1] & (sup[:, :-2] | sup[:, 2:]))
    pad = wo[:, None] + [0, 2]  # o -+ 1, padded
    near, at = sup[ws[:, None], pad], pad - [1, 2]  # at: the links (o - 1, o), (o, o + 1)
    u = links.T[at % n]  # wrapped past the window, where near is 0
    grow = ((ladder[ws[:, None], at + 1] * near)[..., None] * (u.real + [[1j], [-1j]] * u.imag)
            )[..., None] * np.array([[0.0, 1.0, 1j], [0.0, 1.0, -1j]])[:, None]
    maps = 4.0 * (grow[:, :, None, :, :, None] * grow.conj()[:, None, :, :, None, :]).real
    nb = np.where(near, place[ws[:, None], pad] - 1, 0)
    sizes = place[:, -1][place[:, -1] > 0].tolist()
    bounds = [0, *itertools.accumulate(len(list(run)) for _, run in itertools.groupby(sizes))]
    cuts, stacks = np.searchsorted(ws, bounds).tolist(), []
    for first, stop, lo, hi in zip(bounds, bounds[1:], cuts, cuts[1:]):
        c, a, sl = stop - first, sizes[first], slice(first, stop)
        pos = np.nonzero(sup[sl])[1].reshape(c, a) - 1
        edge = None if hi == lo else (
            (((ws[lo:hi, None, None] - first) * a + nb[lo:hi, :, None]) * a
             + nb[lo:hi, None, :]).ravel(), maps[lo:hi].reshape(4 * (hi - lo), -1))
        stacks.append(((s[sl, 0], pos - s[sl]), modulus[pos][:, :, None] * modulus[pos][:, None, :],
                       n / 2.0 - pos,
                       np.moveaxis(ladder[s[sl], pos + 1][:, :-1, None] * basis[pos[:, :-1]],
                                   -1, 0)[:, :, None, :], edge))
    return stacks


def _chunk_size(groups, entries):
    """Most grid times per chunk: _CHUNK_BYTES over what a chunk holds per
    time: every stack's eigenpairs, 8 c (a + a^2) bytes for c windows on a
    support of a, and the larger of the kernel values with a stack's blocks,
    8 E + 16 c a^2 for E distinct kernel entries, and the largest stack's transient in
    _gammas, 16 (K + 3) c a^2, K = rank + 1, 1 x 1 stacks too (tracemalloc, N = 12 to 96).
    On any grid a noisy `ind` sweep is at the floor of one time from N = 64 (2 at N = 48): at
    N = 96 one time holds 1.27 MB of eigenpairs plus a 0.75 MB transient (1.88 MB traced),
    above _CHUNK_BYTES; splitting each window by m -> -m would halve the eigenpairs."""
    stacks = [(top, maps[0].shape[1]) for windows, _, maps in groups for _, top, *_ in windows]
    pairs = sum(8 * (top.size + top[..., 0].size) for top, _ in stacks)
    widest = max(top.size for top, _ in stacks)
    stream = max(16 * (k + 3) * top.size for top, k in stacks)
    return max(1, int(_CHUNK_BYTES // (pairs + max(8 * entries + 16 * widest, stream))))


def _gammas(groups, eigen):
    """Per probe, its axes and the (T, 3, 3) Gram Gamma of its generator
    components in the eigenbases eigen, per group and stack (p, R), with
    one step per stack that sums its windows.

    In the frame P^dag A_k P (P = diag(e)) is C[k] . (Z, P1, P2), C the
    rotation integral M R over the frame's (J_z, J_x, J_y) = (Z, P1 / 2, -P2 / 2)
    (_chunk_qfim), Z = diag(m), P1 = U + U^dag, P2 = i (U - U^dag), U = J_+ *
    conj(e) e^T; so Q = C Gamma C^T. In a window's eigenbasis P R they are
    Y_c = R^T comp_c R: one real product gives Y_0 and M_j^T for the basis
    M_j = R^T L_j R, whose map W gives a probe's M = R^T U R, Y_1 = M_re +
    M_re^T + i (M_im - M_im^T) and Y_2 = -(M_im + M_im^T) + i (M_re - M_re^T).
    Gamma_cc' = 2 sum (p_l - p_l')^2 / (p_l + p_l') Re(Y_c conj Y_c')_ll' over
    pairs above qfim's cutoff (1e-12 of the group's largest p): none for 1 x 1
    windows, whose step adds exact zeros; at rank 0 there is no M_im. A column o off S has
    comp_c[:, o] only at o -+ 1 and adds 4 Re sum_o comp_c[:, o]^T B^ conj
    comp_c'[:, o], B^ = R diag(p^) R^T with p^ = p above the cutoff, else 0."""
    out = []
    for (stacks, axes, (to_sym, to_anti)), eig in zip(groups, eigen):
        largest = np.max([p[..., -1].max(axis=-1) for p, _ in eig], axis=0)
        cutoff = _QFIM_EPS * np.maximum(largest, 1e-300)[..., None, None]
        lead, k = largest.shape, to_sym.shape[1]
        sym, anti = np.zeros(lead + (k, k)), np.zeros(lead + (k - 1, k - 1))
        edges = np.zeros(lead + (9 * len(axes),))
        for (_, _, m, u, edge), (p, r) in zip(stacks, eig):
            rt = np.swapaxes(r, -1, -2)
            # (comp_c R)^T, then M + M^T, then M^T - M
            x = np.zeros(lead + (k,) + r.shape[1:])
            x[:, 0] = rt * m[:, None, :]
            np.multiply(rt[:, None, ..., 1:], u, out=x[:, 1:, ..., :-1])
            z = x @ r[:, None]
            den = p[..., :, None] + p[..., None, :]
            den[den <= cutoff[..., None]] = np.inf
            weight = np.abs(p[..., :, None] - p[..., None, :])
            z *= np.divide(weight, np.sqrt(den, out=den), out=weight)[:, None]
            y = np.add(z, np.swapaxes(z, -1, -2), out=x).reshape(lead + (k, -1))
            sym += y @ np.swapaxes(y, -1, -2)
            if k > 1:
                y = np.subtract(z[:, 1:], np.swapaxes(z[:, 1:], -1, -2),
                                out=x[:, 1:]).reshape(lead + (k - 1, -1))
                anti += y @ np.swapaxes(y, -1, -2)
            del x, y, z, den, weight  # not held while the next stack's are built
            if edge is not None:
                hat = np.where(p > cutoff, p, 0.0)[..., None, :] * r @ rt
                edges += hat.reshape(lead + (-1,))[..., edge[0]] @ edge[1]
        gamma = edges.reshape(lead + (-1, 3, 3)) + 2.0 * (
            np.swapaxes(to_sym, -1, -2) @ sym[..., None, :, :] @ to_sym)
        gamma += 2.0 * (np.swapaxes(to_anti, -1, -2) @ anti[..., None, :, :] @ to_anti)
        out.extend((axes_q, gamma[..., q, :, :]) for q, axes_q in enumerate(axes))
    return out


def _chunk_qfim(chunk, phi, columns, gammas):
    """The chunk's (T, 3, 3) QFIMs: per probe C Gamma C^T over its axes, C =
    _rotation_integral(phi, t) @ columns (_gammas); for ind Q_kk on the diagonal."""
    c = _rotation_integral(phi, chunk) @ columns
    q = np.zeros(chunk.shape + (3, 3))
    for axes, gamma in gammas:
        q[:, axes, axes] = c[:, axes] @ gamma @ np.swapaxes(c[:, axes], -1, -2)
    return q


def _bounds_on_grid(config, qfims, size, times):
    """Total-variance bound I(t) on the grid, in the fewest chunks of at most
    size times, each chunk's QFIMs qfims(chunk) checked and bounded in one
    step (_qfim_bounds): NaN if singular, a NumericalError if invalid."""
    count = -(-len(times) // size)
    edges = [len(times) * k // count for k in range(count + 1)]
    values = np.empty(len(times))
    for first, stop in zip(edges, edges[1:]):
        chunk = times[first:stop]
        values[first:stop], _, fault = _qfim_bounds(
            qfims(chunk), config.total_time / chunk, config.scenario is SweepScenario.INDIVIDUAL)
        if fault is not None:
            raise NumericalError(f"invalid QFIM at t={chunk[fault[0]]:.6g}: {fault[1]}")
    return values


def _dephased_qfims(transfer, spec, groups, phi, columns, chunk):
    """A chunk's QFIMs under noise: sector s of a probe dephased to Theta(t)
    is P B P^dag in the frame, P = diag(e_w), B = K_s * |phi_w| |phi_w|^T and
    K_s the transfer kernels, built on the windows' stacks in order (zip takes
    a stack before its block, so no group reads past its own); eigh per
    group and stack of windows of one support size, then _gammas and _chunk_qfim."""
    kernels = transfer.values(integrated_strength(spec, chunk))
    eigen = [[np.linalg.eigh(k * top) for (_, top, *_), k in zip(w, kernels)] for w, *_ in groups]
    del kernels  # their values are not held while _gammas runs (_chunk_size)
    return _chunk_qfim(chunk, phi, columns, _gammas(groups, eigen))


def _noiseless_grams(scenario, n):
    """Per probe its axes and Gram 4 Sigma for _chunk_qfim without noise, in
    the lab frame: a pure probe has Q(t) = 4 M(t) Sigma M(t)^T, Sigma_bc =
    Re<J_b J_c> - <J_b><J_c> (Paris, Int. J. Quantum Inf. 7, 125 (2009)),
    which v = (J_x, J_y, J_z) psi gives as Re(v^* v^T) - e e^T, e = Re(psi^dag
    v), for psi its branches' powers summed and normalised."""
    sim = scenario is SweepScenario.SIMULTANEOUS
    psi = _spinor_powers(n, np.array([_ghz_spinors(c) for c in _AXES])).reshape(
        1 if sim else 3, -1, n + 1).sum(axis=1)
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    ladder = np.sqrt(np.arange(n + 2) * (n + 1.0 - np.arange(n + 2)))  # 0 where rolls wrap
    plus, minus = ladder[1:] * np.roll(psi, -1, 1), ladder[:-1] * np.roll(psi, 1, 1)  # J_+- psi
    v = np.stack(((plus + minus) / 2, (plus - minus) / 2j, (n / 2.0 - np.arange(n + 1)) * psi), 1)
    e = (v @ psi[..., None].conj())[..., 0].real
    sigma = (v.conj() @ np.swapaxes(v, -1, -2)).real - e[:, :, None] * e[:, None, :]
    return list(zip([slice(0, 3)] if sim else [slice(k, k + 1) for k in range(3)], 4.0 * sigma))


def _first_dip(values):
    """The first local minimum of a sampled curve, counting the edges: the
    first finite sample strictly below the one before it and not above the
    one after it, an edge or a non-finite neighbour counting as +inf. Returns
    its index and whether it is a boundary optimum (on an edge or next to a
    singular sample); (None, True) when no sample is finite.
    """
    v = np.concatenate(([np.inf], np.where(np.isfinite(values), values, np.inf), [np.inf]))
    dips = np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:]))
    if not dips.size:
        return None, True
    i = int(dips[0])
    return i, bool(np.isinf(v[i]) or np.isinf(v[i + 2]))


def _parabolic_minimum(log_t, log_i, idx):
    """Vertex of the parabola through three neighbouring log-log points. At an
    interior dip (_first_dip), below the point before it and not above the
    one after it, the parabola is convex, with its vertex between the outer
    points: y1 - s^2 / 4a at x1 - s / 2a, with a its curvature and s its
    slope at x1 from the divided differences d0 and d1."""
    (x0, x1, x2), (y0, y1, y2) = log_t[idx - 1:idx + 2], log_i[idx - 1:idx + 2]
    d0, d1 = (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1)
    a = (d1 - d0) / (x2 - x0)
    s = d0 + a * (x1 - x0)
    return x1 - s / (2.0 * a), y1 - s * s / (4.0 * a)


def sweep_time(config):
    """Sweep the shot duration and locate the optimal interrogation time.

    Returns the coarse bound curve (_bounds_on_grid; NaN where the QFIM is
    singular, ExperimentFailed if every point is) plus (t_opt, i_min) refined
    on a lattice over [t/4, 4t] around the coarse dip t, clipped to the grid,
    and by local parabolic interpolation. Only the lattice slice from one
    point before the last at or before t's left coarse neighbour to one after
    the first at or after its right one is evaluated, so it holds the lattice
    points on both sides of a minimum between the neighbours. The optimum is
    the first local minimum of the sampled curve, counting the edges
    (_first_dip): at very long shots, with few repetitions, the curve can
    re-descend through slow population rotation rather than the phase
    coherence the probe was prepared for, so the first dip is the operational
    working point. A dip on a grid or slice edge or next to a singular point
    is reported as sampled and flagged as a boundary optimum. Under dephasing
    the field must lie along the noise axis (_parallel), or the sweep raises
    AssumptionViolated; it takes the field's component along that axis.
    """
    spec = config.noise_spec()
    if not _parallel(config.field, spec):
        raise AssumptionViolated(
            "field direction is not parallel to the dephasing axis; the "
            "sweep needs the parallel split")
    if spec.gamma > 0.0:
        space = build_space(config.n_particles)
        groups, phi, columns, transfer = _sweep_probes(config, space, spec)
        size = _chunk_size(groups, transfer.divisor.size)
        qfims = lambda t: _dephased_qfims(transfer, spec, groups, phi, columns, t)
    else:  # C = M; 64 times a chunk, about where its fixed cost is its times' own
        size, grams = 64, _noiseless_grams(config.scenario, config.n_particles)
        qfims = lambda t: _chunk_qfim(t, config.field, np.eye(3), grams)
    times = config.grid.values()
    values = _bounds_on_grid(config, qfims, size, times)

    idx, boundary = _first_dip(values)
    if idx is None:
        raise ExperimentFailed("no grid point produced an invertible QFIM")
    t_opt, i_min = times[idx], values[idx]
    if not boundary:
        # The lattice slice across the coarse neighbours, one point past each;
        # the coarse point stands, flagged as a boundary, if it is all singular.
        lo = max(times[idx] / _RESCAN_FACTOR, config.grid.start)
        hi = min(times[idx] * _RESCAN_FACTOR, config.grid.stop)
        lattice = np.geomspace(lo, hi, _RESCAN_POINTS)
        a = max(np.searchsorted(lattice, times[idx - 1], "right") - 2, 0)
        fine_times = lattice[a:np.searchsorted(lattice, times[idx + 1]) + 2]
        fine_values = _bounds_on_grid(config, qfims, size, fine_times)
        fidx, boundary = _first_dip(fine_values)
        if fidx is not None:
            t_opt, i_min = fine_times[fidx], fine_values[fidx]
        if not boundary:
            xv, yv = _parabolic_minimum(np.log(fine_times), np.log(fine_values), fidx)
            t_opt, i_min = np.exp(xv), min(float(np.exp(yv)), float(i_min))
    return SweepResult(config=config, times=times, bounds=values, t_opt=float(t_opt),
                       i_min=float(i_min),
                       refinement=RefinementMeta(grid_index=idx, boundary=boundary))


@dataclass(frozen=True)
class ScanRow:
    """Optimum of one sweep at a given particle number, flagged as in RefinementMeta."""

    n_particles: int
    scenario: SweepScenario
    kind: NoiseKind
    t_opt: float
    i_min: float
    boundary: bool


class ScanRows(list):
    """The rows of a particle scan, in ascending N. dropped holds, also in
    ascending N, an (N, reason) pair for each N whose sweep failed."""

    def __init__(self, rows, dropped):
        super().__init__(rows)
        self.dropped = tuple(dropped)


def scan_particles(n_list, base_config):
    """Run sweep_time for each N in ascending n_list, in turn, in this process.

    A sweep that fails (ExperimentFailed) drops its N from the rows rather
    than aborting the scan; the returned ScanRows names it, with the reason,
    in dropped.
    """
    _instance(base_config, SweepConfig, "base_config")
    try:
        ns = [_count(n, "each N", 1) for n in n_list]
    except TypeError:
        raise InvalidArgument(f"n_list must be an iterable of counts, got {n_list!r}") from None
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise InvalidArgument("n_list must be strictly ascending")
    if not ns:
        raise InvalidArgument("n_list must be nonempty")
    rows, dropped = [], []
    for n in ns:
        try:
            result = sweep_time(replace(base_config, n_particles=n))
        except ExperimentFailed as exc:
            dropped.append((n, f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(ScanRow(n_particles=n, scenario=base_config.scenario,
                            kind=base_config.kind, t_opt=result.t_opt, i_min=result.i_min,
                            boundary=result.refinement.boundary))
    return ScanRows(rows, dropped)


@dataclass(frozen=True)
class PowerLawFit:
    """value ~ prefactor * N^exponent, fitted in log-log coordinates."""

    exponent: float
    prefactor: float
    residual: float
    n_used: int


def fit_power_law(points, n_min=10):
    """Least-squares power-law fit of (N, value) pairs with N >= n_min.

    Needs at least three usable points with positive values.
    """
    n_min = _real(n_min, "n_min")
    if math.isnan(n_min):
        raise InvalidArgument("n_min must be a real number, got nan")
    arr = _array(points, "points", float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidArgument("points must be an iterable of (N, value) pairs")
    arr = arr[arr[:, 0] >= n_min]
    if len(arr) < 3:
        raise InvalidArgument(f"need at least 3 points with N >= {n_min}, got {len(arr)}")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise InvalidArgument("power-law fit requires positive finite data")
    log_n = np.log(arr[:, 0])
    log_v = np.log(arr[:, 1])
    slope, intercept = np.polyfit(log_n, log_v, 1)
    fitted = slope * log_n + intercept
    residual = float(np.sqrt(np.mean((fitted - log_v) ** 2)))
    return PowerLawFit(exponent=float(slope), prefactor=float(np.exp(intercept)),
                       residual=residual, n_used=len(arr))


# ---------------------------------------------------------------------------
# Husimi distribution
# ---------------------------------------------------------------------------

def husimi_grid(shape=(181, 360)):
    """Polar angles (inclusive of the poles) and azimuths (periodic, endpoint
    excluded) for a Husimi map of the given shape (at least (2, 1))."""
    if np.ndim(shape) != 1 or len(shape) != 2:
        raise InvalidArgument(f"grid shape must be a pair (rows, columns), got {shape!r}")
    n_theta = _count(shape[0], "Husimi grid rows", 2)
    n_phi = _count(shape[1], "Husimi grid columns", 1)
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    return thetas, phis


def husimi_map(state, shape=(181, 360)):
    """Overlap density |<theta, phi | psi>|^2 with spin-coherent states.

    Both live on the maximal sector, where a StateVector holds its N + 1
    amplitudes. Rows run over theta in [0, pi], columns over phi in [0, 2 pi).
    """
    psi = _instance(state, StateVector, "state").amplitudes
    thetas, phis = husimi_grid(shape)
    # the conjugate coherent amplitudes: their real values at phi = 0 times e^{i k phi}
    rows = _spinor_powers(psi.size - 1, np.stack([np.cos(thetas / 2.0), np.sin(thetas / 2.0)], -1))
    return np.abs((rows * psi) @ np.exp(1j * np.outer(np.arange(psi.size), phis))) ** 2


def husimi_normalization(qmap, multiplet_dim):
    """Quadrature of a Husimi map against the coherent-state measure.

    Returns (2j+1)/(4 pi) * integral Q sin(theta) dtheta dphi evaluated with
    the trapezoid rule in theta and the periodic rectangle rule in phi; the
    result approaches 1 for a normalized max-sector state as the grid grows.
    multiplet_dim is the sector dimension 2j+1 = N+1, finite and positive.
    """
    qmap = _array(qmap, "Husimi map", float)
    multiplet_dim = _positive(multiplet_dim, "multiplet_dim")
    if qmap.ndim != 2:
        raise InvalidArgument(f"a Husimi map must be 2-D, got shape {qmap.shape}")
    n_theta, n_phi = qmap.shape
    thetas, _ = husimi_grid((n_theta, n_phi))
    d_phi = 2.0 * np.pi / n_phi
    weights = np.full(n_theta, thetas[1] - thetas[0])
    weights[0] /= 2.0
    weights[-1] /= 2.0
    ring = (qmap * np.sin(thetas)[:, None]).sum(axis=1)
    integral = float(np.sum(ring * weights) * d_phi)
    return multiplet_dim / (4.0 * np.pi) * integral
