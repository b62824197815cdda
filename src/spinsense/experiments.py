"""High-level experiments: interrogation-time sweeps, particle-number scans,
power-law fits, and Husimi distributions of probe states.

A sweep fixes the total acquisition time T and asks how long each shot
should run: M = T/t shots of duration t give a total-variance bound
I(t) = t * tr(Q(t)^{-1}) / T for the joint strategy, or the matching sum of
single-parameter bounds for the individual strategy. It evaluates a
logarithmic time grid in chunks, each as stacked array operations, one
total-spin sector block at a time. In the noise frame (the field frame
without noise) a probe dephased to Theta(t) is, in each sector, a real
transfer kernel shared by all probes times a centred window of its
maximal-sector block, P B P^dag with B real symmetric and P a diagonal of
phases. The probes are built there in closed form, as sums of powers of
one-spin states, and what their symmetry makes exact is read off the
amplitudes to rounding: probes whose moduli agree share each eigensolve and
product chain, and an amplitude that cancels is exactly zero, so each B is
diagonalised on its support alone, with the unit vectors off it as its null
basis; without noise the one block does not depend on t and is
diagonalised once per pass. The QFIM is taken there, before the field
rotation, which leaves it unchanged. The field Hamiltonian there is h J_z,
so the generators A_k are elementwise, and in the eigenbasis V = P R of each
block, R real, each derivative -i [A_k, rho] is
i (p_l - p_l') (R^T P^dag A_k P R)_ll'. A chunk streams these through the
QFIM core one block at a time and bounds its QFIMs in one stacked step. Its
length is a fixed memory budget over what it holds per time, so no dense
d x d matrix is formed and memory does not grow with the grid. The first dip
of the curve is then refined on a finer lattice, evaluated only across the
dip's coarse neighbours, and by a parabola in log-log coordinates.
"""

from __future__ import annotations

import enum
import math
import warnings
import dataclasses
from dataclasses import dataclass, replace

import numpy as np

from .dicke import StateVector, _ghz_spinors, _spin_block, _spinor_powers, build_space
from .dephasing import (NoiseKind, NoiseSpec, _frame_rotation, build_transfer_kernels,
                        integrated_strength)
from .dynamics import _AXES, _PAULI, FieldParams, _parallel, phase_integral
from .errors import (AssumptionViolated, ExperimentFailed, InvalidArgument, NumericalError,
                     _array, _count, _instance, _member, _real, _vector)
from .estimation import _qfim_bounds, _qfim_entries

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
        object.__setattr__(self, "total_time", _real(self.total_time, "total_time"))
        if not np.isfinite(self.total_time) or self.total_time <= 0.0:
            raise InvalidArgument(f"total_time must be positive, got {self.total_time}")
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
        + 1j * math.sin(beta / 2.0) * np.tensordot(k, _SIGMA, 1)
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
    """The scenario's probes and generators in the sweep's frame, prepared
    once per sweep for _bounds_on_grid: (groups, lam).

    The frame is that of the noise axis; without noise that of the field
    direction, or of z for a zero field. The field Hamiltonian there is
    h J_z, h the field component along the frame axis, and lam holds the
    2N + 1 values h (m - m'), m - m' = -N ... N, as a 1 x (2N + 1) array.
    The probes come from _frame_probes, phi = |phi| e, one group per
    distinct |phi| array, whose probes share its eigensolves. Only sectors
    that carry a block are prepared: all under noise, the maximal one alone
    without. Per group, the windows hold, per sector s whose window
    w = s:N + 1 - s meets the support S = flatnonzero(|phi|), (s, K index,
    w index, f index, |phi_S| |phi_S|^T). With O the indices of w off S, the
    K index picks K_s[S, S] from the transfer kernels and the w index
    [S, S + O] (S first) from w, both with slices for a full support, so
    nothing is copied; the f index picks the same entries from f(lam, t), at
    N + m - m'. Per window, one stack holds the generators
    G_k = (J~_k * conj(e_w) e_w^T)[S, S + O] of the group's probes, each over
    the axes k it is differentiated along, J~_k = U^dag J_k U =
    sum_l R[k, l] J_l; the group records those axes, as (windows, stacks, axes).
    """
    axis = spec.axis if spec.gamma > 0.0 else \
        config.field if any(config.field) else (0.0, 0.0, 1.0)
    n = space.n_particles
    frame_groups, r = _frame_probes(config.scenario, n, axis)
    sectors = space.sectors if spec.gamma > 0.0 else space.sectors[:1]
    rotated = []
    for sector in sectors:
        j = [_spin_block(sector.twoj, a) for a in _AXES]
        rotated.append(np.array([sum(r[k, l] * j[l] for l in range(3)) for k in range(3)]))
    groups = []
    for modulus, probes in frame_groups:
        windows = _windows(modulus, sectors)
        generators = [np.concatenate([
            (rotated[s][axes] * np.outer(e[s:n + 1 - s].conj(), e[s:n + 1 - s]))
            [(slice(None),) + sub] for e, axes in probes]) for s, _, sub, *_ in windows]
        groups.append((windows, generators, np.r_[tuple(axes for _, axes in probes)]))
    return groups, float(np.dot(config.field, r[:, 2])) * np.arange(-n, n + 1.0)[None, :]


def _windows(modulus, sectors):
    """The windows of _sweep_probes for one |phi| array."""
    n = modulus.size - 1
    support = np.flatnonzero(modulus)
    windows = []
    for s, sector in enumerate(sectors):
        inside = support[(support >= s) & (support <= n - s)]
        if not inside.size:
            continue
        null = np.ones(n + 1, dtype=bool)
        null[inside] = False
        null[:s] = null[n + 1 - s:] = False
        columns = np.concatenate((inside, np.flatnonzero(null)))
        if inside.size == sector.dim:
            sub = k_sub = (slice(None),) * 2
        else:
            rows = inside[:, None] - s
            sub = rows, columns[None, :] - s
            k_sub = rows, rows.T
        windows.append((s, k_sub, sub, n + columns - inside[:, None],
                        np.outer(modulus[inside], modulus[inside])))
    return windows


def _chunk_size(groups, sectors):
    """Most grid times per chunk: _CHUNK_BYTES over the bytes a chunk holds
    per time. Under noise (sectors given) that is the eigenpairs of every
    window, 8 (a + a^2) on a support of a, plus the larger of every sector's
    kernels, 8 d^2, and one window's transient: f * G_k, R^T of it, the
    partial block, then _qfim_entries' scaled copy and its conjugate, 3.0 to
    3.6 times the generator stack under tracemalloc (N = 12 to 48), counted
    3.5 times for the largest stack. Without noise R is one column and the
    transient 1.36 to 1.42 times the stack, counted 1.5; numpy's buffers for
    the broadcast product f * G_k add about 0.25 MB to a chunk of any length,
    so a full noiseless chunk peaks at 1.0 to 1.2 times the budget."""
    stream = max(g.nbytes for _, stacks, _ in groups for g in stacks)
    if sectors is None:
        return max(1, int(_CHUNK_BYTES // (1.5 * stream)))
    pairs = sum(8 * (len(top) + top.size) for windows, *_ in groups for *_, top in windows)
    return max(1, int(_CHUNK_BYTES // (pairs + max(8 * sum(s.dim ** 2 for s in sectors),
                                                    3.5 * stream))))


def _partial_block(f, g, p, r):
    """A window's i (p_l - p_l') (R^T (f * G_k) W)_ll', R the eigenvectors of
    p, the leading columns of r, and W = r on S and the unit vectors off S
    after it, where p_l' = 0 (_bounds_on_grid)."""
    size, width = p.shape[-1], r.shape[-1]
    xy = np.swapaxes(r[..., :size], -1, -2)[..., None, :, :] \
        @ np.multiply(f, g, order="C").view(float)
    x, y, r = xy[..., 0::2], xy[..., 1::2], r[..., None, :, :]
    x[..., :width], y[..., :width] = x[..., :width] @ r, y[..., :width] @ r
    block = xy.view(complex)
    block[..., :size] *= 1j * (p[..., None, :, None] - p[..., None, None, :])
    block[..., size:] *= 1j * p[..., None, :, None]
    return block


def _bounds_on_grid(config, space, transfer, spec, prepared, times):
    """Total-variance bound I(t) on the grid; singular points come back NaN.

    The times are evaluated in chunks (_chunk_size), each as stacked array
    operations over its times, one sector block at a time. In the frame of
    _sweep_probes sector s of a probe dephased to Theta(t) is K_s * phi_w
    phi_w^dag, with w = s:N + 1 - s and K_s the real transfer kernels of the
    chunk, shared by all probes; without noise only the maximal sector,
    phi phi^dag, carries a block. That is P B P^dag with P = diag(e_w) and
    B = K_s * |phi_w| |phi_w|^T, zero off the support S of |phi_w|. So eigh
    runs on the real B[S, S], once per group, sector and chunk, and once per
    call without noise, where B does not depend on t. With its eigenvalues
    p, eigenvectors R and the unit vectors off S as the null basis, V = P R
    on S. Without noise B is rank one: R keeps its one eigenvector, and the
    other eigenvectors of B[S, S] join the null basis. Each rotating-frame
    generator is elementwise, A_k = f[w, w] * J~_k with f = f(h (m - m'), t),
    evaluated once per chunk on the 2N + 1 values of m - m' and gathered per
    window. So d_k rho = -i [A_k, rho] is i (p_l - p_l') (R^T (f * G_k) R)_ll'
    between eigenvectors and i p_l (R^T (f * G_k) W)_ll' from them to the
    null basis W (the columns past R of a partial block), with
    G_k = P^dag J~_k P; pairs within the null basis add nothing. Once the
    chunk is diagonalised and its kernels dropped, _qfim_entries pulls a
    group's partial blocks one window at a time (_partial_block), for all
    its probes at once, and their axes place the result in the chunk's
    3 x 3 stack: the joint Q, or Q_kk on the diagonal for the individual
    strategy. _qfim_bounds checks and bounds the chunk in one step; an
    invalid (non-real, non-symmetric or indefinite) QFIM is a numerical
    fault, a NumericalError at its first time.
    """
    groups, lam = prepared
    count = -(-len(times) // _chunk_size(groups, space.sectors if transfer else None))
    edges = [len(times) * k // count for k in range(count + 1)]
    values = np.empty(len(times))
    fixed = None if transfer else [[(p[-1:], r[:, ::-1].copy()) for p, r in (
        np.linalg.eigh(top) for *_, top in windows)] for windows, *_ in groups]
    for first, stop in zip(edges, edges[1:]):
        chunk = times[first:stop]
        eigen = fixed
        if transfer is not None:
            kernels = transfer.at([integrated_strength(spec, t) for t in chunk])
            eigen = [[np.linalg.eigh(kernels[s][(slice(None),) + k_sub] * top)
                      for s, k_sub, *_, top in windows] for windows, *_ in groups]
            del kernels  # not held while the chunk streams
        f = phase_integral(lam, chunk, 0.0)
        q = np.zeros(chunk.shape + (3, 3), complex)
        for (windows, generators, axes), eig in zip(groups, eigen):
            q[:, axes[:, None], axes] = _qfim_entries([p for p, _ in eig], (
                _partial_block(f[..., index], g, p, r)
                for (*_, index, _), (p, r), g in zip(windows, eig, generators)))
        del eigen, eig  # not held while the next chunk's kernels are built
        values[first:stop], _, fault = _qfim_bounds(
            q, config.total_time / chunk, config.scenario is SweepScenario.INDIVIDUAL)
        if fault is not None:
            raise NumericalError(f"invalid QFIM at t={chunk[fault[0]]:.6g}: {fault[1]}")
    return values


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

    Returns the coarse bound curve plus (t_opt, i_min) refined on a finer
    lattice over [t/4, 4t] around the coarse dip t, clipped to the grid, and
    by local parabolic interpolation. Only the lattice slice from one point
    before the last at or before t's left coarse neighbour to one after the
    first at or after its right one is evaluated, so on any grid it holds the
    lattice points on both sides of a minimum between the neighbours. The
    reported optimum is the first local minimum of the sampled curve,
    counting the edges (_first_dip): bound curves can re-descend at very long
    shots, where only a few repetitions fit into the budget and the per-shot
    information is carried by slow population rotation rather than the phase
    coherence the probe was prepared for, so the first dip is the
    operationally meaningful working point. A dip on a grid edge, on the edge
    of the evaluated slice or next to a singular point is reported as sampled
    and flagged as a boundary optimum. Grid points whose QFIM is singular are
    reported as missing; if every point fails the sweep raises
    ExperimentFailed. Under dephasing the field must lie along the noise axis,
    as evolve requires (_parallel); otherwise the sweep raises
    AssumptionViolated; the sweep then takes the field's component along it.
    """
    space = build_space(config.n_particles)
    spec = config.noise_spec()
    if not _parallel(config.field, spec):
        raise AssumptionViolated(
            "field direction is not parallel to the dephasing axis; the "
            "sweep needs the parallel split")
    transfer = build_transfer_kernels(space) if spec.gamma > 0.0 else None
    prepared = _sweep_probes(config, space, spec)
    times = config.grid.values()
    values = _bounds_on_grid(config, space, transfer, spec, prepared, times)

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
        fine_values = _bounds_on_grid(config, space, transfer, spec, prepared, fine_times)
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


def _pool_size(workers, sweeps):
    """Processes a scan of sweeps starts under a cap of workers (1: in-process)."""
    return min(workers, sweeps)


def _scan_one(config):
    """The ScanRow of one sweep, or the reason it failed."""
    try:
        result = sweep_time(config)
    except ExperimentFailed as exc:
        return f"{type(exc).__name__}: {exc}"
    return ScanRow(n_particles=config.n_particles, scenario=config.scenario,
                   kind=config.kind, t_opt=result.t_opt, i_min=result.i_min,
                   boundary=result.refinement.boundary)


def scan_particles(n_list, base_config, workers=1):
    """Run sweep_time for each N in ascending n_list.

    A sweep that fails (ExperimentFailed) drops its N from the rows rather
    than aborting the scan; the returned ScanRows names it, with the reason,
    in dropped. With workers > 1 the sweeps run in a process pool of at most
    one worker per sweep; the result is the same either way.
    """
    _count(workers, "workers", 1)
    try:
        ns = [_count(n, "each N", 1) for n in n_list]
    except TypeError:
        raise InvalidArgument(f"n_list must be an iterable of counts, got {n_list!r}") from None
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise InvalidArgument("n_list must be strictly ascending")
    if not ns:
        raise InvalidArgument("n_list must be nonempty")
    configs = [replace(base_config, n_particles=n) for n in ns]
    workers = _pool_size(workers, len(ns))
    if workers > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_one, configs))
    else:
        rows = [_scan_one(c) for c in configs]
    return ScanRows([r for r in rows if isinstance(r, ScanRow)],
                    [(n, r) for n, r in zip(ns, rows) if not isinstance(r, ScanRow)])


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

    The probe is projected onto the maximal sector; weight elsewhere is
    dropped with a warning since coherent states only resolve the top block.
    Rows run over theta in [0, pi], columns over phi in [0, 2 pi).
    """
    space = _instance(state, StateVector, "state").space
    thetas, phis = husimi_grid(shape)
    sec = space.max_sector
    psi = state.amplitudes[sec.offset:sec.offset + sec.dim]
    off_weight = 1.0 - float(np.vdot(psi, psi).real)
    if off_weight > 1e-12:
        warnings.warn(
            f"probe carries weight {off_weight:.3e} outside the maximal sector; "
            "projecting", stacklevel=2)
    # the conjugate coherent amplitudes: their real values at phi = 0 times e^{i k phi}
    rows = _spinor_powers(sec.twoj, np.stack([np.cos(thetas / 2.0), np.sin(thetas / 2.0)], -1))
    return np.abs((rows * psi) @ np.exp(1j * np.outer(np.arange(sec.dim), phis))) ** 2


def husimi_normalization(qmap, multiplet_dim):
    """Quadrature of a Husimi map against the coherent-state measure.

    Returns (2j+1)/(4 pi) * integral Q sin(theta) dtheta dphi evaluated with
    the trapezoid rule in theta and the periodic rectangle rule in phi; the
    result approaches 1 for a normalized max-sector state as the grid grows.
    multiplet_dim is the sector dimension 2j+1 = N+1.
    """
    qmap = np.asarray(qmap, dtype=float)
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
