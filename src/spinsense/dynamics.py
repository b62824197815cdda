"""Time evolution of collective states under a static field and local dephasing.

When the field direction is parallel to the dephasing axis the Hamiltonian
commutes with the dissipator, so the propagation splits exactly into a
dephasing stage in the integrated-strength variable Theta followed by the
unitary rotation. The dephasing stage is the semigroup exp(Theta L),
evaluated chain by chain in the noise frame of the dephasing generator.
evolve() implements that split and refuses a field off the axis, which only
the joint reference integration full_gkls_reference covers.

The field derivative dU/dphi_k = -i U A_k is closed form: U(u)^dag J U(u) is
J rotated about phi, so A_k = sum_b M_kb J_b with M the 3 x 3 rotation
integral (_rotation_integral), the same in every sector.

Two brute-force oracles back the fast path: a joint real-time integration of
the same block-diagonal master equation in the lab frame, with the dissipator
applied through the dephasing generator, and the full 2^N product space, where
one spin's channel, integrated as a 4 x 4 map, acts on every site without
touching the collective representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import (BlockOperator, DensityOperator, DickeSpace, StateVector, _blocks_of,
                    _collective_exponential, collective_operator)
from .dephasing import (DephasingSuperoperator, NoiseSpec, _skew, build_dephasing_superoperator,
                        gamma_profile, integrated_strength)
from .errors import (AssumptionViolated, InvalidArgument, NumericalError, _array, _count,
                     _instance, _nonnegative, _vector)

_AXES = ("x", "y", "z")

_GKLS_MAX_DIM = 400  # largest collective dimension of full_gkls_reference
_HILBERT_MAX_N = 8  # largest N of full_hilbert_reference


@dataclass(frozen=True)
class FieldParams:
    """Static field vector; components are angular frequencies."""

    phi: tuple

    def __init__(self, phi):
        vec = _vector(phi, "field")
        object.__setattr__(self, "phi", (vec[0], vec[1], vec[2]))

    @property
    def norm(self):
        return float(np.linalg.norm(self.phi))


def hamiltonian(space, field):
    """H = phi . J as a BlockOperator."""
    phi = _instance(field, FieldParams, "field").phi
    ops = zip(*(collective_operator(space, a).blocks for a in _AXES))
    return BlockOperator(space, tuple(phi[0] * x + phi[1] * y + phi[2] * z for x, y, z in ops))


def _rotation_integral(phi, t):
    """M(t) = int_0^t exp(u [phi]_x) du, shape t.shape + (3, 3): U(u)^dag J_k
    U(u) = sum_b exp(u [phi]_x)_kb J_b, so dU/dphi_k = -i U A_k with A_k =
    sum_b M_kb J_b (Baumgratz & Datta, PRL 116, 030801 (2016)). With n =
    phi / |phi| (0 for a zero field) and x = |phi| t / 2, M = t [(1 - n n^T)
    sin 2x / 2x + n n^T + [n]_x sin^2 x / x], the ratios sinc x cos x and
    sinc x sin x, so nothing cancels at small |phi| t."""
    phi, t = np.asarray(phi, dtype=float), np.asarray(t, dtype=float)
    w = math.sqrt(float(phi @ phi))
    n = phi / w if w > 0.0 else np.zeros(3)
    x = (0.5 * w) * t
    st = t * np.sinc(x / np.pi)
    nn = n[:, None] * n
    terms = np.concatenate((np.eye(3) - nn, nn, _skew(n))).reshape(3, 9)
    return (np.stack((st * np.cos(x), t, st * np.sin(x)), axis=-1) @ terms).reshape(
        t.shape + (3, 3))


def unitary(space, field, t):
    """Propagator exp(-i phi . J t) of the field Hamiltonian, one eigh per sector."""
    t = _nonnegative(t, "t")
    return _collective_exponential(space, _instance(field, FieldParams, "field").phi, t)


def dephase(rho0, superoperator, spec, t):
    """Apply the dephasing semigroup for duration t of the given noise profile.

    Evaluates exp(Theta(t) L)[rho0] through the chain exponentials of the
    superoperator, on the sector blocks of rho0, and returns rho0 itself at
    Theta = 0. When Theta > 0 the superoperator must be a
    DephasingSuperoperator built for rho0's space and spec's axis, or
    InvalidArgument. A result that is not a valid state (an eigenvalue below
    -1e-8, or trace drift) raises NumericalError.
    """
    _instance(rho0, DensityOperator, "rho0")
    theta = integrated_strength(spec, t)
    if theta == 0.0:
        return rho0
    _instance(superoperator, DephasingSuperoperator, "superoperator")
    if superoperator.space != rho0.space or superoperator.axis != spec.axis:
        raise InvalidArgument("superoperator was built for another space or noise axis")
    out = superoperator.propagate(rho0, theta)
    try:
        # The generator preserves Hermiticity exactly; symmetrize rounding noise.
        return DensityOperator(rho0.space, (out + out.dagger()) * 0.5)
    except InvalidArgument as exc:
        raise NumericalError(f"dephasing produced an invalid state: {exc}") from exc


# ---------------------------------------------------------------------------
# Split evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Evolved state together with the pieces of the split propagation:
    rho = unitary . rho_dephased . unitary^dag, and the field and time of it."""

    rho: DensityOperator
    rho_dephased: DensityOperator
    unitary: BlockOperator
    t: float
    field: FieldParams


def _parallel(phi, spec):
    """Whether the split holds: no noise, or the field phi within 1e-8 rad
    of the noise axis, its sign ignored (a zero field counts as parallel)."""
    if spec.gamma == 0.0:
        return True
    a, b = np.asarray(phi, dtype=float), np.asarray(spec.axis, dtype=float)
    return math.atan2(np.linalg.norm(np.cross(a, b)), abs(float(a @ b))) <= 1e-8


def evolve(rho0, field, spec, t, superoperator=None):
    """Propagate rho0 for time t under field phi and dephasing spec.

    The field must lie along the noise axis (_parallel); then dephasing and
    rotation commute and are applied in sequence. A field off the axis
    raises AssumptionViolated: full_gkls_reference integrates that case.

    A prebuilt superoperator for (rho0.space, spec.axis) may be passed to
    avoid reassembly in loops; dephase refuses one that does not fit.
    """
    t = _nonnegative(t, "t")
    if not _parallel(_instance(field, FieldParams, "field").phi,
                     _instance(spec, NoiseSpec, "spec")):
        raise AssumptionViolated(
            "field direction is not parallel to the dephasing axis; "
            "full_gkls_reference integrates the joint dynamics")
    space = _instance(rho0, DensityOperator, "rho0").space
    if superoperator is None and spec.gamma > 0.0:
        superoperator = build_dephasing_superoperator(space, spec)
    rho_deph = dephase(rho0, superoperator, spec, t)
    u = unitary(space, field, t)
    rotated = u @ rho_deph.blocks @ u.dagger()
    rotated = (rotated + rotated.dagger()) * 0.5
    return EvolutionResult(rho=DensityOperator(space, rotated),
                           rho_dephased=rho_deph, unitary=u, t=t, field=field)


# ---------------------------------------------------------------------------
# Oracle 1: joint integration in the collective basis
# ---------------------------------------------------------------------------

_REFERENCE_TOL = 1e-10
_REFERENCE_MAX_DOUBLINGS = 14
# Most RK4 steps of a first pass: about 5.5 s at N = 2 (0.55 ms a step); the
# longest joint run of the tests, demos and verify, t = 5, takes about 100.
_REFERENCE_MAX_STEPS = 10_000


def _integrate_doubling(rhs, y0, field, spec, t):
    """Fixed-step RK4 over [0, t] with resolution doubling until two runs agree
    to 1e-10. The first run takes at least 8 steps, and enough that no step
    exceeds 0.05 in (|phi| + 1) u or in Theta(u), refused past _REFERENCE_MAX_STEPS."""

    def run(nsteps):
        h = t / nsteps
        y = y0
        for i in range(nsteps):
            u = i * h
            k1 = rhs(u, y)
            k2 = rhs(u + 0.5 * h, y + (0.5 * h) * k1)
            k3 = rhs(u + 0.5 * h, y + (0.5 * h) * k2)
            k4 = rhs(u + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y

    steps = max(8.0, t * (field.norm + 1.0) / 0.05, integrated_strength(spec, t) / 0.05)
    if steps > _REFERENCE_MAX_STEPS:
        raise InvalidArgument(f"the reference integration to t = {t!r} needs {steps:.3g} RK4 "
                              f"steps, more than {_REFERENCE_MAX_STEPS}")
    nsteps = math.ceil(steps)
    coarse = run(nsteps)
    for _ in range(_REFERENCE_MAX_DOUBLINGS):
        nsteps *= 2
        fine = run(nsteps)
        if float(np.max(np.abs(fine - coarse))) < _REFERENCE_TOL:
            return fine
        coarse = fine
    raise NumericalError("reference integration did not converge to 1e-10")


def full_gkls_reference(rho0, field, spec, t):
    """Joint real-time integration of unitary plus dephasing dynamics.

    Makes no use of the parallel-axis split: the time-dependent rate
    gamma_t multiplies the rate-free generator at every step. The state is
    integrated in the lab frame on its raveled sector blocks, with the
    Hamiltonian and the dissipator gamma_t L[rho] from the apply method of
    the dephasing generator. Intended as a cross-check at moderate
    dimension, d <= _GKLS_MAX_DIM.
    """
    t = _nonnegative(t, "t")
    space = _instance(rho0, DensityOperator, "rho0").space
    d = space.total_dim
    if d > _GKLS_MAX_DIM:
        raise InvalidArgument(f"reference integrator limited to d <= {_GKLS_MAX_DIM}, got {d}")
    if t == 0.0:
        return rho0
    lsup = build_dephasing_superoperator(space, spec)
    ham = hamiltonian(space, field)

    def rhs(u, flat):
        rho = BlockOperator.unravel(space, flat)
        out = -1j * (ham @ rho - rho @ ham)
        g = gamma_profile(spec, u)
        if g != 0.0:
            out = out + g * lsup.apply(rho)
        return out.ravel()

    out = BlockOperator.unravel(space, _integrate_doubling(
        rhs, rho0.blocks.ravel(), field, spec, t))
    return DensityOperator(space, (out + out.dagger()) * 0.5)


# ---------------------------------------------------------------------------
# Oracle 2: the 2^N product space, one spin's channel on every site
# ---------------------------------------------------------------------------

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _site_operator(n, site, op2):
    """Embed a single-site 2x2 operator at the given site (site 0 leftmost)."""
    mat = np.ones((1, 1), dtype=complex)
    for k in range(n):
        mat = np.kron(mat, op2 if k == site else np.eye(2))
    return mat


def _collective_full(n, axis):
    """J_axis on the 2^N product space."""
    return sum(_site_operator(n, site, _PAULI[axis] / 2.0) for site in range(n))


def coupled_multiplets(n):
    """Orthonormal total-spin multiplets of N spins in the product basis.

    Couples one spin at a time with Clebsch-Gordan coefficients. Returns a
    dict mapping 2j to a list of arrays of shape (2j+1, 2^N); each array is
    one multiplet copy with rows ordered by decreasing m. The number of
    copies per sector equals the collective-basis multiplicity, which makes
    this an independent check of the counting.
    """
    if _count(n, "n", 1) > 12:
        raise InvalidArgument(f"coupled multiplets supported for 1 <= N <= 12, got {n}")
    # Start with one spin: j = 1/2, rows m = +1/2, -1/2; site basis (up, down).
    multiplets = {1: [np.eye(2, dtype=complex)]}
    up, down = np.eye(2)
    for _ in range(n - 1):
        grown = {}
        for twoj, copies in multiplets.items():
            j = twoj / 2.0
            # j + 1/2: row m (decreasing) = |j, m-1/2> (x) |up> cu + |j, m+1/2> (x) |down> cd, on
            # the old rows padded by a zero row at each end; j - 1/2: the inner m, -cd and cu.
            m = (twoj + 1) / 2.0 - np.arange(twoj + 2)
            cu, cd = (np.sqrt((j + s * m + 0.5) / (2.0 * j + 1.0))[:, None] for s in (1, -1))
            for rows in copies:
                padded = np.pad(rows, ((1, 1), (0, 0)))
                grown.setdefault(twoj + 1, []).append(
                    cu * np.kron(padded[1:], up) + cd * np.kron(padded[:-1], down))
                if twoj > 0:
                    grown.setdefault(twoj - 1, []).append(
                        -cd[1:-1] * np.kron(rows[1:], up) + cu[1:-1] * np.kron(rows[:-1], down))
        multiplets = grown
    # Tensor-product bit order: the newest spin is the fastest index, matching
    # _site_operator with site 0 leftmost.
    return multiplets


def embed_collective(rho, multiplets):
    """Lift a collective operator to the 2^N product space.

    Each sector block is shared uniformly over the degenerate multiplet
    copies, which is the unique trace-preserving permutation-invariant
    assignment. rho is a DensityOperator or any BlockOperator (L[rho], say);
    its blocks are read through _blocks_of.
    """
    space = _instance(getattr(rho, "space", None), DickeSpace, "rho.space")
    blocks = _blocks_of(rho, space, "rho").blocks
    _instance(multiplets, dict, "multiplets")
    dim_full = 2 ** space.n_particles
    out = np.zeros((dim_full, dim_full), dtype=complex)
    for sec, block in zip(space.sectors, blocks):
        copies = multiplets.get(sec.twoj, [])
        if not isinstance(copies, (list, tuple)) or len(copies) != sec.multiplicity:
            raise InvalidArgument("multiplet count does not match sector multiplicity")
        for rows in copies:
            rows = _array(rows, "multiplet rows")
            if rows.shape != (sec.dim, dim_full):
                raise InvalidArgument(f"multiplet rows of 2j = {sec.twoj} must have shape "
                                      f"{(sec.dim, dim_full)}, got {rows.shape}")
            out += rows.conj().T @ block @ rows / sec.multiplicity
    return out


def state_fidelity(rho_a, rho_b):
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2 for dense matrices."""
    rho_a, rho_b = _array(rho_a, "rho_a"), _array(rho_b, "rho_b")
    if rho_a.ndim != 2 or rho_a.shape != rho_b.shape or rho_a.shape != rho_a.shape[::-1]:
        raise InvalidArgument(f"shapes {rho_a.shape}, {rho_b.shape} are not one square shape")
    wa, va = np.linalg.eigh(rho_a)
    sq = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.conj().T
    inner = sq @ rho_b @ sq
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


@dataclass(frozen=True, eq=False)
class HilbertComparison:
    """Collective moments from the product-space oracle and the fast path,
    and how far apart their states are: the fidelity, and the largest entry
    of the difference of the two density matrices."""

    first_moments_full: np.ndarray
    second_moments_full: np.ndarray
    first_moments_dicke: np.ndarray
    second_moments_dicke: np.ndarray
    fidelity: float
    state_deviation: float


def full_hilbert_reference(n_particles, initial, field, spec, t):
    """Brute-force product-space dynamics for a symmetric initial state.

    Each spin sees the same field and its own bath, so the N-spin evolution
    is Lambda_t applied to every site, with Lambda_t the channel of one spin.
    Its 4 x 4 matrix on row-major vec(rho) is integrated by RK4 from
    d Lambda / du = [-i(h x 1 - 1 x h^T) + 2 gamma_u (s x s^T - 1)] Lambda,
    h = phi . sigma/2 and s = axis . sigma/2, for any field and noise kind.
    The N + 1 initial amplitudes, lifted through the j = N/2 multiplet (a
    tensor with row index k and column index N + k on site k), are contracted
    with it site by site, with no collective reduction anywhere. Reports the
    first and second collective moments from both the product-space solution
    and the collective fast path, together with the fidelity and the largest
    entry deviation between the fast-path state lifted to the product space
    and the brute-force state.
    """
    n = _count(n_particles, "n_particles", 1)
    if n > _HILBERT_MAX_N:
        raise InvalidArgument(
            f"product-space oracle limited to 1 <= N <= {_HILBERT_MAX_N}, got {n}")
    t = _nonnegative(t, "t")
    space = _instance(initial, StateVector, "initial").space
    _instance(field, FieldParams, "field")
    _instance(spec, NoiseSpec, "spec")
    if space.n_particles != n:
        raise InvalidArgument("initial state lives on a different particle number")

    multiplets = coupled_multiplets(n)
    psi_full = multiplets[n][0].conj().T @ initial.amplitudes

    h, s = (sum(c * _PAULI[a] for c, a in zip(vec, _AXES)) / 2.0
            for vec in (field.phi, spec.axis))
    eye = np.eye(2)
    coherent = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    dissipator = 2.0 * (np.kron(s, s.T) - np.eye(4))
    channel = _integrate_doubling(
        lambda u, y: (coherent + gamma_profile(spec, u) * dissipator) @ y,
        np.eye(4, dtype=complex), field, spec, t).reshape(2, 2, 2, 2)
    rho = np.outer(psi_full, psi_full.conj()).reshape((2,) * (2 * n))
    for k in range(n):
        rho = np.moveaxis(np.tensordot(channel, rho, axes=([2, 3], [k, n + k])),
                          (0, 1), (k, n + k))
    rho_full = rho.reshape(2 ** n, 2 ** n)
    rho_full = (rho_full + rho_full.conj().T) / 2.0

    jops_full = [_collective_full(n, a) for a in _AXES]
    first_full = np.array([np.trace(j @ rho_full).real for j in jops_full])
    second_full = np.array([[np.trace(ja @ jb @ rho_full) for jb in jops_full]
                            for ja in jops_full])

    rho0 = initial.projector()
    rho = evolve(rho0, field, spec, t).rho if _parallel(field.phi, spec) \
        else full_gkls_reference(rho0, field, spec, t)
    jops = [collective_operator(space, a) for a in _AXES]
    first_dicke = np.array([jops[i].expectation(rho).real for i in range(3)])
    second_dicke = np.array([[(jops[a] @ jops[b]).expectation(rho)
                              for b in range(3)] for a in range(3)])

    lifted = embed_collective(rho, multiplets)
    fid = state_fidelity(lifted, rho_full)

    return HilbertComparison(
        first_moments_full=first_full,
        second_moments_full=second_full,
        first_moments_dicke=first_dicke,
        second_moments_dicke=second_dicke,
        fidelity=fid,
        state_deviation=float(np.max(np.abs(lifted - rho_full))),
    )
