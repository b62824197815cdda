"""Fisher-information machinery for three-component field estimation.

The field components enter only through the propagator, so the parametric
derivative of the evolved state reduces to a commutator with the
rotating-frame integral operator of the corresponding collective spin
component. The quantum Fisher information matrix follows in the eigenbasis
of each sector block of the state, and measured (classical) Fisher
information follows from any POVM. Inverse-trace bounds compare the
simultaneous three-parameter strategy with three separate single-parameter
experiments that share the same total time budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import DensityOperator, _blocks_of
from .dynamics import _AXES, EvolutionResult, FieldParams, _rotation_integral, hamiltonian
from .errors import InvalidArgument, SingularQfim, _array, _instance, _nonnegative, _real

# Relative eigenvalue-pair cutoff in the QFIM sum.
_QFIM_EPS = 1e-12
# Probabilities below this are treated as unoccupied outcomes in the CFIM.
_CFIM_EPS = 1e-14
# Condition-number ceiling beyond which the QFIM counts as singular.
_CONDITION_LIMIT = 1e12
# Tolerance of the QFIM checks (_qfim_bounds) and their reasons, in order.
_QFIM_TOL = 1e-9
_FAULTS = ("QFIM evaluation produced a non-real matrix", "QFIM must be symmetric",
           "QFIM must be positive semidefinite")


def generator_operator(space, field, t, axis):
    """Rotating-frame integral A = int_0^t U(u)^dag J_axis U(u) du, the
    Hermitian operator with dU/dphi_axis = -i U A: the field Hamiltonian of
    the field M[axis] (dynamics._rotation_integral), so no eigensolve; exactly
    t * J_axis for a zero field.
    """
    if axis not in _AXES:
        raise InvalidArgument(f"axis must be one of {_AXES}, got {axis!r}")
    m = _rotation_integral(_instance(field, FieldParams, "field").phi, _nonnegative(t, "t"))
    return hamiltonian(space, FieldParams(m[_AXES.index(axis)]))


def partial_rho(result, field, axis):
    """Derivative of the evolved state by field component axis, a BlockOperator.

    Differentiates rho = U rho_deph U^dag at fixed dephased input, exact
    under the parallel split, with the result's U and the closed-form A_k of
    generator_operator (no eigensolve), block by block; field must be the
    one evolve used (result.field), else InvalidArgument:

        d rho / d phi_k = -i U [A_k, rho_deph] U^dag.
    """
    if _instance(result, EvolutionResult, "result").field != field:
        raise InvalidArgument(f"field must be evolve's, phi = {np.array(result.field.phi)}")
    gen = generator_operator(result.rho.space, field, result.t, axis)
    rho, u = result.rho_dephased.blocks, result.unitary
    out = -1j * (u @ (gen @ rho - rho @ gen) @ u.dagger())
    return (out + out.dagger()) * 0.5


@dataclass(frozen=True, eq=False)
class QfimMatrix:
    """3x3 quantum Fisher information matrix at shot duration t; the entries
    are stored real, once _real_qfim has checked them as given."""

    entries: np.ndarray
    t: float
    n_particles: int

    def __post_init__(self):
        object.__setattr__(self, "entries", _real_qfim(self.entries))


def _qfim_entries(spectra, partial_blocks):
    """qfim's core, in the eigenbasis of a block-diagonal state.

    spectra holds the eigenvalues p of each diagonal block of the state, and
    partial_blocks, per block, the derivatives V^dag d_a rho V in its
    eigenbasis V, stacked over any number of parameters a on axis -3. Entries
    between blocks must vanish, so pairs from different blocks add nothing and

        Q_ab = 2 sum_{l,l'} <l|d_a rho|l'> <l'|d_b rho|l> / (p_l + p_l')

    runs over pairs within one block, restricted to p_l + p_l' above a cutoff
    relative to the largest eigenvalue over all blocks (the sweep's Grams,
    experiments._gammas, use the same one). Blocks may carry leading axes (a
    stack of states); the result then has them too, each with its own
    cutoff. Returns the Hermitian part of Q (_qfim_bounds checks it).
    """
    largest = np.max([p.max(axis=-1) for p in spectra], axis=0)
    cutoff = _QFIM_EPS * np.maximum(largest, 1e-300)[..., None, None]
    q = 0.0
    for p, d in zip(spectra, partial_blocks):
        den = p[..., :, None] + p[..., None, :]
        scaled = d / np.sqrt(np.where(den > cutoff, den, np.inf))[..., None, :, :]
        scaled = scaled.reshape(d.shape[:-2] + (-1,))
        q = q + 2.0 * scaled @ scaled.conj().swapaxes(-1, -2)
    return (q + q.conj().swapaxes(-1, -2)) / 2.0


def _real_qfim(q):
    """The real part of one QFIM, checked by _qfim_bounds: one that is not a
    3 x 3 array of numbers, or is non-real, non-symmetric or indefinite, is
    InvalidArgument."""
    q = _array(q, "QFIM entries")
    if q.shape != (3, 3):
        raise InvalidArgument(f"QFIM entries must be 3x3, got shape {q.shape}")
    fault = _qfim_bounds(q[None], 1.0)[2]
    if fault is not None:
        raise InvalidArgument(fault[1])
    return q.real


def _qfim_bounds(q, repetitions, individual=False):
    """Check and bound a (T, 3, 3) stack of QFIMs, complex or real (the
    sweep's chunks), each check once per stack; QfimMatrix, _real_qfim and
    both bounds run it on a stack of one. At 1e-9 max(1, max |Q_ab|) a matrix is invalid,
    in this order, if non-real, not symmetric or with an eigenvalue w below
    minus that (the last two on its real part), and singular if some w <= 0
    or w_max / w_min > 1e12 (one eigvalsh of the stack). The individual
    strategy reads the diagonal alone, each Q_kk a 1 x 1 QFIM, singular
    unless > 0. Returns sum(1 / w) / M or 3 sum(1 / Q_kk) / M, NaN where
    singular; w (the Q_kk); and None or (index, reason) of the first invalid.
    """
    if individual:
        diag = np.diagonal(q, axis1=-2, axis2=-1)
        faults = [np.any(np.abs(diag.imag) > _QFIM_TOL * np.maximum(1.0, np.abs(diag)), axis=-1)]
        w, singular = diag.real, diag.real.min(axis=-1) <= 0.0
    else:
        real = q.real
        scale = _QFIM_TOL * np.maximum(1.0, np.abs(real).max(axis=(-2, -1)))
        w = np.linalg.eigvalsh(real)
        faults = [np.abs(q.imag).max(axis=(-2, -1))
                  > _QFIM_TOL * np.maximum(1.0, np.abs(q).max(axis=(-2, -1))),
                  np.abs(real - real.swapaxes(-1, -2)).max(axis=(-2, -1)) > scale,
                  w[:, 0] < -scale]
        singular = np.divide(w[:, -1], w[:, 0], out=np.full(len(w), np.inf),
                             where=w[:, 0] > 0.0) > _CONDITION_LIMIT
    total = np.sum(1.0 / np.where(singular[:, None], np.nan, w), axis=-1)
    bad = np.any(faults, axis=0)
    i = int(np.argmax(bad))
    fault = (i, next(r for r, f in zip(_FAULTS, faults) if f[i])) if bad[i] else None
    return (3.0 * total if individual else total) / repetitions, w, fault


def _partials(rho, partials):
    """The sector blocks of rho and, lazily, the three derivatives' blocks of
    each sector stacked, (3, d_s, d_s). partials must be three finite
    BlockOperators of rho's space (partial_rho's), or InvalidArgument."""
    space = _instance(rho, DensityOperator, "rho").space
    if not isinstance(partials, (list, tuple)) or len(partials) != 3:
        raise InvalidArgument(f"partials must be three BlockOperators, got {partials!r:.80}")
    parts = [_blocks_of(p, space, "partial").blocks for p in partials]
    if not all(np.isfinite(b).all() for blocks in parts for b in blocks):
        raise InvalidArgument("partials have an entry that is not finite")
    return rho.blocks.blocks, (np.stack(ds) for ds in zip(*parts))


def qfim(rho, partials, t=math.nan):
    """Quantum Fisher information matrix of rho for the three derivatives:
    one eigh per sector block of rho, then _qfim_entries.

    Parameters
    ----------
    rho : DensityOperator
    partials : three BlockOperators of rho's space, d rho / d phi_x, _y, _z
    t : the shot duration, recorded on the result.
    """
    blocks, parts = _partials(rho, partials)
    t = _real(t, "t")
    eig = [np.linalg.eigh(b) for b in blocks]
    entries = _qfim_entries([p for p, _ in eig], [v.conj().T @ ds @ v
                                                 for (_, v), ds in zip(eig, parts)])
    return QfimMatrix(entries=entries, t=t, n_particles=rho.space.n_particles)


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Collection of POVM elements: finite PSD matrices resolving the identity."""

    elements: tuple

    def __init__(self, elements):
        try:
            mats = tuple(_array(e, "POVM element") for e in elements)
        except TypeError:
            raise InvalidArgument(f"POVM elements must be an iterable, got {elements!r}") from None
        if not mats:
            raise InvalidArgument("POVM needs at least one element")
        d = max(mats[0].shape, default=0)  # a scalar fails the square test
        for e in mats:
            if e.shape != (d, d) or not np.isfinite(e).all():
                raise InvalidArgument("POVM elements must be finite and share one square shape")
            if np.max(np.abs(e - e.conj().T)) > 1e-10:
                raise InvalidArgument("POVM elements must be Hermitian")
            if np.linalg.eigvalsh((e + e.conj().T) / 2.0).min() < -1e-10:
                raise InvalidArgument("POVM elements must be positive semidefinite")
        if np.max(np.abs(sum(mats) - np.eye(d))) > 1e-10:
            raise InvalidArgument("POVM elements must sum to the identity")
        object.__setattr__(self, "elements", mats)


def cfim(rho, partials, povm):
    """Classical Fisher information matrix of the POVM statistics.

    rho and partials as for qfim; the POVM elements are d x d, as a measurement
    need not be block diagonal, and each outcome's probability and gradient are
    one trace per sector with an element's diagonal blocks. Outcomes with
    probability below 1e-14 are skipped. Returns a 3x3 real symmetric ndarray.
    """
    blocks, parts = _partials(rho, partials)
    if not isinstance(povm, PovmSet):
        povm = PovmSet(povm)
    shape = (rho.space.total_dim,) * 2
    if povm.elements[0].shape != shape:
        raise InvalidArgument(f"POVM elements must have the state's shape {shape}")
    sectors = [slice(s.offset, s.offset + s.dim) for s in rho.space.sectors]
    stacks = [np.concatenate([b[None], ds]) for b, ds in zip(blocks, parts)]
    out = np.zeros((3, 3))
    for element in povm.elements:
        prob, *grad = sum(np.einsum("ij,aji->a", element[sl, sl], x)
                          for sl, x in zip(sectors, stacks)).real
        if prob < _CFIM_EPS:
            continue
        out += np.outer(grad, grad) / prob
    return (out + out.T) / 2.0


@dataclass(frozen=True)
class BoundValue:
    """Total-variance bound, with the repetition count that produced it."""

    value: float
    repetitions: float
    total_time: float


def bound_simultaneous(q, repetitions):
    """Sum of estimator variances tr(Q^{-1}) / M for the joint experiment.

    Raises SingularQfim when Q is not invertible to working precision
    (nonpositive eigenvalues or condition number beyond 1e12, _qfim_bounds).
    """
    m = _real(repetitions, "repetitions")
    if not np.isfinite(m) or m <= 0.0:
        raise InvalidArgument(f"repetitions must be positive, got {repetitions}")
    (value,), (w,), _ = _qfim_bounds(_instance(q, QfimMatrix, "q").entries[None], m)
    if np.isnan(value):
        raise SingularQfim(f"QFIM eigenvalues {w} do not support inversion")
    return BoundValue(value=float(value), repetitions=m,
                      total_time=m * q.t if np.isfinite(q.t) else math.nan)


def bound_individual(q_xx, q_yy, q_zz, repetitions):
    """Total variance when each component gets its own experiment.

    Each parameter is measured in M/3 of the repetitions, so each variance
    is 3 / (M Q_kk); the bound is their sum (_qfim_bounds). Raises
    SingularQfim unless every Q_kk is positive.
    """
    m = _real(repetitions, "repetitions")
    if not np.isfinite(m) or m <= 0.0:
        raise InvalidArgument(f"repetitions must be positive, got {repetitions}")
    diag = tuple(_real(q, "QFIM entry") for q in (q_xx, q_yy, q_zz))
    (value,), _, _ = _qfim_bounds(np.diag(diag)[None], m, individual=True)
    if np.isnan(value):
        raise SingularQfim(f"diagonal QFIM entries {diag} must be positive")
    return BoundValue(value=float(value), repetitions=m, total_time=math.nan)
