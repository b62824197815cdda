"""Generator operators, state derivatives, Fisher information, and bounds."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag

from spinsense import (BlockOperator, DensityOperator, FieldParams, InvalidArgument, NoiseKind,
                       NoiseSpec, PovmSet, QfimMatrix, SingularQfim, StateVector,
                       bound_individual, bound_simultaneous, build_dephasing_superoperator,
                       build_space,
                       cfim, collective_operator, evolve, generator_operator,
                       ghz_state, partial_rho, qfim, simultaneous_probe,
                       unitary)
from spinsense.dynamics import _rotation_integral
from spinsense.estimation import _qfim_bounds, _qfim_entries

AXIS_Z = (0.0, 0.0, 2.0)
AXIS_DIAG = (2.0 / math.sqrt(3.0),) * 3
FIELD_DIAG = FieldParams((0.01, 0.01, 0.01))


def qfim_pipeline(space, probe, field, spec, t):
    res = evolve(probe.projector(), field, spec, t)
    partials = [partial_rho(res, field, ax) for ax in "xyz"]
    return res, partials, qfim(res.rho, partials, t=t)


def test_generator_hermitian_over_random_inputs():
    space = build_space(3)
    rng = np.random.default_rng(42)
    for _ in range(100):
        field = FieldParams(tuple(rng.uniform(-1.0, 1.0, 3)))
        t = float(rng.uniform(1e-3, 50.0))
        axis = "xyz"[rng.integers(0, 3)]
        a = generator_operator(space, field, t, axis).to_dense()
        assert np.max(np.abs(a - a.conj().T)) < 1e-10


def test_generator_exact_for_commuting_component():
    space = build_space(4)
    t = 7.3
    a = generator_operator(space, FieldParams((0.0, 0.0, 0.4)), t, "z").to_dense()
    jz = collective_operator(space, "z").to_dense()
    assert np.max(np.abs(a - t * jz)) < 1e-13


def test_generator_short_time_linearization():
    space = build_space(3)
    t = 1e-4
    field = FieldParams((0.3, -0.2, 0.5))
    for ax in "xyz":
        a = generator_operator(space, field, t, ax).to_dense()
        j = collective_operator(space, ax).to_dense()
        rel = np.max(np.abs(a - t * j)) / np.max(np.abs(t * j))
        assert rel < 1e-3 * max(1.0, field.norm)


def test_generator_matches_unitary_derivative():
    # dU/dphi_k = -i U A_k, probed by central differences
    space = build_space(3)
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(10):
        field = np.array((0.01, 0.01, 0.01)) + rng.uniform(-0.5, 0.5, 3)
        t = float(rng.uniform(0.1, 20.0))
        k = int(rng.integers(0, 3))
        u = unitary(space, FieldParams(tuple(field)), t).to_dense()
        a = generator_operator(space, FieldParams(tuple(field)), t, "xyz"[k]).to_dense()
        fp, fm = field.copy(), field.copy()
        fp[k] += eps
        fm[k] -= eps
        fd = (unitary(space, FieldParams(tuple(fp)), t).to_dense()
              - unitary(space, FieldParams(tuple(fm)), t).to_dense()) / (2.0 * eps)
        analytic = -1j * u @ a
        assert np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic)) < 1e-6


def test_generator_at_zero_field_is_t_times_j():
    # without a field the rotating frame is the lab frame: A_k = t J_k exactly
    space = build_space(6)
    for axis in "xyz":
        a = generator_operator(space, FieldParams((0.0, 0.0, 0.0)), 2.5, axis).to_dense()
        assert np.array_equal(a, 2.5 * collective_operator(space, axis).to_dense())


@pytest.mark.parametrize("n", [3, 8])
def test_generator_matches_quadrature_of_the_rotating_frame(n):
    # A_k against a 64-node Gauss-Legendre quadrature of U(u)^dag J_k U(u),
    # U from the eigh-based unitary, from a tiny field to a fast rotation
    space = build_space(n)
    direction = np.array([1.0, -2.0, 3.0]) / math.sqrt(14.0)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    jops = [collective_operator(space, ax).to_dense() for ax in "xyz"]
    for norm in (1e-6, 0.01, 2.0):
        field = FieldParams(norm * direction)
        for t in (0.7, 5.0):
            us = [unitary(space, field, u).to_dense() for u in 0.5 * t * (nodes + 1.0)]
            for k, ax in enumerate("xyz"):
                quad = sum(0.5 * t * w * (u.conj().T @ jops[k] @ u) for u, w in zip(us, weights))
                a = generator_operator(space, field, t, ax).to_dense()
                assert np.max(np.abs(a - quad)) <= 1e-12 * np.max(np.abs(quad))


def test_rotation_integral_at_zero_field_is_t_times_identity():
    # no field, no rotation: M(t) = t 1 exactly, per time of an array too
    times = np.array([0.0, 0.3, 2.5, 40.0])
    m = _rotation_integral((0.0, 0.0, 0.0), times)
    assert m.shape == (4, 3, 3)
    assert np.array_equal(m, times[:, None, None] * np.eye(3))
    assert np.array_equal(_rotation_integral(np.zeros(3), 2.5), 2.5 * np.eye(3))


def test_partial_rho_makes_no_eigensolve(monkeypatch):
    # the derivatives reuse the evolution's propagator and the closed-form
    # generators: three partial_rho calls at N = 8 call no eigh
    space = build_space(8)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    res = evolve(simultaneous_probe(space).projector(), FIELD_DIAG, spec, 2.0)
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for ax in "xyz":
        partial_rho(res, FIELD_DIAG, ax)
    assert calls == []


def test_partial_rho_refuses_another_field():
    # differentiating with a field other than the one evolved with would give
    # another derivative (Q_xx 44.12 in place of 68.52 here); it is refused
    space = build_space(4)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, (0.0, 0.0, 2.0))
    field = FieldParams((0.0, 0.0, 0.01))
    res = evolve(ghz_state(space, "x").projector(), field, spec, 3.0)
    assert res.field == field
    q = qfim(res.rho, [partial_rho(res, FieldParams((0, 0, 0.01)), a) for a in "xyz"], t=3.0)
    assert abs(q.entries[0, 0] - 68.52) < 5e-3
    for other in (FieldParams((0.0, 0.0, 0.5)), (0.0, 0.0, 0.01)):
        with pytest.raises(InvalidArgument, match="field must be evolve's"):
            partial_rho(res, other, "x")


def test_partial_rho_traceless_hermitian():
    space = build_space(4)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    res = evolve(simultaneous_probe(space).projector(), FIELD_DIAG, spec, 2.0)
    for ax in "xyz":
        d = partial_rho(res, FIELD_DIAG, ax)
        assert isinstance(d, BlockOperator) and d.space == space
        assert abs(sum(np.trace(b) for b in d.blocks)) < 1e-11
        assert np.max(np.abs((d - d.dagger()).ravel())) < 1e-11


def test_partial_rho_matches_finite_difference():
    # derivative at fixed dephased input: vary only the rotation
    space = build_space(4)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    t, eps = 2.0, 1e-5
    res = evolve(simultaneous_probe(space).projector(), FIELD_DIAG, spec, t)
    rd = res.rho_dephased.blocks.to_dense()
    for k, ax in enumerate("xyz"):
        fp = np.array(FIELD_DIAG.phi)
        fm = fp.copy()
        fp[k] += eps
        fm[k] -= eps
        up, um = (unitary(space, FieldParams(tuple(f)), t).to_dense() for f in (fp, fm))
        fd = (up @ rd @ up.conj().T - um @ rd @ um.conj().T) / (2.0 * eps)
        assert np.max(np.abs(fd - partial_rho(res, FIELD_DIAG, ax).to_dense())) < 1e-6


def test_derivatives_and_qfim_stay_below_one_dense_matrix():
    # N = 72 (d = 1,369): three partial_rho calls and one qfim hold sector
    # blocks only, so their traced peak stays below one complex d x d matrix
    space = build_space(72)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    res = evolve(simultaneous_probe(space).projector(), FIELD_DIAG, spec, 5.0,
                 superoperator=build_dephasing_superoperator(space, spec))
    start = time.monotonic()
    tracemalloc.start()
    try:
        q = qfim(res.rho, [partial_rho(res, FIELD_DIAG, ax) for ax in "xyz"], t=5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 1.0
    assert peak < 16 * space.total_dim ** 2
    assert np.isfinite(bound_simultaneous(q, 20.0).value)


def test_qfim_pure_ghz_heisenberg_entry():
    n, t = 4, 1.7
    space = build_space(n)
    spec = NoiseSpec(NoiseKind.NONE, 0.0, AXIS_Z)
    _, _, q = qfim_pipeline(space, ghz_state(space, "z"),
                            FieldParams((0.0, 0.0, 0.01)), spec, t)
    expect = (t * n) ** 2
    assert abs(q.entries[2, 2] - expect) / expect < 1e-12


def test_qfim_zero_partials():
    space = build_space(3)
    rho = simultaneous_probe(space).projector()
    zero = 0.0 * collective_operator(space, "z")
    q = qfim(rho, (zero, zero, zero))
    assert np.max(np.abs(q.entries)) == 0.0


def _random_block_state(rng, spectra):
    """Diagonal blocks V diag(p) V^dag with Haar-like random V, one per spectrum."""
    blocks = []
    for p in spectra:
        z = rng.normal(size=(len(p), len(p))) + 1j * rng.normal(size=(len(p), len(p)))
        v, _ = np.linalg.qr(z)
        blocks.append((v * np.asarray(p)) @ v.conj().T)
    return blocks


def _in_eigenbasis(rho_blocks, partial_blocks):
    """The arguments of _qfim_entries for partial_blocks[a][s], block s of the
    derivative by parameter a: each block's eigenvalues, and its derivatives
    V^dag d_a rho V in its eigenbasis V, stacked over a."""
    eig = [np.linalg.eigh(b) for b in rho_blocks]
    return [p for p, _ in eig], [
        np.stack([v.conj().swapaxes(-1, -2) @ parts[s] @ v for parts in partial_blocks], axis=-3)
        for s, (_, v) in enumerate(eig)]


@pytest.mark.parametrize("count", [1, 3])
def test_qfim_entries_over_blocks_match_one_dense_block(count):
    # the third block is rank deficient, and its nonzero weight sits below the
    # cutoff taken relative to the largest eigenvalue over all blocks, though
    # above one taken within that block alone
    rng = np.random.default_rng(7)
    spectra = [[0.4, 0.2, 0.1, 0.05], [0.1, 0.05], [4e-14, 0.0, 0.0], [0.1 - 4e-14]]
    rho_blocks = _random_block_state(rng, spectra)
    partial_blocks = []
    for _ in range(count):
        parts = []
        for b in rho_blocks:
            h = rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
            parts.append(h + h.conj().T)
        partial_blocks.append(parts)
    by_block = _qfim_entries(*_in_eigenbasis(rho_blocks, partial_blocks))
    dense = _qfim_entries(*_in_eigenbasis([block_diag(*rho_blocks)],
                                          [[block_diag(*parts)] for parts in partial_blocks]))
    assert by_block.shape == (count, count)
    assert np.max(np.abs(by_block - dense)) < 1e-10 * np.max(np.abs(dense))
    # a cutoff per block would count the third block's weight, which is huge
    assert np.max(np.abs(dense)) < 1e4
    # stacked states, one per time, take one cutoff each: here the third
    # block's weight lies above the second state's cutoff
    faint = _random_block_state(rng, [[0.02, 0.01, 0.005, 0.001], [0.01, 0.005],
                                      [4e-14, 0.0, 0.0], [0.01]])
    stacked = _qfim_entries(*_in_eigenbasis(
        [np.stack(pair) for pair in zip(rho_blocks, faint)],
        [[np.stack([b, b]) for b in parts] for parts in partial_blocks]))
    alone = _qfim_entries(*_in_eigenbasis(faint, partial_blocks))
    assert stacked.shape == (2, count, count)
    assert np.max(np.abs(stacked[0] - by_block)) < 1e-12 * np.max(np.abs(by_block))
    assert np.max(np.abs(stacked[1] - alone)) < 1e-12 * np.max(np.abs(alone))
    assert np.max(np.abs(alone)) > 1e8


def test_unitary_family_derivative_is_the_gap_times_the_rotated_generator():
    # for d_k rho = -i [A_k, rho], <l|d_k rho|l'> = i (p_l - p_l') <l|A_k|l'> in
    # the eigenbasis of rho. The sector blocks of N = 6 hold random states; the
    # third is rank deficient and its weight lies below the global cutoff
    space = build_space(6)
    rng = np.random.default_rng(11)
    spectra = [[0.3, 0.15, 0.1, 0.05, 0.02, 0.01, 0.0], [0.15, 0.1, 0.05, 0.02, 0.0],
               [4e-14, 0.0, 0.0], [0.05 - 4e-14]]
    rho_blocks = _random_block_state(rng, spectra)
    generators = []                    # per block, the three A_k stacked
    for b in rho_blocks:
        h = rng.normal(size=(3,) + b.shape) + 1j * rng.normal(size=(3,) + b.shape)
        generators.append(h + h.conj().swapaxes(-1, -2))
    eig = [np.linalg.eigh(b) for b in rho_blocks]
    gap_form = _qfim_entries([p for p, _ in eig], [
        1j * (p[:, None] - p[None, :]) * (v.conj().T @ a @ v)
        for a, (p, v) in zip(generators, eig)])
    commutators = [[-1j * (a[k] @ b - b @ a[k]) for a, b in zip(generators, rho_blocks)]
                   for k in range(3)]
    commutator_form = _qfim_entries(*_in_eigenbasis(rho_blocks, commutators))
    rho = DensityOperator(space, BlockOperator(space, tuple(rho_blocks)))
    public = qfim(rho, [BlockOperator(space, tuple(parts)) for parts in commutators]).entries
    scale = np.max(np.abs(public))
    assert scale > 1.0
    assert np.max(np.abs(gap_form - commutator_form)) < 1e-12 * scale
    assert np.max(np.abs(gap_form - public)) < 1e-12 * scale


def test_qfim_matrix_validation():
    bad = np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InvalidArgument):
        QfimMatrix(entries=bad, t=1.0, n_particles=2)
    indefinite = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(InvalidArgument):
        QfimMatrix(entries=indefinite, t=1.0, n_particles=2)


def test_qfim_covariant_under_global_rotation():
    # rotating probe, field, and noise axis together conjugates the QFIM
    import scipy.linalg as sla
    theta = 0.6
    rot = np.array([[math.cos(theta), 0.0, math.sin(theta)],
                    [0.0, 1.0, 0.0],
                    [-math.sin(theta), 0.0, math.cos(theta)]])
    space = build_space(3)
    probe = simultaneous_probe(space)
    spec0 = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    _, _, q0 = qfim_pipeline(space, probe, FIELD_DIAG, spec0, 2.0)

    w = sla.expm(-1j * theta * collective_operator(space, "y").blocks[0])
    amps = w @ probe.amplitudes
    probe_rot = StateVector(space, amps / np.linalg.norm(amps))
    field_rot = FieldParams(tuple(rot @ np.array(FIELD_DIAG.phi)))
    spec_rot = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, tuple(rot @ np.array(AXIS_DIAG)))
    _, _, q1 = qfim_pipeline(space, probe_rot, field_rot, spec_rot, 2.0)

    expected = rot @ q0.entries @ rot.T
    assert np.max(np.abs(q1.entries - expected)) < 1e-7 * np.max(np.abs(q0.entries))


def test_qfim_noise_only_degrades():
    space = build_space(4)
    probe = simultaneous_probe(space)
    _, _, q_free = qfim_pipeline(space, probe, FIELD_DIAG,
                                 NoiseSpec(NoiseKind.NONE, 0.0, AXIS_DIAG), 2.0)
    base = np.trace(np.linalg.inv(q_free.entries))
    for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN):
        for gamma in (0.05, 0.1):
            _, _, q = qfim_pipeline(space, probe, FIELD_DIAG,
                                    NoiseSpec(kind, gamma, AXIS_DIAG), 2.0)
            assert np.trace(np.linalg.inv(q.entries)) >= base - 1e-12


def test_povm_validation():
    d = 4
    eye = np.eye(d, dtype=complex)
    with pytest.raises(InvalidArgument):
        PovmSet([eye * 0.5])                            # does not sum to identity
    with pytest.raises(InvalidArgument):
        PovmSet([eye * 1.5, eye * (-0.5)])              # negative element
    PovmSet([eye * 0.25] * 4)                           # valid resolution


def test_cfim_trivial_povm_carries_no_information():
    space = build_space(3)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    res, partials, _ = qfim_pipeline(space, simultaneous_probe(space),
                                     FIELD_DIAG, spec, 2.0)
    povm = PovmSet([np.eye(space.total_dim, dtype=complex)])
    f = cfim(res.rho, partials, povm)
    # dP = Tr[d rho] is zero only to roundoff, and it enters squared
    assert np.max(np.abs(f)) < 1e-25


def test_cfim_saturates_bound_in_symmetric_ray_basis():
    # pure state, z-rotation only: projecting onto the eigenbasis of the
    # symmetric logarithmic derivative reaches the quantum bound
    space = build_space(3)
    field = FieldParams((0.0, 0.0, 0.01))
    spec = NoiseSpec(NoiseKind.NONE, 0.0, AXIS_Z)
    res, partials, q = qfim_pipeline(space, ghz_state(space, "z"), field, spec, 1.3)
    _, vecs = np.linalg.eigh(2.0 * partials[2].to_dense())
    povm = PovmSet([np.outer(vecs[:, i], vecs[:, i].conj())
                    for i in range(vecs.shape[1])])
    f = cfim(res.rho, partials, povm)
    assert abs(f[2, 2] - q.entries[2, 2]) / q.entries[2, 2] < 1e-8


def test_cfim_never_beats_qfim():
    space = build_space(3)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    res, partials, q = qfim_pipeline(space, simultaneous_probe(space),
                                     FIELD_DIAG, spec, 2.0)
    q_trace = np.trace(np.linalg.inv(q.entries))
    rng = np.random.default_rng(23)
    d = space.total_dim
    for _ in range(5):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        basis, _ = np.linalg.qr(g)
        povm = PovmSet([np.outer(basis[:, i], basis[:, i].conj())
                        for i in range(d)])
        f = cfim(res.rho, partials, povm)
        eigs = np.linalg.eigvalsh(f)
        if eigs.min() < 1e-10:
            continue
        assert np.trace(np.linalg.inv(f)) >= q_trace - 1e-9


def test_simultaneous_bound_closed_form():
    q = QfimMatrix(entries=np.diag([4.0, 4.0, 4.0]), t=1.0, n_particles=2)
    b = bound_simultaneous(q, repetitions=10.0)
    assert abs(b.value - 3.0 / (4.0 * 10.0)) < 1e-15
    half = bound_simultaneous(q, repetitions=20.0)
    assert abs(half.value - b.value / 2.0) < 1e-15


def test_simultaneous_bound_rejects_singular():
    q = QfimMatrix(entries=np.diag([4.0, 4.0, 0.0]), t=1.0, n_particles=2)
    with pytest.raises(SingularQfim):
        bound_simultaneous(q, repetitions=1.0)
    skewed = QfimMatrix(entries=np.diag([1e14, 1.0, 1.0]), t=1.0, n_particles=2)
    with pytest.raises(SingularQfim):
        bound_simultaneous(skewed, repetitions=1.0)


def test_stacked_bounds_are_nan_exactly_at_the_singular_points():
    # one call bounds a whole stack: regular matrices, a zero eigenvalue, a
    # condition number of 1e14 and a nonpositive diagonal entry
    rng = np.random.default_rng(3)
    regular = [a @ a.T / 3.0 + np.eye(3) for a in rng.normal(size=(3, 3, 3))]
    zero_eigenvalue = np.array([[2.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
    skewed = np.diag([1e14, 1.0, 1.0])
    zero_diagonal = np.diag([3.0, 0.0, 2.0])
    stack = np.array([regular[0], zero_eigenvalue, regular[1], skewed, zero_diagonal,
                      regular[2]])
    m = np.linspace(1.0, 6.0, len(stack))
    joint, _, fault = _qfim_bounds(stack, m)
    assert fault is None
    assert np.array_equal(np.isnan(joint), [False, True, False, True, True, False])
    for k in np.flatnonzero(np.isfinite(joint)):
        expected = np.trace(np.linalg.inv(stack[k])) / m[k]
        assert abs(joint[k] / expected - 1.0) < 1e-14
    diag = np.diagonal(stack, axis1=-2, axis2=-1)
    individual, w, fault = _qfim_bounds(stack, m, individual=True)
    assert fault is None and np.array_equal(w, diag)
    assert np.array_equal(np.isnan(individual), [False, False, False, False, True, False])
    for k in np.flatnonzero(np.isfinite(individual)):
        expected = 3.0 * np.sum(1.0 / diag[k]) / m[k]
        assert abs(individual[k] / expected - 1.0) < 1e-14


def test_individual_bound_closed_form():
    b = bound_individual(5.0, 5.0, 5.0, repetitions=3.0)
    assert abs(b.value - 9.0 / (5.0 * 3.0)) < 1e-15
    assert b.repetitions == 3.0
    with pytest.raises(SingularQfim):
        bound_individual(5.0, 0.0, 5.0, repetitions=3.0)
    with pytest.raises(SingularQfim):
        bound_individual(5.0, -1.0, 5.0, repetitions=3.0)
