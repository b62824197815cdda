"""Propagation: split fast path against the joint and product-space oracles."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spinsense

from spinsense import (AssumptionViolated, BlockOperator, DensityOperator,
                       DephasingSuperoperator, FieldParams, InvalidArgument, NoiseKind,
                       NoiseSpec, NumericalError, StateVector,
                       build_space, build_dephasing_superoperator, collective_operator,
                       coupled_multiplets, dephase, embed_collective, evolve,
                       full_gkls_reference, full_hilbert_reference, ghz_state,
                       hamiltonian, simultaneous_probe, state_fidelity, unitary)

AXIS_Z = (0.0, 0.0, 2.0)
AXIS_DIAG = (2.0 / math.sqrt(3.0),) * 3
FIELD_DIAG = FieldParams((0.01, 0.01, 0.01))


def trace_distance(a, b):
    w = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(w)))


def test_hamiltonian_z_field_is_diagonal():
    space = build_space(4)
    h = hamiltonian(space, FieldParams((0.0, 0.0, 0.3))).to_dense()
    m = np.concatenate([s.m_values() for s in space.sectors])
    assert np.max(np.abs(h - np.diag(0.3 * m))) < 1e-14


def test_hamiltonian_block_spectrum():
    # each block is a rotated spin-j z-operator scaled by |phi|
    space = build_space(3)
    field = FieldParams((0.2, -0.1, 0.15))
    h = hamiltonian(space, field)
    for s, block in zip(space.sectors, h.blocks):
        assert abs(np.trace(block)) < 1e-14
        eigs = np.sort(np.linalg.eigvalsh(block))
        assert np.max(np.abs(eigs - field.norm * np.sort(s.m_values()))) < 1e-12


def test_unitary_identity_at_zero_time():
    space = build_space(3)
    u = unitary(space, FIELD_DIAG, 0.0).to_dense()
    assert np.max(np.abs(u - np.eye(space.total_dim))) < 1e-15


def test_unitary_single_spin_closed_form():
    omega, t = 0.7, 3.1
    u = unitary(build_space(1), FieldParams((0.0, 0.0, omega)), t).to_dense()
    expect = np.diag([np.exp(-1j * omega * t / 2.0), np.exp(1j * omega * t / 2.0)])
    assert np.max(np.abs(u - expect)) < 1e-13


def test_unitary_is_unitary():
    space = build_space(4)
    rng = np.random.default_rng(5)
    eye = np.eye(space.total_dim)
    for _ in range(10):
        field = FieldParams(tuple(rng.uniform(-1.0, 1.0, 3)))
        t = float(rng.uniform(0.0, 50.0))
        u = unitary(space, field, t).to_dense()
        assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-11


def test_dephase_identity_without_noise():
    space = build_space(3)
    spec = NoiseSpec(NoiseKind.NONE, 0.0, AXIS_Z)
    rho0 = simultaneous_probe(space).projector()
    out = dephase(rho0, None, spec, 5.0)
    assert np.array_equal(out.blocks.to_dense(), rho0.blocks.to_dense())


def test_dephase_single_spin_coherence_decay():
    space = build_space(1)
    gamma, t = 0.1, 2.0
    spec = NoiseSpec(NoiseKind.MARKOVIAN, gamma, AXIS_Z)
    lsup = build_dephasing_superoperator(space, spec)
    plus = DensityOperator(space, BlockOperator(space, (np.full((2, 2), 0.5, dtype=complex),)))
    out = dephase(plus, lsup, spec, t)
    assert abs(abs(out.blocks.to_dense()[0, 1]) - math.exp(-4.0 * gamma * t) / 2.0) < 1e-9
    # the non-Markovian profile reaches Theta = (gamma t)^2 / 2 instead
    spec_nm = NoiseSpec(NoiseKind.NONMARKOVIAN, gamma, AXIS_Z)
    out_nm = dephase(plus, build_dephasing_superoperator(space, spec_nm), spec_nm, t)
    assert abs(abs(out_nm.blocks.to_dense()[0, 1]) - math.exp(-2.0 * (gamma * t) ** 2) / 2.0) < 1e-9


def test_dephase_semigroup_composition():
    space = build_space(3)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.2, AXIS_DIAG)
    lsup = build_dephasing_superoperator(space, spec)
    rho0 = simultaneous_probe(space).projector()
    once = dephase(rho0, lsup, spec, 3.0)
    split = dephase(dephase(rho0, lsup, spec, 1.2), lsup, spec, 1.8)
    assert np.max(np.abs(once.blocks.to_dense() - split.blocks.to_dense())) < 1e-9


def test_dephase_invalid_state_is_a_numerical_fault(monkeypatch):
    # a propagated matrix below the state's positivity floor of -1e-8 is the
    # program's fault, reported as NumericalError
    space = build_space(2)
    rng = np.random.default_rng(3)
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    bad = BlockOperator(space, ((v * np.array([0.6, 0.3, -1e-7])) @ v.conj().T,
                                np.array([[0.1 + 1e-7]])))
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_Z)
    lsup = build_dephasing_superoperator(space, spec)
    monkeypatch.setattr(DephasingSuperoperator, "propagate", lambda self, rho, theta: bad)
    with pytest.raises(NumericalError, match="invalid state"):
        dephase(simultaneous_probe(space).projector(), lsup, spec, 1.0)


def test_evolve_holds_less_than_one_dense_matrix():
    # the state stays in its sector blocks: one evolve at N = 48 with a
    # prebuilt superoperator peaks below the bytes of one dense d x d complex
    # matrix (6.0 MiB)
    space = build_space(48)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    rho0 = simultaneous_probe(space).projector()
    lsup = build_dephasing_superoperator(space, spec)
    evolve(rho0, FIELD_DIAG, spec, 5.0, superoperator=lsup)  # warm up
    tracemalloc.start()
    try:
        evolve(rho0, FIELD_DIAG, spec, 5.0, superoperator=lsup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * space.total_dim ** 2


def test_import_does_not_load_scipy():
    # the package runs on numpy alone: a fresh interpreter imports it and runs
    # the joint reference integrator without loading scipy
    package_root = str(Path(spinsense.__file__).resolve().parents[1])
    code = ("import sys, spinsense as s\n"
            "space = s.build_space(2)\n"
            "s.full_gkls_reference(s.simultaneous_probe(space).projector(),\n"
            "                      s.FieldParams((0.1, 0.2, 0.3)),\n"
            "                      s.NoiseSpec('markovian', 0.1, (0.0, 0.0, 2.0)), 0.5)\n"
            "assert 'scipy' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=package_root)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_dephase_purity_never_increases():
    space = build_space(4)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    lsup = build_dephasing_superoperator(space, spec)
    rho0 = simultaneous_probe(space).projector()
    last = rho0.purity()
    for t in np.linspace(0.5, 10.0, 20):
        p = dephase(rho0, lsup, spec, float(t)).purity()
        assert p <= last + 1e-12
        last = p


def test_evolve_reduces_to_unitary_rotation():
    space = build_space(3)
    spec = NoiseSpec(NoiseKind.NONE, 0.0, AXIS_DIAG)
    rho0 = ghz_state(space, "z").projector()
    res = evolve(rho0, FIELD_DIAG, spec, 4.0)
    u = unitary(space, FIELD_DIAG, 4.0)
    u = u.to_dense()
    assert np.max(np.abs(res.rho.blocks.to_dense() - u @ rho0.blocks.to_dense() @ u.conj().T)) < 1e-12


def test_evolve_split_consistency():
    space = build_space(4)
    spec = NoiseSpec(NoiseKind.NONMARKOVIAN, 0.1, AXIS_DIAG)
    rho0 = simultaneous_probe(space).projector()
    res = evolve(rho0, FIELD_DIAG, spec, 2.5)
    u = res.unitary.to_dense()
    rebuilt = u @ res.rho_dephased.blocks.to_dense() @ u.conj().T
    assert np.max(np.abs(res.rho.blocks.to_dense() - rebuilt)) < 1e-10


def test_evolve_order_invariance():
    # with the field along the noise axis the two factors commute
    space = build_space(3)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_DIAG)
    lsup = build_dephasing_superoperator(space, spec)
    rho0 = simultaneous_probe(space).projector()
    ub = unitary(space, FIELD_DIAG, 2.0)
    u = ub.to_dense()
    rotate_last = u @ dephase(rho0, lsup, spec, 2.0).blocks.to_dense() @ u.conj().T
    rotated = DensityOperator(space, ub @ rho0.blocks @ ub.dagger())
    rotate_first = dephase(rotated, lsup, spec, 2.0).blocks.to_dense()
    assert np.max(np.abs(rotate_last - rotate_first)) < 1e-9


def test_evolve_rejects_tilted_field():
    # off the axis the split does not hold; the refusal names the joint
    # integrator that covers the case
    space = build_space(3)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_Z)
    rho0 = ghz_state(space, "z").projector()
    with pytest.raises(AssumptionViolated, match="full_gkls_reference"):
        evolve(rho0, FieldParams((0.01, 0.0, 0.01)), spec, 1.0)


@pytest.mark.parametrize("kind", [NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_split_evolution_matches_joint_integration(n, kind):
    space = build_space(n)
    spec = NoiseSpec(kind, 0.1, AXIS_DIAG)
    for probe in (ghz_state(space, "z"), simultaneous_probe(space)):
        rho0 = probe.projector()
        fast = evolve(rho0, FIELD_DIAG, spec, 2.0).rho.blocks.to_dense()
        slow = full_gkls_reference(rho0, FIELD_DIAG, spec, 2.0).blocks.to_dense()
        assert trace_distance(fast, slow) < 1e-8


def test_joint_integrator_limits():
    space = build_space(3)
    rho0 = ghz_state(space, "z").projector()
    spec_off = NoiseSpec(NoiseKind.NONE, 0.0, AXIS_DIAG)
    at_zero = full_gkls_reference(rho0, FIELD_DIAG, spec_off, 0.0)
    assert np.max(np.abs(at_zero.blocks.to_dense() - rho0.blocks.to_dense())) < 1e-12
    u = unitary(space, FIELD_DIAG, 3.0).to_dense()
    free = full_gkls_reference(rho0, FIELD_DIAG, spec_off, 3.0)
    assert np.max(np.abs(free.blocks.to_dense() - u @ rho0.blocks.to_dense() @ u.conj().T)) < 1e-10


def test_joint_integrator_dimension_guard():
    space = build_space(40)     # collective dimension 441 is past the cap
    amps = np.zeros(space.max_sector.dim, dtype=complex)
    amps[0] = 1.0
    rho0 = StateVector(space, amps).projector()
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    with pytest.raises(InvalidArgument):
        full_gkls_reference(rho0, FIELD_DIAG, spec, 1.0)


def test_coupled_multiplets_tile_product_space():
    for n in (2, 3, 4):
        multiplets = coupled_multiplets(n)
        space = build_space(n)
        assert sum((twoj + 1) * len(copies)
                   for twoj, copies in multiplets.items()) == 2 ** n
        for s in space.sectors:
            assert len(multiplets[s.twoj]) == s.multiplicity
        # rows across all copies form an orthonormal set
        stacked = np.vstack([rows for copies in multiplets.values()
                             for rows in copies])
        gram = stacked @ stacked.conj().T
        assert np.max(np.abs(gram - np.eye(2 ** n))) < 1e-12


def test_coupled_multiplets_carry_the_spin_matrices():
    # each copy's rows R, as kets R^dag e_m, span one spin-j multiplet: R J R^dag
    # is the standard spin-j block of J_x, J_y and J_z
    for n in range(1, 7):
        jops = {a: spinsense.dynamics._collective_full(n, a) for a in "xyz"}
        for twoj, copies in coupled_multiplets(n).items():
            expected = {a: collective_operator(build_space(twoj), a).blocks[0] if twoj
                        else np.zeros((1, 1)) for a in "xyz"}
            for rows in copies:
                for a, op in jops.items():
                    assert np.max(np.abs(rows @ op @ rows.conj().T - expected[a])) < 1e-12


def test_embedding_preserves_moments():
    n = 3
    space = build_space(n)
    multiplets = coupled_multiplets(n)
    rho = simultaneous_probe(space).projector()
    full = embed_collective(rho, multiplets)
    assert abs(np.trace(full).real - 1.0) < 1e-12
    sz = np.diag([0.5, -0.5])
    jz_full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for site in range(n):
        ops = [np.eye(2)] * n
        ops[site] = sz
        acc = ops[0]
        for o in ops[1:]:
            acc = np.kron(acc, o)
        jz_full += acc
    from spinsense import collective_operator
    jz = collective_operator(space, "z")
    assert abs(np.trace(jz_full @ full).real - jz.expectation(rho)) < 1e-12


def test_state_fidelity_pure_overlap():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    # zero eigenvalues of the inner product pick up sqrt(eps) noise under
    # the square root, so the pure-state identity holds to ~1e-8 only
    fid = state_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
    assert abs(fid - abs(np.vdot(a, b)) ** 2) < 1e-7
    assert abs(state_fidelity(np.outer(a, a.conj()), np.outer(a, a.conj())) - 1.0) < 1e-7


@pytest.mark.parametrize("kind", [NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN])
def test_product_space_oracle_agreement(kind):
    space = build_space(2)
    spec = NoiseSpec(kind, 0.1, AXIS_DIAG)
    cmp = full_hilbert_reference(2, ghz_state(space, "z"), FIELD_DIAG, spec, 2.0)
    assert np.max(np.abs(cmp.first_moments_full - cmp.first_moments_dicke)) < 1e-8
    assert np.max(np.abs(cmp.second_moments_full - cmp.second_moments_dicke)) < 1e-8
    assert cmp.fidelity > 1.0 - 1e-8


def test_product_space_oracle_noiseless_exact():
    space = build_space(3)
    spec = NoiseSpec(NoiseKind.NONE, 0.0, AXIS_DIAG)
    cmp = full_hilbert_reference(3, simultaneous_probe(space), FIELD_DIAG, spec, 2.0)
    assert np.max(np.abs(cmp.first_moments_full - cmp.first_moments_dicke)) < 1e-10
    assert cmp.fidelity > 1.0 - 1e-10


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", [NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN])
def test_product_space_channel_matches_direct_integration(direct_product_space, kind, n):
    # a field tilted off the noise axis: rotation and dephasing do not commute
    space = build_space(n)
    spec = NoiseSpec(kind, 0.1, AXIS_DIAG)
    field = FieldParams((0.2, -0.1, 0.3))
    probe = simultaneous_probe(space)
    cmp = full_hilbert_reference(n, probe, field, spec, 2.0)
    first, second = direct_product_space(n, probe, field, spec, 2.0)
    assert np.max(np.abs(cmp.first_moments_full - first)) < 1e-9
    assert np.max(np.abs(cmp.second_moments_full - second)) < 1e-9


def test_product_space_oracle_size_guard():
    space = build_space(9)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_DIAG)
    with pytest.raises(InvalidArgument):
        full_hilbert_reference(9, ghz_state(space, "z"), FIELD_DIAG, spec, 1.0)
