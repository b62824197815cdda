"""State space, collective operators, and probe states."""

import math

import numpy as np
import pytest

from spinsense import (BlockOperator, DensityOperator, FieldParams, InvalidArgument, NoiseSpec,
                       StateVector, build_space, coherent_state,
                       collective_operator, coupled_multiplets, cumulative_degeneracy, degeneracy,
                       dicke_dimension, embed_collective, evolve, full_hilbert_reference,
                       ghz_state, simultaneous_probe)
from spinsense.dicke import _ghz_spinors, _spinor_powers

SQ3 = math.sqrt(3.0)


def test_dimension_parity_cases():
    assert dicke_dimension(1) == 2
    assert dicke_dimension(3) == 6
    assert dicke_dimension(4) == 9
    assert dicke_dimension(20) == 121
    for n in range(1, 31):
        expect = (n + 1) * (n + 3) // 4 if n % 2 else (n + 2) ** 2 // 4
        assert dicke_dimension(n) == expect


def test_dimension_rejects_nonpositive():
    with pytest.raises(InvalidArgument):
        dicke_dimension(0)
    with pytest.raises(InvalidArgument):
        dicke_dimension(-2)


@pytest.mark.parametrize("call", [
    lambda: degeneracy(3.7, 0.5),
    lambda: cumulative_degeneracy(3.7, 0.5),
    lambda: full_hilbert_reference(2.9, ghz_state(build_space(2), "z"),
                                   FieldParams((0.01, 0.01, 0.01)),
                                   NoiseSpec("markovian", 0.1, (0, 0, 2)), 1.0),
    lambda: build_space(True),
    lambda: dicke_dimension(True),
], ids=["degeneracy-fraction", "cumulative-fraction", "oracle-fraction",
        "space-bool", "dimension-bool"])
def test_particle_count_is_an_integer(call):
    # N is refused, not truncated or read from a bool
    with pytest.raises(InvalidArgument, match="n_particles must be an integer >= 1"):
        call()


def test_degeneracy_values():
    assert degeneracy(2, 0.0) == 1
    assert degeneracy(4, 1.0) == 3
    for n in (1, 2, 5, 12, 30):
        assert degeneracy(n, n / 2.0) == 1


def test_degeneracy_matches_factorial_formula():
    # the closed form N! (2j + 1) / ((N/2 - j)! (N/2 + j + 1)!), exact in integers
    for n in range(1, 101):
        for twoj in range(n, -1, -2):
            k = (n - twoj) // 2
            expected, remainder = divmod(math.factorial(n) * (twoj + 1),
                                         math.factorial(k) * math.factorial(n - k + 1))
            assert remainder == 0
            got = degeneracy(n, twoj / 2.0)
            assert type(got) is int and got == expected


def test_degeneracy_rejects_bad_spin():
    with pytest.raises(InvalidArgument):
        degeneracy(4, 0.5)        # wrong parity
    with pytest.raises(InvalidArgument):
        degeneracy(4, 3.0)        # above N/2
    with pytest.raises(InvalidArgument):
        degeneracy(3, -0.5)


def test_multiplicity_sum_recovers_product_dimension():
    # sum over sectors of multiplicity * (2j+1) must tile the 2^N space
    for n in range(1, 31):
        space = build_space(n)
        total = sum(s.multiplicity * s.dim for s in space.sectors)
        assert total == 2 ** n


def test_cumulative_degeneracy_matches_running_sum():
    # counts multiplets with spin >= j, so accumulate from the top sector down
    n = 8
    space = build_space(n)
    running = 0
    for s in space.sectors:
        running += s.multiplicity
        assert cumulative_degeneracy(n, s.j) == running


def test_space_layout():
    space = build_space(3)
    assert space.total_dim == 6
    assert [(s.j, s.dim, s.multiplicity) for s in space.sectors] == [
        (1.5, 4, 1), (0.5, 2, 2)]
    space2 = build_space(2)
    assert [(s.j, s.dim, s.multiplicity) for s in space2.sectors] == [
        (1.0, 3, 1), (0.0, 1, 1)]
    # offsets are the cumulative dims, m runs from +j down to -j
    off = 0
    for s in space.sectors:
        assert s.offset == off
        off += s.dim
        assert np.allclose(s.m_values(), np.arange(s.j, -s.j - 1.0, -1.0))


def test_collective_x_matrix_three_spins():
    # j=3/2 block has the sqrt(3)/2, 1, sqrt(3)/2 ladder profile, the j=1/2
    # block is the Pauli x/2; everything off the blocks vanishes
    jx = collective_operator(build_space(3), "x").to_dense()
    expect = np.zeros((6, 6))
    band = [SQ3 / 2.0, 1.0, SQ3 / 2.0]
    for i, v in enumerate(band):
        expect[i, i + 1] = expect[i + 1, i] = v
    expect[4, 5] = expect[5, 4] = 0.5
    assert np.max(np.abs(jx - expect)) < 1e-12


def test_collective_z_single_spin():
    jz = collective_operator(build_space(1), "z").to_dense()
    assert np.max(np.abs(jz - np.diag([0.5, -0.5]))) == 0.0


def test_ladder_entries():
    space = build_space(4)
    jp = collective_operator(space, "plus").to_dense()
    for s in space.sectors:
        j = s.j
        for k, m in enumerate(s.m_values()[1:]):   # raising hits m+1
            expect = math.sqrt((j - m) * (j + m + 1.0))
            got = jp[s.offset + k, s.offset + k + 1]
            assert abs(got - expect) < 1e-12
    jm = collective_operator(space, "minus").to_dense()
    assert np.max(np.abs(jm - jp.conj().T)) == 0.0
    jx = collective_operator(space, "x").to_dense()
    assert np.max(np.abs(jx - (jp + jm) / 2.0)) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_commutators_and_casimir(n):
    space = build_space(n)
    ops = {k: collective_operator(space, k).to_dense() for k in "xyz"}
    for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        comm = ops[a] @ ops[b] - ops[b] @ ops[a]
        assert np.max(np.abs(comm - 1j * ops[c])) < 1e-12
    casimir = sum(m @ m for m in ops.values())
    expect = np.concatenate([np.full(s.dim, s.j * (s.j + 1.0)) for s in space.sectors])
    assert np.max(np.abs(casimir - np.diag(expect))) < 1e-12


def test_block_operator_algebra_matches_dense():
    space = build_space(4)
    jx = collective_operator(space, "x")
    jy = collective_operator(space, "y")
    dx, dy = jx.to_dense(), jy.to_dense()
    assert np.allclose((jx @ jy).to_dense(), dx @ dy)
    assert np.allclose((jx + jy).to_dense(), dx + dy)
    assert np.allclose((jx - jy).to_dense(), dx - dy)
    assert np.allclose((2.5 * jx).to_dense(), 2.5 * dx)
    assert np.allclose(jx.dagger().to_dense(), dx.conj().T)
    rng = np.random.default_rng(11)
    m = BlockOperator(space, tuple(rng.standard_normal((s.dim, s.dim))
                                   + 1j * rng.standard_normal((s.dim, s.dim))
                                   for s in space.sectors))
    w = m @ m.dagger()
    rho = DensityOperator(space, w * (1.0 / sum(np.trace(b).real for b in w.blocks)))
    assert abs(jx.expectation(rho) - np.trace(dx @ rho.blocks.to_dense())) < 1e-12
    assert jx.expectation(rho.blocks) == jx.expectation(rho)


def test_coherent_state_poles():
    space = build_space(5)
    north = coherent_state(space, 0.0, 0.0).amplitudes
    assert abs(north[0] - 1.0) < 1e-14 and np.max(np.abs(north[1:])) < 1e-14
    south = coherent_state(space, math.pi, 0.3).amplitudes
    assert abs(abs(south[-1]) - 1.0) < 1e-14


def test_coherent_state_equator_amplitudes():
    amps = coherent_state(build_space(2), math.pi / 2.0, 0.0).amplitudes
    expect = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5])
    assert np.max(np.abs(amps - expect)) < 1e-14


def test_coherent_state_norm_on_grid():
    space = build_space(7)
    for theta in np.linspace(0.0, math.pi, 20):
        for phi in np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False):
            amps = coherent_state(space, theta, phi).amplitudes
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_spinor_power_binomials_are_exact():
    # the binomial row comes from one exact integer recurrence: on (1, 1)
    # the powers are sqrt(C(n, k)) of math.comb, bit for bit
    for n in [*range(65), 400]:
        got = _spinor_powers(n, np.array([[1.0, 1.0]]))
        assert np.array_equal(got[0], np.sqrt([float(math.comb(n, k)) for k in range(n + 1)])), n


def test_ghz_even_and_odd_signs():
    space = build_space(2)
    amps = ghz_state(space, "z").amplitudes
    expect = np.zeros(3)
    expect[0] = expect[2] = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(amps - expect)) < 1e-14
    # odd N: the antipodal coherent state carries a (-1)^(2j) phase
    space3 = build_space(3)
    amps3 = ghz_state(space3, "z").amplitudes
    expect3 = np.zeros(4)
    expect3[0] = 1.0 / math.sqrt(2.0)
    expect3[3] = -1.0 / math.sqrt(2.0)
    assert np.max(np.abs(amps3 - expect3)) < 1e-14


def test_ghz_x_equals_ghz_z_for_two_spins():
    space = build_space(2)
    a = ghz_state(space, "x").amplitudes
    b = ghz_state(space, "z").amplitudes
    phase = np.vdot(b, a)
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.max(np.abs(a - phase * b)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_ghz_supported_on_top_sector(n):
    space = build_space(n)
    for axis in "xyz":
        sv = ghz_state(space, axis)
        assert sv.amplitudes.shape == (n + 1,)
        assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-12
        # the projector is the amplitudes' outer product, zero in every other sector
        rho = sv.projector()
        assert np.array_equal(rho.blocks.blocks[0], np.outer(sv.amplitudes, sv.amplitudes.conj()))
        assert all(not b.any() for b in rho.blocks.blocks[1:])


def test_simultaneous_probe_two_spins():
    amps = simultaneous_probe(build_space(2)).amplitudes
    expect = np.array([3.0, 0.0, 1.0]) / math.sqrt(10.0)
    assert np.max(np.abs(amps - expect)) < 1e-12


def test_probe_construction_is_deterministic():
    for n in (2, 7, 12):
        space = build_space(n)
        a = simultaneous_probe(space).amplitudes
        b = simultaneous_probe(build_space(n)).amplitudes
        assert a.tobytes() == b.tobytes()
        for axis in "xyz":
            ga = ghz_state(space, axis).amplitudes
            gb = ghz_state(space, axis).amplitudes
            assert ga.tobytes() == gb.tobytes()


def test_state_vector_rejects_bad_norm_and_shape():
    space = build_space(2)
    with pytest.raises(InvalidArgument):
        StateVector(space, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(InvalidArgument):
        StateVector(space, np.zeros(3))
    # the stacked (j, m) vector of all d = 4 entries is not a StateVector
    with pytest.raises(InvalidArgument):
        StateVector(space, np.array([1.0, 0.0, 0.0, 0.0]))


def test_probe_norms_before_normalisation_stay_above_one():
    # the branches that _power_state sums never come near cancelling: one
    # coherent branch has norm 1, the two antipodal GHZ branches sqrt(2), and
    # the six branches of the joint probe norm^2 >= 6 - 24 2^(-N/2), its 24
    # cross terms those of perpendicular branches, of modulus 2^(-N/2)
    theta, phi = 1.1, 0.4
    coherent = [[math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(-1j * phi)]]
    ghz = [_ghz_spinors(a) for a in "xyz"]
    lowest = math.inf
    for n in range(1, 601):
        norms = [np.linalg.norm(_spinor_powers(n, spinors).sum(axis=0))
                 for spinors in [coherent, *ghz, np.concatenate(ghz)]]
        assert abs(norms[0] - 1.0) < 1e-12
        assert all(abs(g - math.sqrt(2.0)) < 1e-12 for g in norms[1:4])
        lowest = min(lowest, norms[4])
    assert lowest >= 1.0
    assert abs(lowest - math.sqrt(6.0)) < 1e-12


def test_states_hold_read_only_copies():
    # a validated state does not change when the caller's array does, and its
    # own arrays refuse writes; a BlockOperator holds its blocks as given
    space = build_space(2)
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    sv = StateVector(space, psi)
    psi[0] = np.nan
    assert sv.amplitudes.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        sv.amplitudes[0] = 0.5
    blocks = (np.diag([1.0, 0.0, 0.0]).astype(complex), np.zeros((1, 1)))
    op = BlockOperator(space, blocks)
    rho = DensityOperator(space, op)
    blocks[0][0, 0] = 5.0
    assert op.blocks[0][0, 0] == 5.0
    assert rho.sector_weights().tolist() == [1.0, 0.0]
    assert rho.purity() == 1.0
    for block in rho.blocks.blocks:
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.5
    assert np.array_equal(sv.projector().blocks.to_dense(), rho.blocks.to_dense())


def _diagonal(space, *diagonals):
    """BlockOperator with the given diagonal per sector."""
    return BlockOperator(space, tuple(np.diag(np.asarray(d, dtype=complex)) for d in diagonals))


def test_density_operator_validation():
    space = build_space(2)
    good = _diagonal(space, [0.5, 0.25, 0.25], [0.0])
    rho = DensityOperator(space, good)
    assert abs(rho.purity() - (0.25 + 0.0625 + 0.0625)) < 1e-12
    weights = rho.sector_weights()
    assert np.allclose(weights, [1.0, 0.0])
    assert DensityOperator(space, rho).blocks is rho.blocks
    bad_trace = good * 1.5
    with pytest.raises(InvalidArgument):
        DensityOperator(space, bad_trace)
    skew = BlockOperator(space, (good.blocks[0].copy(), good.blocks[1]))
    skew.blocks[0][0, 1] = 0.1
    with pytest.raises(InvalidArgument):
        DensityOperator(space, skew)
    with pytest.raises(InvalidArgument):
        DensityOperator(space, _diagonal(space, [1.2, -0.2, 0.0], [0.0]))
    # the d x d matrix of a valid state is no longer an input
    with pytest.raises(InvalidArgument, match="BlockOperator or DensityOperator"):
        DensityOperator(space, good.to_dense())


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("kind", ["markovian", "nonmarkovian"])
def test_purity_is_the_product_space_purity(n, kind):
    # each sector block is shared over its d_N^j copies, so tr(rho^2) of the
    # N-spin state divides each block's tr(rho_s^2) by d_N^j
    space = build_space(n)
    res = evolve(ghz_state(space, "x").projector(), FieldParams((0.0, 0.0, 0.01)),
                 NoiseSpec(kind, 0.05, (0.0, 0.0, 2.0)), 3.0)
    for rho in (res.rho_dephased, res.rho, simultaneous_probe(space).projector()):
        lifted = embed_collective(rho, coupled_multiplets(n))
        assert abs(rho.purity() - np.trace(lifted @ lifted).real) < 1e-12
    assert res.rho.purity() < 0.9
