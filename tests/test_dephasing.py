"""Noise profiles and the rate-free dephasing generator."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg

from spinsense import (BlockOperator, DensityOperator, InvalidArgument, NoiseKind, NoiseSpec,
                       StateVector, build_space,
                       build_dephasing_superoperator, build_transfer_kernels,
                       collective_operator,
                       coupled_multiplets, degeneracy, embed_collective,
                       gamma_profile, ghz_state, hamiltonian, integrated_strength,
                       simultaneous_probe, FieldParams)
from spinsense.dephasing import _lambda_weights, axis_frame
from spinsense.dynamics import _PAULI, _site_operator

AXIS_Z = (0.0, 0.0, 2.0)
AXIS_DIAG = (2.0 / math.sqrt(3.0),) * 3
AXIS_TILT = tuple(2.0 * c / math.sqrt(0.6 ** 2 + 1.2 ** 2 + 1.5 ** 2)
                  for c in (0.6, -1.2, 1.5))


def random_blocks(rng, space):
    return BlockOperator(space, tuple(
        rng.standard_normal((s.dim, s.dim)) + 1j * rng.standard_normal((s.dim, s.dim))
        for s in space.sectors))


def random_hermitian(rng, space):
    x = random_blocks(rng, space)
    return x + x.dagger()


def largest(op):
    """The largest |entry| of a BlockOperator."""
    return np.max(np.abs(op.ravel()))


def test_gamma_profile_examples():
    mark = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_Z)
    nonmark = NoiseSpec(NoiseKind.NONMARKOVIAN, 0.05, AXIS_Z)
    assert gamma_profile(mark, 10.0) == 0.05
    assert abs(gamma_profile(nonmark, 10.0) - 0.025) < 1e-15
    off = NoiseSpec(NoiseKind.MARKOVIAN, 0.0, AXIS_Z)
    assert gamma_profile(off, 3.0) == 0.0


def test_integrated_strength_examples():
    mark = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_Z)
    nonmark = NoiseSpec(NoiseKind.NONMARKOVIAN, 0.05, AXIS_Z)
    assert abs(integrated_strength(mark, 10.0) - 0.5) < 1e-15
    assert abs(integrated_strength(nonmark, 10.0) - 0.125) < 1e-15
    assert integrated_strength(mark, 0.0) == 0.0


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_integrated_strength_takes_an_array_of_times(kind):
    # one validated expression for a whole array; a scalar still gives the
    # scalar formula's float bit for bit, and the array agrees with it to
    # the rounding of t^2
    spec = NoiseSpec(kind, 0.05, AXIS_Z)
    times = np.geomspace(1e-3, 100.0, 57)
    got = integrated_strength(spec, times)
    assert isinstance(got, np.ndarray) and got.shape == times.shape
    one = [integrated_strength(spec, float(t)) for t in times]
    assert all(type(x) is float for x in one)
    formula = {NoiseKind.MARKOVIAN: lambda t: 0.05 * t,
               NoiseKind.NONMARKOVIAN: lambda t: 0.05 ** 2 * t ** 2 / 2.0,
               NoiseKind.NONE: lambda t: 0.0}[kind]
    assert one == [formula(float(t)) for t in times]
    assert np.allclose(got, one, rtol=4.0 * np.finfo(float).eps, atol=0.0)
    assert integrated_strength(spec, times.reshape(3, 19)).shape == (3, 19)


@pytest.mark.parametrize("gamma", [0.05, 0.7])
@pytest.mark.parametrize("kind", list(NoiseKind))
def test_rate_is_the_derivative_of_the_strength(kind, gamma):
    # each row of the kind table pairs gamma_t with its own integral Theta(t),
    # as the sweep reads Theta and the joint integrators gamma_t: Theta(0) = 0,
    # and central differences of Theta with step h = 1e-4 t match gamma_t to
    # 1e-9 relative (Theta's rounding over h is about 1e-12 relative here; a
    # smooth profile's h^2 term is 2e-9 t^2 |d^3 Theta / dt^3| / gamma_t)
    spec = NoiseSpec(kind, gamma, AXIS_Z)
    assert integrated_strength(spec, 0.0) == 0.0
    for t in (0.3, 1.0, 4.0, 17.0, 60.0):
        h = 1e-4 * t
        slope = (integrated_strength(spec, t + h) - integrated_strength(spec, t - h)) / (2.0 * h)
        assert slope == pytest.approx(gamma_profile(spec, t), rel=1e-9, abs=1e-15), t


def test_negative_time_rejected():
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_Z)
    with pytest.raises(InvalidArgument):
        gamma_profile(spec, -1.0)
    with pytest.raises(InvalidArgument):
        integrated_strength(spec, -0.5)


def test_spec_validation_and_normalization():
    with pytest.raises(InvalidArgument):
        NoiseSpec(NoiseKind.MARKOVIAN, -0.1, AXIS_Z)
    with pytest.raises(InvalidArgument):
        NoiseSpec(NoiseKind.MARKOVIAN, 0.1, (0.0, 0.0, 0.0))
    with pytest.raises(InvalidArgument):
        NoiseSpec(NoiseKind.MARKOVIAN, math.nan, AXIS_Z)
    with pytest.raises(InvalidArgument):
        NoiseSpec("foo", 0.1, AXIS_Z)
    # the none profile zeroes the rate regardless of the input
    off = NoiseSpec(NoiseKind.NONE, 0.3, AXIS_Z)
    assert off.gamma == 0.0
    with pytest.warns(UserWarning):
        spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.1, (1.0, 1.0, 1.0))
    assert abs(np.linalg.norm(spec.axis) - 2.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_trace_and_hermiticity_preserved(n):
    space = build_space(n)
    lsup = build_dephasing_superoperator(
        space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_DIAG))
    rng = np.random.default_rng(100 + n)
    for _ in range(50):
        x = random_hermitian(rng, space)
        lx = lsup.apply(x)
        scale = max(largest(x), 1.0)
        assert abs(sum(np.trace(b) for b in lx.blocks)) < 1e-10 * scale
        assert largest(lx - lx.dagger()) < 1e-10 * scale
    # adjoint input covariance: L[X^dag] = L[X]^dag
    x = random_blocks(rng, space)
    assert largest(lsup.apply(x.dagger()) - lsup.apply(x).dagger()) < 1e-10


def test_band_structure_and_sparsity():
    # each noise-frame chain holds one (m, m') and couples only neighbouring
    # j; together the chains cover every entry of the raveled sector blocks
    # once, and no chain rate is positive. Off-diagonal entries are
    # nonnegative and column sums nonpositive, which keeps every exp(h G) a
    # nonnegative contraction
    for n in (3, 4, 6):
        space = build_space(n)
        lsup = build_dephasing_superoperator(
            space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_DIAG))
        entries = [(s.twoj, s.twoj - 2 * r, s.twoj - 2 * c) for s in space.sectors
                   for r in range(s.dim) for c in range(s.dim)]
        covered = []
        for batch in lsup.chains:
            length = batch.indices.shape[1]
            steps = np.arange(length)
            far = np.abs(steps[:, None] - steps[None, :]) > 1
            assert np.all(batch.generator[:, far] == 0.0)
            assert np.linalg.eigvals(batch.generator).real.max() <= 1e-12
            off = batch.generator[:, ~np.eye(length, dtype=bool)]
            assert np.all(off >= 0.0)
            assert batch.generator.sum(axis=1).max() <= 1e-12
            for chain in batch.indices:
                twoj, twom, twomb = zip(*(entries[i] for i in chain))
                assert list(twoj) == list(range(n, n - 2 * length, -2))
                assert len(set(twom)) == 1 and len(set(twomb)) == 1
            covered.extend(batch.indices.ravel().tolist())
        assert sorted(covered) == list(range(len(entries)))
        assert lsup.nnz <= 3 * len(entries)


def _own_generator(space, twom, twomb, length):
    # L_z on the chain of one (m, m'), built on its own in the order of the
    # batched formulas
    n = space.n_particles
    lam_stay, lam_drop, lam_lift = np.array(
        [_lambda_weights(n, s.twoj / 2.0) for s in space.sectors[:length]]).T
    j = np.array([s.twoj / 2.0 for s in space.sectors[:length]])
    m, mb = twom / 2.0, twomb / 2.0
    diag = 8.0 * lam_stay * m * mb - 2.0 * n
    drop = 8.0 * lam_drop * np.sqrt((j + m) * (j - m) * (j + mb) * (j - mb))
    lift = 8.0 * lam_lift * np.sqrt(
        (j + m + 1.0) * (j - m + 1.0) * (j + mb + 1.0) * (j - mb + 1.0))
    return np.diag(diag) + np.diag(drop[:-1], -1) + np.diag(lift[1:], 1)


@pytest.mark.parametrize("n, orbits, nnz", [(4, 9, 53), (7, 20, 230), (24, 169, 7523)])
def test_chains_share_one_generator_per_orbit(n, orbits, nnz):
    # (m, m'), (m', m), (-m, -m') and (-m', -m) share one generator: the
    # batches hold one per orbit (Burnside: ((N+1)^2 + 2(N+1) + [N even]) / 4
    # orbits), and each chain's own generator matches its representative's
    # up to the rounding of the multiplication order. nnz still counts the
    # couplings of every chain
    space = build_space(n)
    lsup = build_dephasing_superoperator(
        space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_DIAG))
    assert sum(len(b.indices) for b in lsup.chains) == (n + 1) ** 2
    assert sum(len(b.generator) for b in lsup.chains) == orbits
    assert lsup.nnz == nnz
    for batch in lsup.chains:
        assert batch.orbit.shape == (len(batch.indices),)
        assert set(batch.orbit.tolist()) == set(range(len(batch.generator)))
        length = batch.indices.shape[1]
        # every chain starts in the maximal sector, the first block
        a, b = np.divmod(batch.indices[:, 0], n + 1)
        for c, rep in enumerate(batch.orbit):
            own = _own_generator(space, n - 2 * a[c], n - 2 * b[c], length)
            error = np.max(np.abs(batch.generator[rep] - own))
            assert error <= 1e-15 * np.max(np.abs(own))


def _reference_chain_batch(space, length, lam):
    # the pair list and orbit keys as Python loops over all (N+1)^2 pairs
    n = space.n_particles
    top = n - 2 * (length - 1)
    pairs = np.array([(a, b) for a in range(n, -n - 2, -2) for b in range(n, -n - 2, -2)
                      if max(abs(a), abs(b)) == top])
    twom, twomb = pairs[:, :1], pairs[:, 1:]
    reps, orbit = np.unique([max((a, b), (b, a), (-a, -b), (-b, -a)) for a, b in pairs],
                            axis=0, return_inverse=True)
    sectors = space.sectors[:length]
    twoj = np.array([s.twoj for s in sectors])
    # the start of each sector block in the raveled blocks
    first = np.array([sum(s.dim ** 2 for s in sectors[:k]) for k in range(length)])
    rows = (twoj - twom) // 2
    cols = (twoj - twomb) // 2
    j, m, mb = twoj / 2.0, reps[:, :1] / 2.0, reps[:, 1:] / 2.0
    lam_stay, lam_drop, lam_lift = lam[:length].T
    diag = 8.0 * lam_stay * m * mb - 2.0 * n
    drop = (8.0 * lam_drop * np.sqrt((j + m) * (j - m) * (j + mb) * (j - mb)))[:, :-1]
    lift = (8.0 * lam_lift * np.sqrt(
        (j + m + 1.0) * (j - m + 1.0) * (j + mb + 1.0) * (j - mb + 1.0)))[:, 1:]
    idx = np.arange(length)
    generator = np.zeros((len(reps), length, length))
    generator[:, idx, idx] = diag
    generator[:, idx[1:], idx[:-1]] = drop
    generator[:, idx[:-1], idx[1:]] = lift
    return first + rows * (twoj + 1) + cols, generator, orbit


@pytest.mark.parametrize("n", range(1, 31))
def test_chain_batches_match_the_pairwise_loop(n):
    # the border pairs and integer orbit keys give the loop's chains exactly
    space = build_space(n)
    lsup = build_dephasing_superoperator(
        space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_DIAG))
    lam = np.array([_lambda_weights(n, s.twoj / 2.0) for s in space.sectors])
    for length, batch in enumerate(lsup.chains, 1):
        expected = _reference_chain_batch(space, length, lam)
        for got, want in zip((batch.indices, batch.generator, batch.orbit), expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def _sector_kernels(space, thetas):
    # the default build holds one stack per sector, on its whole window
    return [block[:, 0] for block in build_transfer_kernels(space).values(thetas)]


@pytest.mark.parametrize("n", [5, 24])
def test_transfer_kernels_carry_the_orbit_symmetry_exactly(n):
    # K_s(m, m') = K_s(m', m) = K_s(-m, -m'), bit for bit
    for kernel in _sector_kernels(build_space(n), [0.0, 0.013, 0.4, 3.0, 25.0]):
        assert np.array_equal(kernel, kernel.transpose(0, 2, 1))
        assert np.array_equal(kernel, kernel[:, ::-1, ::-1])


def _reference_transfer_tables(space):
    """The transfer tables built one sector at a time: entries from
    triu_indices, the fold from an index table."""
    n = space.n_particles
    binom = np.array([[float(math.comb(a, b)) for b in range(n + 1)] for a in range(n + 1)])
    tables = []
    for s, sector in enumerate(space.sectors):
        w = sector.dim - 1
        i, k = np.triu_indices(w + 1)
        keep = i + k <= w
        i, k = i[keep], k[keep]
        u = np.arange(w // 2 + 1)[:, None]
        counts = binom[i, u] * binom[w - i, k - i + np.minimum(u, i)]
        divisor = binom[w, k] / (degeneracy(n, sector.twoj / 2) * np.sqrt(
            binom[w, i] / binom[n, s + i] * binom[w, k] / binom[n, s + k]))
        index = np.zeros((w + 1, w + 1), dtype=int)
        index[i, k] = np.arange(i.size)
        r = np.arange(w + 1)
        lo, hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
        fold = np.where(lo + hi <= w, index[lo, hi], index[w - hi, w - lo])
        tables.append((counts, divisor, k - i, fold))
    return tables


@pytest.mark.parametrize("n", list(range(1, 31)) + [48, 64])
def test_transfer_tables_match_the_sector_loop(n):
    # the one padded table built over every sector at once is the loop's bit
    # for bit: each sector's columns, trimmed to its degree, are its counts,
    # the padding below them is exact zeros, and the divisors, gaps and
    # sectors follow the flat entries sector by sector
    space = build_space(n)
    transfer = build_transfer_kernels(space)
    want = _reference_transfer_tables(space)
    assert transfer.counts.shape == (n // 2 + 1, transfer.gap.size)
    assert transfer.counts.dtype == transfer.divisor.dtype == float
    first = 0
    for s, (counts, divisor, gap, _) in enumerate(want):
        cols = slice(first, first + divisor.size)
        degree = counts.shape[0]
        assert np.array_equal(transfer.counts[:degree, cols], counts)
        assert np.all(transfer.counts[degree:, cols] == 0.0)
        assert np.array_equal(transfer.divisor[cols], divisor)
        assert np.array_equal(transfer.gap[cols], gap)
        assert np.all(transfer.sector[cols] == s)
        first += divisor.size
    assert first == transfer.gap.size


@pytest.mark.parametrize("n", [7, 24])
def test_kernel_blocks_on_any_windows(n):
    # the default build reads each sector's block through the loop's index
    # tables; kernels built on other stacks (three sectors' windows at
    # scattered indices, every sector's first index as 8-bit integers, one
    # entry of the last sector) keep each entry they read once and give the
    # default build's blocks bit for bit, for one time and for several
    space = build_space(n)
    transfer = build_transfer_kernels(space)
    tables = _reference_transfer_tables(space)
    offsets = np.cumsum([0] + [t[1].size for t in tables])
    assert transfer.divisor.size == offsets[-1] and len(transfer.places) == len(tables)
    for first, place, (*_, fold) in zip(offsets, transfer.places, tables):
        assert np.array_equal(place, first + fold[None])
    last = n // 2
    windows = [([0, 1, 2], [[0, 2, 4], [5, 3, 1], [0, 1, 2]]),
               (np.arange(last + 1, dtype=np.uint8), np.zeros((last + 1, 1), dtype=np.int8)),
               ([last], [[n % 2]])]
    subset = build_transfer_kernels(space, windows)
    read = np.concatenate([transfer.places[s][0][np.ix_(i, i)].ravel()
                           for sectors, indices in windows for s, i in zip(sectors, indices)])
    assert subset.divisor.size == np.unique(read).size
    thetas = [0.0, 0.01, 0.3, 2.0]
    for times in (thetas, thetas[2:3]):
        every = [block[:, 0] for block in transfer.values(times)]
        blocks = list(subset.values(times))
        assert len(blocks) == len(windows)
        for (sectors, indices), got in zip(windows, blocks):
            assert np.array_equal(got, np.stack([every[s][:, i][:, :, i]
                                                 for s, i in zip(sectors, indices)], axis=1))


def test_transfer_kernel_build_holds_little_beside_its_table():
    # the counts table is filled one power of q at a time: no temporary of
    # the table's size, so the build's peak stays within twice its bytes
    space = build_space(48)
    build_transfer_kernels(space)  # warm up
    tracemalloc.start()
    try:
        transfer = build_transfer_kernels(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * transfer.counts.nbytes


def _squaring_kernels(lsup, thetas):
    # the kernels assembled from the chain exponentials: every chain starts
    # in the maximal sector, at (a, b) there, and the first column of its
    # exponential carries that element to (a - k, b - k) in sector k
    count = len(thetas)
    kernels = [np.zeros((count, s.dim, s.dim)) for s in lsup.space.sectors]
    for batch in lsup.chains:
        a, b = np.divmod(batch.indices[:, 0], lsup.space.max_sector.dim)
        columns = np.array([batch.exponential(t) for t in thetas])[..., 0][:, batch.orbit]
        for k in range(columns.shape[-1]):
            kernels[k][:, a - k, b - k] = columns[..., k]
    return kernels


KERNEL_THETAS = [0.0, 1e-6, 0.01, 0.3, 2.0, 12.5]


@pytest.mark.parametrize("n", list(range(1, 31)) + [48, 96])
def test_transfer_kernels_match_the_squaring_oracle(n):
    # the closed form against the chain exponentials by scaling and squaring,
    # whose own rounding (up to ~4e-12 at N = 96) sets the bound
    space = build_space(n)
    lsup = build_dephasing_superoperator(
        space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_Z))
    kernels = _sector_kernels(space, KERNEL_THETAS)
    for got, want in zip(kernels, _squaring_kernels(lsup, KERNEL_THETAS)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-11


def test_transfer_kernels_match_extended_precision():
    # every entry of the fundamental domain i <= i', i + i' <= N - 2s (the
    # rest follow by the exact symmetry) against the closed form summed in
    # 50-digit decimal arithmetic
    with localcontext() as ctx:
        ctx.prec = 50
        for n in (1, 2, 5, 12, 17, 24):
            kernels = _sector_kernels(build_space(n), KERNEL_THETAS)
            for t, theta in enumerate(KERNEL_THETAS):
                q = (Decimal(-8) * Decimal(theta)).exp()
                for s, kernel in enumerate(kernels):
                    w = n - 2 * s
                    factor = degeneracy(n, w / 2) * (1 - q) ** s if s else Decimal(1)
                    for i in range(w // 2 + 1):
                        for k in range(i, w - i + 1):
                            terms = sum(math.comb(i, u) * math.comb(w - i, k - i + u) * q ** u
                                        for u in range(i + 1))
                            want = factor * terms / math.comb(w, k) * (
                                Decimal(math.comb(w, i) * math.comb(w, k))
                                / (math.comb(n, s + i) * math.comb(n, s + k))).sqrt() \
                                * (Decimal(-4) * Decimal(theta) * (k - i)).exp()
                            assert abs(Decimal(kernel[t, i, k]) - want) < Decimal("2e-15")


@pytest.mark.parametrize("n", [1, 4, 7, 10])
def test_maximal_sector_kernel_is_hamming_decay(n):
    # z dephasing multiplies |x><y| of the product basis by
    # exp(-4 Theta hamming(x, y)), so between the Dicke states of a and b
    # flipped spins K_0(a, b) is that factor averaged over all weight-a
    # strings x and weight-b strings y
    strings = np.arange(2 ** n)
    bits = (strings[:, None] >> np.arange(n)) & 1
    hamming = (bits[:, None, :] != bits[None, :, :]).sum(axis=-1)
    layers = (bits.sum(axis=1)[:, None] == np.arange(n + 1)).astype(float)
    layers /= layers.sum(axis=0)
    thetas = [0.0, 0.01, 0.3, 2.0]
    kernels = _sector_kernels(build_space(n), thetas)[0]
    for theta, kernel in zip(thetas, kernels):
        expected = layers.T @ np.exp(-4.0 * theta * hamming) @ layers
        assert np.max(np.abs(kernel - expected)) < 1e-13


def _chain_rates(lsup):
    # each orbit representative stands for every chain of its orbit
    return np.concatenate([np.linalg.eigvals(b.generator[b.orbit]).ravel()
                           for b in lsup.chains])


def _block_generator(lsup):
    # L as a matrix on the raveled sector blocks, one unit input per column
    units = np.eye(sum(s.dim ** 2 for s in lsup.space.sectors))
    return np.column_stack(
        [lsup.apply(BlockOperator.unravel(lsup.space, e)).ravel() for e in units])


def test_axis_isotropy_of_spectrum():
    # the generator is built from identical per-site channels, so rotating
    # the axis is a similarity transform and cannot move the spectrum; it is
    # the chain spectrum
    for n in (3, 4):
        space = build_space(n)
        spectra = []
        for axis in (AXIS_Z, AXIS_DIAG):
            lsup = build_dephasing_superoperator(
                space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, axis))
            spectra.append(np.sort_complex(np.linalg.eigvals(_block_generator(lsup))))
        chains = np.sort_complex(_chain_rates(lsup))
        assert np.max(np.abs(spectra[0] - spectra[1])) < 1e-8
        assert np.max(np.abs(spectra[1] - chains)) < 1e-8


def test_propagate_matches_generator_exponential():
    # the chain spectra give exp(Theta L) for any block input
    for n, axis in ((3, AXIS_DIAG), (4, AXIS_TILT)):
        space = build_space(n)
        lsup = build_dephasing_superoperator(
            space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, axis))
        rng = np.random.default_rng(40 + n)
        x = random_blocks(rng, space)
        for theta in (0.05, 0.7, 6.0):
            expected = scipy.linalg.expm(theta * _block_generator(lsup)) @ x.ravel()
            got = lsup.propagate(x, theta).ravel()
            assert np.max(np.abs(got - expected)) < 1e-10


def test_axis_frame_vector_rule():
    # U^dag J_a U = sum_b R[a, b] J_b sector by sector, and R is the proper
    # rotation that carries z onto the axis
    for axis in (AXIS_Z, (0.0, 0.0, -2.0), (2.0, 0.0, 0.0), AXIS_DIAG, AXIS_TILT):
        n_hat = np.array(axis) / np.linalg.norm(axis)
        for n in range(1, 6):
            space = build_space(n)
            u, r = axis_frame(space, axis)
            assert np.max(np.abs(r[:, 2] - n_hat)) < 1e-12
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12
            ops = [collective_operator(space, a).blocks for a in "xyz"]
            for s, us in enumerate(u.blocks):
                for a in range(3):
                    expected = sum(r[a, b] * ops[b][s] for b in range(3))
                    assert np.max(np.abs(us.conj().T @ ops[a][s] @ us - expected)) < 1e-12


def test_transfer_kernels_match_propagate():
    # a state on the maximal sector, dephased at a vector of Theta as kernel
    # times window, sector block by sector block, against propagate
    for n, axis in ((4, AXIS_DIAG), (7, AXIS_TILT), (6, AXIS_Z)):
        space = build_space(n)
        lsup = build_dephasing_superoperator(
            space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, axis))
        rng = np.random.default_rng(80 + n)
        top = space.max_sector.dim
        psi = rng.standard_normal(top) + 1j * rng.standard_normal(top)
        psi /= np.linalg.norm(psi)
        rotation = lsup.rotation.blocks
        phi = rotation[0].conj().T @ psi
        x = np.outer(phi, phi.conj())
        thetas = [0.0, 0.05, 0.7, 6.0]
        kernels = _sector_kernels(space, thetas)
        assert len(kernels) == len(space.sectors)
        for i, theta in enumerate(thetas):
            lab = lsup.propagate(StateVector(space, psi).projector(), theta)
            for k, (u, block, kernel) in enumerate(zip(rotation, lab.blocks, kernels)):
                w = slice(k, top - k)
                expected = u.conj().T @ block @ u
                assert np.max(np.abs(kernel[i] * x[w, w] - expected)) < 1e-12
    # along the noise axis a GHZ state feeds only the chains of m = m' = +-N/2
    # and of |N/2><-N/2| and its conjugate, which all stay in the maximal sector
    phi = np.zeros(7, dtype=complex)
    phi[[0, -1]] = 1.0 / math.sqrt(2.0)
    x = np.outer(phi, phi.conj())
    kernels = _sector_kernels(build_space(6), [0.3, 2.0])
    assert (kernels[0] * x).any()
    assert not any((k * x[s:7 - s, s:7 - s]).any() for s, k in enumerate(kernels) if s)


@pytest.mark.parametrize("n", [3, 8, 24])
def test_transfer_kernels_are_a_trace_preserving_transfer(n):
    # K_s is real and nonnegative, K_0(0) = 1, and the weight of every
    # maximal-sector population |m><m| is kept over the sectors it reaches
    space = build_space(n)
    thetas = [0.0, 0.01, 0.3, 2.0, 40.0]
    kernels = _sector_kernels(space, thetas)
    assert all(k.dtype == float and k.shape == (len(thetas), s.dim, s.dim)
               and np.all(k >= 0.0) for s, k in zip(space.sectors, kernels))
    assert np.all(kernels[0][0] == 1.0)
    total = np.zeros((len(thetas), n + 1))
    for s, kernel in enumerate(kernels):
        total[:, s:n + 1 - s] += np.diagonal(kernel, axis1=1, axis2=2)
    assert np.max(np.abs(total - 1.0)) < 1e-11


@pytest.mark.parametrize("theta", [-0.5, math.nan, math.inf])
@pytest.mark.parametrize("method", ["propagate", "transfer_kernels"])
def test_dephasing_refuses_a_bad_strength(method, theta):
    space = build_space(3)
    lsup = build_dephasing_superoperator(
        space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_DIAG))
    rho = DensityOperator(space, BlockOperator(space, tuple(
        np.eye(s.dim) / space.total_dim for s in space.sectors)))
    with pytest.raises(InvalidArgument, match="theta"):
        if method == "propagate":
            lsup.propagate(rho, theta)
        else:
            build_transfer_kernels(space).values([0.1, theta])


def test_strengths_beyond_the_floats_are_refused():
    # Theta(t) past the floats is refused, as a float and as an array,
    # naming the first t that reaches it rather than printing every Theta
    nonmark = NoiseSpec(NoiseKind.NONMARKOVIAN, 1e200, AXIS_Z)
    for t in (0.5, np.array([0.5, 1.0])):
        with pytest.raises(InvalidArgument) as refused:
            integrated_strength(nonmark, t)
        assert str(refused.value) == "Theta(t) at gamma = 1e+200 overflows from t = 0.5"
    mark = NoiseSpec(NoiseKind.MARKOVIAN, 1e308, AXIS_Z)
    assert integrated_strength(mark, 1.0) == 1e308
    times = np.geomspace(1.0, 100.0, 40)  # 1e308 t passes the largest float from t[5] = 1.80
    with pytest.raises(InvalidArgument) as refused:
        integrated_strength(mark, times)
    assert str(refused.value) == (
        f"Theta(t) at gamma = 1e+308 overflows from t = {float(times[5])!r}")
    # a finite theta, however large, gives the chains' saturated state, the
    # one at theta = 10, bit for bit
    space = build_space(2)
    lsup = build_dephasing_superoperator(space, NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG))
    rho = ghz_state(space, "z").projector()
    far = lsup.propagate(rho, 5e306)
    assert np.array_equal(far.ravel(), lsup.propagate(rho, 10.0).ravel())
    assert abs(sum(np.trace(b) for b in far.blocks) - 1.0) < 1e-12


def test_propagate_at_large_n():
    # z dephasing multiplies |x><y| of the product basis by
    # exp(-4 Theta hamming(x, y)). For the Dicke state |N/2, 0> this gives the
    # weight left in j = N/2 as sum_h C(k, h) C(N - k, h) exp(-8 h Theta) / C(N, k)
    # with k = N/2, and the stationary weight of sector j as its multiplicity
    # over C(N, k). The chains reach N = 60, where their symmetrising
    # similarity spreads over 1e8
    n = 60
    k = n // 2
    space = build_space(n)
    lsup = build_dephasing_superoperator(
        space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_Z))
    blocks = [np.zeros((s.dim, s.dim)) for s in space.sectors]
    blocks[0][k, k] = 1.0
    rho = BlockOperator(space, tuple(blocks))
    total = math.comb(n, k)
    for theta in (0.02, 0.3):
        out = lsup.propagate(rho, theta)
        top = sum(math.comb(k, h) ** 2 * math.exp(-8.0 * h * theta)
                  for h in range(k + 1)) / total
        assert abs(out.blocks[0][k, k] - top) < 1e-12
        assert abs(sum(np.trace(b) for b in out.blocks) - 1.0) < 1e-12
    out = lsup.propagate(rho, 12.0)
    for s, block in zip(space.sectors, out.blocks):
        expected = np.zeros((s.dim, s.dim))
        expected[s.twoj // 2, s.twoj // 2] = degeneracy(n, s.twoj / 2) / total
        assert np.max(np.abs(block - expected)) < 1e-12


def test_generator_matches_product_space():
    # the lifted L[rho] against 2 (sum_n a_n rho a_n - N rho) with per-site
    # operators in the 2^N product space
    for n in (2, 3, 4, 5):
        space = build_space(n)
        multiplets = coupled_multiplets(n)
        rho = random_blocks(np.random.default_rng(60 + n), space)
        # neither rho nor L[rho] (trace 0) is a density operator;
        # embed_collective lifts their blocks
        lifted = embed_collective(rho, multiplets)
        for axis in (AXIS_Z, AXIS_DIAG, AXIS_TILT):
            spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.1, axis)
            single = sum(c * _PAULI[a] for c, a in zip(spec.axis, "xyz")) / 2.0
            sites = [_site_operator(n, k, single) for k in range(n)]
            expected = 2.0 * (sum(a @ lifted @ a for a in sites) - n * lifted)
            out = build_dephasing_superoperator(space, spec).apply(rho)
            got = embed_collective(out, multiplets)
            assert np.max(np.abs(got - expected)) < 1e-10


def test_commutes_with_parallel_field_rotation():
    space = build_space(3)
    field = FieldParams((0.01, 0.01, 0.01))
    h = hamiltonian(space, field)
    lsup = build_dephasing_superoperator(
        space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_DIAG))
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = random_hermitian(rng, space)
        lhs = lsup.apply(-1j * (h @ x - x @ h))
        rhs_inner = lsup.apply(x)
        rhs = -1j * (h @ rhs_inner - rhs_inner @ h)
        assert largest(lhs - rhs) < 1e-9


def test_single_spin_coherence_rate():
    space = build_space(1)
    lsup = build_dephasing_superoperator(
        space, NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_Z))
    plus = np.full((2, 2), 0.5, dtype=complex)
    (out,) = lsup.apply(BlockOperator(space, (plus,))).blocks
    assert abs(out[0, 1] - (-4.0) * plus[0, 1]) < 1e-12
    assert abs(out[0, 0]) < 1e-12 and abs(out[1, 1]) < 1e-12


def test_deterministic_assembly():
    space = build_space(4)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.1, AXIS_DIAG)
    a = build_dephasing_superoperator(space, spec)
    b = build_dephasing_superoperator(space, spec)
    assert len(a.chains) == len(b.chains)
    for ca, cb in zip(a.chains, b.chains):
        for field in ("indices", "generator", "orbit"):
            assert getattr(ca, field).tobytes() == getattr(cb, field).tobytes()
    for ua, ub in zip(a.rotation.blocks, b.rotation.blocks):
        assert ua.tobytes() == ub.tobytes()
    rho = simultaneous_probe(space).projector()
    assert a.propagate(rho, 0.7).ravel().tobytes() == b.propagate(rho, 0.7).ravel().tobytes()
