"""Local dephasing in the collective basis: rates, decay laws, invariants.

Each spin couples to its own bath along a common axis. The channel enters
all dynamics through a single scalar clock, the integrated strength
Theta(t): a time-stationary bath gives Theta = gamma * t, a bath with
linearly growing memory gives Theta = (gamma * t)^2 / 2. Everything else
about the channel is geometry: one collective rotation onto the noise axis
and a set of independent chains over the total spin j.
"""

import math

import numpy as np

from spinsense import (NoiseKind, NoiseSpec, build_dephasing_superoperator,
                       build_space, build_transfer_kernels, dephase, ghz_state,
                       simultaneous_probe)
from spinsense.dephasing import gamma_profile, integrated_strength
from spinsense.dicke import BlockOperator, StateVector

AXIS = (2.0 / math.sqrt(3.0),) * 3

# --- the two rate profiles ---------------------------------------------------

print(f"{'t':>6} {'rate M':>9} {'Theta M':>9} {'rate NM':>9} {'Theta NM':>9}")
mark = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS)
nonmark = NoiseSpec(NoiseKind.NONMARKOVIAN, 0.05, AXIS)
for t in (0.5, 1.0, 2.0, 5.0, 10.0):
    print(f"{t:6.1f} {gamma_profile(mark, t):9.4f} "
          f"{integrated_strength(mark, t):9.4f} "
          f"{gamma_profile(nonmark, t):9.4f} "
          f"{integrated_strength(nonmark, t):9.4f}")
print()

# --- single-spin closed form -------------------------------------------------

# one spin dephasing along z: the off-diagonal element decays as
# exp(-4 Theta(t)) while populations are untouched
space1 = build_space(1)
plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
rho0 = StateVector(space1, plus).projector()
spec_z = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, (0.0, 0.0, 2.0))
lsup1 = build_dephasing_superoperator(space1, spec_z)
print(f"{'t':>6} {'|rho_01|':>10} {'exp(-4 Theta)':>14}")
for t in (1.0, 5.0, 10.0, 20.0):
    rho = dephase(rho0, lsup1, spec_z, t)
    expect = 0.5 * math.exp(-4.0 * integrated_strength(spec_z, t))
    print(f"{t:6.1f} {abs(rho.blocks.blocks[0][0, 1]):10.6f} {expect + 0.0:14.6f}")
print()

# --- chain structure ----------------------------------------------------------

# in the frame of the noise axis the generator keeps m and m' fixed and only
# moves weight between neighbouring j: one short tridiagonal chain per
# (m, m'). A chain's generator depends only on m m' and {|m|, |m'|}, so
# (m, m'), (m', m), (-m, -m') and (-m', -m) share one, and each distinct
# generator is exponentiated once
space = build_space(6)
lsup = build_dephasing_superoperator(space, mark)
d = space.total_dim
chains = sum(len(b.indices) for b in lsup.chains)
distinct = sum(len(b.generator) for b in lsup.chains)
elements = sum(b.indices.size for b in lsup.chains)
print(f"N = 6: {d * d} matrix entries, {elements} of them block-diagonal, "
      f"in {chains} chains with {distinct} distinct generators ({lsup.nnz} nonzero couplings)")
print(f"{'length':>7} {'chains':>7} {'distinct':>9} {'slowest nonzero rate':>21}")
rates = [np.linalg.eigvals(b.generator).real for b in lsup.chains]
for b, r in zip(lsup.chains, rates):
    decaying = r[r < -1e-9]
    slowest = f"{decaying.max():21.4f}" if decaying.size else f"{'-':>21}"
    print(f"{b.indices.shape[1]:7d} {len(b.indices):7d} {len(b.generator):9d} {slowest}")
print(f"largest chain rate: {max(r.max() for r in rates):.1e} "
      f"(zero up to rounding: these modes carry the conserved populations)")

# trace and hermiticity are preserved exactly by construction; L acts on
# the sector blocks of an operator (a BlockOperator) and returns blocks
rng = np.random.default_rng(11)
x = BlockOperator(space, tuple(rng.normal(size=(s.dim, s.dim))
                               + 1j * rng.normal(size=(s.dim, s.dim)) for s in space.sectors))
lx = lsup.apply((x + x.dagger()) * 0.5)
print(f"|trace of L[X]| = {abs(sum(np.trace(b) for b in lx.blocks)):.2e}, "
      f"hermiticity leak = {np.max(np.abs((lx - lx.dagger()).ravel())):.2e}")
print()

# --- closed-form transfer kernels --------------------------------------------

# a state that starts in the maximal sector needs no chain exponential: in
# the noise-frame product basis dephasing multiplies |x><y| by
# exp(-4 Theta hamming(x, y)), so each sector keeps a real kernel times the
# state, a polynomial in q = exp(-8 Theta) with nonnegative coefficients.
# For m = m' = 0 at N = 6 (three of six spins flipped on both sides) the
# maximal-sector kernel is K_0 = (1 + 9 q + 9 q^2 + q^3) / 20. It is flat
# entry 15, after the rows i = 0, 1, 2 of i <= i', i + i' <= 6 (7, 5 and 3
# entries), and the kernels can be built on that entry alone
centre = build_transfer_kernels(space, [15])
terms = " + ".join(f"{c:g} q^{u}" for u, c in enumerate(centre.counts[:, 0]) if c)
print(f"N = 6, m = m' = 0: K_0 = ({terms}) / {centre.divisor[0]:g}")
print(f"{'Theta':>6} {'K_0':>12} {'polynomial':>12}")
for theta in (0.01, 0.1, 0.3, 2.0):
    q = math.exp(-8.0 * theta)
    print(f"{theta:6.2f} {centre.values([theta])[0, 0]:12.9f} "
          f"{(1 + 9 * q + 9 * q ** 2 + q ** 3) / 20:12.9f}")
print()

# --- real sector blocks -------------------------------------------------------

# a real kernel times phi_w phi_w^dag is P B P^dag, with B real symmetric and
# P = diag(e_w) the phases of the probe's noise-frame amplitudes phi, so each
# dephased sector block becomes real once P is taken off both sides. Here
# dephase (chain exponentials) of the joint probe at t = 5
probe = simultaneous_probe(space)
phi = lsup.rotation.blocks[0].conj().T @ probe.amplitudes
e = np.exp(1j * np.angle(phi))
rho = dephase(probe.projector(), lsup, mark, 5.0)
imag_before = imag_after = 0.0
for s, (lab, u) in enumerate(zip(rho.blocks.blocks, lsup.rotation.blocks)):
    block = u.conj().T @ lab @ u
    w = e[s:e.size - s]
    imag_before = max(imag_before, np.max(np.abs(block.imag)))
    imag_after = max(imag_after, np.max(np.abs((w.conj()[:, None] * block * w).imag)))
print(f"N = 6 joint probe, largest |Im| over the noise-frame sector blocks: "
      f"{imag_before:.3f} before, {imag_after:.1e} after P^dag . block . P "
      f"(phases up to {np.max(np.abs(np.angle(phi))):.2f} rad)")
print()

# --- GHZ coherence under both kinds -------------------------------------

# the N-spin GHZ coherence lives between the extremal levels and decays
# fastest; populations never move when the state is diagonal along the axis
space4 = build_space(4)
ghz = ghz_state(space4, "z").projector()
spec4 = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, (0.0, 0.0, 2.0))
spec4n = NoiseSpec(NoiseKind.NONMARKOVIAN, 0.05, (0.0, 0.0, 2.0))
lsup4 = build_dephasing_superoperator(space4, spec4)
print(f"{'t':>6} {'|coh| M':>12} {'|coh| NM':>12}")
for t in (0.5, 1.0, 2.0, 5.0, 40.0, 45.0):
    cm = abs(dephase(ghz, lsup4, spec4, t).blocks.blocks[0][0, 4])
    cn = abs(dephase(ghz, lsup4, spec4n, t).blocks.blocks[0][0, 4])
    print(f"{t:6.1f} {cm:12.3e} {cn:12.3e}")
print("the two clocks agree at t = 2/gamma = 40: before it the quadratic")
print("clock lags (cleaner state), after it it overtakes and erases faster")
