"""Fast collective dynamics against a brute-force product-space solver.

When the applied field is parallel to the dephasing axis the evolution
factorizes: dephase first, then rotate. That split is what makes large N
affordable, because everything happens in the reduced collective basis.
Here we check it against a solver that never leaves the full 2^N space: it
integrates one spin's channel and applies it to every site, so it is fast at
small N, but its state still has 4^N entries. Then we show what happens when
the parallel assumption is dropped.
"""

import math
import time

import numpy as np

from spinsense import (AssumptionViolated, FieldParams, NoiseKind, NoiseSpec,
                       build_space, coherent_state, evolve,
                       full_gkls_reference, full_hilbert_reference)

N = 6
AXIS = (2.0 / math.sqrt(3.0),) * 3
FIELD = FieldParams((0.01, 0.01, 0.01))

space = build_space(N)
# a tilted coherent state keeps all three first moments away from zero
probe = coherent_state(space, 1.0, 0.7)
spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS)

# --- agreement of the two solvers ---------------------------------------

cmp = full_hilbert_reference(N, probe, FIELD, spec, 2.0)
print(f"N = {N}, t = 2.0, collective dim {space.total_dim} vs product dim {2 ** N}")
print(f"{'moment':>8} {'product space':>16} {'collective':>16}")
for k, label in enumerate("xyz"):
    print(f"{'<J' + label + '>':>8} {cmp.first_moments_full[k]:16.10f} "
          f"{cmp.first_moments_dicke[k]:16.10f}")
second_dev = np.max(np.abs(cmp.second_moments_full - cmp.second_moments_dicke))
print(f"worst second-moment deviation: {second_dev:.2e}")
print(f"state fidelity (lifted to product space): {cmp.fidelity:.12f}")
print()

# --- cost of staying in the product space -------------------------------

t0 = time.perf_counter()
evolve(probe.projector(), FIELD, spec, 2.0)
fast = time.perf_counter() - t0
t0 = time.perf_counter()
full_hilbert_reference(N, probe, FIELD, spec, 2.0)
brute = time.perf_counter() - t0
print(f"fast path {fast * 1e3:8.1f} ms, product-space solver {brute * 1e3:8.1f} ms "
      f"(x{brute / fast:.0f})")
# the channel is one 4 x 4 integration, but the product-space state it acts
# on has 4^N entries, the collective one about N^2/4 per block, so the gap
# widens with N
print()

# --- when the field is not parallel to the noise axis --------------------

tilted = FieldParams((0.01, 0.01, 0.02))
try:
    evolve(probe.projector(), tilted, spec, 1.0)
except AssumptionViolated as err:
    print(f"tilted field refused: {err}")

# off the axis only joint integration of rotation plus dephasing applies;
# full_gkls_reference returns the state alone, since the field derivatives
# need the split, and full_hilbert_reference checks it in the product space
joint = full_gkls_reference(probe.projector(), tilted, spec, 1.0)
print(f"joint collective integrator: purity {joint.purity():.12f}")
cmp_tilt = full_hilbert_reference(N, probe, tilted, spec, 1.0)
print(f"joint integrator vs product-space solver: fidelity {cmp_tilt.fidelity:.12f}")
