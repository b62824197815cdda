"""Noiseless benchmarks: quadratic phase information and the 1/N^2 bound.

Two closed-form anchors that any implementation of collective-spin
metrology has to hit. A GHZ state accumulating phase around its own axis
gives a quantum Fisher information of exactly (t N)^2, and the joint
three-component bound with the triple-superposition probe falls off as
1/(N (N + 2)), i.e. Heisenberg scaling of the total variance.
"""

import math

from spinsense import (FieldParams, NoiseKind, NoiseSpec, bound_simultaneous,
                       build_space, evolve, fit_power_law, ghz_state,
                       partial_rho, qfim, simultaneous_probe)

AXIS = (2.0 / math.sqrt(3.0),) * 3
TOTAL_TIME = 100.0
T_PROBE = 2.0


def qfim_at(n, probe_name, field):
    space = build_space(n)
    probe = (ghz_state(space, "z") if probe_name == "ghz"
             else simultaneous_probe(space))
    spec = NoiseSpec(NoiseKind.NONE, 0.0, AXIS)
    res = evolve(probe.projector(), FieldParams(field), spec, T_PROBE)
    parts = [partial_rho(res, FieldParams(field), k) for k in "xyz"]
    return qfim(res.rho, parts, t=T_PROBE)


# --- single-component Heisenberg limit -----------------------------------

# GHZ along z, field along z: the two branches beat at the extremal
# frequencies, so the phase variance saturates the (t N)^2 ceiling
print(f"{'N':>4} {'Q_zz':>14} {'(t N)^2':>14} {'rel err':>10}")
for n in (2, 4, 8, 16, 24):
    q = qfim_at(n, "ghz", (0.0, 0.0, 0.01))
    exact = (T_PROBE * n) ** 2
    rel = abs(q.entries[2, 2] - exact) / exact
    print(f"{n:4d} {q.entries[2, 2]:14.4f} {exact:14.4f} {rel:10.2e}")
print()

# --- all three components at once ----------------------------------------

# the triple superposition probe keeps the full QFIM invertible, so all
# three field components are estimable from one experiment; the summed
# variance bound then drops as 1/(N (N + 2))
print(f"{'N':>4} {'I_sim':>12} {'I_sim * N(N+2)':>16}")
points = []
for n in (8, 16, 24, 32, 40):
    q = qfim_at(n, "sim", (0.01, 0.01, 0.01))
    bound = bound_simultaneous(q, TOTAL_TIME / T_PROBE).value
    points.append((n, bound))
    print(f"{n:4d} {bound:12.5e} {bound * n * (n + 2):16.8f}")

fit = fit_power_law(points, n_min=8)
print(f"power-law fit over N in [8, 40]: exponent {fit.exponent:+.4f} "
      f"(1/(N(N+2)) behaves like -2 at large N)")
