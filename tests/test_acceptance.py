"""End-to-end acceptance battery.

Each test pins one headline behavior of the library at a fixed tolerance
and asserts a runtime budget; pytest -v prints one pass/fail line per
criterion. Scans shared by several criteria are computed once per module.
"""

import math
import time

import numpy as np
import pytest

from spinsense import (FieldParams, NoiseKind, NoiseSpec, PovmSet,
                       SweepConfig, SweepScenario, TimeGrid, bound_simultaneous,
                       build_space, cfim, collective_operator, dicke_dimension,
                       evolve, fit_power_law, full_hilbert_reference,
                       generator_operator, ghz_state, husimi_map,
                       husimi_normalization, partial_rho, qfim, scan_particles,
                       simultaneous_probe, sweep_time, unitary)
from spinsense.dephasing import integrated_strength

AXIS_DIAG = (2.0 / math.sqrt(3.0),) * 3
AXIS_Z = (0.0, 0.0, 2.0)
FIELD_DIAG = FieldParams((0.01, 0.01, 0.01))

SCAN_NS = list(range(10, 25, 2))
SCAN_GRID = TimeGrid(count=24, start=0.05, stop=100.0)
SCAN_GAMMA = 0.05
SCAN_TOTAL = 100.0


def _pipeline(space, probe, field, spec, t):
    res = evolve(probe.projector(), field, spec, t)
    partials = [partial_rho(res, field, ax) for ax in "xyz"]
    return res, partials, qfim(res.rho, partials, t=t)


@pytest.fixture(scope="module")
def scan_results():
    """The four particle scans shared by the scaling criteria."""
    rows = {}
    timing = {}
    for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN):
        t0 = time.monotonic()
        for scen in (SweepScenario.SIMULTANEOUS, SweepScenario.INDIVIDUAL):
            cfg = SweepConfig(n_particles=SCAN_NS[0], scenario=scen, kind=kind,
                              gamma=SCAN_GAMMA, total_time=SCAN_TOTAL,
                              grid=SCAN_GRID)
            rows[kind, scen] = scan_particles(SCAN_NS, cfg)
        timing[kind] = time.monotonic() - t0
    return rows, timing


def test_criterion_01_collective_operator_fixture():
    t0 = time.monotonic()
    space = build_space(3)
    got = collective_operator(space, "x").to_dense()
    r = math.sqrt(3.0) / 2.0
    expected = np.zeros((6, 6))
    for i, j, v in ((0, 1, r), (1, 2, 1.0), (2, 3, r), (4, 5, 0.5)):
        expected[i, j] = expected[j, i] = v
    dev = float(np.max(np.abs(got - expected)))
    # the commutator algebra pins every entry, including the middle one
    jx, jy, jz = (collective_operator(space, a).to_dense() for a in "xyz")
    comm = float(np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)))
    print(f"criterion 01: entry deviation {dev:.2e}, commutator {comm:.2e}")
    assert dev <= 1e-12
    assert comm <= 1e-12
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_dimension_and_degeneracy():
    t0 = time.monotonic()
    for n in range(1, 31):
        if n % 2 == 0:
            expected = (n + 2) ** 2 // 4
        else:
            expected = (n + 1) * (n + 3) // 4
        assert dicke_dimension(n) == expected
        space = build_space(n)
        assert space.total_dim == expected
        assert sum(s.multiplicity * s.dim for s in space.sectors) == 2 ** n
    print("criterion 02: dimensions and degeneracies exact for N = 1..30")
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_brute_force_dynamics_oracle(direct_product_space):
    # the channel oracle against the collective path at every N, and against
    # RK4 on the whole 2^N density matrix wherever that is affordable
    t0 = time.monotonic()
    worst = worst_direct = 0.0
    for n in (2, 3, 4, 6, 8):
        space = build_space(n)
        probes = (ghz_state(space, "z"), simultaneous_probe(space))
        for probe in probes:
            for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN):
                for gamma in (0.05, 0.1):
                    spec = NoiseSpec(kind, gamma, AXIS_DIAG)
                    for t in (0.5, 2.0, 5.0):
                        cmp = full_hilbert_reference(n, probe, FIELD_DIAG,
                                                     spec, t)
                        worst = max(
                            worst,
                            float(np.max(np.abs(cmp.first_moments_full
                                                - cmp.first_moments_dicke))),
                            float(np.max(np.abs(cmp.second_moments_full
                                                - cmp.second_moments_dicke))))
                        if n <= 4:
                            first, second = direct_product_space(
                                n, probe, FIELD_DIAG, spec, t)
                            worst_direct = max(
                                worst_direct,
                                float(np.max(np.abs(cmp.first_moments_full - first))),
                                float(np.max(np.abs(cmp.second_moments_full - second))))
    elapsed = time.monotonic() - t0
    print(f"criterion 03: worst collective-moment deviation {worst:.2e}, "
          f"against direct integration {worst_direct:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-8
    assert worst_direct < 1e-8
    assert elapsed < 60.0


def test_criterion_04_unitary_derivative_oracle():
    t0 = time.monotonic()
    eps = 1e-6
    worst = 0.0
    for n in (3, 10):
        space = build_space(n)
        rng = np.random.default_rng(20240815 + n)
        for _ in range(50):
            phi = rng.uniform(0.02, 0.2, size=3) * rng.choice([-1.0, 1.0], 3)
            t = float(rng.uniform(0.1, 5.0))
            k = int(rng.integers(3))
            axis = "xyz"[k]
            step = np.zeros(3)
            step[k] = eps
            u_plus = unitary(space, FieldParams(phi + step), t).to_dense()
            u_minus = unitary(space, FieldParams(phi - step), t).to_dense()
            fd = (u_plus - u_minus) / (2.0 * eps)
            field = FieldParams(phi)
            analytic = -1j * (unitary(space, field, t).to_dense()
                              @ generator_operator(space, field, t, axis).to_dense())
            rel = float(np.max(np.abs(fd - analytic))
                        / np.max(np.abs(analytic)))
            worst = max(worst, rel)
    # short shots reduce to the bare rotation generator scaled by t
    lin = 0.0
    t_short = 1e-4
    for n in (3, 10):
        space = build_space(n)
        for axis in "xyz":
            a = generator_operator(space, FIELD_DIAG, t_short, axis).to_dense()
            j = collective_operator(space, axis).to_dense()
            lin = max(lin, float(np.max(np.abs(a - t_short * j))
                                 / np.max(np.abs(t_short * j))))
    elapsed = time.monotonic() - t0
    print(f"criterion 04: worst derivative error {worst:.2e}, "
          f"short-time deviation {lin:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-6
    assert lin < 1e-6
    assert elapsed < 30.0


def test_criterion_05_noiseless_heisenberg_benchmark():
    t0 = time.monotonic()
    t_probe = 2.0
    spec_z = NoiseSpec(NoiseKind.NONE, 0.0, AXIS_Z)
    field_z = FieldParams((0.0, 0.0, 0.01))
    worst = 0.0
    for n in range(2, 25):
        space = build_space(n)
        _, _, q = _pipeline(space, ghz_state(space, "z"), field_z, spec_z,
                            t_probe)
        expect = (t_probe * n) ** 2
        worst = max(worst, abs(q.entries[2, 2] - expect) / expect)

    spec = NoiseSpec(NoiseKind.NONE, 0.0, AXIS_DIAG)

    def i_sim(ns):
        out = []
        for n in ns:
            space = build_space(n)
            _, _, q = _pipeline(space, simultaneous_probe(space), FIELD_DIAG,
                                spec, t_probe)
            out.append((n, bound_simultaneous(q, SCAN_TOTAL / t_probe).value))
        return out

    # at desk sizes the bound follows 1/(N(N+2)) exactly, whose local slope
    # has not yet reached its large-N limit; the fit must match that law
    desk = i_sim(SCAN_NS)
    desk_fit = fit_power_law(desk)
    law_fit = fit_power_law([(n, 1.0 / (n * (n + 2))) for n in SCAN_NS])
    law_gap = abs(desk_fit.exponent - law_fit.exponent)

    wide_ns = [40, 48, 56, 64, 72]
    wide = i_sim(wide_ns)
    wide_fit = fit_power_law(wide, n_min=wide_ns[0])
    scaled = np.array([v * n * (n + 2) for n, v in wide])
    flatness = float((scaled.max() - scaled.min()) / scaled.mean())

    elapsed = time.monotonic() - t0
    print(f"criterion 05: Q_zz deviation {worst:.2e}; desk exponent "
          f"{desk_fit.exponent:+.4f} (law {law_fit.exponent:+.4f}); wide "
          f"exponent {wide_fit.exponent:+.4f}; flatness {flatness:.2e} "
          f"({elapsed:.1f}s)")
    assert worst < 1e-8
    assert law_gap < 0.02
    assert -2.05 < wide_fit.exponent < -1.95
    assert flatness < 1e-6
    assert elapsed < 60.0


def _fit_scan(rows, value):
    return fit_power_law([(r.n_particles, value(r)) for r in rows])


def test_criterion_06_markovian_scaling(scan_results):
    rows, timing = scan_results
    sim = rows[NoiseKind.MARKOVIAN, SweepScenario.SIMULTANEOUS]
    ind = rows[NoiseKind.MARKOVIAN, SweepScenario.INDIVIDUAL]
    assert [r.n_particles for r in sim] == SCAN_NS
    assert [r.n_particles for r in ind] == SCAN_NS
    t_sim = _fit_scan(sim, lambda r: 1.0 / r.t_opt)
    t_ind = _fit_scan(ind, lambda r: 1.0 / r.t_opt)
    i_fit = _fit_scan(sim, lambda r: r.i_min)
    print(f"criterion 06: 1/t_opt exponents sim {t_sim.exponent:+.4f} "
          f"ind {t_ind.exponent:+.4f}; i_min exponent {i_fit.exponent:+.4f} "
          f"({timing[NoiseKind.MARKOVIAN]:.0f}s)")
    assert 0.85 < t_sim.exponent < 1.15
    assert 0.85 < t_ind.exponent < 1.15
    assert -1.15 < i_fit.exponent < -0.85
    assert timing[NoiseKind.MARKOVIAN] < 600.0


def test_criterion_07_nonmarkovian_scaling(scan_results):
    rows, timing = scan_results
    sim = rows[NoiseKind.NONMARKOVIAN, SweepScenario.SIMULTANEOUS]
    ind = rows[NoiseKind.NONMARKOVIAN, SweepScenario.INDIVIDUAL]
    assert [r.n_particles for r in sim] == SCAN_NS
    assert [r.n_particles for r in ind] == SCAN_NS
    t_sim = _fit_scan(sim, lambda r: 1.0 / r.t_opt)
    t_ind = _fit_scan(ind, lambda r: 1.0 / r.t_opt)
    i_fit = _fit_scan(sim, lambda r: r.i_min)
    print(f"criterion 07: 1/t_opt exponents sim {t_sim.exponent:+.4f} "
          f"ind {t_ind.exponent:+.4f}; i_min exponent {i_fit.exponent:+.4f} "
          f"({timing[NoiseKind.NONMARKOVIAN]:.0f}s)")
    assert 0.40 < t_sim.exponent < 0.60
    assert 0.40 < t_ind.exponent < 0.60
    assert -1.65 < i_fit.exponent < -1.35
    assert timing[NoiseKind.NONMARKOVIAN] < 600.0


def test_criterion_08_scenario_ordering(scan_results):
    rows, _ = scan_results
    worst = np.inf
    for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN):
        sim = rows[kind, SweepScenario.SIMULTANEOUS]
        ind = rows[kind, SweepScenario.INDIVIDUAL]
        for s, i in zip(sim, ind):
            assert s.n_particles == i.n_particles
            assert i.i_min > s.i_min
            worst = min(worst, i.i_min / s.i_min)
    print(f"criterion 08: individual/simultaneous bound ratio >= {worst:.3f} "
          f"at every N, both noise kinds")


def test_criterion_09_bound_curve_structure():
    t0 = time.monotonic()
    base = dict(n_particles=20, total_time=SCAN_TOTAL, grid=SCAN_GRID)
    free = sweep_time(SweepConfig(kind=NoiseKind.NONE, gamma=0.0, **base))
    curve = free.curve
    assert bool(np.all(np.diff(curve[:, 1]) < 0.0))
    assert free.refinement.boundary

    details = []
    for gamma in (0.05, 0.1):
        mark = sweep_time(SweepConfig(kind=NoiseKind.MARKOVIAN, gamma=gamma,
                                      **base))
        nonmark = sweep_time(SweepConfig(kind=NoiseKind.NONMARKOVIAN,
                                         gamma=gamma, **base))
        assert not mark.refinement.boundary
        assert not nonmark.refinement.boundary
        assert mark.t_opt < nonmark.t_opt
        details.append(f"gamma={gamma}: {mark.t_opt:.3f} < {nonmark.t_opt:.3f}")
    elapsed = time.monotonic() - t0
    print(f"criterion 09: noiseless monotone; interior minima with "
          f"{'; '.join(details)} ({elapsed:.1f}s)")
    assert elapsed < 60.0


def test_criterion_10_property_suites():
    t0 = time.monotonic()

    # trace, hermiticity, positivity along trajectories
    space = build_space(6)
    probes = (ghz_state(space, "z"), simultaneous_probe(space))
    for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN):
        spec = NoiseSpec(kind, 0.1, AXIS_DIAG)
        for probe in probes:
            for t in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
                rho = evolve(probe.projector(), FIELD_DIAG, spec, t).rho
                mat = rho.blocks.to_dense()
                assert abs(np.trace(mat).real - 1.0) < 1e-10
                assert float(np.max(np.abs(mat - mat.conj().T))) < 1e-10
                assert float(np.linalg.eigvalsh(mat).min()) > -1e-10
                assert rho.purity() <= 1.0 + 1e-12

    # information matrices stay symmetric and positive semidefinite
    for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN):
        for gamma in (0.05, 0.1):
            spec = NoiseSpec(kind, gamma, AXIS_DIAG)
            _, _, q = _pipeline(space, simultaneous_probe(space), FIELD_DIAG,
                                spec, 2.0)
            assert float(np.max(np.abs(q.entries - q.entries.T))) < 1e-10
            eigs = np.linalg.eigvalsh(q.entries)
            assert eigs.min() > -1e-9 * max(1.0, eigs.max())

    # no projective readout beats the quantum bound
    space4 = build_space(4)
    spec = NoiseSpec(NoiseKind.MARKOVIAN, 0.05, AXIS_DIAG)
    res, partials, q = _pipeline(space4, simultaneous_probe(space4),
                                 FIELD_DIAG, spec, 2.0)
    q_trace = float(np.trace(np.linalg.inv(q.entries)).real)
    rng = np.random.default_rng(20240819)
    d = space4.total_dim
    checked = 0
    for _ in range(20):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        basis, _ = np.linalg.qr(g)
        povm = PovmSet([np.outer(basis[:, i], basis[:, i].conj())
                        for i in range(d)])
        f = cfim(res.rho, partials, povm)
        assert np.linalg.eigvalsh(f).min() > 1e-12
        assert float(np.trace(np.linalg.inv(f)).real) >= q_trace - 1e-9
        checked += 1
    assert checked == 20

    # Husimi map integrates to one against the coherent-state measure
    space12 = build_space(12)
    qmap = husimi_map(simultaneous_probe(space12), (181, 360))
    norm = husimi_normalization(qmap, space12.max_sector.dim)
    assert abs(norm - 1.0) < 1e-3

    elapsed = time.monotonic() - t0
    print(f"criterion 10: trajectories, information matrices, readout "
          f"ordering, Husimi normalization {norm:.6f} ({elapsed:.1f}s)")
    assert elapsed < 120.0


def test_criterion_11_channel_extension_limit():
    # No probe beats the channel-extension bound on the noise-axis component:
    # with single-spin coherence eta = exp(-4 Theta(t)), F(n.J) <= CE / t^2 with
    # CE(t) = t^2 N^2 eta^2 / (N (1 - eta^2) + eta^2) (Escher, de Matos Filho &
    # Davidovich, Nat. Phys. 7, 406 (2011); the finite-N form in Kolodynski &
    # Demkowicz-Dobrzanski, NJP 15, 073043 (2013)), and Q_pp <= t^2 N^2 for the
    # two perpendicular directions. Since (Q^-1)_kk >= 1 / Q_kk in any
    # orthonormal basis, every finite point of a joint sweep obeys
    # I(t) >= LB(t) = (t / T) [1 / CE(t) + 2 / (N^2 t^2)].
    t0 = time.monotonic()
    worst = math.inf
    for n in (4, 8, 12, 16, 24, 48, 96):
        for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN):
            cfg = SweepConfig(n_particles=n, kind=kind, grid=SCAN_GRID)
            res = sweep_time(cfg)
            t = res.times
            eta2 = np.exp(-8.0 * integrated_strength(cfg.noise_spec(), t))
            ce = t ** 2 * n ** 2 * eta2 / (n * (1.0 - eta2) + eta2)
            limit = t / cfg.total_time * (1.0 / ce + 2.0 / (n ** 2 * t ** 2))
            finite = np.isfinite(res.bounds)
            assert finite.sum() >= 19
            ratio = float(np.min(res.bounds[finite] / limit[finite]))
            assert ratio >= 1.0, (n, kind.value, ratio)
            worst = min(worst, ratio)
    elapsed = time.monotonic() - t0
    print(f"criterion 11: joint sweeps at least {worst:.3f} times the channel-extension "
          f"limit, N = 4..96, both noise kinds ({elapsed:.1f}s)")
    assert elapsed < 30.0
