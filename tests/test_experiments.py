"""Time sweeps, particle scans, power-law fits, and Husimi maps."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spinsense import (AssumptionViolated, BlockOperator, DensityOperator, ExperimentFailed,
                       FieldParams, InvalidArgument, NoiseKind, NoiseSpec,
                       NumericalError, PovmSet, QfimMatrix, StateVector,
                       SweepConfig, SweepScenario, TimeGrid, bound_individual, cfim,
                       bound_simultaneous,
                       build_transfer_kernels, build_space, coherent_state,
                       collective_operator, coupled_multiplets, cumulative_degeneracy,
                       degeneracy, dephase, embed_collective, evolve,
                       fit_power_law, full_gkls_reference,
                       full_hilbert_reference, gamma_profile,
                       generator_operator, ghz_state, hamiltonian, husimi_grid, husimi_map,
                       husimi_normalization, integrated_strength, partial_rho,
                       qfim, scan_particles, simultaneous_probe, state_fidelity,
                       sweep_time, unitary)
from spinsense import estimation, experiments
from spinsense.cli import _pointwise_bounds
from spinsense.dephasing import (ChainBatch, TransferKernels, _frame_rotation, axis_frame,
                                 build_dephasing_superoperator)
from spinsense.experiments import _first_dip, _parabolic_minimum

SMALL_GRID = TimeGrid(count=24, start=0.05, stop=100.0)

# a small dephased evolution for the library-input cases below
_SPACE = build_space(3)
_RHO = ghz_state(_SPACE, "z").projector()
_FIELD = FieldParams((0.0, 0.0, 0.01))
_SPEC = NoiseSpec("markovian", 0.05, (0.0, 0.0, 2.0))
_ZERO = 0.0 * collective_operator(_SPACE, "z")
_NAN = math.nan * collective_operator(_SPACE, "z")


def _qfim_of(**meta):
    """qfim of _RHO evolved for t = 1, meta passed on to qfim."""
    res = evolve(_RHO, _FIELD, _SPEC, 1.0)
    return qfim(res.rho, [partial_rho(res, _FIELD, a) for a in "xyz"], **meta)


def test_time_grid_values_and_validation():
    grid = TimeGrid(count=5, start=0.1, stop=10.0)
    assert np.allclose(grid.values(), np.geomspace(0.1, 10.0, 5))
    with pytest.raises(InvalidArgument):
        TimeGrid(count=1)
    with pytest.raises(InvalidArgument):
        TimeGrid(count=10, start=0.0, stop=1.0)
    with pytest.raises(InvalidArgument):
        TimeGrid(count=10, start=5.0, stop=1.0)
    with pytest.raises(InvalidArgument):
        TimeGrid(count=2.5)


def test_sweep_config_validation():
    with pytest.raises(InvalidArgument):
        SweepConfig(n_particles=0)
    with pytest.raises(InvalidArgument):
        SweepConfig(n_particles=4, total_time=50.0,
                    grid=TimeGrid(count=10, start=0.1, stop=100.0))
    cfg = SweepConfig(n_particles=4)
    assert cfg.field == (0.01, 0.01, 0.01)
    assert np.allclose(cfg.axis, (2.0 / math.sqrt(3.0),) * 3)
    assert cfg.total_time == 100.0


@pytest.mark.parametrize("call", [
    lambda: SweepConfig(n_particles=2, scenario="both"),
    lambda: SweepConfig(n_particles=2, kind="foo"),
    lambda: SweepConfig(n_particles="x"),
    lambda: SweepConfig(n_particles=2.7),
    lambda: SweepConfig(n_particles=True),
    lambda: scan_particles([2.5, 3.7], SweepConfig(n_particles=2)),
    lambda: scan_particles([2, 3], SweepConfig(n_particles=2), workers=1.5),
    lambda: scan_particles([2, 3], SweepConfig(n_particles=2), workers=0),
    lambda: SweepConfig(n_particles=2, gamma=-1.0),
    lambda: SweepConfig(n_particles=2, gamma="x"),
    lambda: SweepConfig(n_particles=2, axis=(0, 0, 0)),
    lambda: SweepConfig(n_particles=2, total_time="x"),
    lambda: SweepConfig(n_particles=2, axis=("x", 0, 0)),
    lambda: SweepConfig(n_particles=2, field=("x", 0, 0)),
    lambda: SweepConfig(n_particles=2, axis=5),
    lambda: TimeGrid(start="x"),
    lambda: TimeGrid(stop=None),
    lambda: SweepConfig(n_particles=4, grid=(24, 0.05, 100)),
    lambda: husimi_grid((2.5, 3)),
    lambda: husimi_map(ghz_state(build_space(3), "z"), (2.5, 3)),
    lambda: husimi_normalization(np.ones(5), 3),
    lambda: fit_power_law([(10, 1.0), (12, 2.0), (14, 3.0)], n_min="a"),
    lambda: fit_power_law([(10, 1.0), (12, 2.0), (14, 3.0)], n_min=math.nan),
    lambda: evolve(_RHO, _FIELD, _SPEC, "x"),
    lambda: evolve(_RHO, _FIELD, _SPEC, None),
    lambda: dephase(_RHO, build_dephasing_superoperator(_SPACE, _SPEC), _SPEC, "x"),
    lambda: unitary(_SPACE, _FIELD, None),
    lambda: generator_operator(_SPACE, _FIELD, "x", "z"),
    lambda: gamma_profile(_SPEC, "x"),
    lambda: integrated_strength(_SPEC, "x"),
    lambda: build_dephasing_superoperator(_SPACE, _SPEC).propagate(_RHO, "x"),
    lambda: build_transfer_kernels(_SPACE).at(["x"]),
    lambda: build_transfer_kernels(_SPACE, [0, 2]).at([0.1]),
    lambda: build_transfer_kernels(_SPACE, [2, 0]),
    lambda: build_transfer_kernels(_SPACE, [1, 1]),
    lambda: build_transfer_kernels(_SPACE, [-1, 0]),
    lambda: build_transfer_kernels(_SPACE, [0, 8]),
    lambda: build_transfer_kernels(_SPACE, [0.0, 1.0]),
    lambda: build_transfer_kernels(_SPACE, [[0, 1]]),
    lambda: build_transfer_kernels(_SPACE, "x"),
    lambda: full_gkls_reference(_RHO, _FIELD, _SPEC, "x"),
    lambda: full_hilbert_reference(3, ghz_state(_SPACE, "z"), _FIELD, _SPEC, "x"),
    lambda: bound_simultaneous(_qfim_of(), "x"),
    lambda: bound_individual(1.0, 1.0, 1.0, "x"),
    lambda: _qfim_of(t="x"),
    lambda: scan_particles(None, SweepConfig(n_particles=2)),
    lambda: degeneracy(4, "x"),
    lambda: cumulative_degeneracy(4, None),
    lambda: degeneracy(4, math.inf),
    lambda: coherent_state(_SPACE, "x", 0.0),
    lambda: bound_individual("x", 1.0, 1.0, 2.0),
    lambda: fit_power_law([("a", "b")] * 3),
    lambda: fit_power_law([(10, 1.0), (12, 2.0, 3.0), (14, 3.0)]),
    lambda: qfim(_RHO, [np.eye(2)] * 3),
    lambda: qfim(_RHO, "abc"),
    lambda: qfim(_RHO, None),
    lambda: husimi_map(_RHO),
    lambda: husimi_map("x"),
    lambda: QfimMatrix(entries=np.eye(3) * (1.0 + 1.0j), t=1.0, n_particles=2),
    lambda: QfimMatrix(entries="abc", t=1.0, n_particles=2),
    lambda: DensityOperator(_SPACE, [["x"] * 6] * 6),
    lambda: StateVector(_SPACE, ["x"] * 4),
    lambda: PovmSet([np.eye(6), "abc"]),
    lambda: PovmSet(None),
    lambda: PovmSet([1.0]),
    lambda: bound_simultaneous(_qfim_of().entries, 2.0),
    lambda: evolve(np.eye(6) / 6, _FIELD, _SPEC, 1.0),
    lambda: partial_rho(np.eye(3), _FIELD, "z"),
    lambda: cfim("x", [np.zeros((6, 6))] * 3, [np.eye(6)]),
    lambda: DensityOperator(None, np.eye(6) / 6),
    lambda: StateVector(None, np.eye(4)[0]),
    lambda: evolve(_RHO, (0, 0, 0.01), _SPEC, 1.0),
    lambda: evolve(_RHO, _FIELD, None, 1.0),
    lambda: full_gkls_reference(_RHO.blocks.to_dense(), _FIELD, _SPEC, 1.0),
    lambda: partial_rho(evolve(_RHO, _FIELD, _SPEC, 1.0), (0, 0, 0.01), "z"),
    lambda: dephase(_RHO.blocks.to_dense(), build_dephasing_superoperator(_SPACE, _SPEC), _SPEC,
                    1.0),
    lambda: cfim(_RHO, "abc", [np.eye(6)]),
    lambda: generator_operator(None, _FIELD, 1.0, "z"),
    lambda: hamiltonian(None, _FIELD),
    lambda: collective_operator(None, "z"),
    lambda: coherent_state(None, 0.0, 0.0),
    lambda: ghz_state(None, "z"),
    lambda: simultaneous_probe(None),
    lambda: bound_simultaneous(_qfim_of(), 0),
    lambda: bound_individual(1.0, 1.0, 1.0, -2.0),
    lambda: SweepConfig(n_particles=2, total_time=0),
    lambda: QfimMatrix(entries=np.eye(2), t=1.0, n_particles=2),
    lambda: PovmSet([]),
    lambda: PovmSet([[[1.0, 0.1], [0.0, 0.0]], [[0.0, -0.1], [0.0, 1.0]]]),
    lambda: fit_power_law([10.0, 12.0, 14.0]),
    lambda: husimi_grid((3, 4, 5)),
    lambda: generator_operator(_SPACE, _FIELD, 1.0, "w"),
    lambda: partial_rho(evolve(_RHO, _FIELD, _SPEC, 1.0), _FIELD, "w"),
    lambda: dephase(_RHO, None, _SPEC, 1.0),
    lambda: evolve(_RHO, _FIELD, _SPEC, 1.0, superoperator="x"),
    lambda: evolve(_RHO, _FIELD, _SPEC, 1.0,
                   superoperator=build_dephasing_superoperator(build_space(4), _SPEC)),
    lambda: evolve(_RHO, _FIELD, _SPEC, 1.0, superoperator=build_dephasing_superoperator(
        _SPACE, NoiseSpec("markovian", 0.05, (2.0, 0.0, 0.0)))),
    lambda: dephase(_RHO, build_dephasing_superoperator(_SPACE, _SPEC), None, 1.0),
    lambda: gamma_profile(None, 1.0),
    lambda: integrated_strength("markovian", 1.0),
    lambda: build_dephasing_superoperator(_SPACE, None),
    lambda: husimi_normalization("abc", 4),
    lambda: husimi_normalization(np.ones((3, 4)), "x"),
    lambda: embed_collective("x", coupled_multiplets(3)),
    lambda: embed_collective(_RHO, "x"),
    lambda: embed_collective(_RHO, {}),
    lambda: embed_collective(_RHO, {1: "x"}),
    lambda: integrated_strength(_SPEC, [0.1, -1.0]),
    lambda: integrated_strength(_SPEC, [0.1, math.nan]),
    lambda: state_fidelity(np.eye(2), np.eye(3)),
    lambda: coupled_multiplets("3"),
    lambda: coupled_multiplets(True),
    lambda: full_hilbert_reference(3, _RHO, _FIELD, _SPEC, 1.0),
    lambda: full_hilbert_reference(3, ghz_state(_SPACE, "z"), (0.0, 0.0, 0.01), _SPEC, 1.0),
    lambda: full_hilbert_reference(3, ghz_state(_SPACE, "z"), _FIELD, None, 1.0),
    lambda: scan_particles([2, 3], "cfg"),
    lambda: build_dephasing_superoperator(_SPACE, _SPEC).apply(np.eye(3)),
    lambda: build_dephasing_superoperator(_SPACE, _SPEC).propagate(np.eye(3), 0.1),
    lambda: build_dephasing_superoperator(_SPACE, _SPEC).apply(_RHO.blocks.to_dense()),
    lambda: build_dephasing_superoperator(_SPACE, _SPEC).apply(
        ghz_state(build_space(4), "z").projector()),
    lambda: collective_operator(_SPACE, "x").expectation(np.eye(2)),
    lambda: collective_operator(_SPACE, "x").expectation(_RHO.blocks.to_dense()),
    lambda: NoiseSpec("markovian", True, (0, 0, 2)),
    lambda: TimeGrid(24, True, 10),
    lambda: SweepConfig(4, total_time=True, grid=TimeGrid(count=4, start=0.1, stop=1.0)),
    lambda: coherent_state(_SPACE, True, 0.0),
    lambda: fit_power_law([(10, 1.0), (12, 2.0), (14, 3.0)], n_min=True),
    lambda: NoiseSpec("markovian", np.bool_(True), (0, 0, 2)),
    lambda: cfim(_RHO, [_ZERO] * 3, [np.eye(2)]),
    lambda: qfim(_RHO, [np.zeros((6, 6))] * 3),
    lambda: cfim(_RHO, [np.zeros((6, 6))] * 3, [np.eye(6)]),
    lambda: qfim(_RHO, [_ZERO, _ZERO, collective_operator(build_space(4), "z")]),
    lambda: cfim(_RHO, [_ZERO, _ZERO, collective_operator(build_space(4), "z")], [np.eye(6)]),
    lambda: qfim(_RHO, [_ZERO] * 2),
    lambda: qfim(_RHO, [_ZERO, _NAN, _ZERO]),
    lambda: cfim(_RHO, [_ZERO, _NAN, _ZERO], [np.eye(6)]),
    lambda: DensityOperator(build_space(1), BlockOperator(build_space(1),
                                                          (np.full((2, 2), np.nan),))),
    lambda: DensityOperator(_SPACE, BlockOperator(_SPACE, (np.full((4, 4), np.inf),
                                                           np.zeros((2, 2))))),
    lambda: PovmSet([np.full((2, 2), np.nan)]),
    lambda: BlockOperator(_SPACE, ([[0.0] * 4] * 4, np.zeros((2, 2)))),
    lambda: BlockOperator(_SPACE, ("abcd", np.zeros((2, 2)))),
    lambda: BlockOperator(None, _ZERO.blocks),
    lambda: BlockOperator(_SPACE, None),
    lambda: DensityOperator(_SPACE, _RHO.blocks.to_dense()),
    lambda: StateVector(_SPACE, np.eye(6)[0]),
    lambda: StateVector(build_space(2), [math.nan, 0.0, 0.0]),
    lambda: StateVector(build_space(2), [math.inf, 0.0, 0.0]),
    lambda: collective_operator(_SPACE, "x") * "a",
    lambda: collective_operator(_SPACE, "x") * None,
    lambda: collective_operator(_SPACE, "x") * True,
    lambda: collective_operator(build_space(1), "x") * np.array([1.0, 2.0]),
    lambda: np.array([1.0, 2.0]) * collective_operator(build_space(1), "x"),
    lambda: BlockOperator(build_space(1), (np.array([["a", "b"], ["c", "d"]]),)),
    lambda: BlockOperator(build_space(1), (np.eye(2, dtype=bool),)),
    lambda: husimi_normalization(np.ones((3, 4)), math.nan),
    lambda: husimi_normalization(np.ones((3, 4)), math.inf),
    lambda: husimi_normalization(np.ones((3, 4)), -4),
    lambda: husimi_normalization(np.ones((3, 4)), 0),
    lambda: collective_operator(_SPACE, "w"),
    lambda: coherent_state(_SPACE, math.nan, 0.0),
    lambda: ghz_state(_SPACE, "w"),
    lambda: coupled_multiplets(13),
    lambda: embed_collective(_RHO, {3: [np.zeros((4, 4))], 1: [np.zeros((2, 8))] * 2}),
    lambda: full_hilbert_reference(3, ghz_state(build_space(4), "z"), _FIELD, _SPEC, 1.0),
], ids=["scenario", "kind", "n-text", "n-fraction", "n-bool", "n-list-fraction",
        "workers-fraction", "workers-zero", "gamma-negative", "gamma-text", "axis-zero",
        "total-time-text", "axis-text", "field-text", "axis-scalar", "grid-start-text",
        "grid-stop-none", "grid-tuple", "husimi-grid-fraction", "husimi-map-fraction",
        "husimi-normalization-1d", "fit-n-min-text", "fit-n-min-nan", "evolve-t-text",
        "evolve-t-none", "dephase-t-text", "unitary-t-none", "generator-t-text",
        "gamma-profile-t-text", "integrated-strength-t-text", "propagate-theta-text",
        "kernels-theta-text", "kernels-at-subset", "kernels-entries-unsorted",
        "kernels-entries-repeated", "kernels-entries-negative", "kernels-entries-past-end",
        "kernels-entries-float", "kernels-entries-2d", "kernels-entries-text",
        "gkls-reference-t-text", "hilbert-reference-t-text",
        "bound-sim-repetitions-text", "bound-ind-repetitions-text", "qfim-t-text",
        "scan-n-list-none", "degeneracy-j-text",
        "cumulative-degeneracy-j-none", "degeneracy-j-inf", "coherent-theta-text",
        "bound-ind-entry-text", "fit-points-text", "fit-points-ragged", "qfim-partials-shape",
        "qfim-partials-text", "qfim-partials-none", "husimi-map-density", "husimi-map-text",
        "qfim-matrix-complex", "qfim-matrix-text", "density-operator-text",
        "state-vector-text", "povm-text", "povm-none", "povm-scalar",
        "bound-sim-ndarray", "evolve-rho-ndarray", "partial-rho-result-ndarray",
        "cfim-rho-text", "density-operator-space-none", "state-vector-space-none",
        "evolve-field-tuple", "evolve-spec-none", "gkls-reference-rho-ndarray",
        "partial-rho-field-tuple", "dephase-rho-ndarray", "cfim-partials-text",
        "generator-space-none", "hamiltonian-space-none", "collective-operator-space-none",
        "coherent-space-none", "ghz-space-none", "simultaneous-probe-space-none",
        "bound-sim-repetitions-zero", "bound-ind-repetitions-negative", "total-time-zero",
        "qfim-matrix-shape", "povm-empty", "povm-non-hermitian", "fit-points-1d",
        "husimi-grid-triple", "generator-axis-w", "partial-rho-axis-w",
        "dephase-superoperator-none", "evolve-superoperator-text",
        "evolve-superoperator-other-n", "evolve-superoperator-other-axis", "dephase-spec-none",
        "gamma-profile-spec-none", "integrated-strength-spec-text", "superoperator-spec-none",
        "husimi-normalization-text", "husimi-normalization-dim-text",
        "embed-collective-rho-text", "embed-collective-multiplets-text",
        "embed-collective-multiplets-empty", "embed-collective-multiplets-rows-text",
        "integrated-strength-t-negative-entry", "integrated-strength-t-nan-entry",
        "state-fidelity-shapes", "coupled-multiplets-text", "coupled-multiplets-bool",
        "hilbert-reference-initial-density", "hilbert-reference-field-tuple",
        "hilbert-reference-spec-none", "scan-config-text", "apply-ndarray",
        "propagate-ndarray", "apply-matrix", "apply-other-space", "expectation-ndarray",
        "expectation-matrix", "gamma-bool", "grid-start-bool", "total-time-bool",
        "coherent-theta-bool", "fit-n-min-bool", "gamma-numpy-bool", "cfim-povm-shape",
        "qfim-partials-ndarray", "cfim-partials-ndarray", "qfim-partials-other-space",
        "cfim-partials-other-space", "qfim-partials-two",
        "qfim-partials-nan", "cfim-partials-nan", "density-operator-nan",
        "density-operator-inf-blocks", "povm-nan",
        "block-operator-list-block", "block-operator-text-block", "block-operator-space-none",
        "block-operator-blocks-none", "density-operator-dense", "state-vector-stacked",
        "state-vector-nan", "state-vector-inf", "block-operator-times-text",
        "block-operator-times-none", "block-operator-times-bool", "block-operator-times-array",
        "array-times-block-operator", "block-operator-text-dtype", "block-operator-bool-dtype",
        "husimi-normalization-dim-nan", "husimi-normalization-dim-inf",
        "husimi-normalization-dim-negative", "husimi-normalization-dim-zero",
        "collective-operator-kind-w", "coherent-theta-nan", "ghz-axis-w",
        "coupled-multiplets-past-cap", "embed-collective-rows-shape",
        "hilbert-reference-other-n"])
def test_library_inputs_raise_invalid_argument(call):
    # refused with the typed error, never as a bare TypeError or ValueError
    with pytest.raises(InvalidArgument):
        call()


def test_sweep_is_deterministic():
    cfg = SweepConfig(n_particles=6, gamma=0.1, grid=SMALL_GRID)
    a = sweep_time(cfg)
    b = sweep_time(cfg)
    assert a.times.tobytes() == b.times.tobytes()
    assert a.bounds.tobytes() == b.bounds.tobytes()
    assert (a.t_opt, a.i_min) == (b.t_opt, b.i_min)


def test_sweep_noiseless_runs_to_the_boundary():
    cfg = SweepConfig(n_particles=8, kind=NoiseKind.NONE, gamma=0.0,
                      grid=SMALL_GRID)
    res = sweep_time(cfg)
    curve = res.curve
    assert np.all(np.diff(curve[:, 1]) < 0.0)
    assert res.refinement.boundary
    assert res.t_opt == curve[-1, 0]
    assert res.i_min == curve[-1, 1]


def test_sweep_interior_minimum_invariants():
    cfg = SweepConfig(n_particles=8, kind=NoiseKind.MARKOVIAN, gamma=0.1,
                      grid=SMALL_GRID)
    res = sweep_time(cfg)
    assert not res.refinement.boundary
    assert SMALL_GRID.start <= res.t_opt <= SMALL_GRID.stop
    # the refined optimum cannot leave the coarse cell of the sampled minimum
    coarse_t = res.times[res.refinement.grid_index]
    cell = (SMALL_GRID.stop / SMALL_GRID.start) ** (1.0 / (SMALL_GRID.count - 1))
    assert max(res.t_opt / coarse_t, coarse_t / res.t_opt) < cell
    assert res.i_min <= np.nanmin(res.bounds) * (1.0 + 1e-12)


@pytest.mark.parametrize("values, dip", [
    ([1.0, 2.0, 3.0, 4.0], (0, True)),
    ([4.0, 3.0, 2.0, 1.0], (3, True)),
    ([3.0, 1.0, math.nan, 0.5, 2.0], (1, True)),
    ([2.0, 2.0, 2.0], (0, True)),
    ([math.nan] * 3, (None, True)),
    ([3.0, 1.0, 1.0, 0.5, 2.0], (1, False)),
], ids=["rising", "falling", "next-to-nan", "flat", "all-nan", "interior"])
def test_first_dip_counts_the_edges(values, dip):
    # the first finite sample below the one before it and not above the one
    # after it, an edge or a singular neighbour counting as +inf; a later,
    # lower minimum does not replace it
    assert _first_dip(np.array(values)) == dip


def test_refined_minimum_never_exceeds_the_sampled_one(monkeypatch):
    # a parabola whose vertex lies above the rescan's samples must not raise
    # i_min: the sampled minimum stands
    sampled = []

    def vertex_above(log_t, log_i, idx):
        xv, _ = _parabolic_minimum(log_t, log_i, idx)
        sampled.append(log_i[idx])
        return xv, log_i[idx] + 1.0

    monkeypatch.setattr("spinsense.experiments._parabolic_minimum", vertex_above)
    res = sweep_time(SweepConfig(n_particles=8, kind=NoiseKind.MARKOVIAN, gamma=0.1,
                                 grid=SMALL_GRID))
    assert not res.refinement.boundary
    assert len(sampled) == 1
    assert res.i_min == pytest.approx(math.exp(sampled[0]), rel=1e-12)


def _rescan_bracket(res):
    """The rescan lattice of a sweep with an interior coarse dip, and the
    indices a, b of the point before its last at or before the coarse left
    neighbour and of the point after its first at or after the right one
    (clipped to its edges)."""
    times, i, grid = res.times, res.refinement.grid_index, res.config.grid
    lattice = np.geomspace(max(times[i] / experiments._RESCAN_FACTOR, grid.start),
                           min(times[i] * experiments._RESCAN_FACTOR, grid.stop),
                           experiments._RESCAN_POINTS)
    below = np.flatnonzero(lattice <= times[i - 1])
    above = np.flatnonzero(lattice >= times[i + 1])
    a = max(below[-1] - 1, 0) if below.size else 0
    b = min(above[0] + 1, lattice.size - 1) if above.size else lattice.size - 1
    return lattice, a, b


@pytest.mark.parametrize("grid, most", [(SMALL_GRID, 14), (TimeGrid(), 10),
                                        (TimeGrid(count=150), 7), (TimeGrid(count=300), 6)],
                         ids=["short", "default", "fine", "finest"])
@pytest.mark.parametrize("scenario", list(SweepScenario))
@pytest.mark.parametrize("kind", list(NoiseKind))
@pytest.mark.parametrize("n", [4, 12, 24])
def test_rescan_sweeps_only_the_bracket_of_the_full_lattice_dip(monkeypatch, n, kind,
                                                                scenario, grid, most):
    # the whole rescan lattice has its first dip strictly inside the bracket
    # of the coarse neighbours, one lattice point past each, so the sweep,
    # which passes only the bracket (at most 14 times on the short grid, 10 on
    # the default one), finds the same dip and parabola: t_opt and i_min are
    # those of the whole lattice, also on grids finer than the lattice. The
    # pass over the whole lattice reuses what the sweep prepared for its own.
    passes = _count_calls(monkeypatch, "_bounds_on_grid")
    cfg = SweepConfig(n_particles=n, kind=kind, scenario=scenario, grid=grid)
    res = sweep_time(cfg)
    if res.refinement.boundary:
        assert len(passes) == 1
        return
    lattice, a, b = _rescan_bracket(res)
    rescan = passes[1][-1]
    assert len(passes) == 2 and len(rescan) <= most
    assert np.array_equal(rescan, lattice[a:b + 1])
    values = experiments._bounds_on_grid(*passes[0][:-1], lattice)
    fidx, boundary = _first_dip(values)
    assert not boundary and a < fidx < b
    xv, yv = _parabolic_minimum(np.log(lattice), np.log(values), fidx)
    assert res.t_opt == np.exp(xv)
    assert res.i_min == min(np.exp(yv), values[fidx])


def test_dip_on_the_bracket_edge_is_a_sampled_boundary(monkeypatch):
    # a curve that wiggles up right after the bracket's left edge has its
    # first dip on that edge: the sample stands, flagged as a boundary
    target, passes = experiments._bounds_on_grid, []

    def wiggled(*args):
        values = target(*args)
        if passes:
            values[1] = 2.0 * values[0]
        passes.append((args[-1], values))
        return values

    monkeypatch.setattr(experiments, "_bounds_on_grid", wiggled)
    res = sweep_time(SweepConfig(n_particles=12, kind=NoiseKind.MARKOVIAN, grid=SMALL_GRID))
    [_, (times, values)] = passes
    lattice, a, _ = _rescan_bracket(res)
    assert times[0] == lattice[a] <= res.times[res.refinement.grid_index - 1]
    assert res.refinement.boundary
    assert (res.t_opt, res.i_min) == (times[0], values[0])


def test_grid_coarser_than_the_rescan_factor_rescans_the_whole_lattice(monkeypatch):
    # coarse neighbours a factor 10 from the dip lie outside [t/4, 4t], so
    # the bracket is the whole lattice
    passes = _count_calls(monkeypatch, "_bounds_on_grid")
    res = sweep_time(SweepConfig(n_particles=4, kind=NoiseKind.MARKOVIAN,
                                 grid=TimeGrid(count=4, start=0.1, stop=100.0)))
    t = res.times[res.refinement.grid_index]
    assert not res.refinement.boundary and t == pytest.approx(1.0)
    factor = experiments._RESCAN_FACTOR
    lattice = np.geomspace(t / factor, t * factor, experiments._RESCAN_POINTS)
    assert np.array_equal(passes[1][-1], lattice)


@pytest.mark.parametrize("kind", [NoiseKind.MARKOVIAN, NoiseKind.NONE])
def test_sweep_builds_one_rotation(monkeypatch, kind):
    # every noisy sweep builds one frame, the noise axis's, as a 3 x 3
    # rotation and its spin-1/2 form: on a body diagonal or off one, no
    # collective axis_frame; a noiseless sweep builds none (_noiseless_grams)
    calls, frames = [], []

    def counted(space, axis):
        calls.append(axis)
        return axis_frame(space, axis)

    def counted_rotation(axis):
        frames.append(axis)
        return _frame_rotation(axis)

    monkeypatch.setattr("spinsense.dephasing.axis_frame", counted)
    monkeypatch.setattr("spinsense.experiments._frame_rotation", counted_rotation)
    off_diagonal = 2.0 * np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    for frame in ({}, dict(axis=tuple(off_diagonal), field=tuple(0.01 * off_diagonal))):
        sweep_time(SweepConfig(n_particles=6, kind=kind, gamma=0.1, grid=SMALL_GRID, **frame))
    assert len(calls) == 0
    assert len(frames) == (0 if kind is NoiseKind.NONE else 2)


def test_kernels_and_chunk_qfims_are_shared(monkeypatch):
    # one kernel evaluation and one _chunk_qfim call per chunk, whatever the
    # number of probes (three GHZ probes for ind) and of sectors
    calls = {"kernels": 0, "chunks": 0}
    kernels, chunk_qfim = TransferKernels.values, experiments._chunk_qfim

    def counted_kernels(self, *args):
        calls["kernels"] += 1
        return kernels(self, *args)

    def counted_chunk(*args):
        calls["chunks"] += 1
        return chunk_qfim(*args)

    monkeypatch.setattr(TransferKernels, "values", counted_kernels)
    monkeypatch.setattr(experiments, "_chunk_qfim", counted_chunk)
    res = sweep_time(SweepConfig(n_particles=6, scenario=SweepScenario.INDIVIDUAL,
                                 kind=NoiseKind.MARKOVIAN, gamma=0.1, grid=SMALL_GRID))
    assert not res.refinement.boundary
    assert calls["kernels"] >= 2
    assert calls["chunks"] == calls["kernels"]


def test_sweep_builds_no_chains(monkeypatch):
    # a noisy sweep dephases its probes through the closed-form transfer
    # kernels: it builds no chain batch and exponentiates none
    calls = []
    init, exponential = ChainBatch.__init__, ChainBatch.exponential

    def counted_init(self, *args, **kwargs):
        calls.append("build")
        init(self, *args, **kwargs)

    def counted_exponential(self, theta):
        calls.append("exponential")
        return exponential(self, theta)

    monkeypatch.setattr(ChainBatch, "__init__", counted_init)
    monkeypatch.setattr(ChainBatch, "exponential", counted_exponential)
    for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN):
        res = sweep_time(SweepConfig(n_particles=12, kind=kind, grid=SMALL_GRID))
        assert not res.refinement.boundary
    assert calls == []
    # the counters do see the chains of the propagator
    lsup = build_dephasing_superoperator(build_space(3), SweepConfig(n_particles=3).noise_spec())
    lsup.propagate(simultaneous_probe(lsup.space).projector(), 0.1)
    assert "build" in calls and "exponential" in calls


class _Overlay:
    """target with some attributes replaced."""

    def __init__(self, target, **replaced):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


@pytest.mark.parametrize("kind", [NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN])
@pytest.mark.parametrize("scenario", [SweepScenario.SIMULTANEOUS,
                                      SweepScenario.INDIVIDUAL])
def test_sweep_diagonalises_real_blocks(monkeypatch, kind, scenario):
    # each dephased sector block is P B P^dag with B real symmetric and P a
    # diagonal of phases, so the sweep hands eigh only real blocks; only the
    # numpy the sweep module looks up is replaced, so axis_frame's complex
    # eigh is not seen (a noiseless sweep calls no eigh at all:
    # test_noiseless_sweep_is_closed_form)
    dtypes = []

    def spy(block):
        dtypes.append(block.dtype)
        return np.linalg.eigh(block)

    monkeypatch.setattr(experiments, "np", _Overlay(np, linalg=_Overlay(np.linalg, eigh=spy)))
    sweep_time(SweepConfig(n_particles=6, kind=kind, scenario=scenario, grid=SMALL_GRID))
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


_DEFAULT = SweepConfig(n_particles=1).axis
BODY_DIAGONALS = [(a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)]


@pytest.mark.parametrize("axis", BODY_DIAGONALS + [
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0), (1.0, 2.0, 3.0), (0.02, -0.01, 0.005)])
def test_frame_probes_match_the_rotated_probes(axis):
    # the closed-form noise-frame amplitudes, each group member with the
    # group's moduli and its own phases, against the public probes rotated by
    # the collective axis_frame; a member's axes slice names its probe
    for n in (1, 2, 3, 6, 13, 24, 48):
        space = build_space(n)
        into_frame = axis_frame(space, axis)[0].blocks[0].conj().T
        for scenario, states in (
                (SweepScenario.SIMULTANEOUS, [simultaneous_probe(space)]),
                (SweepScenario.INDIVIDUAL, [ghz_state(space, a) for a in "xyz"])):
            groups, _ = experiments._frame_probes(scenario, n, axis)
            probes = [(modulus, phase, axes) for modulus, members in groups
                      for phase, axes in members]
            assert sorted(axes.start for *_, axes in probes) == list(range(len(states)))
            for modulus, phase, axes in probes:
                expected = into_frame @ states[axes.start].amplitudes[:n + 1]
                assert np.max(np.abs(modulus * phase - expected)) <= 1e-13


@pytest.mark.parametrize("axis", BODY_DIAGONALS)
def test_body_diagonal_symmetry_is_exact(axis):
    # the 3-fold rotation about a body diagonal carries x onto y and z, and in
    # the noise frame it is a diagonal phase: for N = 0 mod 8 the three GHZ
    # probes share one modulus array, and their sum cancels exactly off every
    # third m, which the frame amplitudes show to rounding
    for n, support in ((24, 9), (48, 17), (96, 33), (128, 43)):
        [(_, members)], _ = experiments._frame_probes(SweepScenario.INDIVIDUAL, n, axis)
        assert len(members) == 3
        [(modulus, _)], _ = experiments._frame_probes(SweepScenario.SIMULTANEOUS, n, axis)
        nonzero = np.flatnonzero(modulus)
        assert nonzero.size == support
        assert np.all(np.diff(nonzero) == 3)
        assert np.all(np.delete(modulus, nonzero) == 0.0)


def _spy_eigh(monkeypatch, shape=lambda block: block.shape[-1]):
    """The widths (or other shape) of the blocks the sweep module hands eigh,
    as it runs."""
    widths = []

    def spy(block):
        widths.append(shape(block))
        return np.linalg.eigh(block)

    monkeypatch.setattr(experiments, "np", _Overlay(np, linalg=_Overlay(np.linalg, eigh=spy)))
    return widths


def _count_calls(monkeypatch, name):
    """A list that grows by the arguments of each call of experiments.<name>."""
    calls, target = [], getattr(experiments, name)

    def counted(*args):
        calls.append(args)
        return target(*args)

    monkeypatch.setattr(experiments, name, counted)
    return calls


@pytest.mark.parametrize("kind", [NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN])
def test_individual_probes_share_one_eigensolve(monkeypatch, kind):
    # on the default axis the three GHZ probes share one modulus array, for
    # N = 2 mod 4 as for N = 0 mod 4: ind calls eigh as often as sim, once per
    # chunk and nonzero size of the support in the sectors' windows
    for n in (6, 10, 12):
        per_chunk = []
        for scenario in SweepScenario:
            [(modulus, _)], _ = experiments._frame_probes(scenario, n, _DEFAULT)
            support = np.flatnonzero(modulus)
            stacks = len({int(np.count_nonzero((support >= s) & (support <= n - s)))
                           for s in range(n // 2 + 1)} - {0})
            widths = _spy_eigh(monkeypatch)
            chunks = _count_calls(monkeypatch, "_chunk_qfim")
            res = sweep_time(SweepConfig(n_particles=n, kind=kind, scenario=scenario,
                                         grid=SMALL_GRID))
            assert not res.refinement.boundary
            assert len(widths) == stacks * len(chunks)
            per_chunk.append(stacks)
        assert per_chunk[0] == per_chunk[1]


@pytest.mark.parametrize("axis, n, grouping", [
    (_DEFAULT, 6, [[0, 1, 2]]),
    (_DEFAULT, 10, [[0, 1, 2]]),
    (_DEFAULT, 5, [[0, 1], [2]]),
    ((0.0, 0.0, 1.0), 6, [[0, 1], [2]]),
    ((0.0, 0.0, 1.0), 7, [[0, 1], [2]]),
    ((0.0, 1.0, 0.0), 6, [[0, 2], [1]]),
    ((1.0, 2.0, 3.0), 6, [[0], [1], [2]]),
], ids=["default-6", "default-10", "default-5", "z-6", "z-7", "y-6", "123-6"])
def test_probes_with_equal_moduli_share_a_group(axis, n, grouping):
    # GHZ probes whose frame moduli agree to rounding form one group, however
    # the symmetry behind it arises: on the z axis x and y differ by a turn
    # about it, and on the default axis y and z are images of x up to a
    # relative sign of their branches for N = 2 mod 4
    groups, _ = experiments._frame_probes(SweepScenario.INDIVIDUAL, n, axis)
    assert [[axes.start for _, axes in members] for _, members in groups] == grouping


def test_cancellation_zero_is_exact():
    # for N = 4 mod 8 GHZ_x and so the joint probe vanish at m = 0 on the
    # default axis: the amplitude is exactly 0.0 and its phase 1
    n = 12
    for scenario in SweepScenario:
        [(modulus, members)], _ = experiments._frame_probes(scenario, n, _DEFAULT)
        assert modulus[n // 2] == 0.0
        assert np.count_nonzero(modulus) == n
        assert all(e[n // 2] == 1.0 for e, _ in members)


@pytest.mark.parametrize("grid", [SMALL_GRID, TimeGrid()], ids=["short", "default"])
@pytest.mark.parametrize("scenario", [SweepScenario.SIMULTANEOUS, SweepScenario.INDIVIDUAL])
@pytest.mark.parametrize("n", [12, 48])
def test_noiseless_sweep_is_closed_form(monkeypatch, scenario, n, grid):
    # without noise the probe stays pure and Q(t) = 4 M(t) Sigma M(t)^T: a
    # sweep builds no frame, no transfer kernels and no windows, calls no
    # eigh, and bounds each pass of up to 64 times in one _qfim_bounds call;
    # the individual probes dip inside the default grid, so that sweep makes
    # a second pass, the rescan
    def refused(*args):
        raise AssertionError("a noiseless sweep needs no frame, kernels or windows")

    for name in ("_frame_rotation", "build_transfer_kernels", "_windows"):
        monkeypatch.setattr(experiments, name, refused)
    widths = _spy_eigh(monkeypatch)
    passes = _count_calls(monkeypatch, "_bounds_on_grid")
    bounded = _count_calls(monkeypatch, "_qfim_bounds")
    res = sweep_time(SweepConfig(n_particles=n, kind=NoiseKind.NONE, scenario=scenario,
                                 grid=grid))
    assert widths == []
    assert len(passes) == (2 if grid.count == 60 and scenario is SweepScenario.INDIVIDUAL
                           else 1)
    assert len(passes) == 1 + (not res.refinement.boundary)
    assert len(bounded) == len(passes)


def test_noiseless_covariance_of_the_z_superposition():
    # GHZ_z = (|N/2> + |-N/2>) / sqrt(2): <J> = 0, <J_z^2> = N^2 / 4 and, for
    # N >= 3, J_x and J_y move either branch off the pair, so Sigma = diag(N/4,
    # N/4, N^2/4) to rounding; at N = 2 the J_+^2 and J_-^2 terms join the
    # branches, so <J_x^2> = 1 and <J_y^2> = 0
    for n in range(2, 25):
        [*_, (_, gram)] = experiments._noiseless_grams(SweepScenario.INDIVIDUAL, n)
        expected = np.diag([1.0, 0.0, 1.0] if n == 2 else [n / 4.0, n / 4.0, n * n / 4.0])
        assert np.max(np.abs(gram / 4.0 - expected)) <= 1e-14 * n * n


@pytest.mark.parametrize("scenario", list(SweepScenario))
def test_noiseless_covariance_matches_the_public_operators(scenario):
    # Sigma_bc = Re<J_b J_c> - <J_b><J_c> from the collective_operator blocks
    # and the public probes, against the closed form from the ladder
    for n in range(1, 13):
        space = build_space(n)
        ops = [collective_operator(space, a).blocks[0] for a in "xyz"]
        states = ([simultaneous_probe(space)] if scenario is SweepScenario.SIMULTANEOUS
                  else [ghz_state(space, a) for a in "xyz"])
        grams = experiments._noiseless_grams(scenario, n)
        assert len(grams) == len(states)
        for k, (state, (axes, gram)) in enumerate(zip(states, grams)):
            psi = state.amplitudes
            v = np.array([op @ psi for op in ops])
            mean = np.array([np.vdot(psi, w).real for w in v])
            sigma = np.array([[np.vdot(a, b).real for b in v] for a in v]) - np.outer(mean, mean)
            assert axes == (slice(0, 3) if scenario is SweepScenario.SIMULTANEOUS
                            else slice(k, k + 1))
            assert np.max(np.abs(gram / 4.0 - sigma)) <= 1e-12


@pytest.mark.parametrize("n, kind, scenario", [
    (n, kind, scenario) for n in (12, 24, 48) for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONE)
    for scenario in SweepScenario] + [(23, NoiseKind.MARKOVIAN, SweepScenario.INDIVIDUAL),
                                      (96, NoiseKind.MARKOVIAN, SweepScenario.SIMULTANEOUS)])
def test_chunk_stays_within_its_budget(monkeypatch, n, kind, scenario):
    # two chunks of the most times a sweep's pass takes at once, run once to
    # warm up, hold at most 1.25 times _CHUNK_BYTES on top of the tables the
    # sweep prepared; N = 23 splits the individual probes in two groups, and
    # at N = 96 all sectors' kernels for one time would already take 1.25 MB.
    # A noiseless pass holds only coefficients and QFIMs, 64 times at once
    cfg = SweepConfig(n_particles=n, kind=kind, scenario=scenario, grid=SMALL_GRID)
    chunks = _count_calls(monkeypatch, "_chunk_qfim")
    passes = _count_calls(monkeypatch, "_bounds_on_grid")
    sweep_time(cfg)
    _, qfims, size, _ = passes[0]
    assert n != 23 or len(experiments._sweep_probes(cfg, build_space(n), cfg.noise_spec())[0]) == 2
    assert size == 64 or kind is not NoiseKind.NONE
    times = np.geomspace(0.05, 100.0, 2 * size)
    chunks.clear()
    experiments._bounds_on_grid(cfg, qfims, size, times)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        experiments._bounds_on_grid(cfg, qfims, size, times)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(chunks) == 4
    assert peak <= 1.25 * experiments._CHUNK_BYTES


def test_dephased_sweep_runs_in_few_chunks(monkeypatch):
    # N = 24, non-markovian: 24 coarse and at most 14 rescan times, one
    # chunk per pass
    chunks = _count_calls(monkeypatch, "_chunk_qfim")
    res = sweep_time(SweepConfig(n_particles=24, kind=NoiseKind.NONMARKOVIAN, grid=SMALL_GRID))
    assert not res.refinement.boundary
    assert len(chunks) <= 2


def test_joint_probe_is_diagonalised_on_its_support(monkeypatch):
    # at N = 24 on the default axis the joint probe lives on every third m:
    # each sector's block is as wide as the support inside its window, 9, 7,
    # 7, 7, 5, ..., 1, and the windows of one width share one eigh per chunk,
    # width 1 too
    n = 24
    [(modulus, _)], _ = experiments._frame_probes(SweepScenario.SIMULTANEOUS, n,
                                                  SweepConfig(n_particles=n).axis)
    support = np.flatnonzero(modulus)
    inside = [int(np.count_nonzero((support >= s) & (support <= n - s)))
              for s in range(n // 2 + 1)]
    assert inside == [9, 7, 7, 7, 5, 5, 5, 3, 3, 3, 1, 1, 1]
    shapes = _spy_eigh(monkeypatch, lambda block: block.shape[-3:-1])
    chunks = _count_calls(monkeypatch, "_chunk_qfim")
    res = sweep_time(SweepConfig(n_particles=n, grid=SMALL_GRID))
    assert not res.refinement.boundary
    assert shapes == [(1, 9), (3, 7), (3, 5), (3, 3), (3, 1)] * len(chunks)
    assert max(a for _, a in shapes) == support.size == 9


def test_individual_probes_stack_one_window_per_size():
    # at N = 24 on the default axis the GHZ probes fill every window: each
    # window has its own size, so each stack holds one window
    cfg = SweepConfig(n_particles=24, scenario=SweepScenario.INDIVIDUAL, grid=SMALL_GRID)
    [(stacks, axes, _)], *_ = experiments._sweep_probes(cfg, build_space(24), cfg.noise_spec())
    assert len(axes) == 3
    assert [top.shape for _, top, *_ in stacks] == [(1, d, d) for d in range(25, 0, -2)]


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("kind", [NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN,
                                  NoiseKind.NONE])
def test_support_eigensolves_match_dense_pipeline(n, kind):
    # for N = 0 mod 8 on the default axis the joint probe's blocks are
    # diagonalised on its support, with the pairs into the null space as
    # couplings: the bounds still match evolve -> partial_rho -> qfim
    cfg = SweepConfig(n_particles=n, kind=kind, grid=TimeGrid(count=12, start=0.05, stop=100.0))
    [(modulus, _)], _ = experiments._frame_probes(cfg.scenario, n, cfg.axis)
    assert np.count_nonzero(modulus) < n // 2
    expected, conds = _pointwise_bounds(cfg)
    got = sweep_time(cfg).bounds
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    well = conds < 1e6
    assert well.sum() >= 6
    assert np.max(np.abs(got[well] / expected[well] - 1.0)) < 1e-9


def test_sweep_markovian_optimum_is_earlier():
    grid = TimeGrid(count=24, start=0.05, stop=100.0)
    mark = sweep_time(SweepConfig(n_particles=8, kind=NoiseKind.MARKOVIAN,
                                  gamma=0.1, grid=grid))
    nonmark = sweep_time(SweepConfig(n_particles=8, kind=NoiseKind.NONMARKOVIAN,
                                     gamma=0.1, grid=grid))
    assert mark.t_opt < nonmark.t_opt


def test_individual_strategy_needs_more_repetitions():
    grid = TimeGrid(count=20, start=0.05, stop=100.0)
    base = dict(n_particles=6, kind=NoiseKind.MARKOVIAN, gamma=0.05, grid=grid)
    sim = sweep_time(SweepConfig(scenario=SweepScenario.SIMULTANEOUS, **base))
    ind = sweep_time(SweepConfig(scenario=SweepScenario.INDIVIDUAL, **base))
    assert ind.i_min > sim.i_min


def test_scan_collects_ascending_rows():
    cfg = SweepConfig(n_particles=4, gamma=0.1, grid=SMALL_GRID)
    rows = scan_particles([4, 6, 8], cfg)
    assert [r.n_particles for r in rows] == [4, 6, 8]
    assert rows.dropped == ()
    assert all(r.t_opt > 0.0 and r.i_min > 0.0 and not r.boundary for r in rows)
    vals = [r.i_min for r in rows]
    assert vals[0] > vals[1] > vals[2]
    with pytest.raises(InvalidArgument):
        scan_particles([6, 4], cfg)
    with pytest.raises(InvalidArgument):
        scan_particles([4, 4, 6], cfg)
    with pytest.raises(InvalidArgument):
        scan_particles([], cfg)


def test_scan_worker_pool_matches_serial():
    cfg = SweepConfig(n_particles=4, gamma=0.1,
                      grid=TimeGrid(count=16, start=0.05, stop=100.0))
    serial = scan_particles([4, 6], cfg, workers=1)
    pooled = scan_particles([4, 6], cfg, workers=2)
    assert [(r.n_particles, r.t_opt, r.i_min) for r in serial] \
        == [(r.n_particles, r.t_opt, r.i_min) for r in pooled]


def test_scan_pool_is_capped_at_the_number_of_sweeps(pool_sizes):
    # a pool forks all its workers up front, so it gets no more workers than
    # there are sweeps, and none for a single sweep
    cfg = SweepConfig(n_particles=2, gamma=0.1,
                      grid=TimeGrid(count=8, start=0.1, stop=20.0))
    serial = scan_particles([2, 4], cfg, workers=1)
    assert pool_sizes == []
    pooled = scan_particles([2, 4], cfg, workers=64)
    assert pool_sizes == [2]
    assert [(r.n_particles, r.t_opt, r.i_min) for r in pooled] \
        == [(r.n_particles, r.t_opt, r.i_min) for r in serial]
    single = scan_particles([4], cfg, workers=64)
    assert pool_sizes == [2]
    assert (single[0].t_opt, single[0].i_min) == (serial[1].t_opt, serial[1].i_min)


def test_fit_recovers_synthetic_exponents():
    ns = np.arange(10, 31, 2, dtype=float)
    for exponent in (-2.0, -1.5, -1.0, 0.5, 1.0):
        values = 3.7 * ns ** exponent
        fit = fit_power_law(list(zip(ns, values)))
        assert abs(fit.exponent - exponent) < 1e-12
        assert abs(fit.prefactor - 3.7) / 3.7 < 1e-12
        assert fit.residual < 1e-13
        assert fit.n_used == len(ns)


def test_fit_cutoff_and_validation():
    pts = [(4.0, 1.0), (6.0, 2.0), (10.0, 3.0), (12.0, 4.0), (14.0, 5.0)]
    fit = fit_power_law(pts, n_min=10)
    assert fit.n_used == 3
    with pytest.raises(InvalidArgument):
        fit_power_law(pts[:2], n_min=0)
    with pytest.raises(InvalidArgument):
        fit_power_law([(10.0, 1.0), (12.0, -1.0), (14.0, 2.0)])
    with pytest.raises(InvalidArgument):
        fit_power_law([(10.0, 1.0), (12.0, math.nan), (14.0, 2.0)])


def test_husimi_grid_conventions():
    thetas, phis = husimi_grid((7, 8))
    assert thetas[0] == 0.0 and thetas[-1] == math.pi
    assert phis[0] == 0.0 and phis[-1] < 2.0 * math.pi
    with pytest.raises(InvalidArgument):
        husimi_grid((1, 10))


def test_husimi_polar_lobes():
    space = build_space(10)
    q = husimi_map(ghz_state(space, "z"), (61, 120))
    assert abs(q[0, 0] - 0.5) < 1e-12          # both poles carry half weight
    assert abs(q[-1, 0] - 0.5) < 1e-12
    assert q[30].max() < 0.01                  # equator is dark


def test_husimi_six_lobes():
    space = build_space(40)
    q = husimi_map(simultaneous_probe(space), (91, 180))
    equator = q[45]
    peaks = [q[0, 0], q[90, 0],
             equator[0], equator[45], equator[90], equator[135]]
    troughs = [q[22, 0], q[22, 45], equator[22], equator[67],
               equator[112], equator[157]]
    assert min(peaks) > 10.0 * max(troughs)


def test_husimi_normalization_converges():
    for n in (12, 40):
        space = build_space(n)
        q = husimi_map(simultaneous_probe(space), (200, 200))
        total = husimi_normalization(q, n + 1)
        assert abs(total - 1.0) < 1e-3


def test_all_singular_sweep_raises():
    cfg = SweepConfig(n_particles=1, kind=NoiseKind.NONE, gamma=0.0,
                      grid=TimeGrid(count=6, start=0.1, stop=50.0))
    with pytest.raises(ExperimentFailed):
        sweep_time(cfg)


def _indefinite_qfim(chunk, *prepared):
    # one QFIM per grid time of the chunk, as _chunk_qfim returns them
    return np.broadcast_to(np.diag([1.0, 1.0, -1.0]).astype(complex), chunk.shape + (3, 3))


def _nonreal_qfim(chunk, *prepared):
    return np.full(chunk.shape + (3, 3), 1.0 + 0.5j)


@pytest.mark.parametrize("fake, scenario, check", [
    pytest.param(_indefinite_qfim, SweepScenario.SIMULTANEOUS, "positive semidefinite",
                 id="indefinite-sim"),
    pytest.param(_nonreal_qfim, SweepScenario.SIMULTANEOUS, "non-real", id="nonreal-sim"),
    pytest.param(_nonreal_qfim, SweepScenario.INDIVIDUAL, "non-real", id="nonreal-ind"),
])
def test_invalid_qfim_is_not_hidden(monkeypatch, fake, scenario, check):
    # an invalid QFIM is a numerical fault, not a singular grid point or a bad
    # argument: the sweep raises instead of dropping the point as NaN
    monkeypatch.setattr("spinsense.experiments._chunk_qfim", fake)
    cfg = SweepConfig(n_particles=2, scenario=scenario,
                      grid=TimeGrid(count=6, start=0.1, stop=50.0))
    with pytest.raises(NumericalError, match=f"invalid QFIM at t=.*{check}"):
        sweep_time(cfg)


# QFIMs a fake _chunk_qfim hands the sweep, one per grid time of a chunk
_FAKE_QFIMS = {
    "regular": np.eye(3),
    "singular": np.diag([1.0, 1.0, 0.0]),
    "indefinite": np.diag([1.0, 1.0, -1.0]),
    "nonreal-indefinite": np.diag([1.0, 1.0, -1.0]) + 0.5j * np.eye(3),
}


@pytest.mark.parametrize("third, check", [("nonreal-indefinite", "non-real"),
                                          ("indefinite", "positive semidefinite")])
def test_first_invalid_time_is_named_past_a_singular_one(monkeypatch, third, check):
    # the chunk is checked as one stack: a singular first time is NaN, and the
    # error names the first invalid time, the third, with the reason of the
    # first check it fails (non-real before indefinite), not a later one
    kinds = ["singular", "regular", third, "indefinite", "nonreal-indefinite", "regular"]

    def fake(chunk, *prepared):
        assert chunk.shape == (len(kinds),)
        return np.array([_FAKE_QFIMS[k] for k in kinds], dtype=complex)

    monkeypatch.setattr("spinsense.experiments._chunk_qfim", fake)
    cfg = SweepConfig(n_particles=2, grid=TimeGrid(count=6, start=0.1, stop=50.0))
    t = cfg.grid.values()[2]
    with pytest.raises(NumericalError, match=re.escape(f"invalid QFIM at t={t:.6g}: ") + f".*{check}"):
        sweep_time(cfg)


@pytest.mark.parametrize("scenario", [SweepScenario.SIMULTANEOUS, SweepScenario.INDIVIDUAL])
def test_sweep_bounds_each_chunk_in_one_step(monkeypatch, scenario):
    # one eigvalsh per chunk of a joint sweep (none for the individual one,
    # which reads the diagonal), no QfimMatrix and neither public bound
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the sweep bounds its chunks through _qfim_bounds")

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(estimation.QfimMatrix, "__post_init__", refused)
    for module in (estimation, experiments):
        for name in ("bound_simultaneous", "bound_individual"):
            monkeypatch.setattr(module, name, refused, raising=False)
    chunks = _count_calls(monkeypatch, "_chunk_qfim")
    res = sweep_time(SweepConfig(n_particles=24, kind=NoiseKind.NONMARKOVIAN,
                                 scenario=scenario, grid=SMALL_GRID))
    assert not res.refinement.boundary and len(chunks) >= 2
    _, a, b = _rescan_bracket(res)
    sim = scenario is SweepScenario.SIMULTANEOUS
    assert len(shapes) == (len(chunks) if sim else 0)
    assert sum(shape[0] for shape in shapes) == (SMALL_GRID.count + b - a + 1 if sim else 0)


def test_import_leaves_the_process_pool_unloaded():
    # a scan imports its pool only when it starts one, so importing the
    # package loads neither concurrent.futures, nor the logging it imports,
    # nor multiprocessing
    package_root = str(Path(experiments.__file__).resolve().parents[1])
    code = ("import sys, spinsense\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert 'logging' not in sys.modules\n"
            "assert 'multiprocessing' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=package_root)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_sweep_loads_no_module():
    # import spinsense loads all a sweep runs: a noisy joint sweep (on every
    # third m at N = 8, so with the couplings off its support), a noisy
    # individual one and a noiseless one add nothing to sys.modules, which a
    # lazily loaded numpy module, such as the numpy.ma of np.setdiff1d, would
    package_root = str(Path(experiments.__file__).resolve().parents[1])
    code = ("import sys, spinsense\n"
            "loaded = set(sys.modules)\n"
            "for kind, scenario in (('markovian', 'sim'), ('markovian', 'ind'), ('none', 'sim')):\n"
            "    spinsense.sweep_time(spinsense.SweepConfig(\n"
            "        n_particles=8, kind=kind, scenario=scenario,\n"
            "        grid=spinsense.TimeGrid(count=24, start=0.05, stop=100.0)))\n"
            "assert set(sys.modules) == loaded, sorted(set(sys.modules) - loaded)")
    env = dict(os.environ, PYTHONPATH=package_root)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("kind", [NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN,
                                  NoiseKind.NONE])
@pytest.mark.parametrize("field", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.01, 0.01)],
                         ids=["nan", "inf", "two-components"])
def test_sweep_config_rejects_invalid_field(kind, field):
    # the field is checked when the configuration is built, before any
    # sweep tests it against the noise axis
    with pytest.raises(InvalidArgument):
        SweepConfig(n_particles=4, kind=kind, field=field, grid=SMALL_GRID)


def test_noisy_sweep_refuses_nonparallel_field():
    # the split behind the sweep needs the field along the noise axis
    cfg = SweepConfig(n_particles=4, field=(0.01, 0.0, 0.0), grid=SMALL_GRID)
    with pytest.raises(AssumptionViolated):
        sweep_time(cfg)
    # without noise any field direction is fine, and so is the reversed axis
    sweep_time(replace(cfg, kind=NoiseKind.NONE, gamma=0.0))
    sweep_time(replace(cfg, field=(-0.01, -0.01, -0.01)))


# (field, axis) pairs of the pointwise-pipeline comparison; "off-axis" is a field
# off the noise axis, which only a noiseless sweep accepts
FRAMES = {
    "default": {},
    "reversed": dict(field=(-0.01, -0.01, -0.01)),
    "axis+z": dict(field=(0.0, 0.0, 0.015), axis=(0.0, 0.0, 2.0)),
    "axis-z": dict(field=(0.0, 0.0, 0.015), axis=(0.0, 0.0, -2.0)),
    "off-axis": dict(field=(0.02, -0.01, 0.005)),
    "zero": dict(field=(0.0, 0.0, 0.0)),
}


# N = 12 adds a 7-sector state whose probe phases (the P of the real sector
# blocks) spread over the whole circle in the default frame; N = 6 and 10
# (2 mod 4) share one eigensolve among the three GHZ probes there, and at odd
# N = 5, 7 and 13 x and y share one product chain while z has its own
@pytest.mark.parametrize("n, frame", [
    pytest.param(n, frame, id=str(n) if frame == "default" else f"{n}-{frame}")
    for frame in FRAMES for n in (4, 7)] + [pytest.param(n, "default", id=str(n))
                                           for n in (5, 6, 10, 12, 13)])
@pytest.mark.parametrize("kind", [NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN,
                                  NoiseKind.NONE])
@pytest.mark.parametrize("scenario", [SweepScenario.SIMULTANEOUS,
                                      SweepScenario.INDIVIDUAL])
def test_sweep_bounds_match_dense_pipeline(n, kind, scenario, frame):
    # the grid-batched sector-block evaluation in the noise frame (the field
    # frame without noise) against evolve -> partial_rho -> qfim -> bound on
    # the rotated state's sector blocks in the lab frame; under noise both
    # refuse a field off the axis
    cfg = SweepConfig(n_particles=n, kind=kind, scenario=scenario, gamma=0.05,
                      grid=TimeGrid(count=12, start=0.05, stop=100.0), **FRAMES[frame])
    if frame == "off-axis" and kind is not NoiseKind.NONE:
        with pytest.raises(AssumptionViolated):
            _pointwise_bounds(cfg)
        with pytest.raises(AssumptionViolated):
            sweep_time(cfg)
        return
    expected, conds = _pointwise_bounds(cfg)
    got = sweep_time(cfg).bounds
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    well = conds < 1e6
    assert well.sum() >= 6
    rel = np.abs(got[well] - expected[well]) / np.abs(expected[well])
    assert rel.max() < 1e-9


@pytest.mark.parametrize("n, kind, scenario", [
    (48, kind, scenario) for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN)
    for scenario in SweepScenario] + [(96, NoiseKind.MARKOVIAN, SweepScenario.SIMULTANEOUS)])
def test_sweep_bounds_match_pointwise_pipeline_at_large_n(n, kind, scenario):
    # the transfer kernels, windows, ladder Grams and chunks at large N against
    # evolve -> partial_rho -> qfim -> bound on sector blocks, at three grid
    # times across the coarse dip of the acceptance grid
    cfg = SweepConfig(n_particles=n, kind=kind, scenario=scenario, grid=SMALL_GRID)
    coarse = sweep_time(cfg)
    i = coarse.refinement.grid_index
    assert not coarse.refinement.boundary
    cfg = replace(cfg, grid=TimeGrid(3, coarse.times[i - 1], coarse.times[i + 1]))
    expected, conds = _pointwise_bounds(cfg)
    got = sweep_time(cfg).bounds
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    well = conds < 1e6
    assert well.all()
    assert np.max(np.abs(got[well] / expected[well] - 1.0)) < 1e-9


@pytest.mark.parametrize("kind", [NoiseKind.MARKOVIAN, NoiseKind.NONE])
@pytest.mark.parametrize("scenario", [SweepScenario.SIMULTANEOUS,
                                      SweepScenario.INDIVIDUAL])
def test_zero_field_sweep_is_the_weak_field_limit(kind, scenario):
    # a zero field is the limit of a 1e-9 field along the frame axis: the
    # noise axis, or z without noise; the weak field's pointwise QFIM
    # conditioning picks the points to compare
    base = SweepConfig(n_particles=6, kind=kind, scenario=scenario, grid=SMALL_GRID)
    frame_axis = base.axis if kind is not NoiseKind.NONE else (0.0, 0.0, 1.0)
    weak_field = tuple(1e-9 * np.array(frame_axis) / np.linalg.norm(frame_axis))
    weak_cfg = replace(base, field=weak_field)
    zero = sweep_time(replace(base, field=(0.0, 0.0, 0.0)))
    weak = sweep_time(weak_cfg)
    _, conds = _pointwise_bounds(weak_cfg)
    assert np.array_equal(np.isnan(zero.bounds), np.isnan(weak.bounds))
    well = conds < 1e6
    assert well.sum() >= 12
    assert np.max(np.abs(zero.bounds[well] / weak.bounds[well] - 1.0)) < 1e-9
    assert zero.refinement == weak.refinement
    assert abs(zero.t_opt / weak.t_opt - 1.0) < 1e-9
    assert abs(zero.i_min / weak.i_min - 1.0) < 1e-9


def test_sweep_memory_stays_below_one_dense_matrix():
    # the sweep holds sector blocks of a chunk of grid times, never a dense
    # d x d matrix, and its chunks do not grow with the grid
    n = 48
    dense = build_space(n).total_dim ** 2 * 16
    peaks = []
    for count in (24, 240):
        cfg = SweepConfig(n_particles=n, kind=NoiseKind.NONE, gamma=0.0,
                          grid=TimeGrid(count=count, start=0.05, stop=100.0))
        tracemalloc.start()
        try:
            sweep_time(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < dense
    assert peaks[1] < 1.5 * peaks[0]
