"""Spans around calls into the spinsense layers, recorded from outside.

The package is not edited: the traced run replaces, for the life of one
child process, the names that ``spinsense.experiments`` and ``spinsense.cli``
look up at call time with wrappers that record a span (name, start, end,
parent, run id) in memory. A replay of the public evolve / partial_rho /
qfim calls then splits the private grid loop inside the sweep. Per-layer
metrics are computed from the spans when the run ends.
"""

from __future__ import annotations

import importlib
import time

# Coarse-grid indices at which the traced run replays the public
# evolve / partial_rho / qfim calls (t ~ 0.36, 2.6 and 19).
REPLAY_INDICES = (6, 12, 18)

# (module, attribute, span name). A name a later version no longer defines is
# reported as absent; its metrics then read 0.
TARGETS = (
    ("spinsense.experiments", "build_space", "dicke.build_space"),
    ("spinsense.experiments", "simultaneous_probe", "dicke.probe"),
    ("spinsense.experiments", "ghz_state", "dicke.probe"),
    ("spinsense.experiments", "build_dephasing_superoperator", "dephasing.build"),
    ("spinsense.experiments", "FieldBasis", "dynamics.field_basis"),
    ("spinsense.experiments", "bound_simultaneous", "estimation.bound"),
    ("spinsense.experiments", "bound_individual", "estimation.bound"),
    ("spinsense.experiments", "sweep_time", "experiments.sweep"),
    ("spinsense.cli", "scan_particles", "experiments.scan"),
    ("spinsense.cli", "main", "cli.main"),
)
REPLAY_TARGETS = (
    ("spinsense", "evolve", "dynamics.evolve"),
    ("spinsense", "partial_rho", "estimation.partial_rho"),
    ("spinsense", "qfim", "estimation.qfim"),
)

# Per-layer metric -> (span name, statistic). "self" subtracts the time of
# direct child spans; "nnz" reads the size attribute of the built generator.
LAYER_METRICS = {
    "dicke.build_space_s": ("dicke.build_space", "time"),
    "dicke.build_space_calls": ("dicke.build_space", "calls"),
    "dicke.probe_s": ("dicke.probe", "time"),
    "dicke.probe_calls": ("dicke.probe", "calls"),
    "dephasing.build_s": ("dephasing.build", "time"),
    "dephasing.build_calls": ("dephasing.build", "calls"),
    "dephasing.nnz": ("dephasing.build", "nnz"),
    "dynamics.field_basis_s": ("dynamics.field_basis", "time"),
    "dynamics.field_basis_calls": ("dynamics.field_basis", "calls"),
    "dynamics.evolve_s": ("dynamics.evolve", "time"),
    "estimation.partial_rho_s": ("estimation.partial_rho", "time"),
    "estimation.qfim_s": ("estimation.qfim", "time"),
    "estimation.bound_s": ("estimation.bound", "time"),
    "estimation.bound_calls": ("estimation.bound", "calls"),
    "estimation.singular_points": ("estimation.bound", "singular"),
    "experiments.sweep_s": ("experiments.sweep", "time"),
    "experiments.sweep_calls": ("experiments.sweep", "calls"),
    "experiments.sweep_self_s": ("experiments.sweep", "self"),
    "cli.main_s": ("cli.main", "time"),
    "cli.self_s": ("cli.main", "self"),
}


def wrap(module, attr, make_wrapper, absent):
    """Replace module.attr by make_wrapper(module.attr) for the life of the
    process; a missing name is appended to absent instead."""
    if not hasattr(module, attr):
        absent.append(f"{module.__name__}.{attr}")
        return
    setattr(module, attr, make_wrapper(getattr(module, attr)))


class Tracer:
    """In-memory span recorder; spans of one body share a run id."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []

    def wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def call(self, name, fn, *args, **kwargs):
        span = {"name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        nnz = getattr(result, "nnz", None) if name == "dephasing.build" else None
        if nnz is not None:
            span["nnz"] = int(nnz)
        return result


def install(tracer, absent, targets=TARGETS):
    for module_name, attr, span_name in targets:
        module = importlib.import_module(module_name)
        wrap(module, attr, lambda fn, s=span_name: tracer.wrapper(s, fn), absent)


def replay(inputs, n, kind):
    """Public evolve, partial_rho and qfim at a few of the workload's grid
    times, for the probe and noise of the sweep being split. The calls go
    through the module attributes, so the installed wrappers record them."""
    import spinsense
    count, start, stop = inputs["grid"]
    times = spinsense.TimeGrid(count=count, start=start, stop=stop).values()
    space = spinsense.build_space(n)
    rho0 = spinsense.simultaneous_probe(space).projector()
    spec = spinsense.NoiseSpec(kind, inputs["gamma"], inputs["axis"])
    field = spinsense.FieldParams(inputs["phi"])
    # Built once, as the sweep does, so that the evolve spans hold only
    # propagation and rotation. The top-level name is not wrapped, so this
    # build adds nothing to the dephasing.build metrics of the body.
    superoperator = None
    if spec.gamma > 0.0:
        superoperator = spinsense.build_dephasing_superoperator(space, spec)
    for i in REPLAY_INDICES:
        t = float(times[i])
        result = spinsense.evolve(rho0, field, spec, t, superoperator=superoperator)
        partials = [spinsense.partial_rho(result, field, axis) for axis in "xyz"]
        spinsense.qfim(result.rho, partials, t=t)


def layer_metrics(spans):
    """Per-layer totals from a list of spans."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for metric, (name, stat) in LAYER_METRICS.items():
        chosen = [(i, s) for i, s in enumerate(spans) if s["name"] == name]
        if stat == "calls":
            value = len(chosen)
        elif stat == "time":
            value = sum(s["end"] - s["start"] for _, s in chosen)
        elif stat == "self":
            value = sum(s["end"] - s["start"]
                        - sum(c["end"] - c["start"] for c in children.get(i, ()))
                        for i, s in chosen)
        elif stat == "nnz":
            value = max((s.get("nnz", 0) for _, s in chosen), default=0)
        else:  # singular
            value = sum(1 for _, s in chosen if s.get("error") == "SingularQfim")
        out[metric] = value
    return out
