"""Command-line front end for the collective-spin sensing library.

Subcommands map onto the library layers: space inspection, single
evolutions, interrogation-time sweeps, particle-number scans, power-law
fits, Husimi maps, and a one-shot verification battery.

Every output is deterministic and self-describing: a metadata header
(package version, resolved configuration, configuration hash, whether the
rate default was assumed) precedes the data, so any table can be
reproduced from its own header. Curves and scans are emitted as RFC-4180
CSV with '#'-prefixed metadata lines; single-result commands emit JSON.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import dynamics
from .dicke import _PROBES, BlockOperator, _probe, build_space, collective_operator, dicke_dimension
from .dephasing import _PROFILES, NoiseKind, NoiseSpec, build_dephasing_superoperator
from .dynamics import (FieldParams, _parallel, evolve, full_gkls_reference,
                       full_hilbert_reference, unitary)
from .errors import (AssumptionViolated, ExperimentFailed, InvalidArgument, SingularQfim,
                     SpinsenseError, _count)
from .estimation import (QfimMatrix, bound_individual, bound_simultaneous, generator_operator,
                         partial_rho, qfim)
from .experiments import (_DEFAULT_AXIS, _DEFAULT_FIELD, _SCENARIOS, SweepConfig, TimeGrid,
                          fit_power_law, husimi_grid, husimi_map, scan_particles, sweep_time)

_CRLF = "\r\n"


# ---------------------------------------------------------------------------
# Option table and argument parsing
# ---------------------------------------------------------------------------

def _split_values(text, kinds, what):
    """The values of an 'a,b,c' flag or a JSON list (config files), each by its kind."""
    if isinstance(text, (list, tuple)):
        parts = list(text)
    else:
        parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != len(kinds):
        raise InvalidArgument(f"{what} needs {len(kinds)} values, got {text!r}")
    return tuple(kind(p) for kind, p in zip(kinds, parts))


def _number(kind):
    """Coercion to kind (int or float) of a flag string or config value;
    booleans and, for int, non-integral numbers are refused, not truncated."""
    def coerce(value):
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise InvalidArgument(f"expected {kind.__name__}, got {value!r}")
        try:
            return kind(value)
        except (TypeError, ValueError) as exc:
            raise InvalidArgument(f"expected {kind.__name__}, got {value!r}") from exc
    return coerce


_as_int, _as_float = _number(int), _number(float)


def _text(value):
    """A flag string or config-file string as it is; any other JSON value is refused."""
    if not isinstance(value, str):
        raise InvalidArgument(f"expected text, got {value!r}")
    return value


def _one_worker(value):
    """The one --workers value, 1, kept so that older command lines still run."""
    if isinstance(value, bool) or value not in (1, "1"):
        raise InvalidArgument(f"scans run in-process, so only 1 is accepted, got {value!r}")
    return 1


def _triple(text):
    return _split_values(text, (_as_float,) * 3, "vector")


def _grid_spec(text):
    return TimeGrid(*_split_values(text, (_as_int, _as_float, _as_float), "t-grid (count,min,max)"))


def _shape(text):
    return _split_values(text, (_as_int,) * 2, "grid (rows,cols)")


def _int_list(text):
    if not isinstance(text, (list, tuple)):
        text = [p.strip() for p in str(text).split(",") if p.strip()]
    if not text:
        raise InvalidArgument("n-list must not be empty")
    return [_as_int(v) for v in text]


# One row per option, under its key (the flag is --key): help text, the
# coercion of a flag string or config-file value (argparse passes flags on as
# text), the resolved default, and any further argparse keywords. Commands pick
# subsets from this table in _COMMANDS, which follows the runners it names.
_OPTIONS = {
    "n": ("particle count N", _as_int, None, dict(metavar="N")),
    "gamma": ("dephasing rate", _as_float, 0.05, dict(metavar="G")),
    "kind": ("noise profile", _text, "markovian", dict(choices=[k.value for k in _PROFILES])),
    "scenario": ("estimation strategy", _text, "sim", dict(choices=[s.value for s in _SCENARIOS])),
    "t-total": ("total time budget T", _as_float, 100.0, dict(metavar="T")),
    "phi": ("field components x,y,z", _triple, _DEFAULT_FIELD, dict(metavar="X,Y,Z")),
    "axis": ("noise axis x,y,z (norm 2)", _triple, _DEFAULT_AXIS, dict(metavar="X,Y,Z")),
    "t-grid": ("shot-duration grid count,min,max", _grid_spec, TimeGrid(),
               dict(metavar="C,MIN,MAX")),
    "n-list": ("particle counts, ascending", _int_list, None, dict(metavar="N1,N2,...")),
    "t": ("shot duration", _as_float, None, dict(metavar="T")),
    "probe": ("initial state", _text, None, dict(choices=list(_PROBES))),
    "grid": ("husimi grid rows,cols", _shape, (181, 360), dict(metavar="ROWS,COLS")),
    "in": ("input CSV produced by scan-n", _text, None, dict(metavar="PATH")),
    "column": ("value column to fit", _text, "i_min", dict(metavar="NAME")),
    "n-min": ("smallest N included in the fit", _as_int, 10, dict(metavar="N")),
    "out": ("output path (default: stdout)", _text, None, dict(metavar="PATH")),
    "format": ("output encoding", _text, None, dict(choices=["csv", "json"])),
    "workers": ("only 1: scans run in-process", _one_worker, None, dict(metavar="1")),
    "verbose": ("progress notes on stderr", _as_int, 0,
                dict(action="count", default=None)),
}


@functools.cache  # once per process: argparse reads the terminal width as it prints
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spinsense",
        description="Collective-spin sensing: dynamics, bounds, and sweeps.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (summary, keys, *_) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        sub.add_argument("--config", type=str, metavar="PATH",
                         help="flat JSON config; explicit flags win")
        for key in keys:
            text, _, _, extra = _OPTIONS[key]
            sub.add_argument(f"--{key}", help=text, **extra)
    return parser


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation: the command, its parameters, and where
    and how the result is written. explicit_keys records which parameters
    were set by the user (flag or config file) rather than defaulted."""

    command: str
    params: dict
    out: str
    fmt: str
    verbose: int
    explicit_keys: frozenset


def _load_config_file(path, allowed):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidArgument(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidArgument(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidArgument(f"config file {path} must hold a flat JSON object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise InvalidArgument(
            f"config file {path} has unknown keys {unknown}; allowed: {sorted(allowed)}")
    return data


def _resolve(args):
    """Merge flags over the config file over defaults into a RunConfig."""
    command = args.command
    _, keys, _, formats = _COMMANDS[command]
    file_values = {}
    if args.config:
        file_values = _load_config_file(args.config, keys)

    params = {}
    explicit = set()
    for key in keys:
        _, coerce, default, extra = _OPTIONS[key]
        flag = getattr(args, key.replace("-", "_"))
        if flag is None and key not in file_values:
            params[key] = default
            continue
        source, value = ((f"--{key}", flag) if flag is not None
                         else (f"config key {key!r}", file_values[key]))
        try:
            params[key] = coerce(value)
            choices = extra.get("choices")
            if choices is not None and params[key] not in choices:
                raise InvalidArgument(f"expected one of {choices}, got {value!r}")
        except InvalidArgument as exc:
            raise InvalidArgument(f"{source}: {exc}") from exc
        explicit.add(key)

    fmt = params.pop("format", None) or formats[0]
    if fmt not in formats:
        raise InvalidArgument(f"{command} supports format {formats}, got {fmt!r}")
    out = params.pop("out", None)
    params.pop("workers", None)  # checked to be 1; it changes nothing
    verbose = params.pop("verbose", 0) or 0
    return RunConfig(command=command, params=params, out=out, fmt=fmt, verbose=verbose,
                     explicit_keys=frozenset(explicit))


# ---------------------------------------------------------------------------
# Metadata and serialization helpers
# ---------------------------------------------------------------------------

def _jsonable(value):
    return [value.count, value.start, value.stop] if isinstance(value, TimeGrid) else value


def _canonical(cfg):
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _build_meta(run):
    """Metadata block shared by all outputs; the hash covers run.params, the
    keys that influence the numbers (_resolve took the output options out)."""
    cfg = {k: _jsonable(v) for k, v in sorted(run.params.items())}
    return {
        "version": __version__,
        "command": run.command,
        "config": cfg,
        "config-sha256": hashlib.sha256(_canonical(cfg).encode("utf-8")).hexdigest(),
        "gamma-assumed": "gamma" in run.params and "gamma" not in run.explicit_keys,
    }


def _fmt_float(x):
    # repr round-trips exactly and is the shortest such form.
    x = float(x)
    if not math.isfinite(x):
        return ""
    return repr(x)


def _sanitize(obj):
    """Replace non-finite floats by None so the JSON stays strict."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _dump_json(document):
    return json.dumps(_sanitize(document), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _emit(run, doc, table=None):
    """The [(path, text)] output of a run in its checked format: doc as JSON,
    or table = (header, rows, footer) as CSV, under the metadata block."""
    meta = _build_meta(run)
    if run.fmt == "json":
        return [(run.out, _dump_json({"meta": meta, **doc}))]
    header, rows, footer = table
    lines = [f"# spinsense-version = {meta['version']}",
             f"# command = {meta['command']}",
             f"# config = {_canonical(meta['config'])}",
             f"# config-sha256 = {meta['config-sha256']}",
             f"# gamma-assumed = {'true' if meta['gamma-assumed'] else 'false'}"]
    buf = io.StringIO()
    buf.write("".join(line + _CRLF for line in lines))
    writer = csv.writer(buf, lineterminator=_CRLF)
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    buf.write("".join(line + _CRLF for line in footer))
    return [(run.out, buf.getvalue())]


def _require(params, key, command):
    if params.get(key) is None:
        raise InvalidArgument(f"{command} requires --{key}")
    return params[key]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _run_space_info(run):
    space = build_space(_require(run.params, "n", "space-info"))
    sectors = [
        {"j": s.twoj / 2.0, "dim": s.dim, "offset": s.offset,
         "multiplicity": s.multiplicity}
        for s in space.sectors
    ]
    product = 2 ** space.n_particles
    return _emit(run, {
        "n-particles": space.n_particles,
        "dimension": space.total_dim,
        "product-dimension": product,
        "sectors": sectors,
    }, (["j", "dim", "offset", "multiplicity"],
        [[_fmt_float(s["j"]), s["dim"], s["offset"], s["multiplicity"]] for s in sectors],
        [f"# dimension = {space.total_dim}", f"# product-dimension = {product}"]))


def _run_evolve(run):
    p = run.params
    n = _require(p, "n", "evolve")
    t = _require(p, "t", "evolve")
    probe_name = p["probe"] or "ghz-z"
    space = build_space(n)
    spec = NoiseSpec(kind=p["kind"], gamma=p["gamma"], axis=p["axis"])
    field = FieldParams(p["phi"])
    rho0 = _probe(space, probe_name).projector()
    # the split where it holds (_parallel), else the joint integrator
    split = _parallel(field.phi, spec)
    rho = evolve(rho0, field, spec, t).rho if split else full_gkls_reference(rho0, field, spec, t)
    jops = [collective_operator(space, a) for a in ("x", "y", "z")]
    first = [float(op.expectation(rho).real) for op in jops]
    second = [[(a @ b).expectation(rho) for b in jops] for a in jops]
    return _emit(run, {
        "t": float(t),
        "probe": probe_name,
        "split-valid": split,
        "trace": float(rho.sector_weights().sum()),
        "purity": rho.purity(),
        "sector-weights": [float(w) for w in rho.sector_weights()],
        "first-moments": {"x": first[0], "y": first[1], "z": first[2]},
        "second-moments-real": [[float(v.real) for v in row] for row in second],
        "second-moments-imag": [[float(v.imag) for v in row] for row in second],
    })


def _sweep_config(params):
    n = _require(params, "n", "sweep-time")
    return SweepConfig(
        n_particles=n,
        scenario=params["scenario"],
        kind=params["kind"],
        gamma=params["gamma"],
        field=params["phi"],
        axis=params["axis"],
        total_time=params["t-total"],
        grid=params["t-grid"],
    )


def _run_sweep_time(run):
    config = _sweep_config(run.params)
    result = sweep_time(config)
    column = f"i_{config.scenario.value}"
    curve = list(zip(result.times, result.bounds))
    return _emit(run, {
        "column": column,
        "curve": [[float(t), float(v)] for t, v in curve],
        "t-opt": result.t_opt,
        "i-min": result.i_min,
        "boundary": result.refinement.boundary,
    }, (["t", column], [[_fmt_float(t), _fmt_float(v)] for t, v in curve],
        [f"# t_opt = {_fmt_float(result.t_opt)}",
         f"# i_min = {_fmt_float(result.i_min)}",
         f"# boundary = {'true' if result.refinement.boundary else 'false'}"]))


def _run_scan_n(run):
    p = run.params
    n_list = _require(p, "n-list", "scan-n")
    base = _sweep_config({**p, "n": n_list[0]})
    if run.verbose:
        print(f"scan-n: {len(n_list)} particle counts", file=sys.stderr)
    rows = scan_particles(n_list, base)
    dropped = "; ".join(f"{n} ({reason})" for n, reason in rows.dropped)
    return _emit(run, {
        "rows": [{"n": r.n_particles, "scenario": r.scenario.value, "kind": r.kind.value,
                  "t-opt": r.t_opt, "i-min": r.i_min, "boundary": r.boundary}
                 for r in rows],
        "dropped": [{"n": n, "reason": reason} for n, reason in rows.dropped],
    }, (["n", "scenario", "kind", "t_opt", "i_min", "boundary"],
        [[r.n_particles, r.scenario.value, r.kind.value, _fmt_float(r.t_opt),
          _fmt_float(r.i_min), "true" if r.boundary else "false"] for r in rows],
        [f"# dropped = {dropped or 'none'}"]))


def _read_scan_csv(path, column):
    """(n, value) of each row of a scan-n CSV with a value in column, and the
    N of each row whose boundary column reads true; '#' lines, blank rows and
    empty value cells (NaN) are skipped, and a CSV without a boundary column
    has no boundary rows. Text that is not UTF-8, a short row, a non-number
    or a boundary other than true or false is a bad argument naming its line."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidArgument(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise InvalidArgument(
            f"{path} line {line} is not UTF-8 text: {exc.reason}") from None
    numbered = [(k, ln) for k, ln in enumerate(io.StringIO(text, newline=""), 1)
                if not ln.startswith("#")]
    reader = csv.reader(ln for _, ln in numbered)
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidArgument(f"{path} holds no CSV header") from None
    if "n" not in header or column not in header:
        raise InvalidArgument(
            f"{path} must provide columns 'n' and {column!r}, found {header}")
    n_idx, v_idx = header.index("n"), header.index(column)
    b_idx = header.index("boundary") if "boundary" in header else None
    need, points, skipped = max(n_idx, v_idx, b_idx or 0) + 1, [], []
    for row in reader:
        line = numbered[reader.line_num - 1][0]
        if len(row) < need and "".join(row).strip():
            raise InvalidArgument(f"{path} line {line}: row has {len(row)} fields, need {need}")
        if len(row) < need or not row[v_idx].strip():
            continue
        flag = "false" if b_idx is None else row[b_idx]
        try:
            if flag not in ("true", "false"):
                raise ValueError(f"boundary must be true or false, got {flag!r}")
            (skipped if flag == "true" else points).append((float(row[n_idx]), float(row[v_idx])))
        except ValueError as exc:
            raise InvalidArgument(f"{path} line {line}: {exc}") from None
    return points, [int(n) if n.is_integer() else n for n, _ in skipped]


def _run_fit(run):
    p = run.params
    points, skipped = _read_scan_csv(_require(p, "in", "fit"), p["column"])
    fit = fit_power_law(points, n_min=p["n-min"])
    return _emit(run, {
        "column": p["column"],
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "residual": fit.residual,
        "n-used": fit.n_used,
        "skipped": skipped,
    })


def _run_husimi(run):
    p = run.params
    n = _require(p, "n", "husimi")
    probe_name = p["probe"] or "sim"
    shape = p["grid"]
    qmap = husimi_map(_probe(build_space(n), probe_name), shape)
    thetas, phis = husimi_grid(shape)
    axes = {"probe": probe_name,
            "theta": [float(v) for v in thetas],
            "phi": [float(v) for v in phis]}
    if run.fmt == "json":
        return _emit(run, {**axes, "q": [[float(v) for v in row] for row in qmap]})
    if not run.out:
        raise InvalidArgument(
            "husimi csv output writes a matrix plus a companion axes file; "
            "pass --out")
    matrix = [[_fmt_float(v) for v in row] for row in qmap]
    axes_doc = {"meta": _build_meta(run), "rows": int(shape[0]), "cols": int(shape[1]),
                **axes}
    return (_emit(run, None, (None, matrix, ()))
            + [(run.out + ".axes.json", _dump_json(axes_doc))])


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------

def _check_dimensions():
    for n in range(1, 31):
        space = build_space(n)
        counted = sum(s.multiplicity * s.dim for s in space.sectors)
        if counted != 2 ** n:
            return False, f"multiplicity sum {counted} != 2^{n}"
        if space.total_dim != dicke_dimension(n):
            return False, f"sector layout disagrees with the dimension formula at N={n}"
    return True, "N = 1..30 exact"


def _check_operator_fixture():
    r = math.sqrt(3.0) / 2.0
    expected = np.zeros((6, 6))
    for i, j, v in ((0, 1, r), (1, 2, 1.0), (2, 3, r), (4, 5, 0.5)):
        expected[i, j] = expected[j, i] = v
    got = collective_operator(build_space(3), "x").to_dense()
    dev = float(np.max(np.abs(got - expected)))
    return dev <= 1e-12, f"max entry deviation {dev:.2e}"


def _check_commutators(n):
    space = build_space(n)
    jx, jy, jz = (collective_operator(space, a) for a in ("x", "y", "z"))
    dev = float(np.abs((jx @ jy - jy @ jx - 1j * jz).ravel()).max())
    return dev <= 1e-12, f"N={n}, max |[Jx,Jy] - iJz| = {dev:.2e}"


def _check_superoperator(n):
    space = build_space(n)
    superop = build_dephasing_superoperator(space, SweepConfig(n_particles=n).noise_spec())
    rng = np.random.default_rng(20240817)
    worst_tr, worst_h = 0.0, 0.0
    for _ in range(20):
        parts = (rng.normal(size=(2, s.dim, s.dim)) for s in space.sectors)
        x = BlockOperator(space, tuple(re + 1j * im for re, im in parts))
        x = x + x.dagger()
        lx = superop.apply(x * (1.0 / np.max(np.abs(x.ravel()))))
        trace = sum(np.trace(b) for b in lx.blocks)
        worst_tr = max(worst_tr, abs(float(trace.real)), abs(float(trace.imag)))
        worst_h = max(worst_h, float(np.max(np.abs((lx - lx.dagger()).ravel()))))
    ok = worst_tr <= 1e-10 and worst_h <= 1e-10
    return ok, f"N={n}, trace leak {worst_tr:.2e}, hermiticity leak {worst_h:.2e}"


def _check_split_vs_joint(n):
    space, config = build_space(n), SweepConfig(n_particles=n)
    spec, field = config.noise_spec(), config.field_params()
    rho0 = _probe(space, "ghz-z").projector()
    diff = evolve(rho0, field, spec, 2.0).rho.blocks - full_gkls_reference(
        rho0, field, spec, 2.0).blocks
    dist = 0.5 * float(sum(np.sum(np.abs(np.linalg.eigvalsh(b))) for b in diff.blocks))
    return dist <= 1e-8, f"N={n}, trace distance {dist:.2e}"


@functools.lru_cache(maxsize=1)
def _product_space_deviations(n):
    """The worst moment deviation and the worst density-matrix entry
    deviation of the fast path from the product-space oracle, over both
    noise kinds."""
    space = build_space(n)
    moments = state = 0.0
    for kind in (NoiseKind.MARKOVIAN, NoiseKind.NONMARKOVIAN):
        config = SweepConfig(n_particles=n, kind=kind)
        cmp = full_hilbert_reference(n, _probe(space, "sim"), config.field_params(),
                                     config.noise_spec(), 2.0)
        moments = max(moments,
                      float(np.max(np.abs(cmp.first_moments_full - cmp.first_moments_dicke))),
                      float(np.max(np.abs(cmp.second_moments_full - cmp.second_moments_dicke))))
        state = max(state, cmp.state_deviation)
    return moments, state


def _check_product_space(n, which, what):
    worst = _product_space_deviations(n)[which]
    return worst <= 1e-6, f"N={n}, worst {what} deviation {worst:.2e}"


def _check_finite_differences(n):
    space = build_space(n)
    rng = np.random.default_rng(20240818)
    eps = 1e-6
    worst = 0.0
    for _ in range(10):
        phi = rng.uniform(-0.2, 0.2, size=3)
        t = float(rng.uniform(0.1, 5.0))
        k = int(rng.integers(3))
        step = eps * np.eye(3)[k]
        u_plus, u, u_minus = (unitary(space, FieldParams(phi + s), t) for s in (step, 0.0, -step))
        analytic = -1j * (u @ generator_operator(space, FieldParams(phi), t, "xyz"[k]))
        error = (u_plus - u_minus) * (0.5 / eps) - analytic
        worst = max(worst, float(np.abs(error.ravel()).max() / np.abs(analytic.ravel()).max()))
    return worst <= 1e-6, f"N={n}, worst relative derivative error {worst:.2e}"


def _pointwise_bounds(config):
    """A sweep's coarse bound curve from the public calls at each grid time,
    evolve -> partial_rho -> qfim -> bound on the rotated state, each probe
    giving Q over the slice it estimates (_SCENARIOS), with the QFIM condition
    number of each point (of diag(Q_kk) for several probes, bound individually)."""
    space = build_space(config.n_particles)
    spec = config.noise_spec()
    field = config.field_params()
    lsup = build_dephasing_superoperator(space, spec) if spec.gamma > 0.0 else None
    probes = [(_probe(space, name), axes) for name, axes in _SCENARIOS[config.scenario]]
    individual = len(probes) > 1
    bounds, conds = [], []
    for t in config.grid.values():
        q = np.zeros((3, 3))
        for probe, ax in probes:
            r = evolve(probe.projector(), field, spec, t, superoperator=lsup)
            q[ax, ax] = qfim(r.rho, [partial_rho(r, field, a) for a in "xyz"]).entries[ax, ax]
        w = np.diagonal(q) if individual else np.linalg.eigvalsh(q)
        conds.append(w.max() / w.min() if w.min() > 0.0 else math.inf)
        try:
            bounds.append((bound_individual(*w, config.total_time / t) if individual else
                           bound_simultaneous(QfimMatrix(q, t, space.n_particles),
                                              config.total_time / t)).value)
        except SingularQfim:
            bounds.append(math.nan)
    return np.array(bounds), np.array(conds)


def _check_sweep_vs_pointwise(n):
    worst, compared = 0.0, 0
    # both noise kinds in the noise frame; without noise, the closed form for the default
    # field and one off the body diagonal; the zero field, with and without noise; and,
    # whatever n, the noisy joint probe at N = 8, on every third m: columns off its support
    grid, zero = TimeGrid(count=8, start=0.05, stop=100.0), {"field": (0.0, 0.0, 0.0)}
    cases = ((NoiseKind.MARKOVIAN, {}), (NoiseKind.NONMARKOVIAN, {}), (NoiseKind.NONE, {}),
             (NoiseKind.NONE, {"field": (0.02, -0.01, 0.005)}), (NoiseKind.MARKOVIAN, zero),
             (NoiseKind.NONE, zero))
    for config in [SweepConfig(n_particles=n, kind=kind, scenario=scenario, grid=grid, **extra)
                   for kind, extra in cases for scenario in _SCENARIOS] + [
                       SweepConfig(n_particles=8, grid=grid)]:
        expected, conds = _pointwise_bounds(config)
        try:
            got = sweep_time(config).bounds
        except ExperimentFailed:
            got = np.full(len(expected), math.nan)
        if not np.array_equal(np.isnan(got), np.isnan(expected)):
            return False, (f"N={config.n_particles}, {config.kind.value} "
                           f"{config.scenario.value}: singular points differ")
        well = conds < 1e6
        compared += int(well.sum())
        if well.any():
            worst = max(worst, float(np.max(np.abs(got[well] / expected[well] - 1.0))))
    return worst <= 1e-9, f"N={n} and 8, {compared} points, worst relative deviation {worst:.2e}"


def _run_verify(run):
    n = _count(run.params["n"] if run.params["n"] is not None else 3, "n", 1)
    checks = [
        ("dimension-counting", _check_dimensions),
        ("operator-fixture", _check_operator_fixture),
        ("commutators", lambda: _check_commutators(n)),
        ("superoperator-preservation", lambda: _check_superoperator(n)),
        ("split-vs-joint", lambda: _check_split_vs_joint(n)),
        ("product-space-moments", lambda: _check_product_space(n, 0, "moment")),
        ("product-space-state", lambda: _check_product_space(n, 1, "density-matrix entry")),
        ("finite-difference-generators", lambda: _check_finite_differences(n)),
        ("sweep-vs-pointwise", lambda: _check_sweep_vs_pointwise(n)),
    ]
    lines = []
    failures = 0
    for name, func in checks:
        if name.startswith("product-space") and n > dynamics._HILBERT_MAX_N:
            lines.append(f"SKIP {name} (requires n <= {dynamics._HILBERT_MAX_N}, got {n})")
            continue
        if name == "split-vs-joint" and dicke_dimension(n) > dynamics._GKLS_MAX_DIM:
            lines.append(
                f"SKIP {name} (reference integrator capped at d <= {dynamics._GKLS_MAX_DIM})")
            continue
        ok, detail = func()
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        failures += 0 if ok else 1
    total = len([ln for ln in lines if not ln.startswith("SKIP")])
    lines.append(f"verify: {total - failures}/{total} checks passed")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if run.out:
        with open(run.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Each subcommand: its help, its option keys ("config" is implicit), its
# runner and its formats, the default first; _resolve refuses any other
# --format before the runner runs. sweep-time and scan-n share sweep options;
# scan-n alone takes --workers, and only as 1.
_OUTPUT = ("out", "format", "verbose")
_SWEEP = ("gamma", "kind", "scenario", "t-total", "phi", "axis", "t-grid")
_COMMANDS = {
    "space-info": ("print the sector layout of the collective basis",
                   ("n",) + _OUTPUT, _run_space_info, ("json", "csv")),
    "evolve": ("evolve one probe state and report its collective moments",
               ("n", "gamma", "kind", "phi", "axis", "t", "probe") + _OUTPUT, _run_evolve,
               ("json",)),
    "sweep-time": ("sweep the shot duration and locate the optimal time",
                   ("n",) + _SWEEP + _OUTPUT, _run_sweep_time, ("csv", "json")),
    "scan-n": ("repeat the sweep over a list of particle counts",
               ("n-list",) + _SWEEP + ("workers",) + _OUTPUT, _run_scan_n,
               ("csv", "json")),
    "fit": ("fit a power law to a scan-n output column",
            ("in", "column", "n-min") + _OUTPUT, _run_fit, ("json",)),
    "husimi": ("tabulate the Husimi distribution of a probe state",
               ("n", "probe", "grid") + _OUTPUT, _run_husimi, ("csv", "json")),
    "verify": ("run the built-in verification battery",
               ("n", "out"), _run_verify, ("text",)),
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        run = _resolve(args)
        if run.command == "verify":  # prints its own report, returns its exit code
            return _run_verify(run)
        for path, text in _COMMANDS[run.command][2](run):
            if path is None:
                sys.stdout.write(text)
            else:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                if run.verbose:
                    print(f"wrote {path}", file=sys.stderr)
    except SpinsenseError as exc:  # a numerical failure or failed experiment exits 3
        print(f"spinsense: {type(exc).__name__}: {exc}", file=sys.stderr)
        return {InvalidArgument: 2, AssumptionViolated: 4}.get(type(exc), 3)
    except OSError as exc:
        print(f"spinsense: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
