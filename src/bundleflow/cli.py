"""Command-line front end.

    bundleflow <command> --config <path> [--out <dir>] [--check <name>]

Commands: curvature, flow-ode, flow-be, flow-bundle, verify, plot.  The
configuration is a single JSON document that ``load_config`` validates
strictly before any work starts, by one table, ``_SCHEMA``: each command's
keys with their rules, and the defaults of its params and numerics (the
README lists every rule); a command with a geometry then builds its catalog
entry, whose constructor checks the params' domain.  Exit codes: 0 success,
2 configuration error, 3 numeric failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import bakry_emery as be
from . import kahler_einstein as ke
from .bundle import BundleState, blocks_to_chart, bundle_integrate, ricci_blocks_torus
from .catalog import BUNDLE_RESOLUTION, CONSTRUCTORS, by_name, heisenberg_bundle_fields
from .diffgeo import DEFAULT_ORACLE_STEP, ricci_with_defect, spd_inverse
from .errors import BundleFlowError, ConfigError, DomainError, SingularMetric, StepRejected
from .grids import MIN_RESOLUTION
from .integrate import DEFAULT_C_CFL, DEFAULT_TOL, EXTINCTION_RATIO
from .svgplot import render_phase_portrait
from .traces import FlowTrace, atomic_write_text, read_trace, reduced_flow_trace, write_trace

COMMANDS = ("curvature", "flow-ode", "flow-be", "flow-bundle", "verify", "plot")
T_END = 1.0


def _finite(value) -> bool:
    """A finite JSON number: not a bool, nor an integer that no float holds."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _integer(value) -> bool:
    return isinstance(value, int) and _finite(value)


# a rule: (accepts the value, what it must be)
_FINITE = (_finite, "a finite number")
_POSITIVE = (lambda v: _finite(v) and v > 0, "a finite number > 0")
_COUNT = (lambda v: _integer(v) and v >= 1, "an integer >= 1")
_RESOLUTION = (lambda v: _integer(v) and v >= MIN_RESOLUTION, f"an integer >= {MIN_RESOLUTION}")
_OUTPUTS = (None, (lambda v: isinstance(v, dict) and all(isinstance(p, str) for p in v.values()),
                   "an object of file paths"))
_GEOMETRY = (str, (lambda v: v in sorted(CONSTRUCTORS), f"one of {sorted(CONSTRUCTORS)}"))
# each geometry's params: all required, heisenberg's n an integer; the catalog
# constructor, which the command runs, checks their domain
_GEOMETRY_PARAMS = {geometry: {key: (int, _COUNT) if key == "n" else (float, _FINITE)
                               for key in keys} for geometry, (_, keys) in CONSTRUCTORS.items()}

# Each command's keys besides "command", as key -> (default, rule); a section's
# rule is its own table of that form.  A type as the default marks a required
# key, read as that type; None an optional key without a default; any other
# default is the value of an absent key, and a given value is read as its type.
_SCHEMA = {
    "curvature": {
        "geometry": _GEOMETRY,
        "params": (dict, _GEOMETRY_PARAMS),
        "numerics": (None, {"h": (DEFAULT_ORACLE_STEP, _POSITIVE)}),
        "point": (None, (lambda v: isinstance(v, list) and all(map(_finite, v)),
                         "a list of finite numbers")),
        "outputs": _OUTPUTS},
    "flow-ode": {
        "geometry": _GEOMETRY,
        "params": (dict, _GEOMETRY_PARAMS),
        "numerics": (None, {"t_end": (T_END, _POSITIVE), "tol": (DEFAULT_TOL, _POSITIVE),
                            "extinction_ratio": (EXTINCTION_RATIO, (
                                lambda v: _finite(v) and v >= 0, "a finite number >= 0"))}),
        "outputs": _OUTPUTS},
    "flow-be": {
        "params": (dict, {
            "N": ("inf", (lambda v: _finite(v) and v != 2 or v in ("inf", "Infinity", math.inf),
                          'a number other than the base dimension 2, or "inf"')),
            "amplitude": (0.1, _FINITE),
            "k": ([0, 1], (lambda v: isinstance(v, list) and all(map(_integer, v)),
                           "a list of integers"))}),
        "numerics": (None, {"resolution": (32, _RESOLUTION), "extent": (2.0 * math.pi, _POSITIVE),
                            "dt": (1.0, _POSITIVE), "t_end": (T_END, _POSITIVE),
                            "c_cfl": (DEFAULT_C_CFL, _POSITIVE), "record_every": (1, _COUNT)}),
        "outputs": _OUTPUTS},
    "flow-bundle": {
        "geometry": (str, (lambda v: v == "heisenberg", "'heisenberg'")),
        "params": (dict, {"n": (1, (lambda v: _integer(v) and v in (1, 2),
                                    "1 or 2 (a 2- or 4-dimensional base chart)")),
                          "c": (1.0, _FINITE)}),
        "numerics": (None, {"resolution": (BUNDLE_RESOLUTION, _RESOLUTION),
                            "dt": (5e-3, _POSITIVE), "t_end": (T_END, _POSITIVE),
                            "c_cfl": (DEFAULT_C_CFL, _POSITIVE), "record_every": (5, _COUNT)}),
        "outputs": _OUTPUTS},
    "verify": {
        "checks": (None, (lambda v: isinstance(v, list) and len(v) > 0
                          and all(isinstance(c, str) for c in v),
                          "a non-empty list of check names")),
        "outputs": _OUTPUTS},
    "plot": {
        "inputs": (object, (lambda v: isinstance(v, str) or isinstance(v, list)
                            and all(isinstance(p, str) for p in v),
                            "a directory or a list of trace paths")),
        "style": (None, {key: (None, (lambda v: isinstance(v, str), "a string"))
                         for key in ("title", "x_label", "y_label")}),
        "outputs": _OUTPUTS},
}


def _table(cfg: dict, section: str) -> dict:
    """The key table of a section of the config: for params, its geometry's."""
    table = _SCHEMA[cfg["command"]][section][1]
    return table[cfg["geometry"]] if table is _GEOMETRY_PARAMS else table


def _check(cfg: dict, where: str, table: dict, given) -> None:
    """Apply a key table to one object of the config: no unknown key, every
    required key given, and each value accepted by its rule (a section by its
    table), in table order, so the geometry is checked before its params."""
    if not isinstance(given, dict):
        raise ConfigError(f"'{where}' must be an object, got {given!r}")
    unknown = set(given) - set(table)
    if unknown:
        raise ConfigError(f"unknown {where} keys for {cfg['command']}: {sorted(unknown)}; "
                          f"allowed: {list(table)}")
    missing = [key for key, (default, _) in table.items()
               if isinstance(default, type) and key not in given]
    if missing:
        raise ConfigError(f"missing {where} keys for {cfg['command']}: {missing}")
    for key, (_, rule) in table.items():
        if key not in given:
            continue
        value = given[key]
        if isinstance(rule, dict):
            _check(cfg, key, _table(cfg, key), value)
        elif not rule[0](value):
            name = key if where == "config" else f"{where}.{key}"
            raise ConfigError(f"{name} must be {rule[1]}, got {key} = {value!r}")


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    command = cfg.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"config 'command' must be one of {COMMANDS}, got {command!r}")
    _check(cfg, "config", _SCHEMA[command], {k: v for k, v in cfg.items() if k != "command"})
    return cfg


def _resolved(cfg: dict, section: str) -> dict:
    """The command's params or numerics: each key of the section's table with the
    config's value or else its default, read as the default's type."""
    given = cfg.get(section, {})
    return {key: (default if isinstance(default, type) else type(default))(given.get(key, default))
            for key, (default, _) in _table(cfg, section).items()}


def _geometry_entry(cfg: dict):
    """The catalog entry of the config's geometry and params; a parameter outside
    the constructor's domain is a config error."""
    try:
        return by_name(cfg["geometry"], _resolved(cfg, "params"))
    except BundleFlowError as exc:
        raise ConfigError(str(exc))


def _out_path(cfg: dict, out_dir: str | None, key: str, default: str) -> str:
    path = cfg.get("outputs", {}).get(key, default)
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    return path


def _write_flow(cfg: dict, out_dir: str | None, flow: FlowTrace, default: str, stop: str) -> int:
    """Write a flow command's trace to ``outputs.trace`` (else ``default``) and report it."""
    path = _out_path(cfg, out_dir, "trace", default)
    write_trace(flow, path)
    print(f"{cfg['command']}: {len(flow)} rows, stop={stop}, wrote {path}")
    return 0


def cmd_flow_ode(cfg: dict, out_dir: str | None) -> int:
    entry = _geometry_entry(cfg)
    num = _resolved(cfg, "numerics")
    trace = ke.ke_integrate(entry.ke_state0, entry.ke_params, num["t_end"], tol=num["tol"],
                            extinction_ratio=num["extinction_ratio"])
    meta = {"command": "flow-ode", "geometry": cfg["geometry"], "version": __version__,
            "config": json.dumps(cfg, sort_keys=True)}
    for key, value in sorted(cfg.get("params", {}).items()):
        meta[key] = format(value, "g") if isinstance(value, float) else str(value)
    return _write_flow(cfg, out_dir, reduced_flow_trace(trace, meta), "trace.csv",
                       trace.stop_reason)


def cmd_curvature(cfg: dict, out_dir: str | None) -> int:
    geometry = cfg["geometry"]
    params = cfg.get("params", {})
    h = _resolved(cfg, "numerics")["h"]
    entry = _geometry_entry(cfg)
    if entry.bundle_at is None:
        raise ConfigError(f"curvature needs a pointwise bundle decomposition, "
                          f"which '{geometry}' does not record")
    point = np.asarray(cfg.get("point", entry.sample_point), dtype=float)
    if point.shape != (entry.total_metric.dims,):
        raise ConfigError(f"'point' must have {entry.total_metric.dims} coordinates "
                          f"for {geometry}, got {point.size}")
    try:
        data, alpha_at = entry.bundle_at(point)
    except DomainError as exc:
        raise ConfigError(f"'point' is outside the domain: {exc}")
    # a metric rejected at p is a numeric failure; a point of the oracle's stencil
    # off the metric's domain or rejected by the oracle's spd_inverse, a bad h
    with np.errstate(all="ignore"):
        spd_inverse(entry.total_metric(point))
        try:
            oracle, defect = ricci_with_defect(entry.total_metric, point, step=h)
        except (DomainError, SingularMetric) as exc:
            raise ConfigError(f"numerics.h = {h!r} takes the oracle off the metric: {exc}")
    blocks = ricci_blocks_torus(data)
    expected = blocks_to_chart(blocks, alpha_at)
    max_err = float(np.max(np.abs(oracle - expected)))
    report = {
        "command": "curvature",
        "geometry": geometry,
        "params": {k: params[k] for k in sorted(params)},
        "point": point.tolist(),
        "h": h,
        "blocks": {"fiber": blocks.fiber.tolist(), "mixed": blocks.mixed.tolist(),
                   "base": blocks.base.tolist()},
        "chart_from_blocks": expected.tolist(),
        "chart_from_oracle": oracle.tolist(),
        "oracle_asymmetry_defect": float(defect),
        "max_abs_error": max_err,
        "version": __version__,
    }
    path = _out_path(cfg, out_dir, "report", "curvature.json")
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"curvature: max |oracle - blocks| = {max_err:.3e} at h={h:g}, wrote {path}")
    return 0


def run_flow_be(cfg: dict):
    """The ``flow-be`` run of a config: (records, stop_reason) of ``be_integrate``."""
    params, num = _resolved(cfg, "params"), _resolved(cfg, "numerics")
    try:
        state0 = be.sine_density_start(float(params["N"]), params["amplitude"],
                                       num["resolution"], num["extent"])
    except DomainError as exc:      # an extent whose grid spacing a float cannot square
        raise ConfigError(str(exc))
    try:
        return be.be_integrate(state0, num["dt"], num["t_end"], params["k"],
                               c_cfl=num["c_cfl"], record_every=num["record_every"])
    except StepRejected as exc:     # no step from the start, however halved: bad input
        raise exc if exc.t != state0.t else ConfigError(
            f"the flow cannot step params {params} from dt = {num['dt']!r}: {exc}")


def cmd_flow_be(cfg: dict, out_dir: str | None) -> int:
    records, stop = run_flow_be(cfg)
    params, num = _resolved(cfg, "params"), _resolved(cfg, "numerics")
    columns = {"t": np.array([r.t for r in records])}
    for k in params["k"]:
        columns[f"min_tildeS_{k}"] = np.array([r.min_tildeS[k] for r in records])
    columns["max_grad_f_sq"] = np.array([r.max_grad_f_sq for r in records])
    meta = {"command": "flow-be", "N": params["N"], "amplitude": format(params["amplitude"], "g"),
            "resolution": str(num["resolution"]), "stop_reason": stop,
            "version": __version__, "config": json.dumps(cfg, sort_keys=True)}
    return _write_flow(cfg, out_dir, FlowTrace(columns, meta), "trace_be.csv", stop)


def run_flow_bundle(cfg: dict):
    """The ``flow-bundle`` run of a config: (records, stop_reason) of ``bundle_integrate``."""
    _geometry_entry(cfg)  # heisenberg's domain check of n and c
    params, num = _resolved(cfg, "params"), _resolved(cfg, "numerics")
    fields = heisenberg_bundle_fields(params["n"], params["c"], resolution=num["resolution"])
    state0 = BundleState(*fields, 0.0)
    try:
        return bundle_integrate(state0, num["dt"], num["t_end"],
                                record_every=num["record_every"], c_cfl=num["c_cfl"])
    except StepRejected as exc:     # no step from the start, however halved: bad input
        raise exc if exc.t != state0.t else ConfigError(
            f"the flow cannot step params {params} from dt = {num['dt']!r}: {exc}")


def cmd_flow_bundle(cfg: dict, out_dir: str | None) -> int:
    records, stop = run_flow_bundle(cfg)
    origin = (0,) * (records[0].g.chart.dims + 2)
    columns = {
        "t": np.array([r.t for r in records]),
        "g_xx_origin": np.array([r.g.values[origin] for r in records]),
        "q_origin": np.array([r.Q.values[origin] for r in records]),
        "min_eig_g": np.array([r.min_eig_g for r in records]),
        "min_eig_q": np.array([r.min_eig_q for r in records]),
    }
    meta = {"command": "flow-bundle", "geometry": cfg["geometry"], "stop_reason": stop,
            "version": __version__, "config": json.dumps(cfg, sort_keys=True)}
    return _write_flow(cfg, out_dir, FlowTrace(columns, meta), "trace_bundle.csv", stop)


def cmd_verify(cfg: dict, out_dir: str | None, only_check: str | None) -> int:
    from .verify import CHECKS, run_check  # verify reads _SCHEMA, so it loads after cli
    names = [only_check] if only_check is not None else cfg.get("checks", list(CHECKS))
    bad = [c for c in names if c not in CHECKS]
    if bad:
        raise ConfigError(f"unknown checks {bad}; choose from {list(CHECKS)}")
    results = [run_check(name) for name in names]
    for result in results:
        print(result.line())
    report = {
        "command": "verify",
        "version": __version__,
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results],
        "all_passed": all(r.passed for r in results),
    }
    path = _out_path(cfg, out_dir, "report", "verify.json")
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["all_passed"] else 4


def cmd_plot(cfg: dict, out_dir: str | None) -> int:
    inputs = paths = cfg["inputs"]
    if isinstance(inputs, str):
        if not os.path.isdir(inputs):
            raise ConfigError(f"'inputs' directory {inputs!r} does not exist")
        paths = sorted(os.path.join(inputs, f) for f in os.listdir(inputs)
                       if f.endswith(".csv"))
    try:
        traces = [read_trace(p) for p in paths]
        svg = render_phase_portrait(traces, cfg.get("style"))
    except BundleFlowError as exc:  # unreadable or unplottable traces are bad input
        raise ConfigError(f"'inputs' {inputs!r}: {exc}")
    path = _out_path(cfg, out_dir, "plot", "portrait.svg")
    atomic_write_text(path, svg)
    print(f"plot: {len(traces)} traces, wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bundleflow",
        description="Ricci flow laboratory for invariant metrics on torus bundles")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="directory for relative output paths")
    parser.add_argument("--check", default=None,
                        help="run a single named verification check (verify command)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg["command"] != args.command:
            raise ConfigError(
                f"config 'command' is {cfg['command']!r}, CLI asked for {args.command!r}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, args.check)
        run = {"curvature": cmd_curvature, "flow-ode": cmd_flow_ode, "flow-be": cmd_flow_be,
               "flow-bundle": cmd_flow_bundle, "plot": cmd_plot}[args.command]
        return run(cfg, args.out)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except (BundleFlowError, np.linalg.LinAlgError, MemoryError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
