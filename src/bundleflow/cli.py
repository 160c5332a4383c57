"""Command-line front end.

    bundleflow <command> --config <path> [--out <dir>] [--check <name>]

Commands: curvature, flow-ode, flow-be, flow-bundle, verify, plot.  The
configuration is a single JSON document that ``load_config`` validates
strictly before any work starts (the README lists every rule).  ``_SCHEMA``
holds each command's keys and its numerics defaults.  Exit codes: 0
success, 2 configuration error, 3 numeric failure, 4 verification failure.
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
from .diffgeo import DEFAULT_ORACLE_STEP, ricci_with_defect
from .errors import BundleFlowError, ConfigError, DomainError, EmptyInput
from .grids import MIN_RESOLUTION
from .integrate import DEFAULT_C_CFL, DEFAULT_TOL, EXTINCTION_RATIO
from .svgplot import render_phase_portrait
from .traces import FlowTrace, atomic_write_text, read_trace, reduced_flow_trace, write_trace
from .verify import CHECKS, run_check

COMMANDS = ("curvature", "flow-ode", "flow-be", "flow-bundle", "verify", "plot")
T_END = 1.0

# each command's config keys and its numerics keys with their defaults
_SCHEMA = {
    "curvature": {"required": {"command", "geometry", "params"},
                  "optional": {"numerics", "outputs", "point"},
                  "numerics": {"h": DEFAULT_ORACLE_STEP}},
    "flow-ode": {"required": {"command", "geometry", "params"},
                 "optional": {"numerics", "outputs"},
                 "numerics": {"t_end": T_END, "tol": DEFAULT_TOL,
                              "extinction_ratio": EXTINCTION_RATIO}},
    "flow-be": {"required": {"command", "params"},
                "optional": {"numerics", "outputs"},
                "numerics": {"resolution": be.START_RESOLUTION, "extent": be.START_EXTENT,
                             "dt": 1.0, "t_end": T_END, "c_cfl": DEFAULT_C_CFL,
                             "record_every": 1}},
    "flow-bundle": {"required": {"command", "geometry", "params"},
                    "optional": {"numerics", "outputs"},
                    "numerics": {"resolution": BUNDLE_RESOLUTION, "dt": 5e-3, "t_end": T_END,
                                 "c_cfl": DEFAULT_C_CFL, "record_every": 5}},
    "verify": {"required": {"command"}, "optional": {"checks", "outputs"}},
    "plot": {"required": {"command", "inputs"}, "optional": {"style", "outputs"}},
}

# params keys of the commands that build their own fields; the others take the
# keys of their geometry's catalog constructor
_PARAM_KEYS = {"flow-be": ("N", "amplitude", "k"), "flow-bundle": ("n", "c")}
_STYLE_KEYS = ("title", "x_label", "y_label")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_positive(value) -> bool:
    return _is_number(value) and math.isfinite(value) and value > 0


# numerics key -> (accepts the value, what it must be); absent keys take the defaults
_NUMERICS = {
    "dt": (_finite_positive, "a finite number > 0"),
    "t_end": (_finite_positive, "a finite number > 0"),
    "c_cfl": (_finite_positive, "a finite number > 0"),
    "tol": (_finite_positive, "a finite number > 0"),
    "h": (_finite_positive, "a finite number > 0"),
    "extent": (_finite_positive, "a finite number > 0"),
    "extinction_ratio": (lambda v: _is_number(v) and math.isfinite(v) and v >= 0,
                         "a finite number >= 0"),
    "record_every": (lambda v: _is_integer(v) and v >= 1, "an integer >= 1"),
    "resolution": (lambda v: _is_integer(v) and v >= MIN_RESOLUTION,
                   f"an integer >= {MIN_RESOLUTION}"),
}


def _check_params(command: str, geometry, params) -> None:
    """Only the command's (flow-be, flow-bundle) or the geometry's keys; geometry
    parameters are finite numbers (heisenberg's n an integer), flow-be's N is a
    number other than the base dimension 2 or "inf", and k a list of integers."""
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    allowed = _PARAM_KEYS.get(command) or CONSTRUCTORS[geometry][1]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown params keys for {command}: {sorted(unknown)}; "
                          f"allowed: {list(allowed)}")
    for key, value in params.items():
        if command == "flow-be" and key == "N":
            if value in ("inf", "Infinity", None):
                continue
            if not _is_number(value) or math.isnan(value) or value == 2:
                raise ConfigError(f"params.N must be a number other than the base "
                                  f"dimension 2, or \"inf\"; got {value!r}")
        elif command == "flow-be" and key == "k":
            if not isinstance(value, list) or not all(_is_integer(k) for k in value):
                raise ConfigError(f"params.k must be a list of integers, got {value!r}")
        elif key == "n" and not (_is_integer(value) and value >= 1):
            raise ConfigError(f"params.n must be an integer >= 1, got {value!r}")
        elif not (_is_number(value) and math.isfinite(value)):
            raise ConfigError(f"params.{key} must be a finite number, got {value!r}")


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
    schema = _SCHEMA[command]
    keys = set(cfg)
    unknown = keys - schema["required"] - schema["optional"]
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    missing = schema["required"] - keys
    if missing:
        raise ConfigError(f"missing config keys for {command}: {sorted(missing)}")
    numerics = cfg.get("numerics", {})
    if not isinstance(numerics, dict):
        raise ConfigError("'numerics' must be an object")
    allowed = schema.get("numerics", {})
    bad = set(numerics) - set(allowed)
    if bad:
        raise ConfigError(f"unknown numerics keys for {command}: {sorted(bad)}; "
                          f"allowed: {list(allowed)}")
    for key, value in numerics.items():
        accepts, want = _NUMERICS[key]
        if not accepts(value):
            raise ConfigError(f"numerics.{key} must be {want}, got {value!r}")
    geometry = cfg.get("geometry")
    if "geometry" in cfg and not (isinstance(geometry, str) and geometry in CONSTRUCTORS):
        raise ConfigError(f"'geometry' must be one of {sorted(CONSTRUCTORS)}, got {geometry!r}")
    if "params" in cfg:
        _check_params(command, geometry, cfg["params"])
    outputs = cfg.get("outputs", {})
    if not isinstance(outputs, dict) or not all(isinstance(v, str) for v in outputs.values()):
        raise ConfigError(f"'outputs' must be an object of file paths, got {outputs!r}")
    point = cfg.get("point", [])
    if not isinstance(point, list) or not all(_is_number(x) and math.isfinite(x) for x in point):
        raise ConfigError(f"'point' must be a list of finite numbers, got {point!r}")
    style = cfg.get("style", {})
    if not (isinstance(style, dict) and set(style) <= set(_STYLE_KEYS)
            and all(isinstance(v, str) for v in style.values())):
        raise ConfigError(f"'style' must map {_STYLE_KEYS} to strings, got {style!r}")
    checks = cfg.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError(f"'checks' must be a list of check names, got {checks!r}")
    return cfg


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


def _numerics(cfg: dict) -> dict:
    """The command's numerics: each default of its table, or the config's
    value converted to the default's type."""
    given = cfg.get("numerics", {})
    return {key: type(default)(given.get(key, default))
            for key, default in _SCHEMA[cfg["command"]]["numerics"].items()}


def _geometry_entry(cfg: dict):
    try:
        return by_name(cfg["geometry"], cfg.get("params", {}))
    except BundleFlowError as exc:
        raise ConfigError(str(exc))


def cmd_flow_ode(cfg: dict, out_dir: str | None) -> int:
    entry = _geometry_entry(cfg)
    num = _numerics(cfg)
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
    h = _numerics(cfg)["h"]
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
    blocks = ricci_blocks_torus(data)
    expected = blocks_to_chart(blocks, alpha_at)
    oracle, defect = ricci_with_defect(entry.total_metric, point, step=h)
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


def cmd_flow_be(cfg: dict, out_dir: str | None) -> int:
    params = cfg.get("params", {})
    num = _numerics(cfg)
    n_value = params.get("N", "inf")
    amplitude = float(params.get("amplitude", be.START_AMPLITUDE))
    state0 = be.sine_density_start(
        np.inf if n_value in ("inf", "Infinity", None) else float(n_value),
        amplitude, resolution=num["resolution"], extent=num["extent"])
    k_values = tuple(int(k) for k in params.get("k", be.DEFAULT_K_VALUES))
    trace = be.be_integrate(state0, num["dt"], num["t_end"], k_values=k_values,
                            c_cfl=num["c_cfl"], record_every=num["record_every"])
    columns = {"t": trace.times}
    for k in k_values:
        columns[f"min_tildeS_{k}"] = np.array([m.min_tildeS[k] for m in trace.monitors])
    columns["max_grad_f_sq"] = np.array([m.max_grad_f_sq for m in trace.monitors])
    meta = {"command": "flow-be", "N": str(n_value), "amplitude": format(amplitude, "g"),
            "resolution": str(num["resolution"]), "stop_reason": trace.stop_reason,
            "version": __version__, "config": json.dumps(cfg, sort_keys=True)}
    return _write_flow(cfg, out_dir, FlowTrace(columns, meta), "trace_be.csv", trace.stop_reason)


def cmd_flow_bundle(cfg: dict, out_dir: str | None) -> int:
    geometry = cfg["geometry"]
    params = cfg.get("params", {})
    num = _numerics(cfg)
    if geometry != "heisenberg":
        raise ConfigError("flow-bundle currently drives the flat-base circle-bundle "
                          "configuration; use geometry 'heisenberg'")
    n = params.get("n", 1)
    if n not in (1, 2):
        raise ConfigError(f"flow-bundle drives heisenberg n = 1 or 2 (a 2- or 4-dimensional "
                          f"base chart), got n = {n}")
    c = float(params.get("c", 1.0))
    if c <= 0:
        raise ConfigError(f"params.c must be positive, got {c:g}")
    g0, q0, a0 = heisenberg_bundle_fields(n, c, resolution=num["resolution"])
    origin = (0,) * (g0.chart.dims + 2)
    states, stop = bundle_integrate(BundleState(g0, q0, a0, 0.0), num["dt"], num["t_end"],
                                    record_every=num["record_every"], c_cfl=num["c_cfl"])
    columns = {
        "t": np.array([s.t for s in states]),
        "g_xx_origin": np.array([s.g.values[origin] for s in states]),
        "q_origin": np.array([s.Q.values[origin] for s in states]),
        "min_eig_g": np.array([s.min_eig_g for s in states]),
        "min_eig_q": np.array([s.min_eig_q for s in states]),
    }
    meta = {"command": "flow-bundle", "geometry": geometry, "stop_reason": stop,
            "version": __version__, "config": json.dumps(cfg, sort_keys=True)}
    return _write_flow(cfg, out_dir, FlowTrace(columns, meta), "trace_bundle.csv", stop)


def cmd_verify(cfg: dict, out_dir: str | None, only_check: str | None) -> int:
    names = list(CHECKS)
    if only_check is not None:
        if only_check not in CHECKS:
            raise ConfigError(f"unknown check '{only_check}'; choose from {names}")
        names = [only_check]
    elif "checks" in cfg:
        requested = cfg["checks"]
        bad = [c for c in requested if c not in CHECKS]
        if bad:
            raise ConfigError(f"unknown checks {bad}; choose from {names}")
        names = list(requested)
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
    inputs = cfg["inputs"]
    if isinstance(inputs, str):
        if not os.path.isdir(inputs):
            raise ConfigError(f"'inputs' directory {inputs!r} does not exist")
        paths = sorted(os.path.join(inputs, f) for f in os.listdir(inputs)
                       if f.endswith(".csv"))
    elif isinstance(inputs, list) and all(isinstance(p, str) for p in inputs):
        paths = inputs
    else:
        raise ConfigError("'inputs' must be a directory or a list of trace paths")
    if not paths:
        raise EmptyInput("no trace files to plot")
    traces = [read_trace(p) for p in paths]
    svg = render_phase_portrait(traces, cfg.get("style"))
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
    except (BundleFlowError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
