"""End-to-end command-line runs."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import traceback
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bundleflow.catalog import by_name
from bundleflow.cli import main
from bundleflow.diffgeo import spd_inverse
from bundleflow.errors import SingularMetric
from bundleflow.traces import FlowTrace, read_trace, write_trace


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def assert_one_error_line(capsys, error, *named):
    """stderr is one JSON line with this error kind and naming each string."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    report = json.loads(err[0])
    assert report["error"] == error
    for text in named:
        assert text in report["message"]


class TestFlowOde:
    def test_round_sphere_reference_values(self, tmp_path):
        cfg = write_config(tmp_path, "ode.json", {
            "command": "flow-ode",
            "geometry": "berger",
            "params": {"lambda1": 1.0, "lambda2": 1.0},
            "numerics": {"t_end": 0.12, "tol": 1e-9},
            "outputs": {"trace": "round.csv"},
        })
        assert main(["flow-ode", "--config", cfg, "--out", str(tmp_path)]) == 0
        trace = read_trace(str(tmp_path / "round.csv"))
        # u and e^{-2f} are linear in t for the round flow, so linear
        # interpolation between recorded rows is exact
        t = trace["t"]
        u_01 = np.interp(0.1, t, trace["u"])
        e_01 = np.interp(0.1, t, np.exp(-2.0 * trace["f"]))
        assert abs(u_01 - 0.3) < 1e-6
        assert abs(e_01 - 0.6) < 1e-6
        assert trace.meta["geometry"] == "berger"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "ode.json", {
            "command": "flow-ode",
            "geometry": "sol3",
            "params": {"a": 1.0, "c": 1.0},
            "numerics": {"t_end": 2.0},
            "outputs": {"trace": "one.csv"},
        })
        main(["flow-ode", "--config", cfg, "--out", str(tmp_path / "r1")])
        main(["flow-ode", "--config", cfg, "--out", str(tmp_path / "r2")])
        b1 = (tmp_path / "r1" / "one.csv").read_bytes()
        b2 = (tmp_path / "r2" / "one.csv").read_bytes()
        assert b1 == b2


class TestConfigValidation:
    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "command": "flow-ode", "geometry": "berger",
            "params": {"lambda1": 1, "lambda2": 1}, "typo_key": 1,
        })
        assert main(["flow-ode", "--config", cfg]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_command_mismatch_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {
            "command": "flow-ode", "geometry": "berger",
            "params": {"lambda1": 1, "lambda2": 1},
        })
        assert main(["plot", "--config", cfg]) == 2

    @pytest.mark.parametrize("content, named", [
        (None, "cannot read config"),
        ("{not json", "not valid JSON"),
        ("[1]", "must be a JSON object"),
    ], ids=["missing-file", "invalid-json", "not-an-object"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, content, named):
        path = tmp_path / "entry.json"
        if content is not None:
            path.write_text(content)
        assert main(["flow-ode", "--config", str(path)]) == 2
        assert_one_error_line(capsys, "config", named)

    def test_missing_required_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "m2.json", {"command": "flow-ode"})
        assert main(["flow-ode", "--config", cfg]) == 2

    def test_unknown_numerics_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "m3.json", {
            "command": "flow-ode", "geometry": "berger",
            "params": {"lambda1": 1, "lambda2": 1},
            "numerics": {"dt_max": 1.0},
        })
        assert main(["flow-ode", "--config", cfg]) == 2

    @pytest.mark.parametrize("command, key, value", [
        ("flow-be", "c_cfl", 0), ("flow-bundle", "c_cfl", 0),
        ("flow-bundle", "c_cfl", -0.1),
        ("flow-be", "record_every", 0), ("flow-bundle", "record_every", 0),
        ("flow-be", "record_every", -1), ("flow-bundle", "record_every", -1),
        ("flow-be", "record_every", 2.5),
        ("flow-be", "dt", 0), ("flow-bundle", "dt", 0),
        ("flow-be", "t_end", 0), ("flow-ode", "t_end", -1),
    ])
    def test_bad_step_numerics_exit_2(self, tmp_path, capsys, command, key, value):
        numerics = {"t_end": 0.01} if command == "flow-ode" else {"t_end": 0.01, "resolution": 16}
        cfg = {"command": command, "params": {"N": 5}, "numerics": {**numerics, key: value}}
        if command == "flow-bundle":
            cfg.update(geometry="heisenberg", params={"n": 1, "c": 1.0})
        elif command == "flow-ode":
            cfg.update(geometry="berger", params={"lambda1": 1.0, "lambda2": 2.0})
        path = write_config(tmp_path, "n.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "config"
        assert key in err[0]

    @pytest.mark.parametrize("cfg, named", [
        ({"command": "flow-ode", "geometry": "berger", "params": {"lambda1": 1, "lambda2": 2},
          "numerics": {"tol": "abc"}}, "tol"),
        ({"command": "flow-ode", "geometry": "berger", "params": {"lambda1": 1, "lambda2": 2},
          "numerics": {"tol": 0}}, "tol"),
        ({"command": "flow-ode", "geometry": "berger",
          "params": {"lambda1": "x", "lambda2": 2}}, "lambda1"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": "x", "c": 1.0}},
         "params.n"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": "x"}},
         "params.c"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "numerics": {"resolution": "x"}}, "resolution"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "numerics": {"resolution": 4}}, "resolution"),
        ({"command": "flow-be", "params": {"N": 5}, "numerics": {"resolution": 4}},
         "resolution"),
        ({"command": "flow-be", "params": {"N": 5}, "numerics": {"resolution": 1}},
         "resolution"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "numerics": {"resolution": 1}}, "resolution"),
        ({"command": "flow-be", "params": {"N": 2}, "numerics": {"t_end": 0.01}}, "params.N"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 3, "c": 1.0}},
         "n = 3"),
        ({"command": "verify", "checks": "round-sphere"}, "checks"),
        ({"command": "verify", "checks": []}, "non-empty"),
        ({"command": "flow-ode", "geometry": "berger", "params": {"lambda1": 1, "lambda2": 2},
          "outputs": 5}, "outputs"),
        ({"command": "curvature", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "point": "abc"}, "point"),
        ({"command": "curvature", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "point": [0.1]}, "point"),
        ({"command": "curvature", "geometry": "sol3", "params": {"a": 1.0, "c": 1.0},
          "point": [0.0, 0.1, 0.2]}, "point"),
        ({"command": "flow-be", "params": {"N": 5, "amplitdue": 0.5},
          "numerics": {"t_end": 0.01, "resolution": 8}}, "['amplitdue']"),
        ({"command": "flow-ode", "geometry": "berger",
          "params": {"lambda1": 1, "lambda2": 2, "lamda2": 3}}, "['lamda2']"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "C": 2.0},
          "numerics": {"t_end": 0.01}}, "['C']"),
        ({"command": "curvature", "geometry": "sol3", "params": {"a": 1.0, "c": 1.0, "n": 1}},
         "['n']"),
        ({"command": "flow-ode", "geometry": ["berger"], "params": {"lambda1": 1}}, "geometry"),
        ({"command": "plot", "inputs": [], "style": "abc"}, "style"),
        ({"command": "plot", "inputs": [], "style": {"title": 5}}, "style"),
        ({"command": "plot", "inputs": [], "style": {"colour": "red"}}, "style"),
        ({"command": "plot", "inputs": [3]}, "inputs"),
        ({"command": "flow-ode", "geometry": "berger", "params": {"lambda1": 1, "lambda2": 2},
          "numerics": {"dt": 0.1}}, "['dt']"),
        ({"command": "flow-ode", "geometry": "berger", "params": {"lambda1": 1, "lambda2": 2},
          "numerics": {"resolution": 16}}, "['resolution']"),
        ({"command": "flow-ode", "geometry": "berger", "params": {"lambda1": 1, "lambda2": 2},
          "numerics": {"c_cfl": 0.2}}, "['c_cfl']"),
        ({"command": "flow-be", "params": {"N": 5},
          "numerics": {"t_end": 0.01, "extinction_ratio": 0.999999}}, "['extinction_ratio']"),
        ({"command": "flow-be", "params": {"N": 5}, "numerics": {"t_end": 0.01, "tol": 1e-9}},
         "['tol']"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "numerics": {"t_end": 0.01, "extent": 2.0}}, "['extent']"),
        ({"command": "curvature", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "numerics": {"t_end": 1.0}}, "['t_end']"),
        ({"command": "curvature", "geometry": "berger",
          "params": {"lambda1": 1.0, "lambda2": 2.0}}, "'berger'"),
    ], ids=["tol-string", "tol-zero", "lambda1-string", "n-string", "c-string",
            "resolution-string", "resolution-4-bundle", "resolution-4-be", "resolution-1-be",
            "resolution-1-bundle", "N-equals-n",
            "bundle-n-3", "checks-string", "checks-empty", "outputs-number", "point-string", "point-short",
            "sol3-point-x-0", "be-params-typo", "ode-params-typo", "bundle-params-case",
            "curvature-params-extra", "geometry-list", "style-string", "style-number",
            "style-unknown-key", "inputs-number", "ode-dt", "ode-resolution", "ode-c_cfl",
            "be-extinction_ratio", "be-tol", "bundle-extent", "curvature-t_end",
            "curvature-berger"])
    def test_malformed_values_exit_2(self, tmp_path, capsys, cfg, named):
        path = write_config(tmp_path, "bad.json", cfg)
        assert main([cfg["command"], "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "config"
        assert named in err[0]

    def test_bad_geometry_parameters_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "m4.json", {
            "command": "flow-ode", "geometry": "berger",
            "params": {"lambda1": -1.0, "lambda2": 1.0},
        })
        assert main(["flow-ode", "--config", cfg]) == 2

    @pytest.mark.parametrize("cfg, code, error", [
        ({"command": "flow-ode", "geometry": "berger",
          "params": {"lambda1": 1.0, "lambda2": 1e300}}, 2, "config"),
        ({"command": "flow-ode", "geometry": "sl2r",
          "params": {"lambda1": 1.0, "lambda2": 1e300}}, 2, "config"),
        ({"command": "flow-ode", "geometry": "berger",
          "params": {"lambda1": 1e300, "lambda2": 1.0}}, 2, "config"),
        ({"command": "flow-ode", "geometry": "berger",
          "params": {"lambda1": 10**30, "lambda2": 1.0}}, 3, "StepUnderflow"),
        ({"command": "curvature", "geometry": "heisenberg",
          "params": {"n": 1, "c": 10**30}}, 3, "SingularMetric"),
        ({"command": "curvature", "geometry": "heisenberg",
          "params": {"n": 1, "c": 1e-300}}, 2, "config"),
        ({"command": "flow-ode", "geometry": "heisenberg",
          "params": {"n": 10**30, "c": 1.0}}, 2, "config"),
        ({"command": "flow-ode", "geometry": "sol3", "params": {"a": 1e300, "c": 1.0}},
         2, "config"),
        ({"command": "flow-be", "params": {"N": 5}, "numerics": {"resolution": 10**30}},
         3, "MemoryError"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "numerics": {"resolution": 10**30}}, 3, "MemoryError"),
        ({"command": "flow-be", "params": {"N": 5}, "numerics": {"extent": 1e300}},
         2, "config"),
        ({"command": "flow-be", "params": {"N": 5}, "numerics": {"extent": 1e-300}},
         2, "config"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": 1e300}},
         2, "config"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": 1e-300}},
         2, "config"),
        ({"command": "flow-ode", "geometry": "berger", "params": {"lambda1": 1.0, "lambda2": 2.0},
          "numerics": {"t_end": 10**400}}, 2, "config"),
        ({"command": "flow-ode", "geometry": "berger",
          "params": {"lambda1": 10**400, "lambda2": 2.0}}, 2, "config"),
        ({"command": "curvature", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "point": [10**400, 0.0, 0.0]}, 2, "config"),
        # the oracle's stencil, p +- h e_a +- h e_b, leaves sol3's half-space or
        # reaches a first-ring metric the oracle's spd_inverse rejects
        ({"command": "curvature", "geometry": "sol3", "params": {"a": 1.0, "c": 1.0},
          "numerics": {"h": 0.65}}, 2, "config"),
        ({"command": "curvature", "geometry": "sol3", "params": {"a": 1.0, "c": 1.0},
          "numerics": {"h": 0.7}}, 2, "config"),
        ({"command": "curvature", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "numerics": {"h": 1e300}}, 2, "config"),
        ({"command": "curvature", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
          "numerics": {"h": 1e30}}, 2, "config"),
        ({"command": "curvature", "geometry": "sol3", "params": {"a": 1.0, "c": 1.0},
          "point": [1e200, 0.2, 0.1]}, 2, "config"),
        ({"command": "curvature", "geometry": "sol3", "params": {"a": 1.0, "c": 1.0},
          "point": [1e-200, 0.2, 0.1]}, 2, "config"),
        # x^2, c / x^2 and a / x are normal there, (c + a^2) / x^2 overflows
        ({"command": "curvature", "geometry": "sol3", "params": {"a": 1e150, "c": 1.0},
          "point": [1e-10, 0.2, 0.1]}, 2, "config"),
        # a start no step can take, however far it is halved, is bad input
        ({"command": "flow-be", "params": {"N": 5, "amplitude": 1e30}}, 2, "config"),
        ({"command": "flow-be", "params": {"N": 5, "amplitude": 1e300}}, 2, "config"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": 1e30}},
         2, "config"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 2, "c": 1e30}},
         2, "config"),
    ], ids=["berger-lambda2-1e300", "sl2r-lambda2-1e300", "berger-lambda1-1e300",
            "berger-lambda1-int-1e30", "heisenberg-c-int-1e30", "heisenberg-c-1e-300",
            "heisenberg-n-int-1e30", "sol3-a-1e300", "be-resolution-1e30",
            "bundle-resolution-1e30", "be-extent-1e300", "be-extent-1e-300", "bundle-c-1e300",
            "bundle-c-1e-300", "numerics-400-digits", "params-400-digits", "point-400-digits",
            "sol3-h-0.65", "sol3-h-0.7", "heisenberg-h-1e300", "heisenberg-h-1e30",
            "sol3-x-1e200", "sol3-x-1e-200", "sol3-a-squared-over-x-squared",
            "be-amplitude-1e30", "be-amplitude-1e300",
            "bundle-c-1e30-n1", "bundle-c-1e30-n2"])
    def test_out_of_range_magnitudes(self, tmp_path, capsys, cfg, code, error):
        path = write_config(tmp_path, "big.json", cfg)
        assert main([cfg["command"], "--config", path, "--out", str(tmp_path)]) == code
        assert_one_error_line(capsys, error)

    @pytest.mark.parametrize("command, geometry, params", [
        ("flow-ode", "berger", {"lambda1": 1e-7, "lambda2": 1.0}),
        ("flow-ode", "berger", {"lambda1": 1e7, "lambda2": 1e7}),
        ("flow-ode", "sol3", {"a": 1e-7, "c": 1e7}),
        ("curvature", "sol3", {"a": 1e-7, "c": 1e7}),
    ], ids=["berger-lambda1-1e-7", "berger-scaled-1e7", "sol3-c-over-a-1e14",
            "curvature-sol3-c-over-a-1e14"])
    def test_representable_extremes_run(self, tmp_path, command, geometry, params):
        # only a coefficient that over- or underflows a float is out of the domain
        path = write_config(tmp_path, "x.json", {"command": command, "geometry": geometry,
                                                 "params": params})
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 0


_DECADES = st.floats(-300.0, 300.0)
# zero, or either sign times 10^-300 to 10^300
_COORDINATE = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                                st.sampled_from((1.0, -1.0)), _DECADES))


def _raise_on_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


class TestCurvature:
    def test_heisenberg_report(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "command": "curvature",
            "geometry": "heisenberg",
            "params": {"n": 1, "c": 1.0},
            "numerics": {"h": 1e-3},
            "outputs": {"report": "curv.json"},
        })
        assert main(["curvature", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "curv.json").read_text())
        assert report["max_abs_error"] <= 2e-5
        assert np.asarray(report["blocks"]["fiber"]).shape == (1, 1)

    def test_numeric_failure_exit_3(self, tmp_path, capsys):
        # evaluation point drives the coordinate metric past the condition cap
        cfg = write_config(tmp_path, "c2.json", {
            "command": "curvature",
            "geometry": "sol3",
            "params": {"a": 1.0, "c": 1.0},
            "point": [1e-7, 0.0, 0.0],
        })
        assert main(["curvature", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "SingularMetric" in capsys.readouterr().err

    def test_second_ring_is_only_differenced(self, tmp_path, capsys):
        # h = 0.649999999 takes the second ring to x = 2e-9, where sol3's metric
        # is far past the condition cap but inside its domain; the oracle only
        # differences those values, so the run completes with a huge error
        cfg = write_config(tmp_path, "c.json", {
            "command": "curvature", "geometry": "sol3", "params": {"a": 1.0, "c": 1.0},
            "numerics": {"h": 0.649999999}})
        assert main(["curvature", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "curvature.json").read_text())
        assert math.isfinite(report["max_abs_error"]) and report["max_abs_error"] > 1e10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(geometry=st.sampled_from([("heisenberg", {"n": 1}, 3), ("heisenberg", {"n": 2}, 5),
                                     ("sol3", {"a": 1.0}, 3)]),
           c=st.floats(0.5, 2.0), coords=st.lists(_COORDINATE, min_size=5, max_size=5),
           h=_DECADES.map(lambda e: 10.0 ** e))
    @example(geometry=("sol3", {"a": 1.0}, 3), c=1.0, coords=[1.3, 0.2, 0.1, 0.0, 0.0], h=0.65)
    @example(geometry=("heisenberg", {"n": 1}, 3), c=1.0, coords=[0.3, -0.2, 0.5, 0.0, 0.0],
             h=1e30)
    def test_point_and_step_exit_contract(self, geometry, c, coords, h):
        # exit 0 with a finite report, 2 with one JSON line, or 3 only where the
        # metric at the point itself is rejected
        name, params, dims = geometry
        params = {**params, "c": c}
        point = coords[:dims]
        with tempfile.TemporaryDirectory() as workdir:
            cfg = write_config(pathlib.Path(workdir), "c.json", {
                "command": "curvature", "geometry": name, "params": params,
                "point": point, "numerics": {"h": h}})
            err, tb = io.StringIO(), ""
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(["curvature", "--config", cfg, "--out", workdir])
                except Exception:
                    code, tb = 1, traceback.format_exc()
            assert code in (0, 2, 3), tb
            if code == 0:
                assert err.getvalue() == ""
                report = json.loads(pathlib.Path(workdir, "curvature.json").read_text(),
                                    parse_constant=_raise_on_constant)
                assert math.isfinite(report["max_abs_error"])
                return
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1, err.getvalue()
        error = json.loads(lines[0])["error"]
        assert error == {2: "config", 3: "SingularMetric"}[code]
        if code == 3:
            with np.errstate(all="ignore"), pytest.raises(SingularMetric):
                spd_inverse(by_name(name, params).total_metric(np.array(point)))


class TestFlowBeAndBundle:
    def test_step_rejected_after_the_start_exit_3(self, tmp_path, capsys):
        # the start steps, so a later state no halved step leaves is a numeric failure
        cfg = write_config(tmp_path, "late.json", {
            "command": "flow-be", "params": {"N": 5},
            "numerics": {"resolution": 14, "dt": 2.5, "t_end": 2.5, "c_cfl": 1e9}})
        assert main(["flow-be", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert_one_error_line(capsys, "StepRejected", "halvings at t=2.07018")

    def test_flow_be_monitor_columns(self, tmp_path):
        cfg = write_config(tmp_path, "be.json", {
            "command": "flow-be",
            "params": {"N": 5, "amplitude": 0.1, "k": [0, 1]},
            "numerics": {"t_end": 0.05, "resolution": 16},
            "outputs": {"trace": "be.csv"},
        })
        assert main(["flow-be", "--config", cfg, "--out", str(tmp_path)]) == 0
        trace = read_trace(str(tmp_path / "be.csv"))
        assert "min_tildeS_0" in trace.columns
        assert "max_grad_f_sq" in trace.columns
        assert np.all(np.diff(trace["min_tildeS_0"]) >= -1e-8)

    def test_flow_bundle_matches_reduced(self, tmp_path):
        cfg = write_config(tmp_path, "fb.json", {
            "command": "flow-bundle",
            "geometry": "heisenberg",
            "params": {"n": 1, "c": 1.0},
            "numerics": {"t_end": 0.3, "resolution": 16},
            "outputs": {"trace": "bundle.csv"},
        })
        assert main(["flow-bundle", "--config", cfg, "--out", str(tmp_path)]) == 0
        trace = read_trace(str(tmp_path / "bundle.csv"))
        t_last = trace["t"][-1]
        u_exact = (3 * t_last + 1) ** (1 / 3)
        assert abs(trace["g_xx_origin"][-1] - u_exact) < 1e-6


    def test_flow_bundle_heisenberg_n2(self, tmp_path, monkeypatch):
        # 4-dimensional base chart (8^4): the grid flow stays spatially constant
        # and follows the reduced closed form to the pde-ode bounds
        import bundleflow.cli as cli
        from bundleflow.catalog import heisenberg

        runs = []

        def recording(*args, **kwargs):
            runs.append(bundle_integrate(*args, **kwargs))
            return runs[-1]

        bundle_integrate = cli.bundle_integrate
        monkeypatch.setattr(cli, "bundle_integrate", recording)
        cfg = write_config(tmp_path, "fb2.json", {
            "command": "flow-bundle", "geometry": "heisenberg",
            "params": {"n": 2, "c": 0.9}, "numerics": {"t_end": 0.01},
            "outputs": {"trace": "bundle2.csv"},
        })
        assert main(["flow-bundle", "--config", cfg, "--out", str(tmp_path)]) == 0
        trace = read_trace(str(tmp_path / "bundle2.csv"))
        states, stop = runs[0]
        assert stop == "Horizon" and states[-1].t == pytest.approx(0.01)
        assert states[0].g.values.shape == (8, 8, 8, 8, 4, 4)
        entry = heisenberg(2, 0.9)
        for i, s in enumerate(states):
            exact = entry.closed_form(s.t)
            gv, qv = s.g.values, s.Q.values[..., 0, 0]
            spread = max(float(np.max(gv.max(axis=(0, 1, 2, 3)) - gv.min(axis=(0, 1, 2, 3)))),
                         float(qv.max() - qv.min()))
            assert spread <= 1e-12
            assert np.max(np.abs(gv - exact.u * np.eye(4))) <= 1e-6
            assert np.max(np.abs(qv - exact.fiber_metric)) <= 1e-6
            assert trace["g_xx_origin"][i] == gv[0, 0, 0, 0, 0, 0]
            assert trace["q_origin"][i] == qv[0, 0, 0, 0]

class TestVerifyAndPlot:
    def test_single_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {"command": "verify"})
        code = main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--check", "implicit-constants"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS implicit-constants" in out
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"] is True
        assert len(report["results"]) == 1

    def test_unknown_check_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "v2.json", {"command": "verify"})
        assert main(["verify", "--config", cfg, "--check", "no-such-check"]) == 2

    def test_check_subset_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v3.json", {
            "command": "verify",
            "checks": ["implicit-constants", "torus-specialization"],
        })
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_report_serializes_numpy_flagged_checks(self, tmp_path):
        # flat-closed-form's pass flag comes out of numpy comparisons; the
        # JSON report must still be writable
        cfg = write_config(tmp_path, "v5.json", {
            "command": "verify", "checks": ["flat-closed-form"],
        })
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["results"][0]["passed"] is True

    def test_plot_directory_of_traces(self, tmp_path):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        for l1, l2 in ((1.0, 1.0), (1.0, 2.0)):
            cfg = write_config(tmp_path, f"o{l1}{l2}.json", {
                "command": "flow-ode",
                "geometry": "berger",
                "params": {"lambda1": l1, "lambda2": l2},
                "numerics": {"t_end": 5.0},
                "outputs": {"trace": f"berger_{l1:g}_{l2:g}.csv"},
            })
            assert main(["flow-ode", "--config", cfg, "--out", str(trace_dir)]) == 0
        plot_cfg = write_config(tmp_path, "p.json", {
            "command": "plot",
            "inputs": str(trace_dir),
            "style": {"title": "collapse"},
            "outputs": {"plot": "fig.svg"},
        })
        assert main(["plot", "--config", plot_cfg, "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "fig.svg").read_text()
        root = ET.fromstring(svg)
        assert sum(1 for e in root.iter() if e.tag.endswith("polyline")) == 2

    def test_plot_byte_identical_reruns(self, tmp_path):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        ode = write_config(tmp_path, "o.json", {
            "command": "flow-ode", "geometry": "berger",
            "params": {"lambda1": 1.0, "lambda2": 2.0},
            "numerics": {"t_end": 1.0},
            "outputs": {"trace": "b.csv"},
        })
        assert main(["flow-ode", "--config", ode, "--out", str(trace_dir)]) == 0
        plot_cfg = write_config(tmp_path, "p3.json", {
            "command": "plot", "inputs": str(trace_dir),
            "outputs": {"plot": "fig.svg"},
        })
        assert main(["plot", "--config", plot_cfg, "--out", str(tmp_path / "p1")]) == 0
        assert main(["plot", "--config", plot_cfg, "--out", str(tmp_path / "p2")]) == 0
        assert ((tmp_path / "p1" / "fig.svg").read_bytes()
                == (tmp_path / "p2" / "fig.svg").read_bytes())

    def test_plot_style_is_escaped(self, tmp_path):
        trace_dir = tmp_path / "traces"
        ode = write_config(tmp_path, "o.json", {
            "command": "flow-ode", "geometry": "berger",
            "params": {"lambda1": 1.0, "lambda2": 2.0},
            "numerics": {"t_end": 0.1}, "outputs": {"trace": "b.csv"},
        })
        assert main(["flow-ode", "--config", ode, "--out", str(trace_dir)]) == 0
        plot_cfg = write_config(tmp_path, "p4.json", {
            "command": "plot", "inputs": str(trace_dir),
            "style": {"title": "R & D <1>", "x_label": "a<b", "y_label": "\"u\" & 'v'"},
            "outputs": {"plot": "fig.svg"},
        })
        assert main(["plot", "--config", plot_cfg, "--out", str(tmp_path)]) == 0
        root = ET.fromstring((tmp_path / "fig.svg").read_text())
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert {"R & D <1>", "a<b", "\"u\" & 'v'"} <= set(texts)

    def test_plot_empty_directory_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        cfg = write_config(tmp_path, "p2.json", {"command": "plot", "inputs": str(empty)})
        assert main(["plot", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert_one_error_line(capsys, "config", str(empty))

    @pytest.mark.parametrize("content, named", [
        (None, "cannot read"),
        ("# label: x\nt,u\n0,1\n", "lacks required column 'f'"),
        ("t,u,f\n0,1\n", "cells"),
    ], ids=["missing-file", "not-a-trace", "malformed-row"])
    def test_plot_bad_trace_exit_2(self, tmp_path, capsys, content, named):
        trace = tmp_path / "t.csv"
        if content is not None:
            trace.write_text(content)
        cfg = write_config(tmp_path, "p5.json", {"command": "plot", "inputs": [str(trace)]})
        assert main(["plot", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert_one_error_line(capsys, "config", named, str(trace))

    def test_plot_write_failure_exit_3(self, tmp_path, capsys):
        trace = str(tmp_path / "t.csv")
        write_trace(FlowTrace({"t": [0.0, 1.0], "u": [1.0, 0.5], "f": [0.0, 0.1]}), trace)
        cfg = write_config(tmp_path, "p6.json", {
            "command": "plot", "inputs": [trace],
            "outputs": {"plot": os.path.join(trace, "fig.svg")}})  # under a file
        assert main(["plot", "--config", cfg]) == 3
        assert_one_error_line(capsys, "TraceIoError")


class TestResourcesAndImports:
    def test_unallocatable_grid_exit_3(self, tmp_path, capsys):
        # the 10^7 x 10^7 chart's first array (2.84 PiB) fails to allocate at once
        cfg = write_config(tmp_path, "huge.json", {
            "command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 1, "c": 1.0},
            "numerics": {"resolution": 10_000_000}})
        assert main(["flow-bundle", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert_one_error_line(capsys, "MemoryError", "Unable to allocate")

    def test_cli_import_does_not_load_verify(self):
        # verify reads the CLI's defaults table, so the CLI loads it only to verify
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        probe = "import sys, bundleflow.cli; print('bundleflow.verify' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


# --- whole-config fuzzing against the exit-code contract ---------------------

def _minimal_configs(trace):
    """One small valid config per command (t_end <= 0.01, resolution 8)."""
    return {
        "curvature": {"command": "curvature", "geometry": "heisenberg",
                      "params": {"n": 1, "c": 1.0}, "numerics": {"h": 1e-3},
                      "outputs": {"report": "curv.json"}},
        "flow-ode": {"command": "flow-ode", "geometry": "berger",
                     "params": {"lambda1": 1.0, "lambda2": 2.0},
                     "numerics": {"t_end": 0.01, "tol": 1e-9, "extinction_ratio": 1e-6},
                     "outputs": {"trace": "ode.csv"}},
        "flow-be": {"command": "flow-be", "params": {"N": 5, "amplitude": 0.1, "k": [0, 1]},
                    "numerics": {"t_end": 0.01, "resolution": 8, "dt": 0.005, "c_cfl": 0.2,
                                 "record_every": 1, "extent": 6.0}},
        "flow-bundle": {"command": "flow-bundle", "geometry": "heisenberg",
                        "params": {"n": 1, "c": 1.0},
                        "numerics": {"t_end": 0.01, "resolution": 8, "dt": 0.005}},
        "verify": {"command": "verify", "checks": ["implicit-constants"]},
        "plot": {"command": "plot", "inputs": [trace], "style": {"title": "t"},
                 "outputs": {"plot": "p.svg"}},
    }


def _key_paths(cfg):
    """Every key of the config and of its nested objects, plus an unknown key at each level."""
    paths = [("bogus",)]
    for key, value in cfg.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths += [(key, sub) for sub in value] + [(key, "bogus")]
    return paths


_CASES = [(command, path) for command, cfg in _minimal_configs("trace.csv").items()
          for path in _key_paths(cfg)]
_TEXT = st.text(alphabet="ab \x00", max_size=4)
_HOSTILE = st.one_of(
    _TEXT,
    st.sampled_from([10**30, 10**400, 1e300, 1e-300]),
    st.just(float("nan")),
    st.booleans(),
    st.integers(-10, -1),
    st.floats(-10.0, -1e-3),
    st.lists(st.one_of(st.integers(-3, 3), _TEXT), max_size=3),
    st.dictionaries(st.text(alphabet="ab", min_size=1, max_size=2),
                    st.one_of(st.integers(-3, 3), st.just({"x": 1})), min_size=1, max_size=2),
)


# valid values that make a run long: a far horizon, or a tiny step or tolerance
_LONG_RUNS = [("t_end", 10**30), ("t_end", 1e300), ("dt", 1e-300), ("c_cfl", 1e-300),
              ("tol", 1e-300)]


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=st.sampled_from(_CASES), value=_HOSTILE)
    @example(case=("plot", ("style",)), value="abc")
    @example(case=("flow-ode", ("outputs", "trace")), value="a\x00")
    @example(case=("flow-be", ("numerics", "extent")), value=1e-300)
    @example(case=("curvature", ("numerics", "h")), value=1e300)
    def test_exit_code_contract(self, case, value):
        command, path = case
        assume((path[-1], value) not in _LONG_RUNS)
        tb = ""
        with tempfile.TemporaryDirectory() as workdir:
            trace = os.path.join(workdir, "trace.csv")
            write_trace(FlowTrace({"t": [0.0, 1.0], "u": [1.0, 0.5], "f": [0.0, 0.1]}), trace)
            cfg = _minimal_configs(trace)[command]
            target = cfg
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            cfg_path = os.path.join(workdir, "cfg.json")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                json.dump(cfg, handle)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main([command, "--config", cfg_path,
                                 "--out", os.path.join(workdir, "out")])
                except Exception:
                    code, tb = 1, traceback.format_exc()
        assert code in (0, 2, 3, 4), tb
        if code != 0:
            lines = err.getvalue().strip().splitlines()
            assert len(lines) == 1, err.getvalue()
            assert "error" in json.loads(lines[0])
