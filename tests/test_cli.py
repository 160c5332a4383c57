"""End-to-end command-line runs."""

import contextlib
import io
import json
import os
import tempfile
import traceback
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundleflow.cli import main
from bundleflow.traces import FlowTrace, read_trace, write_trace


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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
        cfg = {"command": command, "params": {"N": 5},
               "numerics": {"t_end": 0.01, "resolution": 16, key: value}}
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
        ({"command": "flow-be", "params": {"N": 2}, "numerics": {"t_end": 0.01}}, "params.N"),
        ({"command": "flow-bundle", "geometry": "heisenberg", "params": {"n": 3, "c": 1.0}},
         "n = 3"),
        ({"command": "verify", "checks": "round-sphere"}, "checks"),
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
    ], ids=["tol-string", "tol-zero", "lambda1-string", "n-string", "c-string",
            "resolution-string", "resolution-4-bundle", "resolution-4-be", "N-equals-n",
            "bundle-n-3", "checks-string", "outputs-number", "point-string", "point-short",
            "sol3-point-x-0", "be-params-typo", "ode-params-typo", "bundle-params-case",
            "curvature-params-extra", "geometry-list", "style-string", "style-number",
            "style-unknown-key", "inputs-number"])
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


class TestFlowBeAndBundle:
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

    def test_plot_empty_directory_exit_3(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        cfg = write_config(tmp_path, "p2.json", {"command": "plot", "inputs": str(empty)})
        assert main(["plot", "--config", cfg, "--out", str(tmp_path)]) == 3


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
    st.just(float("nan")),
    st.booleans(),
    st.integers(-10, -1),
    st.floats(-10.0, -1e-3),
    st.lists(st.one_of(st.integers(-3, 3), _TEXT), max_size=3),
    st.dictionaries(st.text(alphabet="ab", min_size=1, max_size=2),
                    st.one_of(st.integers(-3, 3), st.just({"x": 1})), min_size=1, max_size=2),
)


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=st.sampled_from(_CASES), value=_HOSTILE)
    @example(case=("plot", ("style",)), value="abc")
    @example(case=("flow-ode", ("outputs", "trace")), value="a\x00")
    def test_exit_code_contract(self, case, value):
        command, path = case
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
