"""The names and call pattern the benchmark's tracer (perfbench/tracer.py) relies on."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import bundleflow.bakry_emery as bakry_emery
import bundleflow.bundle as bundle
import bundleflow.grids as grids
from bundleflow.catalog import heisenberg_bundle_fields

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_and_validated_classes_exist():
    tracer = load_tracer()
    for module, names in tracer.LAYER_FUNCTIONS.items():
        home = importlib.import_module(f"bundleflow.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"bundleflow.{module}.{name}"
    for cls_name in tracer.VALIDATED_CLASSES:
        assert hasattr(grids, cls_name), f"bundleflow.grids.{cls_name}"


def clocked(tracer, run):
    clock = tracer.StepClock()
    patcher = tracer.Patcher()
    clock.install(patcher)
    try:
        run()
    finally:
        patcher.restore()
    return clock


def test_step_clock_sees_one_be_step_and_four_bundle_stages_per_step():
    tracer = load_tracer()
    chart = grids.PeriodicChart((2 * np.pi, 2 * np.pi), (16, 16))
    g = grids.MetricField(chart, np.broadcast_to(np.eye(2), chart.resolution + (2, 2)).copy())
    f = grids.ScalarField(chart, 0.1 * np.sin(chart.grid_coords()[..., 0]))
    state = bakry_emery.BEState(g, f, 5)
    clock = clocked(tracer, lambda: bakry_emery.be_integrate(state, dt=1e-3, t_end=1e-3,
                                                             k_values=(0, 1)))
    assert len(clock.step_starts) == 1
    assert clock.stage_starts == []

    state = bundle.BundleState(*heisenberg_bundle_fields(1, 1.0), 0.0)
    clock = clocked(tracer, lambda: bundle.bundle_integrate(state, dt=1e-3, t_end=1e-3))
    assert len(clock.stage_starts) == 4
    assert clock.step_starts == []
    assert len(clock.step_seconds()) == 1
