"""Shared Runge-Kutta machinery and the fixed-step driver of both grid flows."""

import sys
from collections import Counter

import numpy as np
import pytest

from bundleflow import diffgeo
from bundleflow.bakry_emery import BEState, be_integrate, be_rhs, be_step
from bundleflow.bundle import BundleState, bundle_integrate, flow_rhs_torus
from bundleflow.catalog import heisenberg_bundle_fields
from bundleflow.errors import DomainError, StepRejected, StepUnderflow
from bundleflow.grids import MetricField, PeriodicChart, ScalarField
from bundleflow.integrate import adaptive_rk, rk4_step


class TestRk4Step:
    def test_exact_on_cubics(self):
        # dy/dt = 3 t^2  ->  y = t^3, reproduced exactly by a fourth-order step
        (y,) = rk4_step(lambda t, y: (np.array([3 * t * t]),), 0.0, (np.array([0.0]),), 0.5)
        assert y[0] == pytest.approx(0.125, abs=1e-15)

    def test_exponential_accuracy(self):
        # a tuple state: two decoupled components advance together
        y = (np.array([1.0]), np.array([2.0]))
        dt = 0.01
        for i in range(100):
            y = rk4_step(lambda t, v: (-v[0], -2.0 * v[1]), i * dt, y, dt)
        assert y[0][0] == pytest.approx(np.exp(-1.0), abs=1e-10)
        assert y[1][0] == pytest.approx(2.0 * np.exp(-2.0), abs=1e-9)


class TestAdaptiveRk:
    def test_exponential_decay(self):
        res = adaptive_rk(lambda t, y: -y, 0.0, [1.0], 3.0, rtol=1e-10, atol=1e-13)
        assert res.stop_reason == "Horizon"
        assert res.t[-1] == pytest.approx(3.0, abs=1e-12)
        assert res.y[-1, 0] == pytest.approx(np.exp(-3.0), rel=1e-8)

    def test_harmonic_energy(self):
        def f(t, y):
            return np.array([y[1], -y[0]])
        res = adaptive_rk(f, 0.0, [1.0, 0.0], 20.0, rtol=1e-10, atol=1e-13)
        energy = res.y[:, 0] ** 2 + res.y[:, 1] ** 2
        assert np.max(np.abs(energy - 1.0)) < 1e-7

    def test_t_eval_times_hit(self):
        res = adaptive_rk(lambda t, y: -y, 0.0, [1.0], 1.0, t_eval=[0.25, 0.5, 0.75])
        for target in (0.25, 0.5, 0.75):
            assert np.min(np.abs(res.t - target)) < 1e-13

    def test_stop_predicate(self):
        res = adaptive_rk(lambda t, y: -y, 0.0, [1.0], 50.0,
                          stop=lambda t, y: "Small" if y[0] < 0.5 else None)
        assert res.stop_reason == "Small"
        assert res.y[-1, 0] < 0.5
        assert res.t[-1] < 1.0

    def test_underflow_on_finite_time_blowup(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1
        with pytest.raises(StepUnderflow):
            adaptive_rk(lambda t, y: y * y, 0.0, [1.0], 2.0, rtol=1e-9)

    def test_nan_rhs_is_rejected_not_accepted(self):
        # rhs goes invalid below y = 0.5; the guard stops the run first
        def f(t, y):
            if y[0] < 0.5:
                return np.array([np.nan])
            return -y

        res = adaptive_rk(f, 0.0, [1.0], 50.0,
                          stop=lambda t, y: "Guard" if y[0] <= 0.6 else None)
        assert res.stop_reason == "Guard"
        assert np.all(np.isfinite(res.y))


def density_state(N=np.inf, amp=0.1):
    chart = PeriodicChart((2 * np.pi, 2 * np.pi), (16, 16))
    x = chart.grid_coords()[..., 0]
    g = MetricField(chart, np.broadcast_to(np.eye(2), chart.resolution + (2, 2)).copy())
    return BEState(g, ScalarField(chart, amp * np.sin(x)), N)


def bundle_state(c=1.0):
    return BundleState(*heisenberg_bundle_fields(1, c), 0.0)


def min_eig(values):
    return float(np.min(np.linalg.eigvalsh(values)))


def run_density(dt, t_end, **kwargs):
    trace = be_integrate(density_state(N=kwargs.pop("N", np.inf)), dt, t_end, **kwargs)
    return trace.states, trace.stop_reason


def run_bundle(dt, t_end, **kwargs):
    return bundle_integrate(bundle_state(), dt, t_end, **kwargs)


class TestFixedStepDriver:
    # dt = 2.5 makes g_xx of the density flow indefinite where Hess f < 0;
    # dt = 5 drives Q of the bundle flow through zero.  Both succeed at dt / 2.
    @pytest.mark.parametrize("run, dt", [(run_density, 2.5), (run_bundle, 5.0)])
    def test_halving_recovers_definiteness(self, run, dt):
        states, _ = run(dt, dt, c_cfl=1e9)
        first = states[1]
        assert 0.0 < first.t < dt
        assert min_eig(first.g.values) > 0.0
        if isinstance(first, BundleState):
            assert min_eig(first.Q.values) > 0.0

    def test_step_rejected_after_max_halvings(self):
        with pytest.raises(StepRejected):
            be_step(density_state(), 2.5, max_halvings=0)
        with pytest.raises(StepRejected):
            run_bundle(5.0, 5.0, c_cfl=1e9, max_halvings=0)

    @pytest.mark.parametrize("run, kwargs", [
        (run_density, {"N": 5, "dt": 0.01, "extinction_ratio": 0.98}),
        (run_bundle, {"dt": 5e-3, "extinction_ratio": 0.99}),
    ])
    def test_extinction_guard_records_crossing_state(self, run, kwargs):
        ratio = kwargs["extinction_ratio"]
        states, reason = run(kwargs.pop("dt"), 1.0, record_every=3, **kwargs)
        assert reason == "ExtinctionGuard"

        def smallest(s):
            arrays = [s.g.values] + ([s.Q.values] if isinstance(s, BundleState) else [])
            return [min_eig(a) for a in arrays]

        guards = [ratio * m for m in smallest(states[0])]
        crossed = [any(m <= g for m, g in zip(smallest(s), guards)) for s in states]
        assert crossed == [False] * (len(states) - 1) + [True]
        # the crossing state arrives off the record cadence and is still recorded
        assert len(states) >= 3
        assert states[-1].t - states[-2].t < states[1].t - states[0].t

    @pytest.mark.parametrize("run", [run_density, run_bundle])
    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": -1.0}, {"t_end": 0.0}, {"c_cfl": 0.0}, {"c_cfl": -0.1},
        {"record_every": 0}, {"record_every": -1}, {"record_every": 1.5},
    ])
    def test_bad_numerics_rejected(self, run, kwargs):
        args = {"dt": 1e-3, "t_end": 1e-2, **kwargs}
        with pytest.raises(DomainError):
            run(args.pop("dt"), args.pop("t_end"), **args)

    def test_one_geometry_pass_per_stage(self, monkeypatch):
        counts = Counter()
        for name in ("spd_inverse", "christoffel_field"):
            original = getattr(diffgeo, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for module in [m for k, m in sys.modules.items() if k.startswith("bundleflow")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        be_rhs(density_state(N=5))
        assert counts == {"spd_inverse": 1, "christoffel_field": 1}
        counts.clear()
        flow_rhs_torus(*heisenberg_bundle_fields(1, 1.0))
        assert counts == {"spd_inverse": 2, "christoffel_field": 1}
        counts.clear()
        be_step(density_state(N=5), 1e-3)
        assert counts == {"spd_inverse": 4, "christoffel_field": 4}
        counts.clear()
        run_bundle(1e-3, 1e-3)
        assert counts == {"spd_inverse": 8, "christoffel_field": 4}
