"""Shared Runge-Kutta machinery and the fixed-step driver of both grid flows."""

import sys
from collections import Counter

import numpy as np
import pytest

from bundleflow import bakry_emery, bundle, diffgeo, integrate
from bundleflow.bakry_emery import BEState, be_factor, be_integrate, be_rhs, be_stage, be_step
from bundleflow.bundle import BundleState, bundle_integrate, flow_rhs_from_data
from bundleflow.catalog import heisenberg_bundle_fields
from bundleflow.errors import DomainError, StepRejected, StepUnderflow
from bundleflow.grids import MetricField, PeriodicChart, ScalarField
from bundleflow.integrate import adaptive_rk, rk4_step


class TestRk4Step:
    def test_exact_on_cubics(self):
        # dy/dt = 3 t^2  ->  y = t^3, reproduced exactly by a fourth-order step
        def f(t, y):
            return (np.array([3 * t * t]),)

        (y,) = rk4_step(f, 0.0, (np.array([0.0]),), 0.5, f(0.0, None))
        assert y[0] == pytest.approx(0.125, abs=1e-15)

    def test_exponential_accuracy(self):
        # a tuple state: two decoupled components advance together
        y = (np.array([1.0]), np.array([2.0]))
        dt = 0.01
        def f(t, v):
            return (-v[0], -2.0 * v[1])

        for i in range(100):
            y = rk4_step(f, i * dt, y, dt, f(i * dt, y))
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


def count_calls(monkeypatch, home, names) -> Counter:
    """Count calls of ``home.<name>`` wherever a bundleflow module binds it."""
    counts = Counter()
    for name in names:
        original = getattr(home, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in [m for k, m in sys.modules.items() if k.startswith("bundleflow")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


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
            be_step(be_factor(density_state()), 2.5, max_halvings=0)
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

    def test_one_geometry_pass_per_stage(self, monkeypatch, grid_data):
        counts = count_calls(monkeypatch, diffgeo, ("spd_inverse", "christoffel_field"))
        s = density_state(N=5)
        be_rhs(be_stage(s.g.chart, s.g.values, s.f.values, s.inv_excess,
                        diffgeo.spd_inverse(s.g.values)))
        assert counts == {"spd_inverse": 1, "christoffel_field": 1}
        counts.clear()
        flow_rhs_from_data(grid_data(*heisenberg_bundle_fields(1, 1.0)))
        assert counts == {"spd_inverse": 2, "christoffel_field": 1}
        # In a step, k1 reuses the accepted state's factorization, so only
        # stages 2-4 invert; the density step also builds its result's stage
        # geometry, which the next k1 and the monitors share.
        cur = be_factor(density_state(N=5))
        counts.clear()
        be_step(cur, 1e-3)
        assert counts == {"spd_inverse": 3, "christoffel_field": 4}
        counts.clear()
        run_bundle(1e-3, 1e-3)
        assert counts == {"spd_inverse": 6, "christoffel_field": 4}


class TestOneFactorizationPerAcceptedState:
    """An accepted state is factored once; its factorization gives the next k1."""

    @pytest.mark.parametrize("state0, run", [
        (density_state, lambda s: be_integrate(s, 1e-3, 3e-3).states),
        (bundle_state, lambda s: bundle_integrate(s, 1e-3, 3e-3)[0]),
    ])
    def test_four_choleskys_and_eigensolves_of_g_per_step(self, monkeypatch, state0, run):
        state0 = state0()
        counts = Counter()
        for name in ("cholesky", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, _name=name, _fn=original, **kwargs):
                if np.shape(a) == state0.g.values.shape:
                    counts[_name] += 1
                return _fn(a, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        steps = len(run(state0)) - 1
        assert steps == 3
        # plus the one factorization of the initial state, in the driver
        assert counts == {"cholesky": 4 * steps + 1, "eigvalsh": 4 * steps + 1}

    def test_four_geometry_passes_per_density_step(self, monkeypatch):
        # stages 2-4 and the result; state0's pass is step 1's k1
        counts = count_calls(monkeypatch, diffgeo, ("base_geometry",))
        states, _ = run_density(1e-3, 5e-3, record_every=1)
        assert counts["base_geometry"] == 4 * (len(states) - 1) + 1

    @pytest.mark.parametrize("run, dt, stage", [
        (run_density, 2.5, (bakry_emery, "be_rhs")),
        (run_bundle, 5.0, (bundle, "bundle_data_from_fields")),
    ])
    def test_k1_once_per_step_however_many_halvings(self, monkeypatch, run, dt, stage):
        # k1 is the one stage evaluated outside rk4_step, which every retry calls
        inside, calls = [False], Counter()
        rk4_step, rhs = integrate.rk4_step, getattr(*stage)

        def attempt(*args):
            calls["attempts"] += 1
            inside[0] = True
            try:
                return rk4_step(*args)
            finally:
                inside[0] = False

        def counted(*args):
            calls["later stages" if inside[0] else "k1"] += 1
            return rhs(*args)

        monkeypatch.setattr(integrate, "rk4_step", attempt)
        monkeypatch.setattr(*stage, counted)
        states, _ = run(dt, dt, c_cfl=1e9)
        steps = len(states) - 1
        assert calls["attempts"] > steps
        assert calls["k1"] == steps

    @pytest.mark.parametrize("run", [run_density, run_bundle])
    def test_result_above_condition_cap_is_halved(self, monkeypatch, run):
        # A result that is positive definite but above the 1e12 condition cap
        # at one node fails the accept, so the step is halved.  Accepting it
        # would only move the failure into every retry of the next step.
        tried = []
        original = integrate.rk4_step

        def first_over_cap(f, t, y, dt, k1):
            out = original(f, t, y, dt, k1)
            tried.append(dt)
            if len(tried) == 1:
                g = out[0].copy()
                g[0, 0] = np.diag([1.0, 1e-13])
                out = (g,) + out[1:]
            return out

        monkeypatch.setattr(integrate, "rk4_step", first_over_cap)
        states, _ = run(1e-3, 1e-3, record_every=1)
        assert tried[:2] == [1e-3, 5e-4]
        assert states[1].t == 5e-4
