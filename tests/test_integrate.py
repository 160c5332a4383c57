"""Shared Runge-Kutta machinery and the fixed-step driver of both grid flows."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from bundleflow import bakry_emery, bundle, diffgeo, integrate
from bundleflow.bakry_emery import BEState, be_factor, be_integrate, be_rhs, be_stage, be_step
from bundleflow.bundle import BundleState, bundle_integrate, flow_rhs_from_data
from bundleflow.catalog import heisenberg_bundle_fields
from bundleflow.errors import DomainError, SingularMetric, StepRejected, StepUnderflow
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


def negate(t, y):
    return [-v for v in y]


class TestAdaptiveRk:
    def test_exponential_decay(self):
        res = adaptive_rk(negate, 0.0, [1.0], 3.0, rtol=1e-10, atol=1e-13)
        assert res.stop_reason == "Horizon"
        assert res.t[-1] == pytest.approx(3.0, abs=1e-12)
        assert res.y[-1, 0] == pytest.approx(np.exp(-3.0), rel=1e-8)

    def test_harmonic_energy(self):
        res = adaptive_rk(lambda t, y: (y[1], -y[0]), 0.0, [1.0, 0.0], 20.0,
                          rtol=1e-10, atol=1e-13)
        energy = res.y[:, 0] ** 2 + res.y[:, 1] ** 2
        assert np.max(np.abs(energy - 1.0)) < 1e-7

    def test_t_eval_times_hit(self):
        res = adaptive_rk(negate, 0.0, [1.0], 1.0, t_eval=[0.25, 0.5, 0.75])
        for target in (0.25, 0.5, 0.75):
            assert np.min(np.abs(res.t - target)) < 1e-13

    def test_stop_predicate(self):
        res = adaptive_rk(negate, 0.0, [1.0], 50.0,
                          stop=lambda t, y: "Small" if y[0] < 0.5 else None)
        assert res.stop_reason == "Small"
        assert res.y[-1, 0] < 0.5
        assert res.t[-1] < 1.0

    def test_underflow_on_finite_time_blowup(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1
        with pytest.raises(StepUnderflow):
            adaptive_rk(lambda t, y: [v * v for v in y], 0.0, [1.0], 2.0, rtol=1e-9)

    def test_nan_rhs_is_rejected_not_accepted(self):
        # rhs goes invalid below y = 0.5; the guard stops the run first
        def f(t, y):
            if y[0] < 0.5:
                return [math.nan]
            return negate(t, y)

        res = adaptive_rk(f, 0.0, [1.0], 50.0,
                          stop=lambda t, y: "Guard" if y[0] <= 0.6 else None)
        assert res.stop_reason == "Guard"
        assert np.all(np.isfinite(res.y))

    def test_seven_stages_per_attempt_first_same_as_last(self):
        # the jump at t = 0.5 makes the controller reject steps
        calls = []

        def f(t, y):
            calls.append(t)
            return [float(t > 0.5) * math.cos(v) for v in y]

        res = adaptive_rk(f, 0.0, [0.0], 1.0)
        assert res.n_rejected > 10
        assert len(calls) == 1 + 6 * (res.n_steps + res.n_rejected)

    def test_states_are_float_lists(self):
        seen = []

        def stop(t, y):
            seen.append((t, y))
            return None

        res = adaptive_rk(lambda t, y: (y[1], -y[0]), 0.0, [1, 0], 1.0, stop=stop)
        assert len(seen) == res.n_steps
        assert all(type(t) is float and type(y) is list and {type(v) for v in y} == {float}
                   for t, y in seen)
        assert [y for _, y in seen] == res.y[1:].tolist()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_attempt_matches_the_numpy_loop_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        coef = rng.standard_normal((n, n))

        def f(t, y):                    # a linear map, summed in order on either path
            out = []
            for row in coef.tolist():
                s = 0.0
                for c, v in zip(row, y):
                    s += c * v
                out.append(math.cos(t) * s)
            return out

        for _ in range(200):
            y = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)).tolist()
            t, dt = float(rng.uniform(0, 5)), float(10.0 ** rng.uniform(-4, 0))
            err, y5, k7 = integrate._dp_attempt(f, t, y, dt, f(t, y), 1e-9, 1e-12)
            ref_err, ref_y5, ref_k7 = numpy_attempt(f, t, y, dt, 1e-9, 1e-12)
            assert (err, y5, k7) == (ref_err, ref_y5.tolist(), ref_k7.tolist())


def numpy_attempt(f, t, y, dt, rtol, atol):
    """One Dormand-Prince attempt in numpy array form, the reference that
    ``integrate._dp_attempt`` matches bit for bit."""
    y = np.array(y)
    k = np.empty((7, y.size))
    k[0] = f(t, y)
    for i in range(1, 6):
        k[i] = f(t + integrate._C[i] * dt,
                 y + dt * sum(a * k[j] for j, a in enumerate(integrate._A[i])))
    y5 = y + dt * (integrate._B5[:6] @ k[:6])
    k[6] = f(t + dt, y5)
    y4 = y + dt * (integrate._B4 @ k)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
    return float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2))), y5, k[6]


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

    def test_step_rejected_after_max_halvings(self, monkeypatch):
        monkeypatch.setattr(integrate, "MAX_HALVINGS", 0)
        with pytest.raises(StepRejected):
            be_step(be_factor(density_state()), 2.5)
        with pytest.raises(StepRejected):
            run_bundle(5.0, 5.0, c_cfl=1e9)

    @pytest.mark.parametrize("run, kwargs", [
        (run_density, {"N": 5, "dt": 0.01, "extinction_ratio": 0.98}),
        (run_bundle, {"dt": 5e-3, "extinction_ratio": 0.99}),
    ])
    def test_extinction_guard_records_crossing_state(self, monkeypatch, run, kwargs):
        ratio = kwargs.pop("extinction_ratio")
        monkeypatch.setattr(integrate, "EXTINCTION_RATIO", ratio)
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

    def test_extinction_guard_fires_at_equality(self, monkeypatch):
        # Q of the constant Heisenberg data starts at exactly 1 and shrinks,
        # so a ratio equal to its smallest eigenvalue after one step puts that
        # eigenvalue exactly on the guard; "at or below" stops the run there
        assert min_eig(bundle_state().Q.values) == 1.0
        first = run_bundle(1e-3, 1e-3)[0][1]
        assert first.min_eig_q < 1.0 < first.min_eig_g
        monkeypatch.setattr(integrate, "EXTINCTION_RATIO", first.min_eig_q)
        states, reason = run_bundle(1e-3, 1.0)
        assert reason == "ExtinctionGuard"
        assert [s.min_eig_q for s in states] == [1.0, first.min_eig_q]

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
        # stages 2-4 and the accepted result invert (the result through
        # spd_factor's call of the gate); the density step also builds its
        # result's stage geometry, which the next k1 and the monitors share.
        cur = be_factor(density_state(N=5))
        counts.clear()
        be_step(cur, 1e-3)
        assert counts == {"spd_inverse": 4, "christoffel_field": 4}
        s = bundle_state()
        cur = bundle._accepted(s, diffgeo.spd_factor(s.g.values), diffgeo.spd_factor(s.Q.values))
        counts.clear()
        bundle._bundle_step(cur, 1e-3)
        assert counts == {"spd_inverse": 8, "christoffel_field": 4}

    def test_stages_make_no_roll_or_trace_call(self, monkeypatch, grid_data):
        # stencils gather through the chart's neighbour indices and traces are
        # sums of diagonal slices; a copying np.roll or a slow np.trace fails
        def forbidden(*args, **kwargs):
            raise AssertionError("np.roll or np.trace called in a stage")

        monkeypatch.setattr(np, "roll", forbidden)
        monkeypatch.setattr(np, "trace", forbidden)
        s = density_state(N=5)
        be_rhs(be_stage(s.g.chart, s.g.values, s.f.values, s.inv_excess,
                        diffgeo.spd_inverse(s.g.values)))
        flow_rhs_from_data(grid_data(*heisenberg_bundle_fields(1, 1.0)))
        flow_rhs_from_data(grid_data(*heisenberg_bundle_fields(2, 1.0)))

    def test_rejected_stage_costs_at_most_two_eigensolves(self, monkeypatch):
        # A 32^2 density run whose steps halve until the flow blows up: every
        # rejected stage inversion runs one eigensolve on the nodes its bound
        # leaves open and names its bad node from one more.
        eigensolves, per_rejection = [0], []
        eigvalsh, spd_inverse = np.linalg.eigvalsh, diffgeo.spd_inverse

        def counted(a, **kwargs):
            eigensolves[0] += 1
            return eigvalsh(a, **kwargs)

        def watched(*args, **kwargs):
            eigensolves[0] = 0
            try:
                return spd_inverse(*args, **kwargs)
            except SingularMetric:
                per_rejection.append(eigensolves[0])
                raise

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for module in [m for k, m in sys.modules.items() if k.startswith("bundleflow")]:
            if getattr(module, "spd_inverse", None) is spd_inverse:
                monkeypatch.setattr(module, "spd_inverse", watched)
        chart = PeriodicChart((2 * np.pi, 2 * np.pi), (32, 32))
        g = MetricField(chart, np.broadcast_to(np.eye(2), chart.resolution + (2, 2)).copy())
        f = ScalarField(chart, 0.5 * np.sin(chart.grid_coords()[..., 0]))
        with pytest.raises(StepRejected):
            be_integrate(BEState(g, f, 5.0), 2.5, 2.5, c_cfl=1e9)
        assert len(per_rejection) > 100
        assert max(per_rejection) <= 2


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
        # Stages 2-4 invert g without an eigensolve, so only the accepted
        # state's factorization solves for eigenvalues.  Plus the one
        # factorization of the initial state, in the driver.
        assert counts == {"cholesky": 4 * steps + 1, "eigvalsh": steps + 1}

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
