"""Shared Runge-Kutta machinery and the fixed-step harness of both grid flows."""

import functools
import math
import sys
from collections import Counter

import numpy as np
import pytest

from bundleflow import bakry_emery, bundle, diffgeo, grids, integrate
from bundleflow.bakry_emery import BEState, be_factor, be_integrate, be_rhs, be_stage, be_step
from bundleflow.bundle import BundleState, bundle_integrate, flow_rhs_from_data
from bundleflow.catalog import heisenberg_bundle_fields
from bundleflow.errors import DomainError, SingularMetric, StepRejected, StepUnderflow
from bundleflow.grids import MetricField, PeriodicChart, ScalarField
from bundleflow.integrate import adaptive_rk, rk4_step
from test_field_pins import bundle_fields, density_fields, x_only_fields


class TestRk4Step:
    def test_exact_on_cubics(self):
        # dy/dt = 3 t^2  ->  y = t^3, reproduced exactly by a fourth-order step;
        # t is the first component of the state, dt/dt = 1
        def f(v):
            return (np.array([1.0]), 3 * v[0] * v[0])

        y0 = (np.array([0.0]), np.array([0.0]))
        t, y = rk4_step(f, y0, 0.5, f(y0))
        assert t[0] == 0.5
        assert y[0] == pytest.approx(0.125, abs=1e-15)

    def test_exponential_accuracy(self):
        # a tuple state: two decoupled components advance together
        y = (np.array([1.0]), np.array([2.0]))
        dt = 0.01
        def f(v):
            return (-v[0], -2.0 * v[1])

        for _ in range(100):
            y = rk4_step(f, y, dt, f(y))
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


def non_uniform_density_state(N=np.inf):
    chart, g, f = density_fields(12)
    return BEState(MetricField(chart, g), ScalarField(chart, f), N)


def non_uniform_bundle_state():
    return BundleState(*bundle_fields(2, 1, 13), 0.0)


def running_chart(state):
    """The chart a flow from ``state`` steps on: its own, collapsed along the
    axes every field of the state is constant on."""
    fields = (state.g, state.f) if isinstance(state, BEState) else (state.g, state.Q, state.alpha)
    return state.g.chart.collapsed(*(f.values for f in fields))


def density_steps(state):
    """Step by hand what ``be_integrate`` steps, on the state's own chart:
    (step(state, dt) -> next state, the first state (t, arrays, min_eigs, reuse))."""
    chart, inv_excess = state.g.chart, state.inv_excess
    y = (state.g.values, state.f.values)

    def factor(chart, y):
        return be_factor(chart, y, inv_excess)

    def stages(chart, y, geometry):
        return be_step(chart, y, geometry, inv_excess)

    return (functools.partial(integrate.rk4_halving, stages, factor, chart),
            (state.t, y, *factor(chart, y)))


def bundle_steps(state):
    """Step by hand what ``bundle_integrate`` steps, on the state's own chart."""
    chart, lin = state.g.chart, state.alpha.curvature_linear_part()
    y = (state.g.values, state.Q.values, state.alpha.values)

    def stages(chart, y, inverses):
        return bundle._stages(chart, y, inverses, lin)

    return (functools.partial(integrate.rk4_halving, stages, bundle._factor, chart),
            (state.t, y, *bundle._factor(chart, y)))


def run_density_states(state0, dt, t_end):
    return be_integrate(state0, dt, t_end, (0, 1))[0]


def run_bundle_states(state0, dt, t_end):
    return bundle_integrate(state0, dt, t_end)[0]


def min_eig(values):
    return float(np.min(np.linalg.eigvalsh(values)))


def run_density(dt, t_end, **kwargs):
    return be_integrate(density_state(N=kwargs.pop("N", np.inf)), dt, t_end, (0, 1), **kwargs)


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
        step, state = density_steps(density_state())
        with pytest.raises(StepRejected):
            step(state, 2.5)
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

    def test_start_metric_not_positive_definite_names_the_node(self):
        # a field holds any symmetric values; the flow's one factorization of
        # its start state is what rejects g, naming the node
        def indefinite_at_3_5(g):
            v = g.values.copy()
            v[3, 5] = np.diag([1.0, -1.0])
            return MetricField(g.chart, v)

        s = density_state()
        with pytest.raises(SingularMetric, match=r"not positive definite at node \(3, 5\)"):
            be_integrate(BEState(indefinite_at_3_5(s.g), s.f, s.N), 1e-3, 1e-2, (0,))
        s = bundle_state()
        with pytest.raises(SingularMetric, match=r"not positive definite at node \(3, 5\)"):
            bundle_integrate(BundleState(indefinite_at_3_5(s.g), s.Q, s.alpha, 0.0), 1e-3, 1e-2)

    def test_start_metric_failing_along_a_collapsed_axis_names_the_full_chart_node(self):
        # g fails on the row x = 5 and stays constant along y, so the flow runs
        # on one y node and names the node the full chart names first
        def indefinite_at_row_5(g):
            v = g.values.copy()
            v[5, :] = np.diag([1.0, -1.0])
            return MetricField(g.chart, v)

        s = density_state()
        assert running_chart(BEState(indefinite_at_row_5(s.g), s.f, s.N)).resolution == (16, 1)
        with pytest.raises(SingularMetric, match=r"not positive definite at node \(5, 0\)"):
            be_integrate(BEState(indefinite_at_row_5(s.g), s.f, s.N), 1e-3, 1e-2, (0,))
        s = bundle_state()
        assert running_chart(BundleState(indefinite_at_row_5(s.g), s.Q, s.alpha, 0.0)
                             ).resolution == (16, 1)
        with pytest.raises(SingularMetric, match=r"not positive definite at node \(5, 0\)"):
            bundle_integrate(BundleState(indefinite_at_row_5(s.g), s.Q, s.alpha, 0.0), 1e-3, 1e-2)

    def test_non_finite_result_names_its_first_node(self):
        chart = PeriodicChart((1.0, 1.0), (8, 1))
        f = np.zeros(chart.resolution)
        f[5, 0], f[6, 0] = np.inf, np.nan
        with pytest.raises(SingularMetric, match=r"non-finite entry at node \(5, 0\)"):
            integrate._require_finite(chart, (np.zeros(chart.resolution + (2, 2)), f))

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

    @pytest.mark.parametrize("state0, run", [
        (density_state, run_density_states),
        (bundle_state, run_bundle_states),
        (non_uniform_density_state, run_density_states),
        (non_uniform_bundle_state, run_bundle_states),
    ], ids=["density", "bundle", "non-uniform-density", "non-uniform-bundle"])
    def test_no_field_validated_after_the_start(self, monkeypatch, state0, run):
        # the start's fields are checked where they are built; the harness
        # steps their arrays and records them as views, checking no field again
        state0, calls = state0(), [0]
        checked = grids._checked

        def counted(*args):
            calls[0] += 1
            return checked(*args)

        monkeypatch.setattr(grids, "_checked", counted)
        assert len(run(state0, 1e-3, 3e-3)) == 4
        assert calls[0] == 0

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
        step, state = density_steps(density_state(N=5))
        counts.clear()
        step(state, 1e-3)
        assert counts == {"spd_inverse": 4, "christoffel_field": 4}
        step, state = bundle_steps(bundle_state())
        counts.clear()
        step(state, 1e-3)
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
            be_integrate(BEState(g, f, 5.0), 2.5, 2.5, (0, 1), c_cfl=1e9)
        assert len(per_rejection) > 100
        assert max(per_rejection) <= 2


class TestOneFactorizationPerAcceptedState:
    """An accepted state is factored once; its factorization gives the next k1."""

    @pytest.mark.parametrize("state0, run, resolution", [
        (density_state, run_density_states, (16, 1)),
        (bundle_state, run_bundle_states, (1, 1)),
        (non_uniform_density_state, run_density_states, (8, 8)),
        (non_uniform_bundle_state, run_bundle_states, (8, 8)),
    ], ids=["density", "bundle", "non-uniform-density", "non-uniform-bundle"])
    def test_four_choleskys_and_eigensolves_of_g_per_step(self, monkeypatch, state0, run,
                                                          resolution):
        state0 = state0()
        # count g's factorizations on the chart the flow runs on
        assert running_chart(state0).resolution == resolution
        shape = resolution + state0.g.values.shape[-2:]
        counts = Counter()
        for name in ("cholesky", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, _name=name, _fn=original, **kwargs):
                if np.shape(a) == shape:
                    counts[_name] += 1
                return _fn(a, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        steps = len(run(state0, 1e-3, 3e-3)) - 1
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

    @pytest.mark.parametrize("run, index, bad", [
        pytest.param(run_density, 0, np.diag([1.0, 1e-13]), id="run_density"),
        pytest.param(run_bundle, 0, np.diag([1.0, 1e-13]), id="run_bundle"),
        pytest.param(run_density, 1, np.nan, id="run_density-nan-f"),
        pytest.param(run_bundle, 2, np.nan, id="run_bundle-nan-alpha"),
    ])
    def test_result_above_condition_cap_is_halved(self, monkeypatch, run, index, bad):
        # A result that is positive definite but above the 1e12 condition cap
        # at one node fails the accept, so the step is halved.  Accepting it
        # would only move the failure into every retry of the next step.  So
        # is a result with a non-finite density or connection entry, which
        # no metric factorization sees.
        tried = []
        original = integrate.rk4_step

        def first_bad(f, y, dt, k1):
            out = original(f, y, dt, k1)
            tried.append(dt)
            if len(tried) == 1:
                a = out[index].copy()
                a[0, 0] = bad
                out = out[:index] + (a,) + out[index + 1:]
            return out

        monkeypatch.setattr(integrate, "rk4_step", first_bad)
        states, _ = run(1e-3, 1e-3, record_every=1)
        assert tried[:2] == [1e-3, 5e-4]
        assert states[1].t == 5e-4


class TestStageGate:
    """A later stage's arrays are checked finite before its right-hand side
    sees them, so a stencil never receives a non-finite state array and its
    exact zeros on a one-node axis are the bits a gather gives."""

    @pytest.mark.parametrize("state0, steps, index", [
        (density_state, density_steps, 1),
        (bundle_state, bundle_steps, 2),
        (lambda: BundleState(*x_only_fields(17), 0.0), bundle_steps, 2),
    ], ids=["density", "bundle-connection", "x-only-connection"])
    def test_non_finite_stage_is_halved_before_any_stencil_runs(self, monkeypatch, state0,
                                                                 steps, index):
        # stage 2 of the first attempt returns a NaN rate of the density or
        # the connection, so stage 3's state holds a NaN there
        def finite_only(name, fn):
            def checked(values, *args):
                assert np.isfinite(values).all(), f"{name} received a non-finite array"
                return fn(values, *args)
            return checked

        for name in ("deriv", "deriv2", "grad", "second_derivs"):
            original = getattr(grids, name)
            for module in [m for k, m in sys.modules.items() if k.startswith("bundleflow")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, finite_only(name, original))
        tried, rates = [], [0]
        rk4_step = integrate.rk4_step

        def poisoned(f, y, dt, k1):
            tried.append(dt)

            def stage(s):
                k = f(s)
                rates[0] += 1
                if rates[0] == 1:
                    bad = k[index].copy()
                    bad.flat[0] = np.nan
                    k = k[:index] + (bad,) + k[index + 1:]
                return k

            return rk4_step(stage, y, dt, k1)

        monkeypatch.setattr(integrate, "rk4_step", poisoned)
        step, state = steps(state0())
        t, arrays, _, _ = step(state, 1e-3)
        assert tried == [1e-3, 5e-4] and t == 5e-4
        # stage 2 of the first attempt and three stages of the second
        assert rates[0] == 4
        assert all(np.isfinite(a).all() for a in arrays)


class TestCollapsedRun:
    """A flow runs on its start's collapsed chart to the bits that its
    stages and factor, stepped by hand on the full chart, give at every node."""

    DT = 2.0 ** -9      # exact sums of steps, so the driver's last step is DT too

    @pytest.mark.parametrize("state0, resolution", [
        (lambda: BundleState(*heisenberg_bundle_fields(1, 1.1), 0.0), (1, 1)),
        (lambda: BundleState(*x_only_fields(17), 0.0), (8, 1, 1, 1)),
        (non_uniform_bundle_state, (8, 8)),
    ], ids=["heisenberg", "x-only", "non-uniform"])
    def test_bundle_records_equal_full_chart_steps(self, state0, resolution):
        state0, steps = state0(), 3
        assert running_chart(state0).resolution == resolution
        records, stop = bundle_integrate(state0, self.DT, steps * self.DT)
        assert stop == "Horizon" and len(records) == steps + 1
        step, state = bundle_steps(state0)
        for i, r in enumerate(records):
            if i:
                state = step(state, self.DT)
            t, arrays, min_eigs, _ = state
            assert (r.t, r.min_eig_g, r.min_eig_q) == (t, *min_eigs)
            for got, want in zip((r.g, r.Q, r.alpha), arrays):
                assert got.chart == state0.g.chart and not got.values.flags.writeable
                assert got.values.shape == want.shape
                assert got.values.tobytes() == want.tobytes()
            assert np.array_equal(r.alpha.linear, state0.alpha.linear)

    @pytest.mark.parametrize("state0, resolution", [
        (lambda: bakry_emery.sine_density_start(5.0, 0.1, 32, 2.0 * np.pi), (32, 1)),
        (lambda: non_uniform_density_state(N=5.0), (8, 8)),
    ], ids=["sine", "non-uniform"])
    def test_density_records_equal_full_chart_steps(self, state0, resolution):
        state0, steps, k_values = state0(), 3, (0, 1)
        assert running_chart(state0).resolution == resolution
        records, stop = be_integrate(state0, self.DT, steps * self.DT, k_values)
        assert stop == "Horizon" and len(records) == steps + 1
        step, state = density_steps(state0)
        for i, r in enumerate(records):
            if i:
                state = step(state, self.DT)
            t, arrays, _, geometry = state
            want = bakry_emery.monitors(geometry, k_values)
            assert r.t == t and r.N == state0.N
            for got, ref in zip((r.g, r.f), arrays):
                assert got.chart == state0.g.chart and not got.values.flags.writeable
                assert got.values.shape == ref.shape
                assert got.values.tobytes() == ref.tobytes()
            assert (r.min_tildeS, r.max_grad_f_sq) == (want["min_tildeS"], want["max_grad_f_sq"])
            for got, ref in ((r.barS, want["barS"]), (r.grad_f_sq, want["grad_f_sq"]),
                             *((r.tildeS[k], want["tildeS"][k]) for k in k_values)):
                assert not got.flags.writeable
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
