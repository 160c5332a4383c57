"""Density-flow right-hand sides, monitors and the gradient bound."""

import numpy as np
import pytest

from bundleflow import integrate
from bundleflow.bakry_emery import (BEState, be_integrate, be_rhs, be_stage, gradient_bound,
                                    monitors)
from bundleflow.diffgeo import christoffel_field, ricci_field_with_defect, spd_inverse
from bundleflow.errors import BlowupTime, ChartMismatch, DomainError
from bundleflow.grids import MetricField, PeriodicChart, ScalarField
from scalar_reference import drift_laplacian_field, grad_norm_sq_field, laplacian_field
from test_integrate import density_steps


def geometry(s: BEState):
    """The stage geometry ``be_stage`` computes at the state s."""
    return be_stage(s.g.chart, s.g.values, s.f.values, s.inv_excess, spd_inverse(s.g.values))


def rhs(g, f, N):
    """``be_rhs`` at the state (g, f, N), from its stage geometry."""
    return be_rhs(geometry(BEState(g, f, N)))


def flat_setup(res=48, L=2.0 * np.pi, amp=0.0):
    chart = PeriodicChart((L, L), (res, res))
    x = chart.grid_coords()[..., 0]
    g = MetricField(chart, np.broadcast_to(np.eye(2), chart.resolution + (2, 2)).copy())
    f = ScalarField(chart, amp * np.sin(2 * np.pi * x / L))
    return chart, g, f, x


class TestRicciFN:
    """Ric_f^N = Ric + Hess f - df x df / (N - n) read off the density RHS as -dg / 2."""

    def test_constant_density_reduces_to_ricci(self):
        chart = PeriodicChart((2 * np.pi, 2 * np.pi), (16, 16))
        coords = chart.grid_coords()
        x, y = coords[..., 0], coords[..., 1]
        gv = np.zeros(chart.resolution + (2, 2))
        gv[..., 0, 0] = 1.0 + 0.1 * np.sin(y)
        gv[..., 1, 1] = 1.0 + 0.1 * np.cos(x)
        g = MetricField(chart, gv)
        f = ScalarField(chart, np.full(chart.resolution, 0.7))
        dg, _ = rhs(g, f, 5)
        ric = ricci_field_with_defect(
            chart, christoffel_field(chart, g.values, spd_inverse(g.values)))
        assert np.max(np.abs(dg + 2.0 * ric)) < 1e-12

    def test_flat_infinite_N_is_hessian(self):
        chart, g, f, x = flat_setup(amp=0.3, L=2 * np.pi, res=96)
        out = -0.5 * rhs(g, f, np.inf)[0]
        # Hess f of 0.3 sin(x): diag(-0.3 sin x, 0)
        assert np.max(np.abs(out[..., 0, 0] + 0.3 * np.sin(x))) < 5e-4
        assert np.max(np.abs(out[..., 1, 1])) < 5e-4

    def test_finite_N_subtracts_gradient_square(self):
        chart, g, f, x = flat_setup(amp=0.3, res=96)
        n = 2
        diff = -0.5 * (rhs(g, f, n + 2)[0] - rhs(g, f, np.inf)[0])
        expected = -0.5 * (0.3 * np.cos(x)) ** 2
        assert np.max(np.abs(diff[..., 0, 0] - expected)) < 5e-4
        assert np.max(np.abs(diff[..., 1, 1])) < 1e-12

    def test_N_equal_n_rejected(self):
        _, g, f, _ = flat_setup()
        with pytest.raises(DomainError):
            BEState(g, f, 2)


class TestBeRhs:
    def test_flat_fixed_point(self):
        _, g, f, _ = flat_setup(amp=0.0)
        dg, df = rhs(g, f, np.inf)
        assert np.max(np.abs(dg)) < 1e-12
        assert np.max(np.abs(df)) < 1e-12

    def test_round_band_interior(self):
        # round-sphere band sampled on a periodic chart: the wrap rows are
        # wrong, interior nodes must satisfy dg = -2g, df = 0
        chart = PeriodicChart((1.6, 2.0 * np.pi), (64, 64), (0.7, 0.0))
        theta = chart.grid_coords()[..., 0]
        g_vals = np.zeros(chart.resolution + (2, 2))
        g_vals[..., 0, 0] = 1.0
        g_vals[..., 1, 1] = np.sin(theta) ** 2
        g = MetricField(chart, g_vals)
        f = ScalarField(chart, np.zeros(chart.resolution))
        dg, df = rhs(g, f, np.inf)
        interior = slice(4, -4)
        err = np.max(np.abs(dg[interior] + 2.0 * g_vals[interior]))
        assert err < 5e-3
        assert np.max(np.abs(df[interior])) < 1e-10

    def test_drift_equals_two_printed_forms(self):
        _, g, f, _ = flat_setup(amp=0.2)
        _, df_dot = rhs(g, f, 5)
        assert np.max(np.abs(df_dot - drift_laplacian_field(f, f, g))) < 1e-12
        explicit = laplacian_field(f, g) - grad_norm_sq_field(f, g)
        assert np.max(np.abs(df_dot - explicit)) < 1e-12


class TestMonitors:
    def test_definitional_recomputation(self):
        _, g, f, _ = flat_setup(amp=0.15)
        state = BEState(g, f, 6)
        mon = monitors(geometry(state), k_values=(0, 1, 3))
        lap = laplacian_field(f, g)
        for k, field in mon["tildeS"].items():
            rebuilt = mon["barS"] + lap - (k + 1) * mon["grad_f_sq"]
            assert np.max(np.abs(field - rebuilt)) < 1e-12

    def test_scalar_curvature_case_flat(self):
        # on a flat chart with density: barS = lap f - |grad f|^2 / (N - n)
        _, g, f, x = flat_setup(amp=0.3, res=96)
        mon = monitors(geometry(BEState(g, f, np.inf)), k_values=(0,))
        expected = -0.3 * np.sin(x)
        assert np.max(np.abs(mon["barS"] - expected)) < 5e-4


class TestBEState:
    def test_fields_must_share_the_chart(self):
        _, g, _, _ = flat_setup(res=16)
        _, _, f, _ = flat_setup(res=8)
        with pytest.raises(ChartMismatch):
            BEState(g, f, np.inf)


class TestBeIntegrate:
    def test_constant_trace_on_flat(self):
        _, g, f, _ = flat_setup(res=16, amp=0.0)
        records, stop = be_integrate(BEState(g, f, np.inf), dt=0.01, t_end=0.05, k_values=(0, 1))
        assert stop == "Horizon"
        assert np.max(np.abs(records[-1].g.values - g.values)) < 1e-12

    def test_extinction_guard_reason(self, monkeypatch):
        monkeypatch.setattr(integrate, "EXTINCTION_RATIO", 0.999999)
        _, g, f, _ = flat_setup(res=16, amp=0.1)
        _, stop = be_integrate(BEState(g, f, 5), dt=0.01, t_end=1.0, k_values=(0, 1))
        assert stop == "ExtinctionGuard"

    def test_monotone_min_scalar_short(self):
        _, g, f, _ = flat_setup(res=24, amp=0.1)
        records, _ = be_integrate(BEState(g, f, np.inf), dt=1.0, t_end=0.3, k_values=(0, 1))
        mins = np.array([r.min_tildeS[0] for r in records])
        assert np.all(np.diff(mins) >= -1e-8)


class TestGradientBound:
    def test_infinite_N_constant(self):
        assert gradient_bound(10.0, 3.0, 2, np.inf) == 3.0
        assert gradient_bound(0.0, 3.0, 2, 7.5) == 3.0

    def test_below_n_reference_value(self):
        assert gradient_bound(0.25, 1.0, 2, 1) == pytest.approx(2.0)

    def test_blowup_horizon(self):
        with pytest.raises(BlowupTime, match=r"t < 0\.5 "):
            gradient_bound(0.5, 1.0, 2, 1)
        assert gradient_bound(0.4999999, 1.0, 2, 1) > 1e6

    def test_negative_k0_rejected(self):
        with pytest.raises(DomainError):
            gradient_bound(0.1, -1.0, 2, np.inf)


class TestBeStep:
    def test_single_step_matches_integrate(self):
        _, g, f, _ = flat_setup(res=16, amp=0.05)
        step, state = density_steps(BEState(g, f, 5))
        t1, (_, f1), _, _ = step(state, 1e-3)
        assert t1 == pytest.approx(1e-3)
        assert np.max(np.abs(f1 - f.values)) > 0.0
