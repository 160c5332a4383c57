"""Chart, field and discrete-calculus tests."""

import numpy as np
import pytest

from bundleflow.errors import ChartMismatch, DimensionMismatch, DomainError, SingularMetric
from bundleflow.grids import (ConnectionField, MetricField, PeriodicChart, ScalarField,
                              deriv, deriv2, grad, require_same_chart, second_derivs)


def chart2d(res=32, L=2.0 * np.pi):
    return PeriodicChart((L, L), (res, res))


class TestPeriodicChart:
    def test_spacing_positive(self):
        c = PeriodicChart((1.0, 2.0), (10, 8))
        assert c.spacing == (0.1, 0.25)
        assert c.dims == 2

    def test_origin_defaults_to_zero(self):
        c = PeriodicChart((1.0,), (8,))
        assert c.origin == (0.0,)
        assert c.axis_coords(0)[0] == 0.0

    def test_origin_shifts_coordinates(self):
        c = PeriodicChart((1.0, 1.0), (8, 8), (1.0, -0.5))
        assert c.axis_coords(0)[0] == 1.0
        assert c.grid_coords()[0, 0, 1] == -0.5

    @pytest.mark.parametrize("extents,res", [
        ((0.0, 1.0), (8, 8)),        # zero extent
        ((1.0,) * 5, (8,) * 5),      # too many dims
        ((1.0, 1.0), (8, 4)),        # resolution too low
    ])
    def test_invalid_charts_rejected(self, extents, res):
        with pytest.raises(DomainError):
            PeriodicChart(extents, res)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            PeriodicChart((1.0, 1.0), (8,))


class TestFields:
    def test_scalar_rejects_nan(self):
        c = chart2d(8)
        v = np.zeros(c.resolution)
        v[3, 4] = np.nan
        with pytest.raises(DomainError):
            ScalarField(c, v)

    def test_metric_must_be_spd(self):
        c = chart2d(8)
        v = np.tile(np.diag([1.0, -1.0]), c.resolution + (1, 1))
        with pytest.raises(SingularMetric):
            MetricField(c, v)

    def test_metric_symmetry_enforced_exactly(self):
        c = chart2d(8)
        v = np.tile(np.array([[2.0, 0.3], [0.3 + 1e-14, 1.0]]), c.resolution + (1, 1))
        m = MetricField(c, v)
        assert np.array_equal(m.values[..., 0, 1], m.values[..., 1, 0])

    def test_metric_values_are_an_owned_read_only_copy(self):
        # the symmetrized array is the one copy: the caller's array stays
        # writable and a later write to it does not reach the field
        c = chart2d(8)
        v = np.tile(np.eye(2), c.resolution + (1, 1))
        m = MetricField(c, v)
        v[...] = 5.0
        assert v.flags.writeable and not m.values.flags.writeable
        assert np.array_equal(m.values, np.tile(np.eye(2), c.resolution + (1, 1)))

    def test_metric_asymmetric_rejected(self):
        c = chart2d(8)
        v = np.tile(np.array([[2.0, 0.5], [0.1, 1.0]]), c.resolution + (1, 1))
        with pytest.raises(DomainError):
            MetricField(c, v)

    def test_fields_immutable(self):
        c = chart2d(8)
        f = ScalarField(c, np.zeros(c.resolution))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_chart_mismatch_detected(self):
        f1 = ScalarField(chart2d(8), np.zeros((8, 8)))
        f2 = ScalarField(chart2d(16), np.zeros((16, 16)))
        with pytest.raises(ChartMismatch):
            require_same_chart(f1, f2)

    def test_connection_linear_curvature(self):
        c = chart2d(8)
        lin = np.zeros((1, 2, 2))
        lin[0, 1, 0] = -1.0          # a^1_y = -x
        a = ConnectionField(c, 1, np.zeros(c.resolution + (1, 2)), lin)
        f = a.curvature_linear_part()
        assert f[0, 0, 1] == -1.0 and f[0, 1, 0] == 1.0


class TestDerivatives:
    def test_trig_first_derivative(self):
        c = chart2d(128)
        x = c.grid_coords()[..., 0]
        err = np.max(np.abs(deriv(np.sin(x), c, 0) - np.cos(x)))
        assert err < 5e-4

    def test_trig_second_derivative(self):
        c = chart2d(128)
        x = c.grid_coords()[..., 0]
        err = np.max(np.abs(deriv2(np.sin(x), c, 0) + np.sin(x)))
        assert err < 5e-4

    def test_second_derivs_exactly_symmetric(self):
        c = chart2d(16)
        rng = np.random.default_rng(3)
        v = rng.normal(size=c.resolution)
        dd = second_derivs(v, c)
        assert np.array_equal(dd[..., 0, 1], dd[..., 1, 0])

    def test_grad_axis_layout(self):
        c = chart2d(32)
        xy = c.grid_coords()
        v = np.sin(xy[..., 0]) * np.ones_like(xy[..., 1])
        g = grad(v, c)
        assert g.shape == c.resolution + (2,)
        assert np.max(np.abs(g[..., 1])) < 1e-12

