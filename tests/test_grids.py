"""Chart, field and discrete-calculus tests."""

import numpy as np
import pytest

from bundleflow.errors import ChartMismatch, DimensionMismatch, DomainError
from bundleflow.grids import (ConnectionField, MetricField, PeriodicChart, QField, ScalarField,
                              deriv, deriv2, grad, require_same_chart, second_derivs)
from scalar_reference import roll_deriv, roll_deriv2, roll_grad, roll_second_derivs


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

    @pytest.mark.parametrize("res", [(8, 0), (8, 2), (7, 1)])
    def test_resolutions_between_one_and_eight_rejected(self, res):
        with pytest.raises(DomainError):
            PeriodicChart((1.0, 1.0), res)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            PeriodicChart((1.0, 1.0), (8,))

    def test_chart_numpy_cannot_size_rejected_before_any_allocation(self):
        # 2**61 nodes of 8-byte floats are 2**64 bytes: past a signed index
        with pytest.raises(MemoryError):
            PeriodicChart((1.0,), (2**61,))

    def test_cached_stencil_data_keeps_equality_and_is_read_only(self):
        used = PeriodicChart((1.0, 2.0), (8, 9))
        grad(np.zeros(used.resolution), used)
        assert used.spacing == (0.125, 2.0 / 9.0)
        fresh = PeriodicChart((1.0, 2.0), (8, 9))
        assert used == fresh and hash(used) == hash(fresh)
        assert require_same_chart(ScalarField(used, np.zeros((8, 9))),
                                  ScalarField(fresh, np.zeros((8, 9)))) is used
        axes, flat, two_h = used.neighbours
        for index in (*(i for pair in axes for i in pair), *flat, two_h):
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 0


class TestFields:
    def test_scalar_rejects_nan(self):
        c = chart2d(8)
        v = np.zeros(c.resolution)
        v[3, 4] = np.nan
        with pytest.raises(DomainError):
            ScalarField(c, v)

    def test_metric_fields_make_no_positivity_decision(self, monkeypatch):
        # positivity is spd_inverse's decision alone, made where a flow factors
        # its state: building a field factors nothing, even an indefinite one
        calls = []
        for name in ("cholesky", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, _name=name, _fn=original, **kwargs):
                calls.append(_name)
                return _fn(a, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        c = chart2d(8)
        indefinite = np.tile(np.diag([1.0, -1.0]), c.resolution + (1, 1))
        assert np.array_equal(MetricField(c, indefinite).values, indefinite)
        QField(c, 2, indefinite)
        QField(c, 1, np.ones(c.resolution + (1, 1)))
        assert calls == []

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
        dd = second_derivs(v, c, grad(v, c))
        assert np.array_equal(dd[..., 0, 1], dd[..., 1, 0])

    # d = 1..4 on charts whose axes have 8, 9 and 16 nodes, scalar and tensor
    # valued; the values span 20 decades and include +-0, +-inf and NaN.
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [8, 9, 16])
    @pytest.mark.parametrize("tail", [(), (2, 3)])
    def test_gathers_equal_rolled_differences_bitwise(self, d, n, tail):
        rng = np.random.default_rng(100 * d + n + len(tail))
        chart = PeriodicChart(tuple(rng.uniform(0.5, 7.0, size=d)), ((n, 8, 9, 16) * 2)[:d])
        shape = chart.resolution + tail
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-10, 10, size=shape)
        pick = rng.integers(0, 40, size=shape)
        for k, special in enumerate((0.0, -0.0, np.inf, -np.inf, np.nan)):
            v[pick == k] = special

        def same(a, b):
            return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

        with np.errstate(all="ignore"):
            for a in range(d):
                assert same(deriv(v, chart, a), roll_deriv(v, chart, a))
                assert same(deriv2(v, chart, a), roll_deriv2(v, chart, a))
            dv = grad(v, chart)
            assert same(dv, roll_grad(v, chart))
            assert same(second_derivs(v, chart, dv), roll_second_derivs(v, chart))

    # every chart has at most one axis with more than one node, so each mixed
    # partial pairs it with a one-node axis: zero, as a gather gives it while
    # the first differences along the wide axis stay finite (spacing >= 1 and
    # the large entries all positive)
    @pytest.mark.parametrize("res", [(8, 1), (1, 8, 1), (1, 1, 1, 1)])
    @pytest.mark.parametrize("tail", [(4,), (2, 3)])
    def test_one_node_axes_equal_rolled_differences_bitwise(self, res, tail):
        rng = np.random.default_rng(sum(res) + len(tail))
        chart = PeriodicChart(tuple(n * rng.uniform(1.0, 3.0) for n in res), res)
        shape = chart.resolution + tail
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-10, 10, size=shape)
        pick = rng.permutation(np.arange(v.size) % 4).reshape(shape)
        v[pick == 0] = -0.0
        v[pick == 1] = rng.uniform(0.5, 1.0, size=shape)[pick == 1] * np.finfo(float).max

        def same(a, b):
            return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

        with np.errstate(over="ignore"):
            for a in range(chart.dims):
                assert same(deriv(v, chart, a), roll_deriv(v, chart, a))
                assert same(deriv2(v, chart, a), roll_deriv2(v, chart, a))
                if res[a] == 1:
                    # (v - 2 v) + v: 2 v overflows above max / 2
                    assert np.all(deriv2(v, chart, a)[pick == 1] == -np.inf)
            dv = grad(v, chart)
            assert same(dv, roll_grad(v, chart))
            assert same(second_derivs(v, chart, dv), roll_second_derivs(v, chart))

    def test_grad_axis_layout(self):
        c = chart2d(32)
        xy = c.grid_coords()
        v = np.sin(xy[..., 0]) * np.ones_like(xy[..., 1])
        g = grad(v, c)
        assert g.shape == c.resolution + (2,)
        assert np.max(np.abs(g[..., 1])) < 1e-12



class TestCollapsedChart:
    """``PeriodicChart.collapsed``: one node on each axis along which every
    array is bitwise constant, at the same spacing and origin."""

    def test_constant_axes_collapse_at_the_same_spacing_and_origin(self):
        c = PeriodicChart((2.0, 3.0, 1.5), (8, 12, 10), (-1.0, 0.5, 0.0))
        x = c.grid_coords()
        along_x = np.sin(x[..., 0])
        assert c.collapsed(along_x) == PeriodicChart((2.0, 0.25, 0.15), (8, 1, 1),
                                                     (-1.0, 0.5, 0.0))
        collapsed = c.collapsed(along_x, np.ones(c.resolution + (2, 2)))
        assert collapsed.spacing == c.spacing and collapsed.origin == c.origin
        assert c.collapsed(along_x, np.cos(x[..., 2])).resolution == (8, 1, 10)
        assert c.collapsed(np.zeros(c.resolution)).resolution == (1, 1, 1)
        assert c.collapsed(x[..., 0] + x[..., 1] + x[..., 2]) is c

    def test_a_zero_of_the_other_sign_is_not_constant(self):
        # -0.0 == +0.0 as values, but not as bits: the axis keeps its nodes
        c = PeriodicChart((1.0, 1.0), (8, 8))
        v = np.zeros(c.resolution + (2,))
        v[:, 5, 1] = -0.0
        assert c.collapsed(v) == PeriodicChart((0.125, 1.0), (1, 8))

    def test_every_slice_is_compared(self):
        # the first two slices along y agree and the third does not
        c = PeriodicChart((1.0, 1.0), (8, 8))
        v = np.ones(c.resolution)
        v[4, 2] = 2.0
        assert c.collapsed(v).resolution == (8, 8)
        v[:, 2] = 2.0
        assert c.collapsed(v).resolution == (1, 8)

    @staticmethod
    def per_axis(chart, *arrays):
        """The resolution an axis-by-axis comparison of every array gives."""
        bits = [np.ascontiguousarray(a).view(np.int64) for a in arrays]
        return tuple(1 if all((b == b.take([0], a)).all() for b in bits) else n
                     for a, n in enumerate(chart.resolution))

    @pytest.mark.parametrize("kinds", [
        ("constant", "constant"), ("constant", "along-x"), ("along-z", "constant"),
        ("along-x", "along-z"), ("varying", "constant"), ("signed-zero", "constant")])
    def test_node_zero_check_keeps_the_per_axis_chart(self, kinds):
        # an array constant everywhere is read once, not once per axis; the
        # chart is the one the axis-by-axis comparison gives
        c = PeriodicChart((2.0, 3.0, 1.5), (8, 12, 10))
        x = c.grid_coords()
        starts = {"constant": np.full(c.resolution + (2, 2), 0.5),
                  "along-x": np.sin(x[..., 0]), "along-z": np.cos(x[..., 2])[..., None],
                  "varying": x.sum(-1), "signed-zero": np.zeros(c.resolution)}
        starts["signed-zero"][3, 4, 5] = -0.0
        arrays = [starts[k] for k in kinds]
        want = self.per_axis(c, *arrays)
        got = c.collapsed(*arrays)
        assert got.resolution == want
        if want == c.resolution:
            assert got is c
        else:
            assert got.spacing == c.spacing and got.origin == c.origin

    def test_one_node_axis_stencils_are_exactly_zero(self):
        # on a one-node axis the stencils give +0.0 and the other axes the bits
        # of the full chart, whose nodes along that axis repeat
        full = PeriodicChart((2.0, 3.0), (16, 8))
        one = full.collapsed(np.arange(16.0)[:, None].repeat(8, 1))
        assert one.resolution == (16, 1) and one.spacing == full.spacing
        v = np.exp(np.sin(one.grid_coords()[..., 0]))[..., None] * np.array([1.0, -2.0])
        dv = grad(v, one)
        assert np.array_equal(dv[:, :, 1], np.zeros((16, 1, 2)))
        assert not np.signbit(dv[:, :, 1]).any()
        dd = second_derivs(v, one, dv)
        for a, b in ((0, 1), (1, 0), (1, 1)):
            assert np.array_equal(dd[:, :, a, b], np.zeros((16, 1, 2)))
            assert not np.signbit(dd[:, :, a, b]).any()
        wide = np.broadcast_to(v, (16, 8, 2))
        assert grad(wide, full)[:, :1].tobytes() == dv.tobytes()
        assert second_derivs(wide, full, grad(wide, full))[:, :1].tobytes() == dd.tobytes()
