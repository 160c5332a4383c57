"""Curvature blocks, the Lie-algebra Ricci and the torus-bundle flow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow.bundle import (BundleState, PointwiseBundleData, StructureConstants,
                               blocks_to_chart, bundle_integrate, curvature_from_connection,
                               flow_rhs_from_data, lie_group_ricci,
                               ricci_blocks_general, ricci_blocks_torus,
                               warped_product_data)
from bundleflow.catalog import (heisenberg_bundle_fields, heisenberg_pointwise_data,
                                su2_invariant_metric, su2_sigma)
from bundleflow.diffgeo import CoordinateMetric, ricci, spd_inverse
from bundleflow.errors import DomainError
from bundleflow.grids import ConnectionField, MetricField, PeriodicChart, QField, ScalarField


def zero_data(d=2, q=1, c=None):
    c = c or StructureConstants.abelian(q)
    eye_d, eye_q = np.eye(d), np.eye(q)
    return PointwiseBundleData(
        g=eye_d, g_inv=eye_d, gamma=np.zeros((d, d, d)),
        Q=eye_q, Q_inv=eye_q,
        DQ=np.zeros((d, q, q)), DDQ=np.zeros((d, d, q, q)),
        F=np.zeros((q, d, d)), divF=np.zeros((q, d)),
        c=c, ric_base=np.zeros((d, d)), ric_fiber_alg=np.zeros((q, q)))


def random_torus_data(rng, batch, d, q):
    """Random pointwise torus-bundle data with the symmetries of real data:
    SPD g and Q, F antisymmetric in (b, c), DQ symmetric in (j, k), DDQ
    symmetric in (b, c) and in (j, k)."""
    def spd(k):
        m = rng.normal(size=batch + (k, k))
        return m @ np.swapaxes(m, -1, -2) + k * np.eye(k)

    def sym(a, i=-1, j=-2):
        return a + np.swapaxes(a, i, j)

    g, Qv = spd(d), spd(q)
    F = rng.normal(size=batch + (q, d, d))
    return PointwiseBundleData(
        g=g, g_inv=spd_inverse(g), gamma=np.zeros(batch + (d, d, d)),
        Q=Qv, Q_inv=spd_inverse(Qv),
        DQ=sym(rng.normal(size=batch + (d, q, q))),
        DDQ=sym(sym(rng.normal(size=batch + (d, d, q, q))), -3, -4),
        F=F - np.swapaxes(F, -1, -2), divF=rng.normal(size=batch + (q, d)),
        c=StructureConstants.abelian(q), ric_base=sym(rng.normal(size=batch + (d, d))),
        ric_fiber_alg=np.zeros(batch + (q, q)))


class TestStructureConstants:
    def test_su2_valid(self):
        su2 = StructureConstants.su2()
        assert not su2.is_abelian
        assert np.array_equal(su2.trace_vector, np.zeros(3))

    def test_antisymmetry_required(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 1, 0] = 1.0
        bad[1, 0, 0] = 1.0
        with pytest.raises(DomainError):
            StructureConstants(2, bad)

    def test_jacobi_required(self):
        bad = np.zeros((3, 3, 3))
        bad[0, 1, 2] = 1.0; bad[1, 0, 2] = -1.0
        bad[1, 2, 0] = 1.0; bad[2, 1, 0] = -1.0
        bad[2, 0, 1] = 1.0; bad[0, 2, 1] = -1.0
        bad[0, 1, 0] = 0.5; bad[1, 0, 0] = -0.5   # breaks Jacobi
        with pytest.raises(DomainError):
            StructureConstants(3, bad)

    def test_affine_trace_vector(self):
        aff = np.zeros((2, 2, 2))
        aff[0, 1, 1] = 1.0
        aff[1, 0, 1] = -1.0
        c = StructureConstants(2, aff)
        assert np.array_equal(c.trace_vector, np.array([-1.0, 0.0]))


class TestLieGroupRicci:
    def test_abelian_flat(self):
        c = StructureConstants.abelian(3)
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3))
        ric, gamma = lie_group_ricci(c, m @ m.T + 3 * np.eye(3))
        assert np.max(np.abs(ric)) == 0.0
        assert np.max(np.abs(gamma)) == 0.0

    def test_su2_round_is_half_identity(self):
        ric, _ = lie_group_ricci(StructureConstants.su2(), np.eye(3))
        assert np.max(np.abs(ric - 0.5 * np.eye(3))) < 1e-14

    def test_su2_round_cross_section_curvature(self):
        # bi-invariant round metric: Einstein with Ric = (n-1) K g at K = 1/4
        ric, _ = lie_group_ricci(StructureConstants.su2(), np.eye(3))
        assert np.allclose(np.diag(ric), 2 * 0.25)

    def test_anisotropic_against_chart_oracle(self):
        # left-invariant anisotropic metric: frame components of the Ricci
        # tensor are constant, so one chart point suffices
        q_frame = np.diag([1.0, 4.0, 4.0])
        ric_alg, _ = lie_group_ricci(StructureConstants.su2(), q_frame)
        metric = su2_invariant_metric(q_frame)
        p = np.array([0.55, 0.8, 0.35])
        sigma = su2_sigma(p)
        frame = np.linalg.inv(sigma)
        ric_chart = ricci(metric, p, step=1e-4)
        ric_frame = frame.T @ ric_chart @ frame
        assert np.max(np.abs(ric_frame - ric_alg)) < 1e-6
        # frozen classical values for the (A, B, B) family
        assert np.allclose(np.diag(ric_alg), [1.0 / 32.0, 7.0 / 8.0, 7.0 / 8.0])

    def test_right_invariant_at_generic_point(self):
        # the bundle fiber metric is right-invariant; its left-frame value
        # away from the identity feeds the algebraic formula
        q_frame = np.diag([1.0, 4.0, 4.0])
        metric = su2_invariant_metric(q_frame, right=True)
        p = np.array([0.55, 0.8, 0.35])
        sigma = su2_sigma(p)
        frame = np.linalg.inv(sigma)
        q_at = frame.T @ metric(p) @ frame
        ric_alg, _ = lie_group_ricci(StructureConstants.su2(), q_at)
        ric_frame = frame.T @ ricci(metric, p, step=1e-4) @ frame
        assert np.max(np.abs(ric_frame - ric_alg)) < 1e-6


class TestRicciBlocks:
    def test_all_zero_data(self):
        blocks = ricci_blocks_general(zero_data())
        assert np.max(np.abs(blocks.fiber)) == 0.0
        assert np.max(np.abs(blocks.mixed)) == 0.0
        assert np.max(np.abs(blocks.base)) == 0.0

    def test_su2_product_metric(self):
        su2 = StructureConstants.su2()
        d = zero_data(d=2, q=3, c=su2)
        ric_alg, _ = lie_group_ricci(su2, np.eye(3))
        data = PointwiseBundleData(
            g=d.g, g_inv=d.g_inv, gamma=d.gamma, Q=d.Q, Q_inv=d.Q_inv,
            DQ=d.DQ, DDQ=d.DDQ, F=d.F, divF=d.divF, c=su2,
            ric_base=d.ric_base, ric_fiber_alg=ric_alg)
        blocks = ricci_blocks_general(data)
        assert np.max(np.abs(blocks.fiber - 0.5 * np.eye(3))) < 1e-14
        assert np.max(np.abs(blocks.mixed)) == 0.0
        assert np.max(np.abs(blocks.base)) == 0.0

    def test_heisenberg_block_values(self):
        for c in (1.0, 1.7):
            data = heisenberg_pointwise_data(1, c)
            blocks = ricci_blocks_torus(data)
            assert blocks.fiber[0, 0] == pytest.approx(c ** 4 / 2.0, rel=1e-14)
            assert np.allclose(blocks.base, np.diag([-c * c / 2.0, -c * c / 2.0]))
            assert np.max(np.abs(blocks.mixed)) == 0.0

    def test_einstein_base_passthrough(self):
        lam = 0.7
        d = zero_data(d=2, q=1)
        data = PointwiseBundleData(
            g=d.g, g_inv=d.g_inv, gamma=d.gamma, Q=d.Q, Q_inv=d.Q_inv,
            DQ=d.DQ, DDQ=d.DDQ, F=d.F, divF=d.divF, c=d.c,
            ric_base=lam * np.eye(2), ric_fiber_alg=d.ric_fiber_alg)
        blocks = ricci_blocks_torus(data)
        assert np.allclose(blocks.base, lam * np.eye(2))
        assert np.max(np.abs(blocks.fiber)) == 0.0

    def test_torus_evaluator_requires_abelian(self):
        data = zero_data(d=2, q=3, c=StructureConstants.su2())
        with pytest.raises(DomainError):
            ricci_blocks_torus(data)

    def test_inconsistent_skew_data_rejected(self):
        # skew second derivatives without the matching structure-constant
        # term leave an asymmetric base block, which is checked, not forced
        d = zero_data(d=2, q=1)
        ddq = np.zeros((2, 2, 1, 1))
        ddq[0, 1, 0, 0] = 1.0
        ddq[1, 0, 0, 0] = -1.0
        data = PointwiseBundleData(
            g=d.g, g_inv=d.g_inv, gamma=d.gamma, Q=d.Q, Q_inv=d.Q_inv,
            DQ=d.DQ, DDQ=ddq, F=d.F, divF=d.divF, c=d.c,
            ric_base=d.ric_base, ric_fiber_alg=d.ric_fiber_alg)
        with pytest.raises(DomainError):
            ricci_blocks_torus(data)

    def test_blocks_to_chart_heisenberg(self):
        data = heisenberg_pointwise_data(1, 1.0)
        blocks = ricci_blocks_torus(data)
        chart_ric = blocks_to_chart(blocks, np.array([[0.0, -0.3]]))
        assert chart_ric[2, 2] == pytest.approx(0.5)
        assert chart_ric[1, 2] == pytest.approx(-0.15)       # alpha * fiber
        assert chart_ric[1, 1] == pytest.approx(-0.5 + 0.09 * 0.5)


class TestTwistedCircleBundleOracle:
    """Connection with nonzero covariant divergence of the curvature: the one
    configuration where the mixed block (and its sign) is visible."""

    def analytic_data(self, x):
        fc = np.zeros((1, 2, 2))
        fc[0, 0, 1] = np.cos(x)
        fc[0, 1, 0] = -np.cos(x)
        divf = np.zeros((1, 2))
        divf[0, 1] = -np.sin(x)          # del^x F_xy
        d = zero_data(d=2, q=1)
        return PointwiseBundleData(
            g=d.g, g_inv=d.g_inv, gamma=d.gamma, Q=d.Q, Q_inv=d.Q_inv,
            DQ=d.DQ, DDQ=d.DDQ, F=fc, divF=divf, c=d.c,
            ric_base=d.ric_base, ric_fiber_alg=d.ric_fiber_alg)

    def total_metric(self):
        def g(p):
            s = np.sin(p[0])
            return np.array([[1.0, 0.0, 0.0],
                             [0.0, 1.0 + s * s, s],
                             [0.0, s, 1.0]])
        return CoordinateMetric(3, g, name="twisted-t2")

    def test_blocks_match_oracle(self):
        x = 0.6
        data = self.analytic_data(x)
        blocks = ricci_blocks_torus(data)
        expected = blocks_to_chart(blocks, np.array([[0.0, np.sin(x)]]))
        oracle = ricci(self.total_metric(), [x, 0.2, 1.1], step=1e-3)
        assert np.max(np.abs(oracle - expected)) < 2e-5
        assert abs(blocks.mixed[0, 1] - 0.5 * np.sin(x)) < 1e-14

    def test_grid_assembly_matches_analytic_data(self, grid_data):
        chart = PeriodicChart((2 * np.pi, 2 * np.pi), (64, 64))
        xs = chart.grid_coords()[..., 0]
        g = MetricField(chart, np.broadcast_to(np.eye(2), chart.resolution + (2, 2)).copy())
        q = QField(chart, 1, np.ones(chart.resolution + (1, 1)))
        av = np.zeros(chart.resolution + (1, 2))
        av[..., 0, 1] = np.sin(xs)
        alpha = ConnectionField(chart, 1, av)
        grid = grid_data(g, q, alpha)
        i = 7
        x = chart.axis_coords(0)[i]
        exact = self.analytic_data(x)
        h = chart.spacing[0]
        assert np.max(np.abs(grid.F[i, 3] - exact.F)) < h * h
        assert np.max(np.abs(grid.divF[i, 3] - exact.divF)) < h * h


class TestNonUnimodularFiberOracle:
    """Trivial bundle with affine-line structure group and base-varying fiber
    metric: the only configuration where every structure-constant term of the
    mixed block (including the non-unimodular trace term) is nonzero and
    checkable against the brute-force total-space Ricci."""

    AFF = np.zeros((2, 2, 2))
    AFF[0, 1, 1] = 1.0
    AFF[1, 0, 1] = -1.0

    @staticmethod
    def q_of_x(x):
        return np.array([[1.4 + 0.3 * np.sin(x), 0.2 * np.cos(x)],
                         [0.2 * np.cos(x), 1.1 + 0.25 * np.sin(2 * x)]])

    @staticmethod
    def dq_of_x(x):
        return np.array([[0.3 * np.cos(x), -0.2 * np.sin(x)],
                         [-0.2 * np.sin(x), 0.5 * np.cos(2 * x)]])

    @staticmethod
    def ddq_of_x(x):
        return np.array([[-0.3 * np.sin(x), -0.2 * np.cos(x)],
                         [-0.2 * np.cos(x), -np.sin(2 * x)]])

    def total_metric(self):
        # right-invariant fiber metric in the coframe da/a, db - (b/a) da
        def g(p):
            x, a, b = p
            tau = np.array([[1.0 / a, 0.0], [-b / a, 1.0]])
            out = np.zeros((3, 3))
            out[0, 0] = 1.0
            out[1:, 1:] = tau.T @ self.q_of_x(x) @ tau
            return out
        return CoordinateMetric(3, g, name="affine-fiber-product")

    def test_blocks_match_oracle_with_ratio(self):
        c = StructureConstants(2, self.AFF)
        x0 = 0.7
        q = self.q_of_x(x0)
        ric_alg, _ = lie_group_ricci(c, q)
        data = PointwiseBundleData(
            g=np.eye(1), g_inv=np.eye(1), gamma=np.zeros((1, 1, 1)),
            Q=q, Q_inv=np.linalg.inv(q),
            DQ=self.dq_of_x(x0)[None], DDQ=self.ddq_of_x(x0)[None, None],
            F=np.zeros((2, 1, 1)), divF=np.zeros((2, 1)),
            c=c, ric_base=np.zeros((1, 1)), ric_fiber_alg=ric_alg)
        blocks = ricci_blocks_general(data)
        assert np.min(np.abs(blocks.mixed)) > 1e-3   # the c-terms really fire
        expected = np.zeros((3, 3))
        expected[0, 0] = blocks.base[0, 0]
        expected[0, 1:] = expected[1:, 0] = blocks.mixed[:, 0]
        expected[1:, 1:] = blocks.fiber
        metric = self.total_metric()
        # left frame equals the coordinate frame at the section point (1, 0)
        point = [x0, 1.0, 0.0]
        err_h = np.max(np.abs(ricci(metric, point, step=1e-3) - expected))
        err_h2 = np.max(np.abs(ricci(metric, point, step=5e-4) - expected))
        assert err_h < 2e-5
        assert 3.0 <= err_h / err_h2 <= 5.0


class TestFlowRhs:
    def test_fixed_point(self, grid_data):
        g, q, a = heisenberg_bundle_fields(1, 1.0)
        flat_a = ConnectionField(a.chart, 1, np.zeros(a.values.shape))
        dg, dq, da = flow_rhs_from_data(grid_data(g, q, flat_a))
        assert np.max(np.abs(dg)) < 1e-12
        assert np.max(np.abs(dq)) < 1e-12
        assert np.max(np.abs(da)) < 1e-12

    def test_heisenberg_type_reduces_to_circle_flow(self, grid_data):
        # g = u I, Q = e^{-2f}, F = -dx^dy: du = e^{-2f}/u per axis,
        # dQ = -e^{-4f}/u^2
        u, f = 1.3, 0.2
        g0, q0, a0 = heisenberg_bundle_fields(1, 1.0)
        chart = g0.chart
        g = MetricField(chart, u * np.broadcast_to(np.eye(2), chart.resolution + (2, 2)).copy())
        q = QField(chart, 1, np.full(chart.resolution + (1, 1), np.exp(-2 * f)))
        dg, dq, da = flow_rhs_from_data(grid_data(g, q, a0))
        e = np.exp(-2 * f)
        assert np.max(np.abs(dg[..., 0, 0] - e / u)) < 1e-12
        assert np.max(np.abs(dg[..., 1, 1] - e / u)) < 1e-12
        assert np.max(np.abs(dg[..., 0, 1])) < 1e-12
        assert np.max(np.abs(dq[..., 0, 0] + e * e / u ** 2)) < 1e-12
        assert np.max(np.abs(da)) < 1e-12

    def test_rhs_equals_minus_two_blocks(self, grid_data):
        # the directly-coded evolution equations against the block contractions
        chart = PeriodicChart((2 * np.pi, 2 * np.pi), (16, 16))
        coords = chart.grid_coords()
        x, y = coords[..., 0], coords[..., 1]
        gv = np.zeros(chart.resolution + (2, 2))
        gv[..., 0, 0] = 1.0 + 0.1 * np.sin(x + y)
        gv[..., 1, 1] = 1.0 + 0.1 * np.cos(x)
        gv[..., 0, 1] = gv[..., 1, 0] = 0.05 * np.sin(y)
        qv = np.zeros(chart.resolution + (2, 2))
        qv[..., 0, 0] = 1.0 + 0.2 * np.sin(y)
        qv[..., 1, 1] = 1.5 + 0.2 * np.cos(x + y)
        qv[..., 0, 1] = qv[..., 1, 0] = 0.1 * np.sin(x)
        av = np.zeros(chart.resolution + (2, 2))
        av[..., 0, 0] = 0.2 * np.sin(y)
        av[..., 0, 1] = 0.3 * np.cos(x)
        av[..., 1, 0] = -0.1 * np.sin(x + y)
        g = MetricField(chart, gv)
        q = QField(chart, 2, qv)
        alpha = ConnectionField(chart, 2, av)
        data = grid_data(g, q, alpha)
        dg, dq, da = flow_rhs_from_data(data)
        blocks = ricci_blocks_torus(data)
        scale = max(np.max(np.abs(dg)), np.max(np.abs(dq)), np.max(np.abs(da)), 1.0)
        assert np.max(np.abs(dg + 2.0 * blocks.base)) < 1e-12 * scale
        assert np.max(np.abs(dq + 2.0 * blocks.fiber)) < 1e-12 * scale
        da_blocks = -2.0 * np.einsum("...jk,...jc->...kc", data.Q_inv, blocks.mixed)
        assert np.max(np.abs(da - da_blocks)) < 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3, 4]), q=st.sampled_from([1, 2, 3]),
           batch=st.sampled_from([(), (5,), (2, 3)]), seed=st.integers(0, 2 ** 32 - 1))
    def test_factored_rhs_equals_minus_two_blocks(self, d, q, batch, seed):
        # the factored right-hand side against the einsum block evaluator
        data = random_torus_data(np.random.default_rng(seed), batch, d, q)
        dg, dq, da = flow_rhs_from_data(data)
        blocks = ricci_blocks_torus(data)
        da_blocks = -2.0 * np.einsum("...jk,...jc->...kc", data.Q_inv, blocks.mixed)
        for got, want in ((dg, -2.0 * blocks.base), (dq, -2.0 * blocks.fiber),
                          (da, da_blocks)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rhs_symmetric_at_every_point(self, grid_data):
        g, q, a = heisenberg_bundle_fields(1, 0.8)
        dg, dq, _ = flow_rhs_from_data(grid_data(g, q, a))
        assert np.array_equal(dg, np.swapaxes(dg, -1, -2))
        assert np.array_equal(dq, np.swapaxes(dq, -1, -2))

    def test_gauge_independence_of_blocks(self, grid_data):
        # two connection gauges differing by an exact form give the same
        # curvature and hence the same blocks
        chart = PeriodicChart((2 * np.pi, 2 * np.pi), (32, 32))
        coords = chart.grid_coords()
        x, y = coords[..., 0], coords[..., 1]
        g = MetricField(chart, np.broadcast_to(np.eye(2), chart.resolution + (2, 2)).copy())
        q = QField(chart, 1, np.exp(0.2 * np.sin(x))[..., None, None])
        av = np.zeros(chart.resolution + (1, 2))
        av[..., 0, 1] = np.sin(x)
        psi = 0.7 * np.sin(x + 2 * y)
        from bundleflow.grids import grad
        av2 = av.copy()
        av2[..., 0, :] += grad(psi, chart)
        a1 = ConnectionField(chart, 1, av)
        a2 = ConnectionField(chart, 1, av2)
        b1 = ricci_blocks_torus(grid_data(g, q, a1))
        b2 = ricci_blocks_torus(grid_data(g, q, a2))
        for lhs, rhs in ((b1.fiber, b2.fiber), (b1.mixed, b2.mixed), (b1.base, b2.base)):
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestWarpedProduct:
    def test_curvature_linear_part_in_f(self):
        g, q, a = heisenberg_bundle_fields(1, 1.0)
        f = curvature_from_connection(a.chart, a.values, a.curvature_linear_part())
        assert np.allclose(f[..., 0, 0, 1], -1.0)
        assert np.allclose(f[..., 0, 1, 0], 1.0)

    def test_reduces_to_density_rhs(self):
        from bundleflow.bakry_emery import BEState, be_factor, be_rhs
        chart = PeriodicChart((2 * np.pi, 2 * np.pi), (16, 16))
        coords = chart.grid_coords()
        x, y = coords[..., 0], coords[..., 1]
        gv = np.zeros(chart.resolution + (2, 2))
        gv[..., 0, 0] = 1.0 + 0.1 * np.sin(x)
        gv[..., 1, 1] = 1.0 + 0.1 * np.cos(y)
        gv[..., 0, 1] = gv[..., 1, 0] = 0.03 * np.sin(x + y)
        g = MetricField(chart, gv)
        f = ScalarField(chart, 0.2 * np.sin(x) + 0.1 * np.cos(2 * y))
        q = 2
        dg_be, df_be = be_rhs(be_factor(BEState(g, f, N=2 + q)).reuse)
        dg_fl, dq_fl, _ = flow_rhs_from_data(warped_product_data(g, f, q))
        df_fl = -(q / 2.0) * dq_fl[..., 0, 0] / np.exp(-2.0 * f.values / q)
        assert np.max(np.abs(dg_be - dg_fl)) < 1e-12 * np.max(np.abs(dg_be))
        assert np.max(np.abs(df_be - df_fl)) < 1e-12 * np.max(np.abs(df_be))


class TestBundleIntegrate:
    def test_fixed_point_constant_trace(self):
        g, q, _ = heisenberg_bundle_fields(1, 1.0)
        a = ConnectionField(g.chart, 1, np.zeros(g.chart.resolution + (1, 2)))
        states, reason = bundle_integrate(BundleState(g, q, a, 0.0), dt=0.01, t_end=0.05)
        assert reason == "Horizon"
        assert np.max(np.abs(states[-1].g.values - g.values)) < 1e-13
        assert states[-1].t == pytest.approx(0.05)

    def test_invalid_dt_rejected(self):
        g, q, a = heisenberg_bundle_fields(1, 1.0)
        with pytest.raises(DomainError):
            bundle_integrate(BundleState(g, q, a, 0.0), dt=-1.0, t_end=1.0)
