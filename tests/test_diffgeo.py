"""Finite-difference curvature operators against hand and symbolic values."""

import numpy as np
import pytest

from bundleflow.diffgeo import (CoordinateMetric, assemble_total_metric, christoffel,
                                drift_laplacian_field, grad_norm_sq_field,
                                hessian_field, laplacian_field, ricci, ricci_with_defect,
                                spd_inverse)
from bundleflow.errors import SingularMetric
from bundleflow.grids import (ConnectionField, MetricField, PeriodicChart, QField,
                              ScalarField)

FLAT2 = CoordinateMetric(2, lambda p: np.eye(2), name="flat")
HYPERBOLIC = CoordinateMetric(2, lambda p: np.diag([1.0, 1.0]) / p[1] ** 2, name="half-plane")
SPHERE = CoordinateMetric(2, lambda p: np.diag([1.0, np.sin(p[0]) ** 2]), name="round-s2")


def sol3_metric(a=1.0, c=1.0):
    def g(p):
        x = p[0]
        return np.array([[c / x ** 2, 0, 0],
                         [0, (c + a * a) / x ** 2, a / x],
                         [0, a / x, 1.0]])
    return CoordinateMetric(3, g, name="sol3")


class TestChristoffel:
    def test_flat_metric_vanishes(self):
        gamma = christoffel(FLAT2, [0.3, 0.7])
        assert np.max(np.abs(gamma)) < 1e-12

    def test_hyperbolic_plane_values(self):
        gamma = christoffel(HYPERBOLIC, [0.2, 1.0])
        assert gamma[0, 0, 1] == pytest.approx(-1.0, abs=1e-5)
        assert gamma[1, 0, 0] == pytest.approx(1.0, abs=1e-5)
        assert gamma[1, 1, 1] == pytest.approx(-1.0, abs=1e-5)

    def test_symmetric_in_lower_indices(self):
        gamma = christoffel(sol3_metric(), [1.2, 0.4, -0.3])
        assert np.max(np.abs(gamma - np.einsum("lbc->lcb", gamma))) < 1e-14

    def test_sol3_against_symbolic_oracle(self):
        # frozen from symbolic differentiation of the coordinate matrix at
        # (1, 0, 0) with a = c = 1
        expected = {
            (0, 0, 0): -1.0, (0, 1, 1): 2.0, (0, 1, 2): 0.5, (0, 2, 1): 0.5,
            (1, 0, 1): -1.5, (1, 0, 2): -0.5, (1, 1, 0): -1.5, (1, 2, 0): -0.5,
            (2, 0, 1): 1.0, (2, 0, 2): 0.5, (2, 1, 0): 1.0, (2, 2, 0): 0.5,
        }
        gamma = christoffel(sol3_metric(), [1.0, 0.0, 0.0])
        full = np.zeros((3, 3, 3))
        for idx, val in expected.items():
            full[idx] = val
        assert np.max(np.abs(gamma - full)) < 1e-5    # O(h^2) at h = 1e-3

    def test_singular_metric_raises(self):
        bad = CoordinateMetric(2, lambda p: np.diag([1.0, 1e-14]), name="near-singular")
        with pytest.raises(SingularMetric):
            christoffel(bad, [0.0, 0.0])


class TestRicci:
    def test_flat_is_zero(self):
        assert np.max(np.abs(ricci(FLAT2, [0.1, 0.4]))) < 1e-9

    def test_round_sphere_einstein(self):
        p = [np.pi / 3, 0.8]
        ric = ricci(SPHERE, p)
        err = np.max(np.abs(ric - SPHERE(p)))
        assert err < 5e-6

    def test_hyperbolic_einstein(self):
        p = [0.3, 1.0]
        ric = ricci(HYPERBOLIC, p)
        assert np.max(np.abs(ric + HYPERBOLIC(p))) < 2e-5

    def test_sol3_against_symbolic_oracle(self):
        # frozen symbolic Ricci of the coordinate matrix: diag-ish
        # [[-3/(2x^2), 0, 0], [0, -1/x^2, 1/(2x)], [0, 1/(2x), 1/2]]
        x = 1.3
        expected = np.array([
            [-1.5 / x ** 2, 0.0, 0.0],
            [0.0, -1.0 / x ** 2, 0.5 / x],
            [0.0, 0.5 / x, 0.5],
        ])
        ric = ricci(sol3_metric(), [x, 0.4, -0.1])
        assert np.max(np.abs(ric - expected)) < 1e-5

    def test_heisenberg_ricci_operator_eigenvalues(self):
        def g(p):
            x = p[0]
            return np.array([[1.0, 0.0, 0.0],
                             [0.0, 1.0 + x * x, -x],
                             [0.0, -x, 1.0]])
        m = CoordinateMetric(3, g, name="h3")
        point = [0.0, 0.0, 0.0]
        eig = np.sort(np.linalg.eigvals(np.linalg.solve(m(point), ricci(m, point))).real)
        assert np.max(np.abs(eig - np.array([-0.5, -0.5, 0.5]))) < 1e-6

    def test_output_exactly_symmetric_with_small_defect(self):
        # generic two-variable metric: the raw assembly has a nonzero
        # pre-symmetrization defect that must vanish at second order
        def gf(p):
            x, y = p
            return np.array([
                [1.0 + 0.3 * np.sin(x + y), 0.2 * np.sin(x) * np.cos(y)],
                [0.2 * np.sin(x) * np.cos(y), 1.0 + 0.3 * np.cos(x - 2 * y)],
            ])
        m = CoordinateMetric(2, gf)
        ric, defect = ricci_with_defect(m, [0.7, 0.4], step=2e-3)
        assert np.array_equal(ric, ric.T)
        assert 0.0 < defect < 1e-5
        _, defect_fine = ricci_with_defect(m, [0.7, 0.4], step=1e-3)
        assert 3.0 <= defect / defect_fine <= 5.0

    def test_richardson_ratio_near_four(self):
        # conformally flat metric with analytic curvature:
        # g = e^{2 phi} I, Ric = -(lap phi) I in two dimensions
        def phi(p):
            return 0.3 * np.sin(p[0]) * np.cos(0.5 * p[1])

        def lap_phi(p):
            return -0.3 * np.sin(p[0]) * np.cos(0.5 * p[1]) * (1.0 + 0.25)

        metric = CoordinateMetric(2, lambda p: np.exp(2 * phi(p)) * np.eye(2))
        p = np.array([0.7, 0.4])
        exact = -lap_phi(p) * np.eye(2)
        err = {}
        for h in (1e-3, 5e-4):
            err[h] = ricci(metric, p, step=h) - exact
        for i in range(2):
            for j in range(2):
                if abs(err[5e-4][i, j]) < 1e-12:
                    continue
                ratio = err[1e-3][i, j] / err[5e-4][i, j]
                assert 3.0 <= ratio <= 5.0


class TestScalarCalculus:
    def setup_method(self):
        self.chart = PeriodicChart((2 * np.pi, 2 * np.pi), (96, 96))
        self.g = MetricField(self.chart,
                             np.broadcast_to(np.eye(2), self.chart.resolution + (2, 2)).copy())
        self.x = self.chart.grid_coords()[..., 0]

    def test_constant_function(self):
        f = ScalarField(self.chart, np.full(self.chart.resolution, 2.5))
        assert np.max(np.abs(hessian_field(f, self.g))) == 0.0
        assert np.max(np.abs(laplacian_field(f, self.g))) == 0.0
        assert np.max(np.abs(grad_norm_sq_field(f, self.g))) == 0.0

    def test_flat_torus_sine(self):
        f = ScalarField(self.chart, np.sin(self.x))
        lap = laplacian_field(f, self.g)
        assert np.max(np.abs(lap + np.sin(self.x))) < 2e-3
        gsq = grad_norm_sq_field(f, self.g)
        assert np.max(np.abs(gsq - np.cos(self.x) ** 2)) < 2e-3

    def test_drift_identity(self):
        f = ScalarField(self.chart, np.sin(self.x))
        lhs = drift_laplacian_field(f, f, self.g)
        rhs = laplacian_field(f, self.g) - grad_norm_sq_field(f, self.g)
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_drift_reduces_to_laplacian_for_constant_density(self):
        f0 = ScalarField(self.chart, np.zeros(self.chart.resolution))
        u = ScalarField(self.chart, np.sin(self.x))
        lhs = drift_laplacian_field(f0, u, self.g)
        assert np.max(np.abs(lhs - laplacian_field(u, self.g))) == 0.0
        # and of a constant argument it is exactly zero
        assert drift_laplacian_field(u, f0, self.g)[3, 4] == 0.0


class TestAssembleTotalMetric:
    def test_flat_product_is_flat(self):
        chart = PeriodicChart((2.0, 2.0), (16, 16))
        g = MetricField(chart, np.broadcast_to(np.eye(2), chart.resolution + (2, 2)).copy())
        q = QField(chart, 1, np.ones(chart.resolution + (1, 1)))
        a = ConnectionField(chart, 1, np.zeros(chart.resolution + (1, 2)))
        total = assemble_total_metric(g, q, a)
        assert np.max(np.abs(total([0.5, 0.3, 0.9]) - np.eye(3))) < 1e-14
        assert np.max(np.abs(ricci(total, [0.5, 0.3, 0.9], step=1e-3))) < 1e-8

    def test_heisenberg_matches_closed_form_matrix(self):
        from bundleflow.catalog import heisenberg_bundle_fields, heisenberg_total_metric
        g, q, a = heisenberg_bundle_fields(1, 1.0)
        total = assemble_total_metric(g, q, a)
        display = heisenberg_total_metric(1, 1.0)
        for point in ([0.25, -0.5, 0.1], [-0.75, 0.5, 2.0]):
            assert np.max(np.abs(total(point) - display(point))) < 1e-12

    def test_sol3_matches_closed_form_matrix_at_nodes(self):
        from bundleflow.catalog import sol3_bundle_fields, sol3_total_metric
        g, q, a = sol3_bundle_fields(1.0, 1.0)
        total = assemble_total_metric(g, q, a)
        display = sol3_total_metric(1.0, 1.0)
        xs = g.chart.axis_coords(0)
        ys = g.chart.axis_coords(1)
        for i, j in ((8, 3), (16, 20), (24, 9)):
            point = [xs[i], ys[j], 0.4]
            assert np.max(np.abs(total(point) - display(point))) < 1e-11

    def test_sol3_matrix_reference_value(self):
        from bundleflow.catalog import sol3_total_metric
        m = sol3_total_metric(1.0, 1.0)
        assert np.allclose(m([1.0, 0.0, 0.0]),
                           np.array([[1, 0, 0], [0, 2, 1], [0, 1, 1]]), atol=1e-14)


class TestSpdInverse:
    def test_inverse_correct(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(5, 3, 3))
        spd = m @ np.swapaxes(m, -1, -2) + 3 * np.eye(3)
        inv = spd_inverse(spd)
        assert np.max(np.abs(inv @ spd - np.eye(3))) < 1e-10

    def test_condition_cap(self):
        with pytest.raises(SingularMetric):
            spd_inverse(np.diag([1.0, 1e-13]))
