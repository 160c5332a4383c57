"""Catalog entries: reduced data, coordinate matrices, curvature spectra."""

import re

import numpy as np
import pytest

from bundleflow.bundle import blocks_to_chart, ricci_blocks_torus
from bundleflow.catalog import (berger, by_name, heisenberg, heisenberg_c_of_t, sl2r, sol3,
                                sol3_pointwise_data, sol3_total_metric)
from bundleflow.diffgeo import ricci
from bundleflow.errors import DomainError, NegativeBase
from bundleflow.grids import MetricField
from bundleflow.kahler_einstein import _psi_cleared, ke_integrate, ke_rhs, psi


def operator_eigenvalues(metric, point, step=1e-3):
    ric = ricci(metric, point, step=step)
    return np.sort(np.linalg.eigvals(np.linalg.solve(metric(point), ric)).real)


def reduced_spectrum(entry):
    """Ricci operator spectrum at t = 0 read off the reduced flow that runs:
    dg/dt = -2 Ric gives f' on the fiber and -u'/(2u) on the 2n base directions."""
    s, p = entry.ke_state0, entry.ke_params
    du, df = ke_rhs(s.u, s.f, p)
    return np.sort([df] + [-du / (2.0 * s.u)] * (2 * p.n))


class TestBerger:
    def test_round_initial_data(self):
        e = berger(1.0, 1.0)
        assert e.ke_params.lam == 2.0
        assert e.ke_state0.u == pytest.approx(0.5)
        assert e.ke_state0.f == pytest.approx(0.0)
        assert psi(e.ke_state0, e.ke_params) == pytest.approx(0.0)

    def test_anisotropic_initial_data(self):
        e = berger(1.0, 2.0)
        assert e.ke_state0.u == pytest.approx(2.0)
        assert e.ke_state0.f == pytest.approx(0.0)
        assert psi(e.ke_state0, e.ke_params) == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-14)

    def test_flipped_anisotropy_flagged(self):
        e = berger(2.0, 1.0)
        with pytest.raises(NegativeBase, match="cleared"):
            psi(e.ke_state0, e.ke_params)

    def test_positive_parameters_required(self):
        with pytest.raises(DomainError):
            berger(0.0, 1.0)
        with pytest.raises(DomainError):
            berger(1.0, -2.0)

    def test_round_sphere_spectrum(self):
        e = berger(1.0, 1.0)
        eig = operator_eigenvalues(e.total_metric, [0.9, 1.1, 0.4])
        assert np.max(np.abs(eig - 2.0)) < 1e-5
        assert np.max(np.abs(reduced_spectrum(e) - 2.0)) < 1e-14

    def test_anisotropic_spectrum_matches_reduced_prediction(self):
        for l1, l2 in ((1.0, 2.0), (1.5, 1.0)):
            e = berger(l1, l2)
            eig = operator_eigenvalues(e.total_metric, [0.9, 1.1, 0.4])
            assert np.max(np.abs(eig - reduced_spectrum(e))) < 1e-5


class TestSl2r:
    def test_initial_data_and_constant(self):
        e = sl2r(1.0, 1.0)
        assert e.ke_params.lam == -4.0
        assert e.ke_state0.u == pytest.approx(1.0)
        assert psi(e.ke_state0, e.ke_params) == pytest.approx(np.sqrt(5.0) / 2.0, rel=1e-14)
        e = sl2r(1.0, 2.0)
        assert e.ke_state0.u == pytest.approx(4.0)
        assert psi(e.ke_state0, e.ke_params) == pytest.approx(np.sqrt(17.0) / 4.0, rel=1e-14)

    def test_flow_is_immortal(self):
        e = sl2r(1.0, 2.0)
        trace = ke_integrate(e.ke_state0, e.ke_params, 100.0, tol=1e-9)
        assert trace.stop_reason == "Horizon"
        assert trace.u[-1] > trace.u[0]

    def test_conservation_short_run(self):
        e = sl2r(1.0, 2.0)
        trace = ke_integrate(e.ke_state0, e.ke_params, 20.0, tol=1e-9)
        series = trace.psi_series()
        assert np.max(np.abs(series - series[0])) / series[0] < 1e-6

    def test_oracle_skipped_flag(self):
        e = sl2r(1.0, 1.0)
        assert e.total_metric is None and e.bundle_at is None


class TestHeisenberg:
    def test_closed_form_unit_case(self):
        e = heisenberg(1, 1.0)
        for t in (0.0, 1.0, 4.0):
            s = e.closed_form(t)
            assert s.u == pytest.approx((3 * t + 1) ** (1 / 3), rel=1e-14)
            assert s.f == pytest.approx(np.log(3 * t + 1) / 6.0, abs=1e-14)

    def test_c_of_t(self):
        assert heisenberg_c_of_t(1, 1.0, 1.0) == pytest.approx(0.5)
        assert heisenberg_c_of_t(2, 0.5, 0.0) == pytest.approx(0.5)

    def test_ricci_spectrum_three_dim(self):
        e = heisenberg(1, 1.0)
        eig = operator_eigenvalues(e.total_metric, [0.0, 0.0, 0.0])
        assert np.max(np.abs(eig - np.array([-0.5, -0.5, 0.5]))) < 1e-9

    def test_ricci_spectrum_five_dim(self):
        e = heisenberg(2, 1.0)
        eig = operator_eigenvalues(e.total_metric, [0.0, 0.0, 0.0, 0.0, 0.0])
        expected = np.sort([1.0, -0.5, -0.5, -0.5, -0.5])
        assert np.max(np.abs(eig - expected)) < 1e-9
        assert np.max(np.abs(reduced_spectrum(e) - expected)) < 1e-14

    def test_large_n_has_no_grid_fields(self):
        # pointwise data and gauge for any n; no entry carries grid fields
        e = heisenberg(3, 1.0)
        assert e.total_metric.dims == 7
        assert len(e.sample_point) == 7
        data, alpha_at = e.bundle_at(e.sample_point)
        assert data.dims == 6 and alpha_at.shape == (1, 6)
        assert not hasattr(e, "bundle_fields")

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            heisenberg(0, 1.0)
        with pytest.raises(DomainError):
            heisenberg(1, 0.0)


class TestSol3:
    def test_invariant_value(self):
        for a, value in ((1.0, 2.0), (2.0, 5.0)):
            e = sol3(a, 1.0)
            s = e.ke_state0
            assert _psi_cleared(s.u, s.f, e.ke_params) == pytest.approx(value)
        assert psi(sol3(1.0, 1.0).ke_state0, sol3(1.0, 1.0).ke_params) ** 2 == (
            pytest.approx(2.0, rel=1e-14))

    def test_reduced_data(self):
        e = sol3(2.0, 0.5)
        assert e.ke_params.lam == pytest.approx(-0.5)
        assert e.ke_state0.u == pytest.approx(0.25)
        assert e.ke_state0.f == 0.0

    def test_coordinate_matrix(self):
        e = sol3(1.0, 1.0)
        assert np.allclose(e.total_metric([1.0, 0.7, -0.2]),
                           np.array([[1, 0, 0], [0, 2, 1], [0, 1, 1]]), atol=1e-14)

    def test_direct_product_case_redirected(self):
        with pytest.raises(DomainError, match="u = u0 - 2 lambda t"):
            sol3(0.0, 1.0)

    def test_conservation_short_run(self):
        e = sol3(1.0, 1.0)
        trace = ke_integrate(e.ke_state0, e.ke_params, 20.0, tol=1e-9)
        relation = np.exp(4 * trace.f) + 1.0 * np.exp(2 * trace.f) / trace.u
        assert np.max(np.abs(relation - 2.0)) < 1e-6


class TestBergerBundleDecomposition:
    """The 3-sphere entries as circle bundles over the round 2-sphere: the
    pointwise block data that generates the reduced flow must reproduce the
    brute-force Ricci of the entry's total metric.

    On the Euler chart the connection form is half the fiber coframe, so the
    unit fiber generator is twice the psi-coordinate field and the section
    psi = 0 sends the base chart (theta, phi) to euler (phi, theta, 0).
    """

    def bundle_data(self, l1, l2, theta):
        from bundleflow.bundle import PointwiseBundleData, StructureConstants
        u0 = l2 ** 2 / 4.0     # u0 * g0 = (l2^2/4) g_unit
        g = u0 * np.diag([1.0, np.sin(theta) ** 2])
        gamma = np.zeros((2, 2, 2))
        gamma[0, 1, 1] = -np.sin(theta) * np.cos(theta)
        gamma[1, 0, 1] = gamma[1, 1, 0] = np.cos(theta) / np.sin(theta)
        fc = np.zeros((1, 2, 2))
        fc[0, 0, 1] = -0.5 * np.sin(theta)
        fc[0, 1, 0] = 0.5 * np.sin(theta)
        return PointwiseBundleData(
            g=g, g_inv=np.linalg.inv(g), gamma=gamma,
            Q=np.array([[l1 ** 2]]), Q_inv=np.array([[1.0 / l1 ** 2]]),
            DQ=np.zeros((2, 1, 1)), DDQ=np.zeros((2, 2, 1, 1)),
            F=fc, divF=np.zeros((1, 2)),
            c=StructureConstants.abelian(1),
            ric_base=np.diag([1.0, np.sin(theta) ** 2]),
            ric_fiber_alg=np.zeros((1, 1)))

    @pytest.mark.parametrize("l1,l2", [(1.0, 1.0), (1.0, 2.0)])
    def test_blocks_match_total_metric(self, l1, l2):
        from bundleflow.bundle import blocks_to_chart, ricci_blocks_torus
        theta, phi = 1.1, 0.6
        blocks = ricci_blocks_torus(self.bundle_data(l1, l2, theta))
        expected = blocks_to_chart(blocks, np.array([[0.0, 0.5 * np.cos(theta)]]))
        # bundle frame (d_theta, d_phi, fiber) in euler coordinates (phi, theta, psi)
        P = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]).T
        metric = berger(l1, l2).total_metric
        oracle = P.T @ ricci(metric, [phi, theta, 0.0], step=1e-3) @ P
        assert np.max(np.abs(oracle - expected)) < 2e-5


class TestSol3GaugeFreedom:
    def test_two_primitives_same_blocks(self, sol3_fields, grid_data):
        from bundleflow.bundle import ricci_blocks_torus
        from bundleflow.grids import ConnectionField, grad
        g, q, a1 = sol3_fields
        chart = g.chart
        coords = chart.grid_coords()
        psi = 0.4 * np.sin(2 * np.pi * coords[..., 0]) * np.cos(2 * np.pi * coords[..., 1])
        av2 = np.array(a1.values)
        av2[..., 0, :] += grad(psi, chart)
        a2 = ConnectionField(chart, 1, av2)
        b1 = ricci_blocks_torus(grid_data(g, q, a1))
        b2 = ricci_blocks_torus(grid_data(g, q, a2))
        interior = (slice(4, -4), slice(None))
        for lhs, rhs in ((b1.fiber, b2.fiber), (b1.mixed, b2.mixed), (b1.base, b2.base)):
            assert np.max(np.abs(lhs[interior] - rhs[interior])) < 1e-9


class TestBundleAt:
    """Each entry's pointwise bundle data and gauge give the Ricci tensor of its total metric."""

    @pytest.mark.parametrize("ctor, args", [(heisenberg, (1, 1.0)), (heisenberg, (2, 0.9)),
                                            (sol3, (1.0, 1.0))],
                             ids=["heisenberg-1", "heisenberg-2", "sol3"])
    def test_blocks_match_oracle_at_sample_point(self, ctor, args):
        entry = ctor(*args)
        point = np.array(entry.sample_point)
        data, alpha_at = entry.bundle_at(point)
        expected = blocks_to_chart(ricci_blocks_torus(data), alpha_at)
        oracle = ricci(entry.total_metric, point, step=1e-3)
        assert np.max(np.abs(oracle - expected)) < 2e-5

    def test_sol3_off_the_half_plane_rejected(self):
        with pytest.raises(DomainError, match="x > 0"):
            sol3_pointwise_data(1.0, 1.0, 0.0)
        with pytest.raises(DomainError, match="x > 0"):
            sol3(1.0, 1.0).bundle_at([-0.5, 0.0, 0.0])

    @pytest.mark.parametrize("x, message", [(0.0, "x > 0"), (-0.1, "x > 0"), (1e-200, "x^2 = ")])
    def test_sol3_metric_rejects_points_off_its_domain(self, x, message):
        # the metric shares the bundle data's domain, so the oracle cannot
        # difference a formula past x = 0 or where its coefficients overflow
        with pytest.raises(DomainError, match=re.escape(message)):
            sol3_total_metric(1.0, 1.0)([x, 0.2, 0.1])

    @pytest.mark.parametrize("a, c, x, name", [
        (1.0, 1.0, 1e200, "x^2"), (1.0, 1.0, 1e-200, "x^2"),
        (1.0, 1e10, 1e-150, "c / x^2"), (1.0, 1e-10, 1e150, "c / x^2"),
        (1e150, 1.0, 1e-10, "(c + a^2) / x^2")])
    def test_sol3_unrepresentable_point_rejected(self, a, c, x, name):
        with pytest.raises(DomainError, match=re.escape(f"{name} = ")):
            sol3_pointwise_data(a, c, x)

    def test_entries_without_decomposition(self):
        for entry in (berger(1.0, 2.0), sl2r(1.0, 2.0)):
            assert entry.bundle_at is None and entry.sample_point is None

    def test_constructors_build_no_grid_fields(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a catalog constructor built a grid field")

        monkeypatch.setattr(MetricField, "__post_init__", refuse)
        berger(1.0, 2.0)
        sl2r(1.0, 2.0)
        for n in (1, 2, 3):
            heisenberg(n, 1.0)
        sol3(1.0, 1.0)


class TestRegistry:
    def test_by_name_roundtrip(self):
        e = by_name("berger", {"lambda1": 1.0, "lambda2": 2.0})
        assert e.name == "berger"
        e = by_name("heisenberg", {"n": 2, "c": 1.0})
        assert e.ke_params.n == 2

    def test_unknown_geometry(self):
        with pytest.raises(DomainError, match="unknown geometry"):
            by_name("nil4", {})

    def test_missing_parameters(self):
        with pytest.raises(DomainError, match="missing"):
            by_name("sol3", {"a": 1.0})

    def test_fractional_n_rejected(self):
        with pytest.raises(DomainError, match="integer"):
            by_name("heisenberg", {"n": 2.5, "c": 1})
