"""Finite-difference curvature operators against hand and symbolic values."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow.diffgeo import (CONDITION_CAP, CoordinateMetric, _ricci_from_gamma, christoffel,
                                christoffel_field, hessian_field, ricci, ricci_field_with_defect,
                                ricci_with_defect, spd_factor, spd_inverse)
from bundleflow.errors import SingularMetric
from bundleflow.grids import MetricField, PeriodicChart, ScalarField, deriv, grad
from scalar_reference import (asymmetry_defect, drift_laplacian_field, eig_spd_factor,
                              grad_norm_sq_field, laplacian_field, roll_ricci_field)

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
        gamma = christoffel_field(self.chart, self.g.values, spd_inverse(self.g.values))
        df = grad(f.values, self.chart)
        assert np.max(np.abs(hessian_field(self.chart, f.values, gamma, df))) == 0.0
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


def total_metric_at_node(g, q, alpha, idx):
    """Bundle total-space metric assembled from the grid blocks at node ``idx``:
    top-left g + a^T Q a, off-diagonal Q a, fiber Q, with the connection's
    linear gauge term added at the node's coordinates."""
    a = alpha.values[idx]
    if alpha.linear is not None:
        a = a + np.einsum("kbn,n->kb", alpha.linear, g.chart.grid_coords()[idx])
    qv = q.values[idx]
    qa = qv @ a
    return np.block([[g.values[idx] + a.T @ qa, qa.T], [qa, qv]])


class TestAssembleTotalMetric:
    def test_heisenberg_matches_closed_form_matrix(self):
        from bundleflow.catalog import heisenberg_bundle_fields, heisenberg_total_metric
        g, q, a = heisenberg_bundle_fields(1, 1.0)
        display = heisenberg_total_metric(1, 1.0)
        coords = g.chart.grid_coords()
        for idx, z in (((10, 4), 0.1), ((2, 12), 2.0)):
            point = np.append(coords[idx], z)
            assert np.max(np.abs(total_metric_at_node(g, q, a, idx) - display(point))) < 1e-12

    def test_sol3_matches_closed_form_matrix_at_nodes(self, sol3_fields):
        from bundleflow.catalog import sol3_total_metric
        g, q, a = sol3_fields
        display = sol3_total_metric(1.0, 1.0)
        coords = g.chart.grid_coords()
        for idx in ((8, 3), (16, 20), (24, 9)):
            point = np.append(coords[idx], 0.4)
            assert np.max(np.abs(total_metric_at_node(g, q, a, idx) - display(point))) < 1e-11

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

    def test_well_conditioned_stack_runs_no_eigensolve(self, monkeypatch):
        # the norm bound clears every node, so no eigenvalue is computed
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called on a well-conditioned stack")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        stack = np.broadcast_to(np.diag([1.0, 4.0]), (8, 8, 2, 2))
        assert np.array_equal(spd_inverse(stack)[3, 5], np.diag([1.0, 0.25]))

    def test_condition_cap_is_per_node(self):
        # each node is perfectly conditioned; only the stack spans 13 decades
        stack = np.stack([np.eye(3) * 1e-7, np.eye(3) * 1e6])
        inv = spd_inverse(stack)
        assert np.allclose(inv[0], np.eye(3) * 1e7, rtol=1e-14)
        assert np.allclose(inv[1], np.eye(3) * 1e-6, rtol=1e-14)

    def test_bad_node_in_good_grid_is_named(self):
        grid = np.broadcast_to(np.eye(2), (8, 8, 2, 2)).copy()
        grid[3, 5] = np.diag([1.0, 1e-13])
        with pytest.raises(SingularMetric, match=r"at node \(3, 5\).*1\.000e-13"):
            spd_inverse(grid)

    def test_factor_maps_a_failed_eigensolve_to_singular_metric(self, monkeypatch):
        # the gate accepts the identity stack without an eigensolve; the
        # first eigensolve (spd_factor's) fails, the one naming a node runs
        eigvalsh, calls = np.linalg.eigvalsh, []

        def fails_once(a):
            calls.append(a.shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", fails_once)
        with pytest.raises(SingularMetric, match="not positive definite"):
            spd_factor(np.broadcast_to(np.eye(2), (4, 2, 2)).copy())
        assert calls == [(4, 2, 2), (4, 2, 2)]

    # A node's kind, and for SPD nodes log10 of its smallest eigenvalue and of
    # its eigenvalue ratio: magnitudes span 200 decades, ratios straddle the cap.
    _NODE = st.tuples(st.sampled_from(["spd"] * 6 + ["indefinite", "nan", "inf", "-inf"]),
                      st.floats(-100.0, 100.0), st.floats(0.0, 15.0))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(d=st.integers(1, 4), nodes=st.lists(_NODE, min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fuzzed_stacks(self, d, nodes, seed):
        """Either an inverse with a per-node residual of a few ulps times the
        node's eigenvalue ratio, or SingularMetric naming a node that breaks
        definiteness, finiteness or the cap.  Ratios within a factor 2 of the
        cap may go either way: rounding the assembled matrix moves the
        smallest eigenvalue by up to eps times the largest."""
        rng = np.random.default_rng(seed)
        stack, ratios = [], []
        for kind, low, spread in nodes:
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            w = 10.0 ** (low + spread * np.r_[0.0, rng.uniform(size=max(d - 2, 0)), 1.0][:d])
            if kind == "indefinite":
                w[rng.integers(d)] *= -1.0
            m = (q * w) @ q.T
            m = 0.5 * (m + m.T)
            if kind in ("nan", "inf", "-inf"):
                i, j = rng.integers(d, size=2)
                m[i, j] = m[j, i] = float(kind)
            stack.append(m)
            ratios.append(w.max() / w.min() if kind == "spd" else np.inf)
        stack, ratios = np.array(stack), np.array(ratios)
        eps = np.finfo(float).eps
        try:
            inv = spd_inverse(stack)
        except SingularMetric as exc:
            named = re.search(r"at node \((\d+),\)", str(exc))
            assert named, str(exc)
            assert ratios[int(named.group(1))] > CONDITION_CAP / 2, str(exc)
        else:
            assert np.all(ratios < 2 * CONDITION_CAP)
            residual = np.max(np.abs(inv @ stack - np.eye(d)), axis=(1, 2))
            assert np.all(residual <= 16 * d * eps * ratios), (residual, ratios)

    # As _NODE, but every SPD node's eigenvalue ratio lies within a factor 4
    # of the cap, or within 0.5 % of it, where the Frobenius bound is
    # inconclusive and rounding decides.
    _CAP = np.log10(CONDITION_CAP)
    _NEAR_CAP = st.tuples(st.sampled_from(["spd"] * 6 + ["indefinite", "nan", "inf", "-inf"]),
                          st.floats(-100.0, 100.0),
                          st.one_of(st.floats(_CAP - np.log10(4), _CAP + np.log10(4)),
                                    st.floats(_CAP - 2e-3, _CAP + 2e-3)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(d=st.integers(1, 4), nodes=st.lists(st.one_of(_NODE, _NEAR_CAP), min_size=1,
                                               max_size=6),
           single=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_gate_matches_eigensolve_first_reference(self, d, nodes, single, seed):
        """``spd_inverse`` skips the eigensolve where the Frobenius bound
        allows, and ``spd_factor`` adds one for the smallest eigenvalue; the
        accept/reject decision, message, inverse bits and smallest eigenvalue
        of both are those of the eigensolve-first reference, whose L^-T L^-1
        multiplies the transposed view that the gate copies first.  Neither
        lets a RuntimeWarning escape."""
        rng = np.random.default_rng(seed)
        stack = []
        for kind, low, spread in nodes:
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            w = 10.0 ** (low + spread * np.r_[0.0, rng.uniform(size=max(d - 2, 0)), 1.0][:d])
            if kind == "indefinite":
                w[rng.integers(d)] *= -1.0
            m = (q * w) @ q.T
            m = 0.5 * (m + m.T)
            if kind in ("nan", "inf", "-inf"):
                i, j = rng.integers(d, size=2)
                m[i, j] = m[j, i] = float(kind)
            stack.append(m)
        g = stack[0] if single else np.array(stack)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            expected = spd_outcome(eig_spd_factor, g)
            assert spd_outcome(spd_factor, g) == expected
            assert spd_outcome(spd_inverse, g)[0] == expected[0]

    def test_gate_matches_reference_at_the_cap(self):
        # 2 x 2 nodes within 0.03 % of the cap, where ||g||_F ||g^-1||_F is
        # within rounding of the eigenvalue ratio: a bound accepted up to the
        # cap itself, with no margin, would disagree with the reference here.
        rng = np.random.default_rng(12)
        q = np.linalg.qr(rng.normal(size=(2000, 2, 2)))[0]
        low = rng.uniform(-100.0, 100.0, size=2000)
        w = 10.0 ** np.stack([low, low + self._CAP + rng.uniform(-1e-4, 1e-4, size=2000)], -1)
        stack = (q * w[:, None, :]) @ np.swapaxes(q, -1, -2)
        for g in 0.5 * (stack + np.swapaxes(stack, -1, -2)):
            expected = spd_outcome(eig_spd_factor, g)
            assert spd_outcome(spd_factor, g) == expected
            assert spd_outcome(spd_inverse, g)[0] == expected[0]


def spd_outcome(invert, g):
    """(inverse bytes, smallest eigenvalue or None) of ``invert(g)``, or its
    SingularMetric message and None."""
    try:
        out = invert(g)
    except SingularMetric as exc:
        return str(exc), None
    inv, lowest = out if isinstance(out, tuple) else (out, None)
    return inv.tobytes(), lowest


def random_metric_field(d: int, seed: int) -> MetricField:
    """Smooth periodic SPD metric on an 8^d chart: identity plus low Fourier modes."""
    rng = np.random.default_rng(seed)
    chart = PeriodicChart((2.0 * np.pi,) * d, (8,) * d)
    x = chart.grid_coords()
    g = np.broadcast_to(np.eye(d), chart.resolution + (d, d)).copy()
    for i in range(d):
        for j in range(i, d):
            wave = rng.integers(-1, 2, size=d)
            bump = rng.uniform(0.05, 0.15) * np.sin(x @ wave + rng.uniform(0.0, 2.0 * np.pi))
            g[..., i, j] += bump
            if i != j:
                g[..., j, i] += bump
    return MetricField(chart, g)


class TestStackFreeRicci:
    @settings(max_examples=12, deadline=None)
    @given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_stacked_dgamma(self, d, seed):
        m = random_metric_field(d, seed)
        gamma = christoffel_field(m.chart, m.values, spd_inverse(m.values))
        dgamma = np.stack([deriv(gamma, m.chart, a) for a in range(d)], axis=d)
        ref, ref_defect = _ricci_from_gamma(gamma, dgamma)
        ric = ricci_field_with_defect(m.chart, gamma)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(ric - ref)) <= 1e-13 * scale
        # the oracle's defect formula, batched, against the grid reference's
        defect = asymmetry_defect(roll_ricci_field(m.chart, gamma))
        assert np.max(np.abs(defect - ref_defect)) <= 1e-13 * scale

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_trace_and_roll_form_bitwise(self, d):
        # mostly signed zeros, so the sign of every exact zero is compared too
        rng = np.random.default_rng(d)
        chart = PeriodicChart((2.0 * np.pi,) * d, (8, 9, 16, 8)[:d])
        shape = chart.resolution + (d, d, d)
        gamma = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        dense = rng.random(shape) < 0.2
        gamma[dense] = rng.normal(size=int(dense.sum()))
        ric = ricci_field_with_defect(chart, gamma)
        raw = roll_ricci_field(chart, gamma)
        ref = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        assert np.array_equal(ric.view(np.int64), ref.view(np.int64))
