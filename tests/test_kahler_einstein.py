"""Reduced circle-bundle flow: right-hand sides, closed forms, conserved quantities."""

import numpy as np
import pytest

from bundleflow.errors import DomainError, LambdaZero, NegativeBase
from bundleflow.kahler_einstein import (KEParams, KEState, LauretState, _psi_cleared,
                                        closed_form_flat, ke_integrate, ke_rhs, lambda_invariant,
                                        lauret_integrate, lauret_rhs, psi, to_lauret)

LN8_OVER_6 = 0.34657359027997264   # log(8) / 6


class TestKeRhs:
    def test_round_sphere_values(self):
        du, df = ke_rhs(0.5, 0.0, KEParams(1, 2.0))
        assert du == pytest.approx(-2.0)
        assert df == pytest.approx(2.0)

    def test_flat_case_expands(self):
        for u, f in ((0.5, 0.0), (2.0, -1.0), (1.0, 3.0)):
            du, df = ke_rhs(u, f, KEParams(2, 0.0))
            assert du > 0
            assert df > 0

    def test_hyperbolic_values(self):
        du, df = ke_rhs(1.0, 0.0, KEParams(1, -4.0))
        assert du == pytest.approx(9.0)
        assert df == pytest.approx(0.5)

    def test_fiber_rate_always_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = KEState(float(rng.uniform(0.05, 5)), float(rng.uniform(-2, 2)))
            p = KEParams(int(rng.integers(1, 4)), float(rng.uniform(-5, 5)))
            assert ke_rhs(s.u, s.f, p)[1] > 0

    def test_positive_u_required(self):
        with pytest.raises(DomainError):
            KEState(0.0, 1.0)


class TestClosedFormFlat:
    def test_initial_condition(self):
        for n, u0, C in ((1, 1.0, 0.0), (2, 0.7, -0.4), (3, 2.0, 1.1)):
            s = closed_form_flat(0.0, KEParams(n, 0.0), u0, C)
            assert s.u == pytest.approx(u0, rel=1e-14)
            assert s.f == pytest.approx(C, abs=1e-14)

    def test_reference_point(self):
        s = closed_form_flat(7.0 / 3.0, KEParams(1, 0.0), 1.0, 0.0)
        assert s.u == pytest.approx(2.0, rel=1e-14)
        assert s.f == pytest.approx(LN8_OVER_6, rel=1e-14)

    def test_solves_the_ode(self):
        p = KEParams(2, 0.0)
        eps = 1e-6
        for t in (0.3, 1.7):
            sm = closed_form_flat(t - eps, p, 0.8, 0.2)
            sp = closed_form_flat(t + eps, p, 0.8, 0.2)
            s = closed_form_flat(t, p, 0.8, 0.2)
            du, df = ke_rhs(s.u, s.f, p)
            assert (sp.u - sm.u) / (2 * eps) == pytest.approx(du, rel=1e-7)
            assert (sp.f - sm.f) / (2 * eps) == pytest.approx(df, rel=1e-7)

    def test_cube_root_growth(self):
        # n = 1, u0 = 1, C = 0: u(t) = (3 t + 1)^{1/3}
        p = KEParams(1, 0.0)
        for t in (0.0, 1.0, 5.0):
            assert closed_form_flat(t, p, 1.0, 0.0).u == pytest.approx(
                (3 * t + 1) ** (1 / 3), rel=1e-14)


class TestPsi:
    def test_lambda_zero_rejected(self):
        with pytest.raises(LambdaZero):
            psi(KEState(1.0, 0.0), KEParams(1, 0.0))

    def test_negative_base_reported(self):
        # u e^{2f} < (n+1)/(2 lambda) makes the fractional power base negative
        with pytest.raises(NegativeBase):
            psi(KEState(0.25, 0.0), KEParams(1, 2.0))

    def test_reference_values(self):
        assert psi(KEState(2.0, 0.0), KEParams(1, 2.0)) == pytest.approx(
            np.sqrt(3.0) / 2.0, rel=1e-14)
        assert psi(KEState(1.0, 0.0), KEParams(1, -4.0)) == pytest.approx(
            np.sqrt(5.0) / 2.0, rel=1e-14)
        assert psi(KEState(1.0, 0.0), KEParams(1, -1.0)) ** 2 == pytest.approx(2.0, rel=1e-14)

    def test_cleared_form_is_power_of_psi(self):
        s, p = KEState(2.0, 0.3), KEParams(2, 1.5)
        assert _psi_cleared(s.u, s.f, p) == pytest.approx(psi(s, p) ** ((p.n + 1) / p.n),
                                                          rel=1e-12)

    def test_cleared_form_conserved_with_negative_base(self):
        # anisotropy flipped so that Psi itself has a branch problem; the
        # cleared form is a small difference of terms growing like e^{4f},
        # so the drift is measured one decade of collapse deep, before that
        # cancellation dominates the arithmetic
        p = KEParams(1, 2.0)
        s0 = KEState(0.5, -np.log(2.0))      # lambda1 = 2 > lambda2 = 1
        with pytest.raises(NegativeBase):
            psi(s0, p)
        trace = ke_integrate(s0, p, 10.0, tol=1e-9, extinction_ratio=1e-1)
        series = trace.psi_cleared_series()
        drift = np.max(np.abs(series - series[0])) / abs(series[0])
        assert drift < 1e-6


class TestLauret:
    def test_round_sphere_map_and_rhs(self):
        p = KEParams(1, 2.0)
        l = to_lauret(KEState(0.5, 0.0), p)
        assert (l.a, l.b) == (2.0, 4.0)
        da, db = lauret_rhs(l.a, l.b)
        assert da == pytest.approx(4.0)
        assert db == pytest.approx(16.0)

    def test_invariant_value(self):
        l = to_lauret(KEState(2.0, 0.0), KEParams(1, 2.0))
        assert (l.a, l.b) == (0.5, 1.0)
        assert lambda_invariant(l.a, l.b) == pytest.approx(12.0, rel=1e-14)
        # equals lambda^4 Psi^2
        assert lambda_invariant(l.a, l.b) == pytest.approx(
            2.0 ** 4 * psi(KEState(2.0, 0.0), KEParams(1, 2.0)) ** 2, rel=1e-12)

    def test_invariant_needs_positive_a(self):
        with pytest.raises(DomainError):
            lambda_invariant(0.0, 1.0)

    def test_chain_rule_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            u = float(rng.uniform(0.1, 4.0))
            f = float(rng.uniform(-1.5, 1.5))
            lam = float(rng.uniform(-5.0, 5.0)) or 1.0
            s, p = KEState(u, f), KEParams(1, lam)
            du, df = ke_rhs(s.u, s.f, p)
            l = to_lauret(s, p)
            # a = e^{-f}/u, b = lam/u pushed forward along (du, df)
            da_expected = -l.a * (df + du / u)
            db_expected = -l.b * du / u
            da, db = lauret_rhs(l.a, l.b)
            assert da == pytest.approx(da_expected, rel=1e-12, abs=1e-12)
            assert db == pytest.approx(db_expected, rel=1e-12, abs=1e-12)

    def test_direct_integration_conserves_invariant(self):
        t, a, b, reason = lauret_integrate(LauretState(2.0, -1.0), 20.0, tol=1e-10)
        inv = b ** 4 / a ** 4 - b ** 3 / a ** 2
        assert reason == "Horizon"
        assert np.max(np.abs(inv - inv[0])) / abs(inv[0]) < 1e-7


class TestKeIntegrate:
    def test_extinction_reason(self):
        entry_u0 = 0.5   # round sphere lambda1 = lambda2 = 1, extinct at t = 1/8
        trace = ke_integrate(KEState(entry_u0, 0.0), KEParams(1, 2.0), 1.0, tol=1e-9)
        assert trace.stop_reason == "Extinct"
        assert trace.u[-1] <= 1e-6 * entry_u0 * 1.01

    def test_flat_flow_monotone(self):
        trace = ke_integrate(KEState(1.0, 0.0), KEParams(1, 0.0), 5.0, tol=1e-9)
        assert trace.stop_reason == "Horizon"
        assert np.all(np.diff(trace.u) > 0)
        assert np.all(np.diff(trace.f) > 0)
