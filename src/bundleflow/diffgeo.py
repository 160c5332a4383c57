"""Finite-difference differential geometry on charts.

Two evaluation paths share the same index algebra:

* ``CoordinateMetric`` — an analytic matrix-valued function of a point.
  Christoffel symbols use central differences of the metric with a
  configurable step (default ``DEFAULT_ORACLE_STEP``); the Ricci tensor
  differences those Christoffel evaluations again.  Second derivatives are
  therefore nested first differences, never analytic, which keeps this path
  usable as an independent oracle for the structured curvature formulas.

* grid fields — the same operators vectorized over all nodes of a
  ``PeriodicChart`` with the grid spacing as the step.

Index conventions: ``christoffel`` returns ``G[l, b, c] = Gamma^l_{bc}``
(upper index first), ``ricci`` returns the symmetrized ``Ric_{bc}`` built
from ``d_l Gamma^l_{bc} - d_b Gamma^l_{lc} + Gamma^l_{ln} Gamma^n_{bc}
- Gamma^l_{bn} Gamma^n_{lc}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DimensionMismatch, SingularMetric
from .grids import (ConnectionField, MetricField, PeriodicInterpolator, QField,
                    ScalarField, deriv, grad, require_same_chart, second_derivs)

DEFAULT_ORACLE_STEP = 1e-3
CONDITION_CAP = 1e12


@dataclass(frozen=True)
class CoordinateMetric:
    """Analytic metric: a pure function from a coordinate point to an SPD matrix."""

    dims: int
    func: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, p) -> np.ndarray:
        g = np.asarray(self.func(np.asarray(p, dtype=float)), dtype=float)
        if g.shape != (self.dims, self.dims):
            raise DimensionMismatch(
                f"metric '{self.name}' returned shape {g.shape}, want {(self.dims, self.dims)}")
        return g


def spd_inverse(g: np.ndarray, cap: float = CONDITION_CAP) -> np.ndarray:
    """Inverse of an SPD matrix (or stack of them) through its Cholesky factor.

    Raises SingularMetric if the factorization fails or the eigenvalue ratio
    exceeds ``cap``; flows are expected to stop before reaching this state.
    """
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("matrix is not positive definite") from exc
    w = np.linalg.eigvalsh(g)
    wmin, wmax = np.min(w), np.max(np.abs(w))
    if not np.isfinite(wmax) or wmin <= 0.0 or wmax / wmin > cap:
        raise SingularMetric(f"condition number above {cap:g}")
    low_inv = np.linalg.inv(low)
    return np.swapaxes(low_inv, -1, -2) @ low_inv


def _christoffel_from_dg(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """G^l_{bc} = g^{ln} (d_b g_nc + d_c g_nb - d_n g_bc) / 2, dg[..., b, n, c] = d_b g_nc."""
    sym = dg + np.einsum("...cnb->...bnc", dg) - np.einsum("...nbc->...bnc", dg)
    return 0.5 * np.einsum("...ln,...bnc->...lbc", g_inv, sym)


# ---------------------------------------------------------------------------
# analytic-metric path (nested finite differences around a point)
# ---------------------------------------------------------------------------

def _christoffel_point(m: CoordinateMetric, p: np.ndarray, h: float) -> np.ndarray:
    d = m.dims
    g_inv = spd_inverse(m(p))
    dg = np.zeros((d, d, d))
    for b in range(d):
        e = np.zeros(d)
        e[b] = h
        dg[b] = (m(p + e) - m(p - e)) / (2.0 * h)
    return _christoffel_from_dg(g_inv, dg)


def _ricci_from_gamma(gamma: np.ndarray, dgamma: np.ndarray):
    """Raw Ricci from Gamma and dGamma[..., m, l, b, c] = d_m Gamma^l_{bc}."""
    ric = (np.einsum("...llbc->...bc", dgamma)
           - np.einsum("...bllc->...bc", dgamma)
           + np.einsum("...lln,...nbc->...bc", gamma, gamma)
           - np.einsum("...lbn,...nlc->...bc", gamma, gamma))
    sym = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    defect = np.max(np.abs(ric - np.swapaxes(ric, -1, -2)), axis=(-1, -2))
    return sym, defect


def _ricci_point(m: CoordinateMetric, p: np.ndarray, h: float):
    d = m.dims
    gamma = _christoffel_point(m, p, h)
    dgamma = np.zeros((d, d, d, d))
    for a in range(d):
        e = np.zeros(d)
        e[a] = h
        dgamma[a] = (_christoffel_point(m, p + e, h) - _christoffel_point(m, p - e, h)) / (2.0 * h)
    return _ricci_from_gamma(gamma, dgamma)


# ---------------------------------------------------------------------------
# grid-field path (vectorized over all nodes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseGeometry:
    """Inverse, Christoffel symbols and Ricci tensor of a grid metric: the base
    geometry a right-hand-side stage needs, computed once per stage."""

    g_inv: np.ndarray
    gamma: np.ndarray
    ric: np.ndarray


def christoffel_field(m: MetricField, g_inv: np.ndarray | None = None) -> np.ndarray:
    if g_inv is None:
        g_inv = spd_inverse(m.values)
    dg = grad(m.values, m.chart)
    return _christoffel_from_dg(g_inv, dg)


def ricci_field_with_defect(m: MetricField, gamma: np.ndarray | None = None):
    if gamma is None:
        gamma = christoffel_field(m)
    d = m.chart.dims
    parts = [deriv(gamma, m.chart, a) for a in range(d)]
    dgamma = np.stack(parts, axis=d)
    return _ricci_from_gamma(gamma, dgamma)


def base_geometry(m: MetricField) -> BaseGeometry:
    """One pass over the metric: a single ``spd_inverse`` (which raises
    SingularMetric for a metric that lost definiteness) and a single
    Christoffel field.  dGamma stays a temporary of the Ricci computation."""
    g_inv = spd_inverse(m.values)
    gamma = christoffel_field(m, g_inv)
    return BaseGeometry(g_inv, gamma, ricci_field_with_defect(m, gamma)[0])


# ---------------------------------------------------------------------------
# dispatching pointwise API
# ---------------------------------------------------------------------------

MetricLike = Union[MetricField, CoordinateMetric]


def christoffel(m: MetricLike, p, step: float | None = None) -> np.ndarray:
    """Christoffel symbols at a point (coordinate point, or grid index for fields)."""
    if isinstance(m, CoordinateMetric):
        return _christoffel_point(m, np.asarray(p, dtype=float), step or DEFAULT_ORACLE_STEP)
    return christoffel_field(m)[tuple(int(i) for i in np.atleast_1d(p))]


def ricci_with_defect(m: MetricLike, p, step: float | None = None):
    """Symmetrized Ricci tensor and the pre-symmetrization asymmetry diagnostic."""
    if isinstance(m, CoordinateMetric):
        return _ricci_point(m, np.asarray(p, dtype=float), step or DEFAULT_ORACLE_STEP)
    sym, defect = ricci_field_with_defect(m)
    idx = tuple(int(i) for i in np.atleast_1d(p))
    return sym[idx], defect[idx]


def ricci(m: MetricLike, p, step: float | None = None) -> np.ndarray:
    return ricci_with_defect(m, p, step)[0]


# ---------------------------------------------------------------------------
# scalar calculus on grid fields
# ---------------------------------------------------------------------------

def hessian_field(f: ScalarField, m: MetricField,
                  geo: BaseGeometry | None = None) -> np.ndarray:
    """Hess f_{bc} = d_b d_c f - Gamma^l_{bc} d_l f at every node."""
    require_same_chart(f, m)
    gamma = christoffel_field(m) if geo is None else geo.gamma
    ddf = second_derivs(f.values, f.chart)
    df = grad(f.values, f.chart)
    return ddf - np.einsum("...lbc,...l->...bc", gamma, df)


def laplacian_field(f: ScalarField, m: MetricField) -> np.ndarray:
    g_inv = spd_inverse(m.values)
    return np.einsum("...bc,...bc->...", g_inv, hessian_field(f, m))


def grad_norm_sq_field(f: ScalarField, m: MetricField) -> np.ndarray:
    require_same_chart(f, m)
    g_inv = spd_inverse(m.values)
    df = grad(f.values, f.chart)
    return np.einsum("...bc,...b,...c->...", g_inv, df, df)


def drift_laplacian_field(f: ScalarField, u: ScalarField, m: MetricField) -> np.ndarray:
    """Drift Laplacian of u with density f: Delta u - g^{bc} d_b f d_c u."""
    require_same_chart(f, u, m)
    g_inv = spd_inverse(m.values)
    df = grad(f.values, f.chart)
    du = grad(u.values, u.chart)
    return laplacian_field(u, m) - np.einsum("...bc,...b,...c->...", g_inv, df, du)


# ---------------------------------------------------------------------------
# total-space metric assembly (torus structure group)
# ---------------------------------------------------------------------------

def assemble_total_metric(g: MetricField, Q: QField, alpha: ConnectionField) -> CoordinateMetric:
    """Coordinate metric of the bundle total space on (base coords, fiber coords).

    Blocks at a point x: top-left  g_{bb'} + Q_{kl} a^k_b a^l_{b'},
    off-diagonal  Q_{kl} a^l_b,  fiber  Q_{jk}.  Base fields enter through
    periodic cubic interpolation so the result is twice differentiable and
    usable by the finite-difference curvature oracle; fiber coordinates are
    ignored by every block (torus invariance).
    """
    chart = require_same_chart(g, Q, alpha)
    if Q.q != alpha.q:
        raise DimensionMismatch(f"fiber dimensions differ: Q has {Q.q}, connection has {alpha.q}")
    d, q = chart.dims, Q.q
    interp_g = PeriodicInterpolator(chart, g.values)
    interp_q = PeriodicInterpolator(chart, Q.values)
    interp_a = PeriodicInterpolator(chart, alpha.values)

    def evaluate(p: np.ndarray) -> np.ndarray:
        x = p[:d]
        gv = interp_g(x)
        qv = interp_q(x)
        av = interp_a(x) + alpha.coefficients_at(x)
        out = np.zeros((d + q, d + q))
        qa = np.einsum("kl,lb->kb", qv, av)
        out[:d, :d] = gv + np.einsum("kb,kc->bc", av, qa)
        out[:d, d:] = qa.T
        out[d:, :d] = qa
        out[d:, d:] = qv
        return out

    return CoordinateMetric(d + q, evaluate, name="assembled-total-space")
