"""Finite-difference differential geometry on charts.

Two evaluation paths share the same index algebra:

* the pointwise API (``christoffel``, ``ricci_with_defect``, ``ricci``) is
  the curvature oracle and takes only a ``CoordinateMetric``, an analytic
  matrix-valued function of a point.  Christoffel symbols use central
  differences of the metric with a configurable step (default
  ``DEFAULT_ORACLE_STEP``); the Ricci tensor differences those Christoffel
  evaluations again.  Second derivatives are therefore nested first
  differences, never analytic, which keeps this path usable as an
  independent oracle for the structured curvature formulas.

* grid fields — the same operators vectorized over all nodes of a
  ``PeriodicChart`` with the grid spacing as the step (``base_geometry``
  and the ``*_field`` functions).

Index conventions: ``christoffel`` returns ``G[l, b, c] = Gamma^l_{bc}``
(upper index first), ``ricci`` returns the symmetrized ``Ric_{bc}`` built
from ``d_l Gamma^l_{bc} - d_b Gamma^l_{lc} + Gamma^l_{ln} Gamma^n_{bc}
- Gamma^l_{bn} Gamma^n_{lc}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, SingularMetric
from .grids import MetricField, ScalarField, deriv, grad, require_same_chart, second_derivs

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

    Raises SingularMetric if, at any node of the stack, the matrix has a
    non-finite entry, is not positive definite, or has an eigenvalue ratio
    above ``cap``; the message names the first such node.  Flows are
    expected to stop before reaching this state.
    """
    try:
        low = np.linalg.cholesky(g)
        w = np.linalg.eigvalsh(g)              # ascending at every node
    except np.linalg.LinAlgError as exc:       # eigvalsh too, on a NaN the factor let through
        raise SingularMetric(_rejection(g, cap)) from exc
    wmin, wmax = w[..., 0], w[..., -1]
    if not np.all((wmin > 0.0) & (wmax / cap <= wmin) & np.isfinite(wmax)):
        raise SingularMetric(_rejection(g, cap))
    low_inv = np.linalg.inv(low)
    return np.swapaxes(low_inv, -1, -2) @ low_inv


def _rejection(g: np.ndarray, cap: float) -> str:
    """Why ``spd_inverse`` rejects g, naming the first node that is not
    finite, not positive definite or above the cap."""
    for node in np.ndindex(g.shape[:-2]):
        where = f" at node {node}" if node else ""
        if not np.all(np.isfinite(g[node])):
            return f"matrix has a non-finite entry{where}"
        w = np.linalg.eigvalsh(g[node])
        if not w[0] > 0.0:
            return f"matrix is not positive definite{where}"
        if not w[-1] / cap <= w[0]:
            return f"condition number above {cap:g}{where} (eigenvalues {w[0]:.3e} to {w[-1]:.3e})"
    return "matrix is not positive definite"


def _christoffel_from_dg(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """G^l_{bc} = g^{ln} (d_b g_nc + d_c g_nb - d_n g_bc) / 2, dg[..., b, n, c] = d_b g_nc.

    The lowered symbols are laid out [n, (b, c)] so the raise is one matmul.
    """
    d = dg.shape[-1]
    dg_n = np.swapaxes(dg, -3, -2)                          # [n, b, c] = d_b g_nc
    low = dg_n + np.swapaxes(dg_n, -1, -2) - dg
    return 0.5 * (g_inv @ low.reshape(dg.shape[:-3] + (d, d * d))).reshape(dg.shape)


# ---------------------------------------------------------------------------
# pointwise oracle (nested finite differences around a point)
# ---------------------------------------------------------------------------

def christoffel(m: CoordinateMetric, p, step: float | None = None) -> np.ndarray:
    """Christoffel symbols at a coordinate point."""
    h = step or DEFAULT_ORACLE_STEP
    p = np.asarray(p, dtype=float)
    d = m.dims
    g_inv = spd_inverse(m(p))
    dg = np.zeros((d, d, d))
    for b in range(d):
        e = np.zeros(d)
        e[b] = h
        dg[b] = (m(p + e) - m(p - e)) / (2.0 * h)
    return _christoffel_from_dg(g_inv, dg)


def _symmetrized_with_defect(ric: np.ndarray):
    sym = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    defect = np.max(np.abs(ric - np.swapaxes(ric, -1, -2)), axis=(-1, -2))
    return sym, defect


def _ricci_from_gamma(gamma: np.ndarray, dgamma: np.ndarray):
    """Raw Ricci from Gamma and dGamma[..., m, l, b, c] = d_m Gamma^l_{bc}."""
    ric = (np.einsum("...llbc->...bc", dgamma)
           - np.einsum("...bllc->...bc", dgamma)
           + np.einsum("...lln,...nbc->...bc", gamma, gamma)
           - np.einsum("...lbn,...nlc->...bc", gamma, gamma))
    return _symmetrized_with_defect(ric)


def ricci_with_defect(m: CoordinateMetric, p, step: float | None = None):
    """Symmetrized Ricci tensor at a coordinate point and the
    pre-symmetrization asymmetry diagnostic."""
    h = step or DEFAULT_ORACLE_STEP
    p = np.asarray(p, dtype=float)
    d = m.dims
    gamma = christoffel(m, p, h)
    dgamma = np.zeros((d, d, d, d))
    for a in range(d):
        e = np.zeros(d)
        e[a] = h
        dgamma[a] = (christoffel(m, p + e, h) - christoffel(m, p - e, h)) / (2.0 * h)
    return _ricci_from_gamma(gamma, dgamma)


def ricci(m: CoordinateMetric, p, step: float | None = None) -> np.ndarray:
    return ricci_with_defect(m, p, step)[0]


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
    """Ricci at every node without stacking dGamma: d_l Gamma^l_bc differences
    one (d, d) slice per axis, d_b Gamma^l_lc differences the trace vector, and
    Gamma^l_bn Gamma^n_lc is one matmul over the flattened (l, n) pair."""
    if gamma is None:
        gamma = christoffel_field(m)
    chart = m.chart
    d = chart.dims
    trace = np.trace(gamma, axis1=-3, axis2=-2)             # Gamma^l_lc, [c]
    gamma_t = np.swapaxes(gamma, -3, -2).copy()             # [b, l, n] = Gamma^l_bn
    ric = (sum(deriv(gamma[..., a, :, :], chart, a) for a in range(d))
           - grad(trace, chart)
           + (trace[..., None, :] @ gamma.reshape(chart.resolution + (d, d * d))
              ).reshape(gamma.shape[:-1])
           - gamma_t.reshape(chart.resolution + (d, d * d))
           @ gamma_t.reshape(chart.resolution + (d * d, d)))
    return _symmetrized_with_defect(ric)


def base_geometry(m: MetricField) -> BaseGeometry:
    """One pass over the metric: a single ``spd_inverse`` (which raises
    SingularMetric for a metric that lost definiteness) and a single
    Christoffel field, from which the Ricci tensor is differenced."""
    g_inv = spd_inverse(m.values)
    gamma = christoffel_field(m, g_inv)
    return BaseGeometry(g_inv, gamma, ricci_field_with_defect(m, gamma)[0])


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
