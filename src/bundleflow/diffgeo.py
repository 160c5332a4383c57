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
  and the ``*_field`` functions), on the chart and raw arrays with g^{-1}
  from the caller, since a stage holds unvalidated trial arrays.

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
from .grids import PeriodicChart, deriv, grad, second_derivs

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


def spd_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix (or stack of them) through its Cholesky factor,
    the one gate of every metric: SingularMetric names the first node that is
    not finite, not positive definite or above ``CONDITION_CAP`` in eigenvalue
    ratio.  Only nodes where ||g||_F^2 ||g^-1||_F^2 > (cap / 2)^2 run an
    eigensolve: that product bounds the squared condition number from above
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 6.2);
    the factor 2 absorbs rounding."""
    try:
        low_inv = np.linalg.inv(np.linalg.cholesky(g))
        with np.errstate(all="ignore"):         # non-finite nodes fail the bound
            # L^-T copied: numpy multiplies a view of L^-1's buffer more slowly, to the same bits
            inv = np.swapaxes(low_inv, -1, -2).copy() @ low_inv
            unsure = ~(np.einsum("...ij,...ij->...", g, g)
                       * np.einsum("...ij,...ij->...", inv, inv) <= (0.5 * CONDITION_CAP) ** 2)
        if np.any(unsure):
            w = np.linalg.eigvalsh(g[unsure])  # ascending at every node
            if not np.all((w[:, 0] > 0.0) & (w[:, -1] / CONDITION_CAP <= w[:, 0])
                          & np.isfinite(w[:, -1])):
                raise SingularMetric(_rejection(g))
    except np.linalg.LinAlgError as exc:       # eigvalsh too, on a NaN the factor let through
        raise SingularMetric(_rejection(g)) from exc
    return inv


def spd_factor(g: np.ndarray) -> tuple[np.ndarray, float]:
    """``spd_inverse(g)`` and the smallest eigenvalue over the stack."""
    inv = spd_inverse(g)
    try:
        return inv, float(np.min(np.linalg.eigvalsh(g)[..., 0]))
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(_rejection(g)) from exc


def _rejection(g: np.ndarray) -> str:
    """Why ``spd_inverse`` rejects g, naming the first node that is not
    finite, not positive definite or above the cap, from one batched
    eigensolve over the finite nodes."""
    stack = g.reshape((-1,) + g.shape[-2:])
    finite = np.all(np.isfinite(stack), axis=(-2, -1))
    w = np.full(stack.shape[:-1], np.nan)
    if np.any(finite):
        w[finite] = np.linalg.eigvalsh(stack[finite])
    ok = finite & (w[:, 0] > 0.0) & (w[:, -1] / CONDITION_CAP <= w[:, 0])
    if np.all(ok):
        return "matrix is not positive definite"
    first = int(np.argmin(ok))
    node = tuple(int(i) for i in np.unravel_index(first, g.shape[:-2]))
    where = f" at node {node}" if node else ""
    lo, hi = w[first, 0], w[first, -1]
    if not finite[first]:
        return f"matrix has a non-finite entry{where}"
    if not lo > 0.0:
        return f"matrix is not positive definite{where}"
    return f"condition number above {CONDITION_CAP:g}{where} (eigenvalues {lo:.3e} to {hi:.3e})"


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

def _central(fn: Callable, p: np.ndarray, h: float, d: int) -> np.ndarray:
    """(fn(p + h e_a) - fn(p - h e_a)) / (2 h) for each coordinate axis a, stacked."""
    return np.stack([(fn(p + e) - fn(p - e)) / (2.0 * h) for e in h * np.eye(d)])


def christoffel(m: CoordinateMetric, p, step: float | None = None) -> np.ndarray:
    """Christoffel symbols at a coordinate point."""
    h = step or DEFAULT_ORACLE_STEP
    p = np.asarray(p, dtype=float)
    return _christoffel_from_dg(spd_inverse(m(p)), _central(m, p, h, m.dims))


def _ricci_from_gamma(gamma: np.ndarray, dgamma: np.ndarray):
    """Symmetrized Ricci from Gamma and dGamma[..., m, l, b, c] = d_m Gamma^l_{bc},
    and max |Ric - Ric^T| of the raw tensor: the oracle's asymmetry defect."""
    ric = (np.einsum("...llbc->...bc", dgamma)
           - np.einsum("...bllc->...bc", dgamma)
           + np.einsum("...lln,...nbc->...bc", gamma, gamma)
           - np.einsum("...lbn,...nlc->...bc", gamma, gamma))
    ric_t = np.swapaxes(ric, -1, -2)
    return 0.5 * (ric + ric_t), np.abs(ric - ric_t).max(axis=(-2, -1))


def ricci_with_defect(m: CoordinateMetric, p, step: float | None = None):
    """Symmetrized Ricci tensor at a coordinate point and the
    pre-symmetrization asymmetry diagnostic."""
    h = step or DEFAULT_ORACLE_STEP
    p = np.asarray(p, dtype=float)
    return _ricci_from_gamma(christoffel(m, p, h),
                             _central(lambda x: christoffel(m, x, h), p, h, m.dims))


def ricci(m: CoordinateMetric, p, step: float | None = None) -> np.ndarray:
    return ricci_with_defect(m, p, step)[0]


# ---------------------------------------------------------------------------
# grid-field path (vectorized over all nodes)
# ---------------------------------------------------------------------------

def christoffel_field(chart: PeriodicChart, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Christoffel symbols at every node of the metric array g with inverse g_inv."""
    return _christoffel_from_dg(g_inv, grad(g, chart))


def ricci_field_with_defect(chart: PeriodicChart, gamma: np.ndarray) -> np.ndarray:
    """Symmetrized Ricci at every node from the Christoffel field, without
    stacking dGamma: d_l Gamma^l_bc differences one (d, d) slice per axis,
    d_b Gamma^l_lc differences the trace vector, and Gamma^l_bn Gamma^n_lc is
    one matmul over the flattened (l, n) pair.

    The grid path computes no asymmetry defect (only the pointwise oracle
    reports one).  The name stays because ``perfbench/tracer.py`` rebinds it;
    the rename waits for the perfbench change of ROADMAP item 3 or 4."""
    d = chart.dims
    trace = sum(gamma[..., a, a, :] for a in range(d))      # Gamma^l_lc, [c]
    gamma_t = np.swapaxes(gamma, -3, -2).copy()             # [b, l, n] = Gamma^l_bn
    ric = (sum(deriv(gamma[..., a, :, :], chart, a) for a in range(d))
           - grad(trace, chart)
           + (trace[..., None, :] @ gamma.reshape(chart.resolution + (d, d * d))
              ).reshape(gamma.shape[:-1])
           - gamma_t.reshape(chart.resolution + (d, d * d))
           @ gamma_t.reshape(chart.resolution + (d * d, d)))
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))


def base_geometry(chart: PeriodicChart, g: np.ndarray, g_inv: np.ndarray):
    """(Gamma, Ric) of the metric array g, whose inverse the caller factored: the
    base geometry of one stage, a single Christoffel field differenced to Ricci."""
    gamma = christoffel_field(chart, g, g_inv)
    return gamma, ricci_field_with_defect(chart, gamma)


def hessian_field(chart: PeriodicChart, f: np.ndarray, gamma: np.ndarray,
                  df: np.ndarray) -> np.ndarray:
    """Hess f_{bc} = d_b d_c f - Gamma^l_{bc} d_l f at every node, df = grad(f)."""
    return second_derivs(f, chart, df) - np.einsum("...lbc,...l->...bc", gamma, df)
