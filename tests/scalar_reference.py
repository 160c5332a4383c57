"""Independent references for the SPD gate, the stencils and the
density-flow right-hand side.

``eig_spd_factor`` decides from the eigenvalues of every node before it
inverts; ``diffgeo.spd_inverse`` and ``spd_factor`` must match its decision,
message, inverse bits and smallest eigenvalue.  The ``roll_*`` stencils are
the periodic differences written with ``np.roll``; the gathered stencils of
``grids`` must equal them bit for bit.  ``asymmetry_defect`` is the grid
Ricci's pre-symmetrization defect, which ``diffgeo`` computes only for the
pointwise oracle.  Each density operator is built from
``spd_inverse``, ``christoffel_field`` and the stencils on its own, apart
from ``bakry_emery.be_stage``, so the tests can hold ``be_rhs`` and the
monitors against it.
"""

import numpy as np

from bundleflow.diffgeo import CONDITION_CAP, christoffel_field, hessian_field, spd_inverse
from bundleflow.errors import SingularMetric
from bundleflow.grids import MetricField, PeriodicChart, ScalarField, grad, require_same_chart


def eig_spd_factor(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse of an SPD matrix (or stack) and its smallest eigenvalue over the
    stack, checked node by node by eigensolve first: SingularMetric names the
    first node that is not finite, not positive definite or above
    ``CONDITION_CAP``.  L^-T L^-1 is formed from the transposed view of L^-1."""
    stack = g.reshape((-1,) + g.shape[-2:])
    for i, m in enumerate(stack):
        node = tuple(int(j) for j in np.unravel_index(i, g.shape[:-2]))
        where = f" at node {node}" if node else ""
        if not np.all(np.isfinite(m)):
            raise SingularMetric(f"matrix has a non-finite entry{where}")
        w = np.linalg.eigvalsh(m)
        if not w[0] > 0.0:
            raise SingularMetric(f"matrix is not positive definite{where}")
        if not w[-1] / CONDITION_CAP <= w[0]:
            raise SingularMetric(f"condition number above {CONDITION_CAP:g}{where} "
                                 f"(eigenvalues {w[0]:.3e} to {w[-1]:.3e})")
    try:
        low_inv = np.linalg.inv(np.linalg.cholesky(g))
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("matrix is not positive definite") from exc
    return np.swapaxes(low_inv, -1, -2) @ low_inv, float(np.min(np.linalg.eigvalsh(g)[..., 0]))


def roll_deriv(values: np.ndarray, chart: PeriodicChart, axis: int) -> np.ndarray:
    h = chart.spacing[axis]
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


def roll_deriv2(values: np.ndarray, chart: PeriodicChart, axis: int) -> np.ndarray:
    h = chart.spacing[axis]
    return (np.roll(values, -1, axis=axis) - 2.0 * values + np.roll(values, 1, axis=axis)) / (h * h)


def roll_grad(values: np.ndarray, chart: PeriodicChart) -> np.ndarray:
    d = chart.dims
    return np.stack([roll_deriv(values, chart, a) for a in range(d)], axis=d)


def roll_second_derivs(values: np.ndarray, chart: PeriodicChart) -> np.ndarray:
    d = chart.dims
    out = np.zeros(chart.resolution + (d, d) + values.shape[d:])
    idx_grid = (slice(None),) * d
    for a in range(d):
        out[idx_grid + (a, a)] = roll_deriv2(values, chart, a)
        for b in range(a + 1, d):
            mixed = roll_deriv(roll_deriv(values, chart, b), chart, a)
            out[idx_grid + (a, b)] = mixed
            out[idx_grid + (b, a)] = mixed
    return out


def roll_ricci_field(chart: PeriodicChart, gamma: np.ndarray) -> np.ndarray:
    """The grid Ricci of ``diffgeo.ricci_field_with_defect`` before
    symmetrization, with ``np.trace`` and the rolled stencils."""
    d = chart.dims
    trace = np.trace(gamma, axis1=-3, axis2=-2)
    gamma_t = np.swapaxes(gamma, -3, -2).copy()
    return (sum(roll_deriv(gamma[..., a, :, :], chart, a) for a in range(d))
            - roll_grad(trace, chart)
            + (trace[..., None, :] @ gamma.reshape(chart.resolution + (d, d * d))
               ).reshape(gamma.shape[:-1])
            - gamma_t.reshape(chart.resolution + (d, d * d))
            @ gamma_t.reshape(chart.resolution + (d * d, d)))


def asymmetry_defect(raw: np.ndarray) -> np.ndarray:
    """max |Ric - Ric^T| at each node of a raw (unsymmetrized) Ricci field."""
    return np.max(np.abs(raw - np.swapaxes(raw, -1, -2)), axis=(-1, -2))


def laplacian_field(f: ScalarField, m: MetricField) -> np.ndarray:
    require_same_chart(f, m)
    g_inv = spd_inverse(m.values)
    gamma = christoffel_field(m.chart, m.values, g_inv)
    return np.einsum("...bc,...bc->...", g_inv, hessian_field(f.chart, f.values, gamma,
                                                              grad(f.values, f.chart)))


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
