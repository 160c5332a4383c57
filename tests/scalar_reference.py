"""Independent grid references for the density-flow right-hand side.

Each operator is built from ``spd_inverse``, ``christoffel_field`` and the
stencils on its own, apart from ``bakry_emery.be_stage``, so the tests can
hold ``be_rhs`` and the monitors against it.
"""

import numpy as np

from bundleflow.diffgeo import christoffel_field, hessian_field, spd_inverse
from bundleflow.grids import MetricField, ScalarField, grad, require_same_chart


def laplacian_field(f: ScalarField, m: MetricField) -> np.ndarray:
    require_same_chart(f, m)
    g_inv = spd_inverse(m.values)
    gamma = christoffel_field(m.chart, m.values, g_inv)
    return np.einsum("...bc,...bc->...", g_inv, hessian_field(f.chart, f.values, gamma))


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
