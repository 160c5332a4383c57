"""The grid assembly of bundle data on a curved base, against the oracle.

A manufactured-solution order-of-accuracy test (Roache, "Code verification
by the method of manufactured solutions", J. Fluids Eng. 124, 2002): smooth
periodic base metric g, fiber metric Q and connection a on [0, 2 pi)^d give
the total metric [[g + a^T Q a, a^T Q], [Q a, Q]] in bundle coordinates
(x_1..x_d, theta_1..theta_q), the convention of
``catalog.heisenberg_total_metric``.  At fixed physical nodes, the Ricci
blocks of the grid-assembled pointwise data, taken back to the chart, must
converge to the nested-difference oracle's Ricci tensor at second order in
the grid spacing.  Unlike constant Heisenberg data, these fields have
nonzero Christoffel symbols, D Q, D D Q and div F, so every correction term
of ``bundle_data_from_fields`` counts.
"""

from dataclasses import fields

import numpy as np
import pytest

from bundleflow.bundle import (PointwiseBundleData, blocks_to_chart, bundle_data_from_fields,
                               ricci_blocks_torus)
from bundleflow.diffgeo import CoordinateMetric, ricci, spd_inverse
from bundleflow.grids import PeriodicChart


def base_metric(x):
    """Identity plus smooth periodic terms, diagonally dominant; x is (..., d)."""
    d = x.shape[-1]
    g = np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d)).copy()
    for i in range(d):
        g[..., i, i] += 0.2 * np.sin(x[..., i] + x[..., (i + 1) % d] + i)
        for j in range(i + 1, d):
            off = 0.1 * np.sin(x[..., i] - x[..., j])
            g[..., i, j] += off
            g[..., j, i] += off
    return g


def fiber_metric(x, q: int):
    Q = np.zeros(x.shape[:-1] + (q, q))
    Q[..., 0, 0] = 1.0 + 0.3 * np.sin(x[..., 0] + 2.0 * x[..., -1])
    if q == 2:
        Q[..., 1, 1] = 1.2 + 0.2 * np.cos(2.0 * x[..., 0] - x[..., 1])
        Q[..., 0, 1] = Q[..., 1, 0] = 0.1 * np.sin(x[..., 0]) * np.sin(x[..., 1])
    return Q


def connection(x, q: int):
    """a^k_b, (..., q, d)."""
    d = x.shape[-1]
    return np.stack([np.stack([0.2 * np.sin((k + 1) * x[..., (b + 1) % d] + b)
                               + 0.1 * np.cos(x[..., b]) for b in range(d)], -1)
                     for k in range(q)], -2)


def total_metric(d: int, q: int) -> CoordinateMetric:
    def evaluate(p):
        x = p[:d]
        g, Q, a = base_metric(x), fiber_metric(x, q), connection(x, q)
        out = np.empty((d + q, d + q))
        out[:d, :d] = g + a.T @ Q @ a
        out[:d, d:] = a.T @ Q
        out[d:, :d] = Q @ a
        out[d:, d:] = Q
        return out

    return CoordinateMetric(d + q, evaluate, name=f"manufactured(d={d},q={q})")


def grid_error(d: int, q: int, n: int, nodes, coarse: int) -> float:
    """Largest |blocks in the chart - oracle Ricci| on an n^d grid, over
    ``nodes`` given as indices of the coarse^d grid (the same physical points)."""
    chart = PeriodicChart((2.0 * np.pi,) * d, (n,) * d)
    x = chart.grid_coords()
    g, Q, a = base_metric(x), fiber_metric(x, q), connection(x, q)
    data = bundle_data_from_fields(chart, g, Q, a, np.zeros((q, d, d)),
                                   spd_inverse(g), spd_inverse(Q))
    metric = total_metric(d, q)
    worst = 0.0
    for coarse_node in nodes:
        node = tuple(i * n // coarse for i in coarse_node)
        at = PointwiseBundleData(**{f.name: getattr(data, f.name) if f.name == "c"
                                    else getattr(data, f.name)[node] for f in fields(data)})
        chart_ricci = blocks_to_chart(ricci_blocks_torus(at), a[node])
        point = np.concatenate([x[node], np.zeros(q)])
        worst = max(worst, float(np.max(np.abs(chart_ricci - ricci(metric, point)))))
    return worst


# (d, q, coarse and fine resolution, nodes of the coarse grid, error bound on
# the fine grid: about 1.2 times the error measured there)
CASES = [
    (2, 1, 32, 64, ((3, 5), (10, 21), (27, 14)), 3.9e-3),
    (2, 2, 32, 64, ((3, 5), (10, 21), (27, 14)), 9.6e-3),
    (3, 1, 16, 32, ((1, 5, 12), (9, 3, 6)), 8.5e-3),
    (3, 2, 16, 32, ((1, 5, 12), (9, 3, 6)), 3.4e-2),
]


@pytest.mark.parametrize("d, q, coarse, fine, nodes, bound", CASES,
                         ids=[f"d{c[0]}q{c[1]}" for c in CASES])
def test_grid_assembly_converges_to_oracle_at_second_order(d, q, coarse, fine, nodes, bound):
    err_coarse = grid_error(d, q, coarse, nodes, coarse)
    err_fine = grid_error(d, q, fine, nodes, coarse)
    assert err_coarse / err_fine >= 3.5
    assert err_fine <= bound
