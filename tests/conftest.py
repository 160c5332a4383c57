"""Shared fixtures."""

import numpy as np
import pytest

from bundleflow import diffgeo
from bundleflow.bundle import bundle_data_from_fields
from bundleflow.grids import ConnectionField, MetricField, PeriodicChart, QField


@pytest.fixture
def grid_data():
    """``bundle_data_from_fields`` on fields (g, Q, alpha), inverting g and Q afresh."""
    def build(g, q, alpha):
        return bundle_data_from_fields(g.chart, g.values, q.values, alpha.values,
                                       alpha.curvature_linear_part(),
                                       diffgeo.spd_inverse(g.values),
                                       diffgeo.spd_inverse(q.values))
    return build


@pytest.fixture
def sol3_fields():
    """Bundle fields (g, Q, alpha) of sol3(1, 1) sampled at 32^2 on the chart
    x in [1, 2), y in [0, 1), in the gauge (a/x) dy of its total metric.

    The samples are not periodic; only nodal values and stencils at interior
    nodes are meaningful.
    """
    a = c = 1.0
    chart = PeriodicChart((1.0, 1.0), (32, 32), (1.0, 0.0))
    xs = chart.axis_coords(0)
    shape = chart.resolution
    g = np.zeros(shape + (2, 2))
    g[..., 0, 0] = (c / xs ** 2)[:, None]
    g[..., 1, 1] = (c / xs ** 2)[:, None]
    alpha = np.zeros(shape + (1, 2))
    alpha[..., 0, 1] = (a / xs)[:, None]
    return (MetricField(chart, g), QField(chart, 1, np.ones(shape + (1, 1))),
            ConnectionField(chart, 1, alpha))
