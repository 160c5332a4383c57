"""Periodic charts and discretized tensor fields.

All grid data lives on a rectangular chart with periodic wrap-around in
every axis.  Arrays store the grid axes first and tensor component axes
last, so einsum expressions can use an ellipsis for the grid part.
Derivatives are plain second-order central differences, gathered through
neighbour index arrays that each chart builds once, except along an axis
with one node, where they gather nothing (``deriv``, ``deriv2``).
Fields check the values they hold where they enter: shape, finiteness and,
for metrics, symmetry.  Whether a metric is positive definite is decided by
``diffgeo.spd_inverse`` alone.  A grid flow checks only its start's fields:
it steps their raw arrays and records the start's fields with its results
as their values (``widened``).
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ChartMismatch, DimensionMismatch, DomainError

MAX_CHART_DIMS = 4
MIN_RESOLUTION = 8


@dataclass(frozen=True)
class PeriodicChart:
    """Rectangular chart with periodic index wrap on every axis.

    extents     per-axis period lengths (> 0)
    resolution  per-axis grid point counts (>= 8, or 1: an axis every field
                is constant along, whose stencils give exactly zero)
    origin      coordinate of grid node (0, ..., 0); purely a labelling of
                nodes with physical coordinates, the wrap is unaffected
    """

    extents: tuple[float, ...]
    resolution: tuple[int, ...]
    origin: tuple[float, ...] = ()

    def __post_init__(self):
        ext = tuple(float(e) for e in self.extents)
        res = tuple(int(r) for r in self.resolution)
        org = tuple(float(o) for o in self.origin) if self.origin else (0.0,) * len(ext)
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "origin", org)
        if not 1 <= len(ext) <= MAX_CHART_DIMS:
            raise DomainError(f"chart dimension must be 1..{MAX_CHART_DIMS}, got {len(ext)}")
        if len(res) != len(ext) or len(org) != len(ext):
            raise DimensionMismatch("extents, resolution and origin must have equal length")
        if any(e <= 0 for e in ext):
            raise DomainError("chart extents must be positive")
        if any(r != 1 and r < MIN_RESOLUTION for r in res):
            raise DomainError(f"resolution must be 1 or >= {MIN_RESOLUTION} per axis")
        if not all(sys.float_info.min <= h * h <= sys.float_info.max for h in self.spacing):
            raise DomainError(f"squared grid spacings {self.spacing} over- or underflow a float")
        if math.prod(res) * 8 * len(res) ** 3 > np.iinfo(np.intp).max:
            # numpy sizes an array by a signed index: no (d, d, d) stage array fits it
            raise MemoryError(f"a {res} chart is too large to allocate")

    @property
    def dims(self) -> int:
        return len(self.extents)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / r for e, r in zip(self.extents, self.resolution))

    @cached_property
    def neighbours(self):
        """Read-only stencil indices, built on first use: per axis the neighbours
        ((i + 1) % n, (i - 1) % n); the flat indices of every node's +1 and -1
        neighbours along each axis, (nodes, dims) each; 2 h per axis, (dims, 1)."""
        axes = tuple(((np.arange(n) + 1) % n, (np.arange(n) - 1) % n) for n in self.resolution)
        nodes = np.arange(np.prod(self.resolution)).reshape(self.resolution)
        flat = tuple(np.stack([nodes.take(ax[k], a).ravel() for a, ax in enumerate(axes)], -1)
                     for k in (0, 1))
        two_h = np.array([[2.0 * h] for h in self.spacing])
        for index in (*sum(axes, ()), *flat, two_h):
            index.setflags(write=False)
        return axes, flat, two_h

    def collapsed(self, *arrays: np.ndarray) -> "PeriodicChart":
        """This chart with one node on each axis along which every array (grid
        axes first) is bitwise constant, at the same spacing and origin; the
        chart itself when there is no such axis.  On a one-node axis the
        stencils give what they give at a node equal to its neighbours,
        (v - v) / 2h = +0.0 and ((v - 2v) + v) / h^2 = 0.0, so a flow whose
        step commutes with shifts bit for bit computes each node's bits there."""
        bits = [np.ascontiguousarray(a).view(np.int64) for a in arrays]
        # an array equal to its node 0 everywhere is constant along every axis
        bits = [b for b in bits if not (b == b[(0,) * self.dims]).all()]
        res = tuple(1 if all((b == b.take([0], a)).all() for b in bits) else n
                    for a, n in enumerate(self.resolution))
        if res == self.resolution:
            return self
        return PeriodicChart(tuple(h if n == 1 else e for e, h, n
                                   in zip(self.extents, self.spacing, res)), res, self.origin)

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.resolution[axis])

    def grid_coords(self) -> np.ndarray:
        """Coordinates of all nodes, shape (*resolution, dims)."""
        axes = [self.axis_coords(a) for a in range(self.dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


def _checked(values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a float array, checked to have ``shape`` and only finite entries."""
    v = np.asarray(values, dtype=float)
    if v.shape != shape:
        raise DimensionMismatch(f"{what} shape {v.shape} incompatible with the chart: {shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{what} contains non-finite values")
    return v


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def widened(field, values: np.ndarray):
    """``field`` with the arrays a flow computed from it on a ``chart.collapsed``
    chart of its own as its values, a read-only broadcast view to its shape.
    Nothing is validated: the flow's harness rejects a non-finite result and
    ``spd_inverse`` decides its metrics."""
    out = copy.copy(field)
    object.__setattr__(out, "values", np.broadcast_to(values, field.values.shape))
    return out


def require_same_chart(*fields) -> PeriodicChart:
    chart = fields[0].chart
    for f in fields[1:]:
        if f.chart != chart:
            raise ChartMismatch("fields live on different charts")
    return chart


@dataclass(frozen=True)
class ScalarField:
    """Real scalar sampled at the chart nodes."""

    chart: PeriodicChart
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(_checked(
            self.values, self.chart.resolution, "scalar field")))


class _SPDGrid:
    """MetricField and QField values: finite and symmetric to 1e-12 at every node,
    stored exactly symmetrized (the one copy made).  Whether they are positive
    definite is ``diffgeo.spd_inverse``'s decision, where a flow factors them."""

    def __post_init__(self):
        v = _checked(self.values, self.chart.resolution + (self._rank,) * 2, self._what)
        sym = v + np.swapaxes(v, -1, -2)
        sym *= 0.5
        if np.max(np.abs(v - sym)) > 1e-12 * (1.0 + np.max(np.abs(v))):
            raise DomainError(f"{self._what} is not symmetric")
        sym.setflags(write=False)
        object.__setattr__(self, "values", sym)


@dataclass(frozen=True)
class MetricField(_SPDGrid):
    """Symmetric dims x dims matrix at every node."""

    chart: PeriodicChart
    values: np.ndarray
    _what = "metric field"
    _rank = property(lambda self: self.chart.dims)


@dataclass(frozen=True)
class QField(_SPDGrid):
    """Fiber metric: symmetric q x q matrix at every node."""

    chart: PeriodicChart
    q: int
    values: np.ndarray
    _what = "fiber metric"
    _rank = property(lambda self: self.q)


@dataclass(frozen=True)
class ConnectionField:
    """Local connection coefficients a^k_beta at every node.

    values[..., k, beta] is the periodic part.  `linear` is an optional
    constant array L[k, beta, nu] adding the non-periodic gauge term
    L[k, beta, nu] * x^nu, needed to represent connections with nonzero
    net curvature flux on a periodic chart (the curvature contribution
    L[k, gamma, beta] - L[k, beta, gamma] is constant and exact).
    """

    chart: PeriodicChart
    q: int
    values: np.ndarray
    linear: Optional[np.ndarray] = None

    def __post_init__(self):
        d = self.chart.dims
        object.__setattr__(self, "values", _freeze(_checked(
            self.values, self.chart.resolution + (self.q, d), "connection field")))
        if self.linear is not None:
            lin = _freeze(self.linear)
            if lin.shape != (self.q, d, d):
                raise DimensionMismatch(f"linear part shape {lin.shape}, want (q, dims, dims)")
            object.__setattr__(self, "linear", lin)

    def curvature_linear_part(self) -> np.ndarray:
        """Constant curvature contribution F^k_bc of the linear gauge term."""
        d = self.chart.dims
        if self.linear is None:
            return np.zeros((self.q, d, d))
        return np.einsum("kcb->kbc", self.linear) - self.linear


# ---------------------------------------------------------------------------
# periodic finite differences (grid axes lead, component axes trail)
# ---------------------------------------------------------------------------

def deriv(values: np.ndarray, chart: PeriodicChart, axis: int) -> np.ndarray:
    """Central difference along a chart axis: (v[i+1] - v[i-1]) / (2 h).  On a
    one-node axis both neighbours are the node: zeros, the v - v of finite v."""
    if chart.resolution[axis] == 1:
        return np.zeros(values.shape)
    up, down = chart.neighbours[0][axis]
    return (values.take(up, axis) - values.take(down, axis)) / (2.0 * chart.spacing[axis])


def deriv2(values: np.ndarray, chart: PeriodicChart, axis: int) -> np.ndarray:
    """Three-point second difference along one chart axis:
    ((v[i+1] - 2 v[i]) + v[i-1]) / (h h), on the array itself on a one-node
    axis (not zero: 2 v can overflow)."""
    h = chart.spacing[axis]
    if chart.resolution[axis] == 1:
        return ((values - 2.0 * values) + values) / (h * h)
    up, down = chart.neighbours[0][axis]
    return (values.take(up, axis) - 2.0 * values + values.take(down, axis)) / (h * h)


def grad(values: np.ndarray, chart: PeriodicChart) -> np.ndarray:
    """All first derivatives; the new derivative axis sits right after the grid
    axes.  Each is ``deriv``'s difference, gathered for every axis at once, or
    zero when every axis has one node."""
    shape = chart.resolution + (chart.dims,) + values.shape[chart.dims:]
    if max(chart.resolution) == 1:
        return np.zeros(shape)
    _, (up, down), two_h = chart.neighbours
    v = values.reshape((-1,) + values.shape[chart.dims:])
    diff = (v.take(up, 0) - v.take(down, 0)).reshape(up.shape + (-1,))
    return (diff / two_h).reshape(shape)


def second_derivs(values: np.ndarray, chart: PeriodicChart, dvalues: np.ndarray) -> np.ndarray:
    """Matrix of second coordinate derivatives, exactly symmetric by construction.

    ``dvalues`` is ``grad(values, chart)``.  Output shape (*grid, dims, dims,
    *tail): the mixed partial d_a d_b for a < b is ``deriv`` along a of
    dvalues[..., b, ...], computed once and mirrored.  It is zero when a or b
    has one node, and every one-node diagonal is ``deriv2``'s of one shared
    (v - 2 v) + v.
    """
    d = chart.dims
    out = np.zeros(chart.resolution + (d, d) + values.shape[d:])
    idx_grid = (slice(None),) * d
    wide = [a for a, n in enumerate(chart.resolution) if n > 1]
    if len(wide) < d:
        centre = (values - 2.0 * values) + values
    for a, h in enumerate(chart.spacing):
        out[idx_grid + (a, a)] = deriv2(values, chart, a) if a in wide else centre / (h * h)
    for i, a in enumerate(wide[:-1]):
        mixed = deriv(dvalues[idx_grid + (wide[i + 1:],)], chart, a)
        out[idx_grid + (a, wide[i + 1:])] = mixed
        out[idx_grid + (wide[i + 1:], a)] = mixed
    return out
