"""Periodic charts and discretized tensor fields.

All grid data lives on a rectangular chart with periodic wrap-around in
every axis.  Arrays store the grid axes first and tensor component axes
last, so einsum expressions can use an ellipsis for the grid part.
Derivatives are plain second-order central differences; interpolation is
a periodic cubic B-spline whose coefficients are solved per axis with an
FFT (the interpolation system is circulant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ChartMismatch, DimensionMismatch, DomainError, SingularMetric

MAX_CHART_DIMS = 4
MIN_RESOLUTION = 8


@dataclass(frozen=True)
class PeriodicChart:
    """Rectangular chart with periodic index wrap on every axis.

    extents     per-axis period lengths (> 0)
    resolution  per-axis grid point counts (>= 8)
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
        if any(r < MIN_RESOLUTION for r in res):
            raise DomainError(f"resolution must be >= {MIN_RESOLUTION} per axis")

    @property
    def dims(self) -> int:
        return len(self.extents)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / r for e, r in zip(self.extents, self.resolution))

    def axis_coords(self, axis: int) -> np.ndarray:
        h = self.extents[axis] / self.resolution[axis]
        return self.origin[axis] + h * np.arange(self.resolution[axis])

    def grid_coords(self) -> np.ndarray:
        """Coordinates of all nodes, shape (*resolution, dims)."""
        axes = [self.axis_coords(a) for a in range(self.dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def require_same_chart(*fields) -> PeriodicChart:
    chart = fields[0].chart
    for f in fields[1:]:
        if f.chart != chart:
            raise ChartMismatch("fields live on different charts")
    return chart


def unchecked(cls, **attrs):
    """A field object built without running its validation.

    Integrator stages wrap their trial arrays this way: the state a step
    starts from was validated, the accepted result is validated again, and
    ``spd_inverse`` still rejects a stage metric that lost definiteness.
    """
    obj = object.__new__(cls)
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class ScalarField:
    """Real scalar sampled at the chart nodes."""

    chart: PeriodicChart
    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values)
        if v.shape != self.chart.resolution:
            raise DimensionMismatch(
                f"scalar values shape {v.shape} != resolution {self.chart.resolution}")
        if not np.all(np.isfinite(v)):
            raise DomainError("scalar field contains non-finite values")
        object.__setattr__(self, "values", v)


def _check_spd_grid(values: np.ndarray, what: str) -> np.ndarray:
    """Validate symmetry, enforce it exactly, and check positive definiteness."""
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} contains non-finite values")
    sym = 0.5 * (values + np.swapaxes(values, -1, -2))
    if np.max(np.abs(values - sym)) > 1e-12 * (1.0 + np.max(np.abs(values))):
        raise DomainError(f"{what} is not symmetric")
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"{what} is not positive definite everywhere") from exc
    return sym


@dataclass(frozen=True)
class MetricField:
    """Symmetric positive-definite dims x dims matrix at every node."""

    chart: PeriodicChart
    values: np.ndarray

    def __post_init__(self):
        d = self.chart.dims
        v = np.array(self.values, dtype=float)
        if v.shape != self.chart.resolution + (d, d):
            raise DimensionMismatch(f"metric values shape {v.shape} incompatible with chart")
        object.__setattr__(self, "values", _freeze(_check_spd_grid(v, "metric field")))

    @property
    def dims(self) -> int:
        return self.chart.dims


@dataclass(frozen=True)
class QField:
    """Fiber metric: symmetric positive-definite q x q matrix at every node."""

    chart: PeriodicChart
    q: int
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != self.chart.resolution + (self.q, self.q):
            raise DimensionMismatch(f"fiber metric shape {v.shape} incompatible with chart/q")
        object.__setattr__(self, "values", _freeze(_check_spd_grid(v, "fiber metric")))


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
        v = _freeze(self.values)
        if v.shape != self.chart.resolution + (self.q, d):
            raise DimensionMismatch(f"connection shape {v.shape} incompatible with chart/q")
        if not np.all(np.isfinite(v)):
            raise DomainError("connection field contains non-finite values")
        object.__setattr__(self, "values", v)
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

    def coefficients_at(self, x: np.ndarray) -> np.ndarray:
        """Linear-part coefficients at coordinate point x (periodic part excluded)."""
        if self.linear is None:
            return np.zeros((self.q, self.chart.dims))
        return np.einsum("kbn,n->kb", self.linear, np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# periodic finite differences (grid axes lead, component axes trail)
# ---------------------------------------------------------------------------

def deriv(values: np.ndarray, chart: PeriodicChart, axis: int) -> np.ndarray:
    """Central difference along a chart axis."""
    h = chart.spacing[axis]
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


def deriv2(values: np.ndarray, chart: PeriodicChart, axis: int) -> np.ndarray:
    """Three-point second difference along one chart axis."""
    h = chart.spacing[axis]
    return (np.roll(values, -1, axis=axis) - 2.0 * values + np.roll(values, 1, axis=axis)) / (h * h)


def grad(values: np.ndarray, chart: PeriodicChart) -> np.ndarray:
    """All first derivatives; the new derivative axis sits right after the grid axes."""
    d = chart.dims
    parts = [deriv(values, chart, a) for a in range(d)]
    return np.stack(parts, axis=d)


def second_derivs(values: np.ndarray, chart: PeriodicChart) -> np.ndarray:
    """Matrix of second coordinate derivatives, exactly symmetric by construction.

    Output shape (*grid, dims, dims, *tail): mixed partials are computed once
    for each unordered axis pair and mirrored.
    """
    d = chart.dims
    tail = values.shape[d:]
    out = np.zeros(chart.resolution + (d, d) + tail)
    idx_grid = (slice(None),) * d
    for a in range(d):
        out[idx_grid + (a, a)] = deriv2(values, chart, a)
        for b in range(a + 1, d):
            mixed = deriv(deriv(values, chart, b), chart, a)
            out[idx_grid + (a, b)] = mixed
            out[idx_grid + (b, a)] = mixed
    return out


# ---------------------------------------------------------------------------
# periodic cubic B-spline interpolation
# ---------------------------------------------------------------------------

class PeriodicInterpolator:
    """Tensor-product periodic cubic B-spline interpolant of grid data.

    Coefficients solve the nodal interpolation system exactly (the per-axis
    system is circulant with symbol (4 + 2 cos)/6, solved by FFT), so the
    interpolant reproduces the data at the nodes and is C^2 in between.
    """

    def __init__(self, chart: PeriodicChart, values: np.ndarray):
        self.chart = chart
        d = chart.dims
        if values.shape[:d] != chart.resolution:
            raise DimensionMismatch("values do not match the chart resolution")
        coeff = np.array(values, dtype=float)
        for axis in range(d):
            n = chart.resolution[axis]
            k = np.arange(n)
            symbol = (4.0 + 2.0 * np.cos(2.0 * np.pi * k / n)) / 6.0
            shape = [1] * coeff.ndim
            shape[axis] = n
            coeff = np.fft.ifft(np.fft.fft(coeff, axis=axis) / symbol.reshape(shape),
                                axis=axis).real
        self.coeff = coeff
        self.tail = values.shape[d:]

    @staticmethod
    def _weights(t: np.ndarray) -> list[np.ndarray]:
        t2 = t * t
        t3 = t2 * t
        return [
            (1.0 - 3.0 * t + 3.0 * t2 - t3) / 6.0,
            (4.0 - 6.0 * t2 + 3.0 * t3) / 6.0,
            (1.0 + 3.0 * t + 3.0 * t2 - 3.0 * t3) / 6.0,
            t3 / 6.0,
        ]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.chart.dims
        if pts.shape[-1] != d:
            raise DimensionMismatch(f"points must have {d} coordinates")
        base, weights = [], []
        for axis in range(d):
            n = self.chart.resolution[axis]
            h = self.chart.spacing[axis]
            y = (pts[:, axis] - self.chart.origin[axis]) / h
            i0 = np.floor(y).astype(int)
            weights.append(self._weights(y - i0))
            base.append(i0)
        out = np.zeros((pts.shape[0],) + self.tail)
        for offsets in np.ndindex(*(4,) * d):
            w = np.ones(pts.shape[0])
            idx = []
            for axis, off in enumerate(offsets):
                n = self.chart.resolution[axis]
                w = w * weights[axis][off]
                idx.append(np.mod(base[axis] + off - 1, n))
            gathered = self.coeff[tuple(idx)]
            out += w.reshape((-1,) + (1,) * len(self.tail)) * gathered
        return out if np.asarray(points).ndim > 1 else out[0]
