"""Ricci flow of manifolds with density on periodic charts.

The state is (g, f, N) with N != n an extended real.  The flow is

    dg/dt = -2 (Ric + Hess f - df x df / (N - n))
    df/dt = Delta f - |grad f|^2

integrated in a fixed background gauge by the fixed-step RK4 driver of
``integrate`` (step cap, halving and extinction guard are documented
there).  Each RK stage computes its geometry once (``be_stage``) from raw
arrays.  An accepted state is validated and factored once, and its stage
geometry gives both the next step's k1 and the state's monitors, so a step
costs four geometry passes.  The monitored scalars are the density scalar
curvature barS = g^{bc} barRic_bc and

    tildeS_k = barS + Delta f - (k + 1) |grad f|^2 ,

whose spatial infimum is non-decreasing along the flow for N in (n, inf]
and k >= 0.  ``gradient_bound`` evaluates the closed-form bound on
max |grad f_t|^2 in both the N > n and N < n regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffgeo import base_geometry, hessian_field, spd_factor, spd_inverse
from .errors import BlowupTime, DomainError
from .grids import MetricField, PeriodicChart, ScalarField, grad, require_same_chart
from .integrate import DEFAULT_C_CFL, Accepted, fixed_step_integrate, rk4_halving

DEFAULT_K_VALUES = (0, 1)
START_RESOLUTION = 32
START_EXTENT = 2.0 * math.pi
START_AMPLITUDE = 0.1


@dataclass(frozen=True)
class BEState:
    """Metric, density potential and the dimension parameter N (N != n)."""

    g: MetricField
    f: ScalarField
    N: float
    t: float = 0.0

    def __post_init__(self):
        require_same_chart(self.g, self.f)
        n = self.g.chart.dims
        if self.N == n:
            raise DomainError(f"N must differ from the base dimension n = {n}")
        object.__setattr__(self, "N", float(self.N))

    @property
    def n(self) -> int:
        return self.g.chart.dims

    @property
    def inv_excess(self) -> float:
        """1 / (N - n); exactly zero for N = infinity."""
        return 0.0 if math.isinf(self.N) else 1.0 / (self.N - self.n)


def sine_density_start(N: float, amplitude: float = START_AMPLITUDE,
                       resolution: int = START_RESOLUTION, extent: float = START_EXTENT):
    """The identity metric and the density amplitude * sin(2 pi x / extent) on
    a resolution^2 chart of period extent: the start of ``flow-be`` and of the
    bakry-emery check."""
    chart = PeriodicChart((extent, extent), (resolution, resolution))
    x = chart.grid_coords()[..., 0]
    g = MetricField(chart, np.broadcast_to(np.eye(2), chart.resolution + (2, 2)).copy())
    return BEState(g, ScalarField(chart, amplitude * np.sin(2.0 * np.pi * x / extent)), N)


@dataclass(frozen=True)
class BEMonitors:
    """Pointwise monitor fields and their grid extrema at one time."""

    barS: np.ndarray
    tildeS: dict[int, np.ndarray]
    grad_f_sq: np.ndarray
    min_tildeS: dict[int, float]
    max_grad_f_sq: float


def be_stage(chart: PeriodicChart, g: np.ndarray, f: np.ndarray, inv_excess: float,
             g_inv: np.ndarray) -> tuple:
    """What the right-hand side and the monitors read at the arrays (g, f), with
    g^{-1} from the caller: (Ric + Hess f, df, g^{-1}, Delta f, |grad f|^2, 1 / (N - n))."""
    gamma, ric = base_geometry(chart, g, g_inv)
    df = grad(f, chart)
    hess = hessian_field(chart, f, gamma, df)
    return (ric + hess, df, g_inv, np.einsum("...bc,...bc->...", g_inv, hess),
            np.einsum("...bc,...b,...c->...", g_inv, df, df), inv_excess)


def be_rhs(stage: tuple):
    """(dg, df) right-hand sides on the grid, from ``be_stage``."""
    ric_hess, df, _, lap, grad_sq, inv_excess = stage
    dg = -2.0 * ric_hess
    if inv_excess != 0.0:
        dg = dg + 2.0 * inv_excess * np.einsum("...b,...c->...bc", df, df)
    dg = 0.5 * (dg + np.swapaxes(dg, -1, -2))
    return dg, lap - grad_sq


def monitors(stage: tuple, k_values=DEFAULT_K_VALUES) -> BEMonitors:
    bar_ric, df, g_inv, lap, grad_sq, inv_excess = stage
    if inv_excess != 0.0:
        bar_ric = bar_ric - inv_excess * np.einsum("...b,...c->...bc", df, df)
    barS = np.einsum("...bc,...bc->...", g_inv, bar_ric)
    tilde = {int(k): barS + lap - (k + 1.0) * grad_sq for k in k_values}
    # a copy: the record keeps no array of the stage, which is freed whole
    return BEMonitors(
        barS=barS, tildeS=tilde, grad_f_sq=grad_sq.copy(),
        min_tildeS={k: float(np.min(v)) for k, v in tilde.items()},
        max_grad_f_sq=float(np.max(grad_sq)))


def _accepted(s: BEState, g_inv: np.ndarray, min_eig: float) -> Accepted:
    return Accepted(s, (min_eig,),
                    be_stage(s.g.chart, s.g.values, s.f.values, s.inv_excess, g_inv))


def be_factor(s: BEState) -> Accepted:
    """The state factored once, with its stage geometry: what ``be_step`` takes."""
    return _accepted(s, *spd_factor(s.g.values))


def be_step(cur: Accepted, dt: float) -> Accepted:
    """One RK4 step of the density flow, halved as ``rk4_halving`` does."""
    s = cur.state
    chart, inv_excess = s.g.chart, s.inv_excess
    k1 = be_rhs(cur.take_reuse())

    def rhs(t, y):
        return be_rhs(be_stage(chart, y[0], y[1], inv_excess, spd_inverse(y[0])))

    def accept(t, y):
        g, (g_inv, min_eig) = MetricField.factored(spd_factor, chart, y[0])
        return _accepted(BEState(g, ScalarField(chart, y[1]), s.N, t), g_inv, min_eig)

    return rk4_halving(rhs, s.t, (s.g.values, s.f.values), k1, dt, accept)


@dataclass
class BETrace:
    states: list[BEState]
    monitors: list[BEMonitors]
    stop_reason: str

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])


def be_integrate(s0: BEState, dt: float, t_end: float, k_values=DEFAULT_K_VALUES,
                 c_cfl: float = DEFAULT_C_CFL, record_every: int = 1) -> BETrace:
    """Integrate the density flow with ``integrate.fixed_step_integrate``,
    recording states and their monitors.  The extinction guard watches the
    smallest eigenvalue of g."""
    records, stop_reason = fixed_step_integrate(
        be_step, be_factor, lambda cur: (cur.state, monitors(cur.reuse, k_values)), s0,
        dt, t_end, h_min=min(s0.g.chart.spacing), c_cfl=c_cfl, record_every=record_every)
    states, mons = (list(x) for x in zip(*records))
    return BETrace(states, mons, stop_reason)


def gradient_bound(t: float, k0: float, n: int, N: float) -> float:
    """Closed-form bound on max |grad f_t|^2 given max |grad f_0|^2 <= k0.

    Equals k0 for N in (n, inf]; for N < n it grows as
    (n - N) k0 / ((n - N) - 2 k0 t) and blows up at t = (n - N) / (2 k0).
    """
    if k0 < 0:
        raise DomainError("k0 must be nonnegative")
    if N == n:
        raise DomainError("N must differ from n")
    if math.isinf(N) or N > n:
        return float(k0)
    denom = (n - N) - 2.0 * k0 * t
    if denom <= 0:
        raise BlowupTime(
            f"bound is finite only for t < {(n - N) / (2.0 * k0):g} when N < n")
    return float((n - N) * k0 / denom)
