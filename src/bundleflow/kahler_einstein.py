"""Reduced Ricci flow of circle bundles over Kahler-Einstein bases.

With base metric u(t) g0, Ric(g0) = lambda g0 in complex dimension n, fiber
metric exp(-2 f(t)) and curvature equal to the Kahler form, the flow reduces
to two ODEs:

    u' = -2 lambda + exp(-2 f) / u
    f' = n exp(-2 f) / (2 u^2)

For lambda = 0 the solution is in closed form.  For lambda != 0 the scalar

    Psi = exp(2 f) (1 - (n + 1) / (2 lambda u exp(2 f)))^(n / (n + 1))

is conserved; its cleared form (the same quantity raised to (n+1)/n, which
is polynomial in the parenthesis and avoids the fractional power's branch
issues) is conserved for every sign of the parenthesis and is the monitor
of record.  The n = 1 case maps onto the homogeneous-space variables
(a, b) = (exp(-f)/u, lambda/u) with their own quadratic system and the
conserved combination b^4/a^4 - b^3/a^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LambdaZero, NegativeBase
from .integrate import DEFAULT_TOL, EXTINCTION_RATIO, adaptive_rk


@dataclass(frozen=True)
class KEParams:
    """Complex dimension of the base and its Einstein constant."""

    n: int
    lam: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"complex dimension must be >= 1, got {self.n}")


@dataclass(frozen=True)
class KEState:
    """Conformal factor u > 0 of the base metric and fiber potential f."""

    u: float
    f: float
    t: float = 0.0

    def __post_init__(self):
        if not self.u > 0:
            raise DomainError(f"u must be positive, got {self.u}")

    @property
    def fiber_metric(self) -> float:
        return float(np.exp(-2.0 * self.f))


@dataclass(frozen=True)
class LauretState:
    """Homogeneous-space variables a = exp(-f)/u >= 0, b = lambda/u."""

    a: float
    b: float
    t: float = 0.0

    def __post_init__(self):
        if self.a < 0:
            raise DomainError(f"a must be >= 0, got {self.a}")


def ke_rhs(u: float, f: float, p: KEParams) -> tuple[float, float]:
    """(du/dt, df/dt) of the reduced flow at u > 0 (not checked here).

    ``np.exp``, not ``math.exp``: the two may differ in the last bit."""
    e = float(np.exp(-2.0 * f))
    return (-2.0 * p.lam + e / u, p.n * e / (2.0 * u * u))


def closed_form_flat(t, p: KEParams, u0: float, C: float) -> KEState:
    """Exact state of the lambda = 0 flow at time t >= 0."""
    if u0 <= 0:
        raise DomainError("u0 must be positive")
    n = p.n
    core = (n + 2.0) * t + np.exp(2.0 * C) * u0 ** 2
    u = np.exp(-2.0 * C / (n + 2.0)) * u0 ** (n / (n + 2.0)) * core ** (1.0 / (n + 2.0))
    f = (n / (2.0 * (n + 2.0)) * np.log(core) + 2.0 * C / (n + 2.0)
         - n / (n + 2.0) * np.log(u0))
    return KEState(float(u), float(f), float(t))


def _psi(u, f, p: KEParams):
    """Psi and its parenthesis 1 - (n + 1) / (2 lambda u exp(2 f)); Psi is NaN
    where the parenthesis is negative."""
    base = 1.0 - (p.n + 1.0) / (2.0 * p.lam * u * np.exp(2.0 * f))
    with np.errstate(invalid="ignore"):
        return np.exp(2.0 * f) * base ** (p.n / (p.n + 1.0)), base


def _psi_cleared(u, f, p: KEParams):
    """Psi^((n+1)/n) cleared of the fractional power, lambda != 0:
    exp(2 f (n+1)/n) - (n+1) exp(2 f / n) / (2 lambda u).  Polynomial in the
    parenthesis of Psi, hence defined and conserved on every lambda != 0
    trajectory, including those where Psi's fractional power has a negative
    base."""
    n = p.n
    return (np.exp(2.0 * f * (n + 1.0) / n)
            - (n + 1.0) * np.exp(2.0 * f / n) / (2.0 * p.lam * u))


def _lauret_ab(u, f, p: KEParams):
    return np.exp(-f) / u, p.lam / u


def psi(s: KEState, p: KEParams) -> float:
    """Conserved quantity of the lambda != 0 flow.

    Raises LambdaZero for a Ricci-flat base (the flat closed form covers it)
    and NegativeBase when the parenthesis is negative, rather than returning
    a silent NaN; the cleared form (``ReducedTrace.psi_cleared_series``)
    covers that regime.
    """
    if p.lam == 0:
        raise LambdaZero("Psi is undefined for lambda = 0")
    value, base = _psi(s.u, s.f, p)
    if base < 0:
        raise NegativeBase(
            f"fractional power base is negative ({base:.6g}); monitor the cleared form")
    return float(value)


def to_lauret(s: KEState, p: KEParams) -> LauretState:
    a, b = _lauret_ab(s.u, s.f, p)
    return LauretState(float(a), float(b), s.t)


def lauret_rhs(a, b) -> tuple[float, float]:
    """a' = (2b - 3a^2/2) a,  b' = (2b - a^2) b."""
    return (2.0 * b - 1.5 * a * a) * a, (2.0 * b - a * a) * b


def lambda_invariant(a, b):
    """Conserved combination b^4/a^4 - b^3/a^2 of the n = 1 system, at a point
    or along arrays of (a, b)."""
    if np.any(np.equal(a, 0)):
        raise DomainError("the invariant requires a > 0")
    return b ** 4 / a ** 4 - b ** 3 / a ** 2


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclass
class ReducedTrace:
    """Accepted-step record of a reduced-flow integration."""

    params: KEParams
    t: np.ndarray
    u: np.ndarray
    f: np.ndarray
    stop_reason: str

    @property
    def fiber_metric(self) -> np.ndarray:
        return np.exp(-2.0 * self.f)

    def psi_series(self) -> np.ndarray:
        """Psi along the trace; NaN where the fractional power base is negative."""
        if self.params.lam == 0:
            return np.full_like(self.t, np.nan)
        return _psi(self.u, self.f, self.params)[0]

    def psi_cleared_series(self) -> np.ndarray:
        if self.params.lam == 0:
            return np.full_like(self.t, np.nan)
        return _psi_cleared(self.u, self.f, self.params)

    def lauret_series(self) -> tuple[np.ndarray, np.ndarray]:
        return _lauret_ab(self.u, self.f, self.params)

    def lambda_invariant_series(self) -> np.ndarray:
        return lambda_invariant(*self.lauret_series())


def ke_integrate(s0: KEState, p: KEParams, t_end: float, tol: float = DEFAULT_TOL,
                 extinction_ratio: float = EXTINCTION_RATIO) -> ReducedTrace:
    """Integrate the reduced flow from s0 with relative tolerance ``tol``.

    Stops at ``t_end`` or, for collapsing trajectories, when u falls to
    ``extinction_ratio`` times its initial value (reason "Extinct").
    """
    u0 = s0.u
    guard = extinction_ratio * u0

    def rhs(t, y):
        u, f = y
        if u <= 0 or u * u == 0:  # u^2 = 0: the df/dt term divides by it
            return math.nan, math.nan
        return ke_rhs(u, f, p)

    def stop(t, y):
        return "Extinct" if y[0] <= guard else None

    res = adaptive_rk(rhs, s0.t, (s0.u, s0.f), t_end, rtol=tol, atol=tol * 1e-3,
                      stop=stop)
    return ReducedTrace(p, res.t, res.y[:, 0], res.y[:, 1], res.stop_reason)


def lauret_integrate(l0: LauretState, t_end: float, tol: float = DEFAULT_TOL, t_eval=None):
    """Integrate the (a, b) system; returns (t, a, b, stop_reason)."""
    res = adaptive_rk(lambda t, y: lauret_rhs(*y), l0.t, (l0.a, l0.b), t_end,
                      rtol=tol, atol=tol * 1e-3, t_eval=t_eval)
    return res.t, res.y[:, 0], res.y[:, 1], res.stop_reason
