"""Catalog of reference geometries: the one module that knows their bundle decomposition.

Each constructor returns a :class:`CatalogEntry` holding the reduced-flow
initial data and, where an explicit coordinate form exists, the
total-space metric used by the finite-difference curvature oracle and the
pointwise bundle data with the gauge of that metric.  Constructors build
no grid fields.

Geometries: anisotropic metrics on the 3-sphere (circle fibers over a round
2-sphere), their hyperbolic counterparts on the universal cover of the
special linear group, Heisenberg groups of any odd dimension over a flat
base, and the solvable Bianchi-III geometry over the hyperbolic plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bundle import PointwiseBundleData, StructureConstants
from .diffgeo import CoordinateMetric
from .errors import DomainError
from .grids import ConnectionField, MetricField, PeriodicChart, QField
from .kahler_einstein import KEParams, KEState, closed_form_flat

BUNDLE_RESOLUTION = 16   # nodes per axis of the Heisenberg bundle fields (4-D charts: 8)


@dataclass(frozen=True)
class CatalogEntry:
    """One reference geometry.

    ``bundle_at(point)`` maps a point of the ``total_metric`` chart to the
    pointwise bundle data at its base point and the gauge ``alpha_at`` (q, d)
    of that chart, so ``blocks_to_chart(ricci_blocks_torus(data), alpha_at)``
    is the Ricci tensor the oracle measures; it raises DomainError off the
    geometry's domain, in which ``sample_point`` lies.  Both are None for
    entries without a closed-form decomposition.
    """

    name: str
    ke_params: KEParams
    ke_state0: KEState
    total_metric: Optional[CoordinateMetric] = None
    bundle_at: Optional[Callable[[np.ndarray], tuple[PointwiseBundleData, np.ndarray]]] = None
    sample_point: Optional[tuple[float, ...]] = None
    closed_form: Optional[Callable[[float], KEState]] = None


# ---------------------------------------------------------------------------
# anisotropic 3-sphere (circle bundle over the round 2-sphere)
# ---------------------------------------------------------------------------

def su2_sigma(p: np.ndarray) -> np.ndarray:
    """Left-invariant coframe components sigma[i, mu] on the Euler chart
    (phi, theta, psi); the dual frame brackets are the cyclic unit structure
    constants of su(2).  Degenerate where sin(theta) = 0."""
    ph, th, ps = p
    return np.array([
        [-np.sin(th) * np.cos(ps), np.sin(ps), 0.0],
        [np.sin(th) * np.sin(ps), np.cos(ps), 0.0],
        [np.cos(th), 0.0, 1.0],
    ])


def su2_tau(p: np.ndarray) -> np.ndarray:
    """Right-invariant coframe components tau[i, mu] on the same chart."""
    ph, th, ps = p
    return np.array([
        [0.0, -np.sin(ph), np.sin(th) * np.cos(ph)],
        [0.0, np.cos(ph), np.sin(th) * np.sin(ph)],
        [1.0, 0.0, np.cos(th)],
    ])


def su2_invariant_metric(q_frame: np.ndarray, right: bool = False,
                         name: str = "su2") -> CoordinateMetric:
    """Coordinate metric of the invariant metric with frame value q_frame:
    left-invariant by default, right-invariant (the bundle fiber case) when
    ``right`` is set."""
    q_frame = np.asarray(q_frame, dtype=float)
    coframe = su2_tau if right else su2_sigma

    def evaluate(p):
        s = coframe(p)
        return s.T @ q_frame @ s

    return CoordinateMetric(3, evaluate, name=name)


def berger_total_metric(lambda1: float, lambda2: float) -> CoordinateMetric:
    """Left-invariant metric with fiber coefficient lambda1^2 and base
    coefficient lambda2^2 in the quaternionic frame (which is twice the
    Euler-chart frame, hence the 1/4)."""
    q = np.diag([lambda2 ** 2, lambda2 ** 2, lambda1 ** 2]) / 4.0
    return su2_invariant_metric(q, name=f"berger({lambda1:g},{lambda2:g})")


def berger(lambda1: float, lambda2: float) -> CatalogEntry:
    """Circle-fibered 3-sphere: base = round 2-sphere with Einstein constant 2,
    u0 = lambda2^2 / 2, e^{-2 f0} = lambda1^2.  For lambda1 > lambda2 the
    fractional-power base of Psi is negative at t = 0, so the cleared form
    is the monitor."""
    if lambda1 <= 0 or lambda2 <= 0:
        raise DomainError("both metric coefficients must be positive")
    return CatalogEntry(
        name="berger", ke_params=KEParams(n=1, lam=2.0),
        ke_state0=KEState(u=lambda2 ** 2 / 2.0, f=-np.log(lambda1)),
        total_metric=berger_total_metric(lambda1, lambda2))


# ---------------------------------------------------------------------------
# anisotropic metrics over the hyperbolic plane (special linear group cover)
# ---------------------------------------------------------------------------

def sl2r(lambda1: float, lambda2: float) -> CatalogEntry:
    """Circle-fibered hyperbolic analogue: Einstein constant -4,
    u0 = lambda2^2, f0 = -log(lambda1).  No total-space metric is recorded,
    so the reduced flow is checked through its conserved quantity only."""
    if lambda1 <= 0 or lambda2 <= 0:
        raise DomainError("both metric coefficients must be positive")
    return CatalogEntry(name="sl2r", ke_params=KEParams(n=1, lam=-4.0),
                        ke_state0=KEState(u=lambda2 ** 2, f=-np.log(lambda1)))


# ---------------------------------------------------------------------------
# Heisenberg groups H_{2n+1} over a flat base
# ---------------------------------------------------------------------------

def heisenberg_total_metric(n: int, c: float) -> CoordinateMetric:
    """Left-invariant metric on coordinates (x_1..x_n, y_1..y_n, z)."""

    def evaluate(p):
        x = p[:n]
        d = 2 * n + 1
        g = np.zeros((d, d))
        g[:n, :n] = np.eye(n)
        g[n:2 * n, n:2 * n] = np.eye(n) + c * c * np.outer(x, x)
        g[n:2 * n, 2 * n] = -c * c * x
        g[2 * n, n:2 * n] = -c * c * x
        g[2 * n, 2 * n] = c * c
        return g

    return CoordinateMetric(2 * n + 1, evaluate, name=f"heisenberg({n},{c:g})")


def heisenberg_bundle_fields(n: int, c: float, resolution: int = BUNDLE_RESOLUTION):
    """Flat Euclidean base fields on [-1, 1)^(2n) with the linear gauge a^1_{y_i} = -x_i."""
    d = 2 * n
    res = min(resolution, 8) if d >= 4 else resolution
    chart = PeriodicChart((2.0,) * d, (res,) * d, (-1.0,) * d)
    shape = chart.resolution
    g = MetricField(chart, np.broadcast_to(np.eye(d), shape + (d, d)).copy())
    q = QField(chart, 1, np.full(shape + (1, 1), c * c))
    linear = np.zeros((1, d, d))
    for i in range(n):
        linear[0, n + i, i] = -1.0
    alpha = ConnectionField(chart, 1, np.zeros(shape + (1, d)), linear)
    return g, q, alpha


def heisenberg_pointwise_data(n: int, c: float) -> PointwiseBundleData:
    """Exact pointwise data of the Heisenberg bundle (constant over the base)."""
    d = 2 * n
    f_curv = np.zeros((1, d, d))
    for i in range(n):
        f_curv[0, i, n + i] = -1.0
        f_curv[0, n + i, i] = 1.0
    eye = np.eye(d)
    return PointwiseBundleData(
        g=eye, g_inv=eye, gamma=np.zeros((d, d, d)),
        Q=np.array([[c * c]]), Q_inv=np.array([[1.0 / (c * c)]]),
        DQ=np.zeros((d, 1, 1)), DDQ=np.zeros((d, d, 1, 1)),
        F=f_curv, divF=np.zeros((1, d)),
        c=StructureConstants.abelian(1),
        ric_base=np.zeros((d, d)), ric_fiber_alg=np.zeros((1, 1)))


def heisenberg(n: int, c: float) -> CatalogEntry:
    """H_{2n+1} over the flat R^{2n}; n is a positive integer (2.0 counts, 2.5 does not)."""
    if not (float(n).is_integer() and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if c <= 0:
        raise DomainError("c must be positive")
    n = int(n)
    params = KEParams(n=n, lam=0.0)
    state0 = KEState(u=1.0, f=-np.log(c))

    def closed(t: float) -> KEState:
        return closed_form_flat(t, params, u0=1.0, C=-np.log(c))

    def bundle_at(point):
        # gauge of heisenberg_total_metric: a^1_{y_i} = -x_i
        x = np.asarray(point, dtype=float)[:n]
        return heisenberg_pointwise_data(n, c), np.concatenate([np.zeros(n), -x])[None, :]

    return CatalogEntry(
        name="heisenberg", ke_params=params, ke_state0=state0,
        total_metric=heisenberg_total_metric(n, c),
        bundle_at=bundle_at,
        sample_point=(0.3,) * n + (-0.2,) * n + (0.5,),
        closed_form=closed)


def heisenberg_c_of_t(n: int, c: float, t) -> np.ndarray:
    """Coefficient c(t) of the comoving frame normalization."""
    return c / np.sqrt(1.0 + (n + 2.0) * c * c * np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# solvable Bianchi-III geometry over the hyperbolic plane
# ---------------------------------------------------------------------------

def sol3_total_metric(a: float, c: float) -> CoordinateMetric:
    """Coordinate form of the group metric on (x, y, z), x > 0."""

    def evaluate(p):
        x = p[0]
        return np.array([
            [c / x ** 2, 0.0, 0.0],
            [0.0, (c + a * a) / x ** 2, a / x],
            [0.0, a / x, 1.0],
        ])

    return CoordinateMetric(3, evaluate, name=f"sol3({a:g},{c:g})")


def sol3_pointwise_data(a: float, c: float, x: float) -> PointwiseBundleData:
    """Exact pointwise data of the Bianchi-III bundle at base point (x, y).

    Base metric (c/x^2) delta: Christoffels of a conformally flat half-plane
    metric, Ricci = -(1/x^2) delta; curvature F^1_xy = -a/x^2 (the exterior
    derivative of the stored gauge (a/x) dy), divergence-free because the
    hyperbolic area form is parallel.  Raises DomainError unless x > 0.
    """
    if not x > 0:
        raise DomainError(f"sol3 lives on x > 0, got x = {x:g}")
    g = (c / x ** 2) * np.eye(2)
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 0] = -1.0 / x
    gamma[0, 1, 1] = 1.0 / x
    gamma[1, 0, 1] = gamma[1, 1, 0] = -1.0 / x
    f_curv = np.zeros((1, 2, 2))
    f_curv[0, 0, 1] = -a / x ** 2
    f_curv[0, 1, 0] = a / x ** 2
    return PointwiseBundleData(
        g=g, g_inv=(x ** 2 / c) * np.eye(2), gamma=gamma,
        Q=np.array([[1.0]]), Q_inv=np.array([[1.0]]),
        DQ=np.zeros((2, 1, 1)), DDQ=np.zeros((2, 2, 1, 1)),
        F=f_curv, divF=np.zeros((1, 2)),
        c=StructureConstants.abelian(1),
        ric_base=-(1.0 / x ** 2) * np.eye(2), ric_fiber_alg=np.zeros((1, 1)))


def sol3(a: float, c: float) -> CatalogEntry:
    """Conserved relation e^{4f} + a e^{2f} / u = 1 + a^2 / c."""
    if a == 0:
        raise DomainError("a = 0 is the direct-product case with a flat connection: "
                          "u = u0 - 2 lambda t in closed form, no reduced flow to run")
    if a < 0 or c <= 0:
        raise DomainError("need a > 0 and c > 0")

    def bundle_at(point):
        # gauge of sol3_total_metric: a^1_y = a / x
        x = float(point[0])
        return sol3_pointwise_data(a, c, x), np.array([[0.0, a / x]])

    return CatalogEntry(
        name="sol3", ke_params=KEParams(n=1, lam=-1.0 / a), ke_state0=KEState(u=c / a, f=0.0),
        total_metric=sol3_total_metric(a, c),
        bundle_at=bundle_at,
        sample_point=(1.3, 0.2, 0.1))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CONSTRUCTORS = {
    "berger": (berger, ("lambda1", "lambda2")),
    "sl2r": (sl2r, ("lambda1", "lambda2")),
    "heisenberg": (heisenberg, ("n", "c")),
    "sol3": (sol3, ("a", "c")),
}


def by_name(name: str, params: dict) -> CatalogEntry:
    """Construct a catalog entry from its CLI name and parameter map."""
    if name not in CONSTRUCTORS:
        raise DomainError(f"unknown geometry '{name}'; choose from {sorted(CONSTRUCTORS)}")
    ctor, keys = CONSTRUCTORS[name]
    missing = [k for k in keys if k not in params]
    if missing:
        raise DomainError(f"geometry '{name}' needs parameters {list(keys)}, missing {missing}")
    return ctor(*(params[k] for k in keys))
