"""Pointwise Ricci curvature of invariant bundle metrics and the torus-bundle flow.

The total-space metric combines a base metric g, a fiber metric Q and a
principal connection with local coefficients a^k_b.  In the adapted frame
(horizontal lifts V_b, left-invariant vertical fields E_i) the Ricci tensor
splits into fiber/mixed/base blocks that are pure algebra in the pointwise
data gathered in ``PointwiseBundleData``.

Conventions: [E_i, E_j] = c_ij^k E_k, [V_b, V_c] = -F^k_bc E_k, and the
fiber metric is right-invariant, so its derivative along the fiber frame is
E_s Q_jk = c_sjk + c_skj with c_ijk = c_ij^m Q_mk.  Arrays may carry leading
batch axes (grid nodes, random samples); every contraction is written with
an explicit einsum against g_inv / Q_inv.

The torus-bundle flow of (g, Q, alpha) on a periodic chart runs on the
fixed-step RK4 driver of ``integrate`` (step cap, halving and extinction
guard are documented there).  Each right-hand-side stage computes the base
geometry once (``diffgeo.base_geometry``) and wraps its trial arrays without
re-validating them; accepted states are validated as fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffgeo import base_geometry, hessian_field, spd_inverse
from .errors import DimensionMismatch, DomainError
from .grids import (ConnectionField, MetricField, QField, ScalarField,
                    grad, require_same_chart, second_derivs, unchecked)
from .integrate import fixed_step_integrate, rk4_halving

BLOCK_SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class StructureConstants:
    """Lie bracket components c_ij^k of the structure group, c[i, j, k]."""

    q: int
    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        c.setflags(write=False)
        if c.shape != (self.q, self.q, self.q):
            raise DimensionMismatch(f"structure constants shape {c.shape}, want {(self.q,) * 3}")
        object.__setattr__(self, "c", c)
        if np.max(np.abs(c + np.einsum("jik->ijk", c))) > 1e-12:
            raise DomainError("structure constants must be antisymmetric in (i, j)")
        jac = (np.einsum("ijm,mkl->ijkl", c, c)
               + np.einsum("jkm,mil->ijkl", c, c)
               + np.einsum("kim,mjl->ijkl", c, c))
        if np.max(np.abs(jac)) > 1e-12:
            raise DomainError("structure constants violate the Jacobi identity")

    @property
    def is_abelian(self) -> bool:
        return not np.any(self.c)

    @property
    def trace_vector(self) -> np.ndarray:
        """h_m = c_um^u; zero exactly for unimodular groups."""
        return np.einsum("umu->m", self.c)

    @classmethod
    def abelian(cls, q: int) -> "StructureConstants":
        return cls(q, np.zeros((q, q, q)))

    @classmethod
    def su2(cls, scale: float = 1.0) -> "StructureConstants":
        c = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            c[i, j, k] = scale
            c[j, i, k] = -scale
        return cls(3, c)


def lie_group_ricci(c: StructureConstants, Q: np.ndarray):
    """Ricci tensor of the right-invariant fiber metric in the left-invariant frame.

    Built from the Koszul formula with the right-invariance rule
    E_s Q_jk = c_sjk + c_skj, so both the connection coefficients and their
    fiber derivatives are functions of (c, Q) alone.  Returns
    (Ric, Gamma) with Gamma[i, j, k] the E_k component of the covariant
    derivative of E_j along E_i.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape[-2:] != (c.q, c.q):
        raise DimensionMismatch(f"fiber metric shape {Q.shape} incompatible with q={c.q}")
    Qi = spd_inverse(Q)
    cl = np.einsum("ijm,...mk->...ijk", c.c, Q)
    T = cl + np.einsum("...ilj->...ijl", cl) + np.einsum("...jli->...ijl", cl)
    gamma = 0.5 * np.einsum("...kl,...ijl->...ijk", Qi, T)
    dQ = cl + np.einsum("...ikj->...ijk", cl)
    dQi = -np.einsum("...jm,...smn,...nk->...sjk", Qi, dQ, Qi)
    dcl = np.einsum("ijm,...smk->...sijk", c.c, dQ)
    dT = dcl + np.einsum("...silj->...sijl", dcl) + np.einsum("...sjli->...sijl", dcl)
    dgamma = 0.5 * (np.einsum("...skl,...ijl->...sijk", dQi, T)
                    + np.einsum("...kl,...sijl->...sijk", Qi, dT))
    ric = (np.einsum("...ijki->...jk", dgamma)
           - np.einsum("...jiki->...jk", dgamma)
           + np.einsum("...jkm,...imi->...jk", gamma, gamma)
           - np.einsum("...ikm,...jmi->...jk", gamma, gamma)
           - np.einsum("ijm,...mki->...jk", c.c, gamma))
    return ric, gamma


@dataclass(frozen=True)
class PointwiseBundleData:
    """Everything the curvature blocks consume at one point (or a batch of points).

    g, g_inv        base metric and inverse, (..., d, d)
    gamma           base Christoffels, (..., d, d, d), [l, b, c] = Gamma^l_bc
    Q, Q_inv        fiber metric and inverse, (..., q, q)
    DQ              D_b Q_jk, (..., d, q, q)
    DDQ             covariant second derivatives, (..., d, d, q, q); stored raw,
                    the (b, c) skew part is the frame commutator, never symmetrized
    F               curvature F^k_bc, (..., q, d, d), antisymmetric in (b, c)
    divF            del^l F^k_{l c}, (..., q, d)
    c               structure constants of the fiber group
    ric_base        Ricci of the base metric, (..., d, d)
    ric_fiber_alg   Ricci of the fiber metric from (c, Q); zero for torus fibers
    """

    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray
    Q: np.ndarray
    Q_inv: np.ndarray
    DQ: np.ndarray
    DDQ: np.ndarray
    F: np.ndarray
    divF: np.ndarray
    c: StructureConstants
    ric_base: np.ndarray
    ric_fiber_alg: np.ndarray

    @property
    def dims(self) -> int:
        return self.g.shape[-1]

    @property
    def q(self) -> int:
        return self.Q.shape[-1]


@dataclass(frozen=True)
class RicciBlocks:
    """Fiber, mixed and base blocks of the total-space Ricci tensor."""

    fiber: np.ndarray   # (..., q, q)
    mixed: np.ndarray   # (..., q, d)
    base: np.ndarray    # (..., d, d)

    @property
    def fiber_asymmetry(self) -> float:
        return float(np.max(np.abs(self.fiber - np.swapaxes(self.fiber, -1, -2))))

    @property
    def base_asymmetry(self) -> float:
        return float(np.max(np.abs(self.base - np.swapaxes(self.base, -1, -2))))

    def check_symmetry(self, tol: float = BLOCK_SYMMETRY_TOL) -> "RicciBlocks":
        scale = 1.0 + max(float(np.max(np.abs(self.fiber))), float(np.max(np.abs(self.base))))
        if self.fiber_asymmetry > tol * scale or self.base_asymmetry > tol * scale:
            raise DomainError(
                f"assembled Ricci blocks are asymmetric beyond {tol:g} "
                f"(fiber {self.fiber_asymmetry:.3e}, base {self.base_asymmetry:.3e})")
        return self


def _torus_block_terms(d: PointwiseBundleData):
    """The structure-constant-free parts shared by the torus and general evaluators."""
    gi, Qv, Qi = d.g_inv, d.Q, d.Q_inv
    DQ, DDQ, F = d.DQ, d.DDQ, d.F

    lap_q = np.einsum("...ln,...lnjk->...jk", gi, DDQ)
    fiber = (-0.5 * lap_q
             + 0.5 * np.einsum("...su,...ln,...njs,...lku->...jk", Qi, gi, DQ, DQ)
             - 0.25 * np.einsum("...su,...ln,...nsu,...ljk->...jk", Qi, gi, DQ, DQ)
             + 0.25 * np.einsum("...ln,...tx,...js,...ku,...slt,...unx->...jk",
                                gi, gi, Qv, Qv, F, F))

    mixed = (0.5 * np.einsum("...ln,...njs,...scl->...jc", gi, DQ, F)
             - 0.5 * np.einsum("...js,...sc->...jc", Qv, d.divF)
             + 0.25 * np.einsum("...jl,...um,...tn,...lcn,...tum->...jc",
                                Qv, Qi, gi, F, DQ))

    dq_inv = -np.einsum("...um,...sn,...bmn->...bus", Qi, Qi, DQ)
    base = (d.ric_base
            - 0.5 * np.einsum("...ln,...su,...sbl,...ucn->...bc", gi, Qv, F, F)
            - 0.25 * np.einsum("...bus,...cus->...bc", dq_inv, DQ)
            - 0.5 * np.einsum("...us,...bcus->...bc", Qi, DDQ))
    return fiber, mixed, base


def ricci_blocks_torus(d: PointwiseBundleData) -> RicciBlocks:
    """Ricci blocks for torus structure groups (c = 0)."""
    if not d.c.is_abelian:
        raise DomainError("torus evaluator requires vanishing structure constants")
    if np.any(d.ric_fiber_alg):
        raise DomainError("torus evaluator requires ric_fiber_alg = 0")
    fiber, mixed, base = _torus_block_terms(d)
    return RicciBlocks(fiber, mixed, base).check_symmetry()


def ricci_blocks_general(d: PointwiseBundleData) -> RicciBlocks:
    """Ricci blocks for a general structure group.

    The abelian core is shared with the torus evaluator; the extra terms are
    the fiber-algebra Ricci, the structure-constant mixed terms, and the
    h_s F^s_bc base term whose skew part cancels the commutator skew part of
    the raw DDQ.
    """
    fiber, mixed, base = _torus_block_terms(d)
    if not d.c.is_abelian:
        c, Qi, DQ = d.c.c, d.Q_inv, d.DQ
        h = d.c.trace_vector
        fiber = fiber + d.ric_fiber_alg
        mixed = mixed + (0.5 * np.einsum("...si,ijm,...csm->...jc", Qi, c, DQ)
                         - 0.5 * np.einsum("...sm,m,...cjs->...jc", Qi, h, DQ))
        base = base + 0.5 * np.einsum("s,...sbc->...bc", h, d.F)
    return RicciBlocks(fiber, mixed, base).check_symmetry()


def blocks_to_chart(blocks: RicciBlocks, alpha_at: np.ndarray) -> np.ndarray:
    """Ricci blocks re-expressed in bundle coordinates at one point.

    The coordinate frame relates to the adapted frame by
    d/dx^b = V_b + a^k_b E_k and d/dtheta^k = E_k (torus fibers on the
    chosen section), so the chart components mix the blocks through the
    connection coefficients alpha_at[k, b].
    """
    fiber, mixed, base = blocks.fiber, blocks.mixed, blocks.base
    q, d = alpha_at.shape
    out = np.zeros((d + q, d + q))
    out[:d, :d] = (base
                   + np.einsum("kb,kc->bc", alpha_at, mixed)
                   + np.einsum("lc,lb->bc", alpha_at, mixed)
                   + np.einsum("kb,lc,kl->bc", alpha_at, alpha_at, fiber))
    cross = mixed + np.einsum("lb,lk->kb", alpha_at, fiber)
    out[d:, :d] = cross
    out[:d, d:] = cross.T
    out[d:, d:] = fiber
    return out


# ---------------------------------------------------------------------------
# grid assembly of pointwise data
# ---------------------------------------------------------------------------

def curvature_from_connection(alpha: ConnectionField) -> np.ndarray:
    """F^k_bc = d_b a^k_c - d_c a^k_b plus the constant linear-gauge part."""
    da = grad(alpha.values, alpha.chart)          # (..., b, k, c)
    f = np.einsum("...bkc->...kbc", da) - np.einsum("...ckb->...kbc", da)
    return f + alpha.curvature_linear_part()


def bundle_data_from_fields(g: MetricField, Q: QField,
                            alpha: ConnectionField) -> PointwiseBundleData:
    """Pointwise data at every grid node by central differencing (torus fibers)."""
    chart = require_same_chart(g, Q, alpha)
    if Q.q != alpha.q:
        raise DimensionMismatch("fiber dimensions of Q and the connection differ")
    geo = base_geometry(g)
    g_inv, gamma = geo.g_inv, geo.gamma
    DQ = grad(Q.values, chart)
    DDQ = second_derivs(Q.values, chart) - np.einsum("...tbc,...tjk->...bcjk", gamma, DQ)
    F = curvature_from_connection(alpha)
    dF = grad(F, chart)                            # (..., n, k, l, c)
    covF = (dF - np.einsum("...tnl,...ktc->...nklc", gamma, F)
               - np.einsum("...tnc,...klt->...nklc", gamma, F))
    divF = np.einsum("...ln,...nklc->...kc", g_inv, covF)
    return PointwiseBundleData(
        g=g.values, g_inv=g_inv, gamma=gamma,
        Q=Q.values, Q_inv=spd_inverse(Q.values),
        DQ=DQ, DDQ=DDQ, F=F, divF=divF,
        c=StructureConstants.abelian(Q.q),
        ric_base=geo.ric, ric_fiber_alg=np.zeros_like(Q.values))


def warped_product_data(g: MetricField, f: ScalarField, q: int) -> PointwiseBundleData:
    """Data of the flat-connection bundle with Q = exp(-2 f / q) I.

    The Q derivatives are obtained by applying the chain rule exactly to the
    discrete derivatives of f, so the torus formulas on this data reduce
    algebraically (not merely to truncation order) to the density-flow
    right-hand side built from the same stencils.
    """
    chart = require_same_chart(g, f)
    geo = base_geometry(g)
    df = grad(f.values, chart)
    hess = hessian_field(f, g, geo)
    e = np.exp(-2.0 * f.values / q)
    eye = np.eye(q)
    shape_grid = f.values.shape
    Qv = e[..., None, None] * eye
    DQ = (-2.0 / q) * e[..., None] * df
    DQ = DQ[..., None, None] * eye
    ddfac = (4.0 / q ** 2) * np.einsum("...b,...c->...bc", df, df) - (2.0 / q) * hess
    DDQ = (e[..., None, None] * ddfac)[..., None, None] * eye
    d = chart.dims
    return PointwiseBundleData(
        g=g.values, g_inv=geo.g_inv, gamma=geo.gamma,
        Q=Qv, Q_inv=(1.0 / e)[..., None, None] * eye,
        DQ=DQ, DDQ=DDQ,
        F=np.zeros(shape_grid + (q, d, d)), divF=np.zeros(shape_grid + (q, d)),
        c=StructureConstants.abelian(q),
        ric_base=geo.ric, ric_fiber_alg=np.zeros(shape_grid + (q, q)))


# ---------------------------------------------------------------------------
# torus-bundle flow
# ---------------------------------------------------------------------------

def flow_rhs_from_data(d: PointwiseBundleData):
    """Evolution right-hand sides (dg, dQ, dalpha) of the torus-bundle flow.

    Coded directly from the evolution equations, independently of the block
    evaluators; equality with (-2 base, -2 fiber, -2 Q^{-1} mixed) is a
    consequence asserted in the tests, not wired in here.
    """
    gi, Qv, Qi = d.g_inv, d.Q, d.Q_inv
    DQ, DDQ, F = d.DQ, d.DDQ, d.F
    dq_inv = -np.einsum("...um,...sn,...bmn->...bus", Qi, Qi, DQ)

    dg = (-2.0 * d.ric_base
          + 0.5 * np.einsum("...bks,...cks->...bc", dq_inv, DQ)
          + np.einsum("...ks,...bcks->...bc", Qi, DDQ)
          + np.einsum("...ln,...iu,...ubl,...icn->...bc", gi, Qv, F, F))

    dalpha = (d.divF
              + 0.5 * np.einsum("...mn,...imc,...su,...nsu->...ic", gi, F, Qi, DQ)
              + np.einsum("...mn,...lmc,...is,...nls->...ic", gi, F, Qi, DQ))

    dQ_dot = (np.einsum("...ln,...lnjk->...jk", gi, DDQ)
              - np.einsum("...su,...mn,...msj,...nuk->...jk", Qi, gi, DQ, DQ)
              + 0.5 * np.einsum("...su,...mn,...msu,...njk->...jk", Qi, gi, DQ, DQ)
              - 0.5 * np.einsum("...ln,...mx,...sj,...uk,...slm,...unx->...jk",
                                gi, gi, Qv, Qv, F, F))
    dg = 0.5 * (dg + np.swapaxes(dg, -1, -2))
    dQ_dot = 0.5 * (dQ_dot + np.swapaxes(dQ_dot, -1, -2))
    return dg, dQ_dot, dalpha


def flow_rhs_torus(g: MetricField, Q: QField, alpha: ConnectionField):
    """Grid right-hand sides for (g, Q, alpha); dalpha applies to the periodic part."""
    return flow_rhs_from_data(bundle_data_from_fields(g, Q, alpha))


@dataclass(frozen=True)
class BundleState:
    g: MetricField
    Q: QField
    alpha: ConnectionField
    t: float


def _bundle_step(s: BundleState, dt: float, max_halvings: int) -> BundleState:
    """One RK4 step of the torus-bundle flow, halved while g or Q loses definiteness."""
    chart, q, q_a, linear = s.g.chart, s.Q.q, s.alpha.q, s.alpha.linear

    def rhs(t, y):
        return flow_rhs_torus(unchecked(MetricField, chart=chart, values=y[0]),
                              unchecked(QField, chart=chart, q=q, values=y[1]),
                              unchecked(ConnectionField, chart=chart, q=q_a,
                                        values=y[2], linear=linear))

    def accept(t, y):
        return BundleState(MetricField(chart, y[0]), QField(chart, q, y[1]),
                           ConnectionField(chart, q_a, y[2], linear), t)

    return rk4_halving(rhs, s.t, (s.g.values, s.Q.values, s.alpha.values), dt, accept,
                       max_halvings)


def bundle_integrate(state0: BundleState, dt: float, t_end: float,
                     record_every: int = 1, c_cfl: float = 0.2,
                     extinction_ratio: float = 1e-6, max_halvings: int = 20):
    """Integrate the torus-bundle flow on a periodic chart with
    ``integrate.fixed_step_integrate``.  The extinction guard watches the
    smallest eigenvalues of g and of Q.  Returns (states, stop_reason).
    """
    chart = require_same_chart(state0.g, state0.Q, state0.alpha)
    return fixed_step_integrate(
        _bundle_step, state0, lambda s: (s.g.values, s.Q.values), dt, t_end,
        h_min=min(chart.spacing), c_cfl=c_cfl, record_every=record_every,
        extinction_ratio=extinction_ratio, max_halvings=max_halvings)
