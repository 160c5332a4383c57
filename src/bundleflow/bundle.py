"""Pointwise Ricci curvature of invariant bundle metrics and the torus-bundle flow.

The total-space metric combines a base metric g, a fiber metric Q and a
principal connection with local coefficients a^k_b.  In the adapted frame
(horizontal lifts V_b, left-invariant vertical fields E_i) the Ricci tensor
splits into fiber/mixed/base blocks that are pure algebra in the pointwise
data gathered in ``PointwiseBundleData``.

Conventions: [E_i, E_j] = c_ij^k E_k, [V_b, V_c] = -F^k_bc E_k, and the
fiber metric is right-invariant, so its derivative along the fiber frame is
E_s Q_jk = c_sjk + c_skj with c_ijk = c_ij^m Q_mk.  Arrays may carry leading
batch axes (grid nodes, random samples).  The pointwise block evaluators
write every contraction as an explicit einsum against g_inv / Q_inv; the
grid flow right-hand side factors the same contractions into pairwise
matmuls over flattened index pairs, and the tests hold the two against
each other.

The torus-bundle flow of (g, Q, alpha) on a periodic chart runs on the
grid-flow harness of ``integrate`` (collapsed chart, step cap, halving and
extinction guard are documented there; every Heisenberg start steps one
node).  Each stage computes the base geometry once (``diffgeo.base_geometry``)
from raw arrays; ``_factor`` factors an accepted state's arrays once, and
their g^{-1} and Q^{-1} give the next step's k1 (``_stages``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .diffgeo import base_geometry, hessian_field, spd_factor, spd_inverse
from .errors import DimensionMismatch, DomainError
from .grids import (ConnectionField, MetricField, PeriodicChart, QField, ScalarField, deriv,
                    grad, require_same_chart, second_derivs)
from .integrate import DEFAULT_C_CFL, grid_integrate

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

    # c is read-only, so what is read from it is computed once per instance
    @functools.cached_property
    def is_abelian(self) -> bool:
        return not self.c.any()

    @functools.cached_property
    def trace_vector(self) -> np.ndarray:
        """h_m = c_um^u, read-only; zero exactly for unimodular groups."""
        h = np.einsum("umu->m", self.c)
        h.setflags(write=False)
        return h

    @classmethod
    @functools.cache
    def abelian(cls, q: int) -> "StructureConstants":
        """The zero bracket on R^q, built (and its Jacobi identity checked)
        once per q; instances are frozen and ``c`` is read-only."""
        return cls(q, np.zeros((q, q, q)))

    @classmethod
    def su2(cls) -> "StructureConstants":
        c = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            c[i, j, k] = 1.0
            c[j, i, k] = -1.0
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
        return float(np.abs(self.fiber - np.swapaxes(self.fiber, -1, -2)).max())

    @property
    def base_asymmetry(self) -> float:
        return float(np.abs(self.base - np.swapaxes(self.base, -1, -2)).max())

    def check_symmetry(self) -> "RicciBlocks":
        fiber, base = self.fiber_asymmetry, self.base_asymmetry
        tol = BLOCK_SYMMETRY_TOL * (1.0 + max(float(np.abs(self.fiber).max()),
                                              float(np.abs(self.base).max())))
        if fiber > tol or base > tol:
            raise DomainError(
                f"assembled Ricci blocks are asymmetric beyond {BLOCK_SYMMETRY_TOL:g} "
                f"(fiber {fiber:.3e}, base {base:.3e})")
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

def curvature_from_connection(chart: PeriodicChart, a: np.ndarray,
                              linear_curvature: np.ndarray) -> np.ndarray:
    """F^k_bc = d_b a^k_c - d_c a^k_b of the periodic part a, plus the constant
    part ``ConnectionField.curvature_linear_part`` of the linear gauge term."""
    da = grad(a, chart)                            # (..., b, k, c)
    f = np.einsum("...bkc->...kbc", da) - np.einsum("...ckb->...kbc", da)
    return f + linear_curvature


def bundle_data_from_fields(chart: PeriodicChart, g: np.ndarray, Q: np.ndarray, a: np.ndarray,
                            linear_curvature: np.ndarray, g_inv: np.ndarray,
                            Q_inv: np.ndarray) -> PointwiseBundleData:
    """Pointwise data at every grid node by central differencing (torus fibers),
    from the arrays of g, Q and the connection (periodic part a and linear-gauge
    curvature) and the inverses of g and Q.

    div F^k_c = g^{ln} (d_n F^k_lc - Gamma^t_nl F^k_tc - Gamma^t_nc F^k_lt) is
    contracted as it is formed, so the covariant derivative of F is never stored.
    """
    d, q, batch = chart.dims, Q.shape[-1], chart.resolution
    gamma, ric_base = base_geometry(chart, g, g_inv)
    DQ = grad(Q, chart)
    gamma_dq = (np.swapaxes(gamma.reshape(batch + (d, d * d)), -1, -2)
                @ DQ.reshape(batch + (d, q * q)))           # Gamma^t_bc D_t Q_jk
    DDQ = second_derivs(Q, chart, DQ) - gamma_dq.reshape(batch + (d, d, q, q))
    F = curvature_from_connection(chart, a, linear_curvature)
    # g^{nl} Gamma^t_nl, [t, 1], and g^{ln} Gamma^t_nc, [l, (t, c)]
    gamma_tr = gamma.reshape(batch + (d, d * d)) @ g_inv.reshape(batch + (d * d, 1))
    g_gamma = g_inv @ np.swapaxes(gamma, -3, -2).reshape(batch + (d, d * d))
    divF = (sum(g_inv[..., None, n:n + 1, :] @ deriv(F, chart, n) for n in range(d))[..., 0, :]
            - (np.swapaxes(F, -1, -2) @ gamma_tr[..., None, :, :])[..., 0]
            - F.reshape(batch + (q, d * d)) @ g_gamma.reshape(batch + (d * d, d)))
    return PointwiseBundleData(
        g=g, g_inv=g_inv, gamma=gamma, Q=Q, Q_inv=Q_inv,
        DQ=DQ, DDQ=DDQ, F=F, divF=divF,
        c=StructureConstants.abelian(q),
        ric_base=ric_base, ric_fiber_alg=np.zeros_like(Q))


def warped_product_data(g: MetricField, f: ScalarField, q: int) -> PointwiseBundleData:
    """Data of the flat-connection bundle with Q = exp(-2 f / q) I.

    The Q derivatives are obtained by applying the chain rule exactly to the
    discrete derivatives of f, so the torus formulas on this data reduce
    algebraically (not merely to truncation order) to the density-flow
    right-hand side built from the same stencils.
    """
    chart = require_same_chart(g, f)
    g_inv = spd_inverse(g.values)
    gamma, ric = base_geometry(chart, g.values, g_inv)
    df = grad(f.values, chart)
    hess = hessian_field(chart, f.values, gamma, df)
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
        g=g.values, g_inv=g_inv, gamma=gamma,
        Q=Qv, Q_inv=(1.0 / e)[..., None, None] * eye,
        DQ=DQ, DDQ=DDQ,
        F=np.zeros(shape_grid + (q, d, d)), divF=np.zeros(shape_grid + (q, d)),
        c=StructureConstants.abelian(q),
        ric_base=ric, ric_fiber_alg=np.zeros(shape_grid + (q, q)))


# ---------------------------------------------------------------------------
# torus-bundle flow
# ---------------------------------------------------------------------------

def _pair_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[..., i, j] = sum over p, r of x[..., i, p, r] y[..., j, p, r], as one matmul."""
    return (x.reshape(x.shape[:-2] + (-1,))
            @ np.swapaxes(y.reshape(y.shape[:-2] + (-1,)), -1, -2))


def flow_rhs_from_data(d: PointwiseBundleData):
    """Evolution right-hand sides (dg, dQ, dalpha) of the torus-bundle flow.

    Coded directly from the evolution equations, independently of the block
    evaluators; equality with (-2 base, -2 fiber, -2 Q^{-1} mixed) is a
    consequence asserted in the tests, not wired in here.  The shared operands
    Q^{-1} D_b Q, its trace, F g^{-1} and g^{-1} F g^{-1} are formed once, and
    every term is then a pairwise product over flattened index pairs.
    """
    gi, Qv, Qi = d.g_inv, d.Q, d.Q_inv
    DQ, DDQ, F = d.DQ, d.DDQ, d.F
    n, q = d.dims, d.q
    batch = gi.shape[:-2]
    A = Qi[..., None, :, :] @ DQ                            # (Q^-1 D_b Q)^u_k, [b, u, k]
    trA = sum(A[..., u, u] for u in range(q))               # tr(Q^-1 D_b Q), [b]
    w = (gi @ trA[..., None])[..., 0]                       # g^{mn} tr(Q^-1 D_n Q), [m]
    Fg = F @ gi[..., None, :, :]                            # F^k_bl g^{ln}, [k, b, n]
    G = gi[..., None, :, :] @ Fg                            # g^{ln} F^k_nx g^{xm}, [k, l, m]
    QFg = (Qv @ Fg.reshape(batch + (q, n * n))).reshape(F.shape)   # Q_ki Fg[i], [k, b, n]

    dg = (-2.0 * d.ric_base
          - 0.5 * _pair_dot(A, np.swapaxes(A, -1, -2))
          + (DDQ.reshape(batch + (n * n, q * q)) @ Qi.reshape(batch + (q * q, 1))
             ).reshape(gi.shape)
          + _pair_dot(np.swapaxes(F, -3, -2), np.swapaxes(QFg, -3, -2)))

    dalpha = (d.divF
              + 0.5 * (np.swapaxes(F, -1, -2) @ w[..., None, :, None])[..., 0]
              # F is antisymmetric, so g^{nm} F^l_mc = -Fg[l, c, n]
              - _pair_dot(np.swapaxes(A, -3, -2), np.moveaxis(Fg, -3, -1)))

    A_raised = (gi @ A.reshape(batch + (n, q * q))).reshape(A.shape)   # g^{mn} A_n, [m]
    dQ_dot = ((gi.reshape(batch + (1, n * n)) @ DDQ.reshape(batch + (n * n, q * q))
               ).reshape(Qv.shape)
              - np.swapaxes(DQ, -3, -2).reshape(batch + (q, n * q))
              @ A_raised.reshape(batch + (n * q, q))
              + 0.5 * (w[..., None, :] @ DQ.reshape(batch + (n, q * q))).reshape(Qv.shape)
              - 0.5 * (Qv @ _pair_dot(F, G) @ Qv))
    dg = 0.5 * (dg + np.swapaxes(dg, -1, -2))
    dQ_dot = 0.5 * (dQ_dot + np.swapaxes(dQ_dot, -1, -2))
    return dg, dQ_dot, dalpha


@dataclass(frozen=True)
class BundleState:
    """Base metric g, fiber metric Q and connection alpha on one chart and fiber."""

    g: MetricField
    Q: QField
    alpha: ConnectionField
    t: float

    def __post_init__(self):
        require_same_chart(self.g, self.Q, self.alpha)
        if self.Q.q != self.alpha.q:
            raise DimensionMismatch("fiber dimensions of Q and the connection differ")


@dataclass(frozen=True)
class BundleRecord(BundleState):
    """A recorded state and the smallest eigenvalues of g and Q over the grid."""

    min_eig_g: float
    min_eig_q: float


def _factor(chart: PeriodicChart, y: tuple) -> tuple:
    """The arrays y = (g, Q, a) of an accepted state factored once: their
    smallest eigenvalues, and g^{-1} and Q^{-1} for the next step's k1."""
    (g_inv, min_g), (q_inv, min_q) = spd_factor(y[0]), spd_factor(y[1])
    return (min_g, min_q), (g_inv, q_inv)


def _stages(chart: PeriodicChart, y: tuple, inverses: tuple, linear_curvature: np.ndarray):
    """One RK4 step's stages of the torus-bundle flow from the accepted arrays
    y: k1 from their inverses, and the right-hand side of the later stages,
    whose inverses come from ``spd_inverse``."""
    def rhs(y, *inverses):
        return flow_rhs_from_data(bundle_data_from_fields(chart, *y, linear_curvature, *inverses))

    return rhs(y, *inverses), lambda y: rhs(y, spd_inverse(y[0]), spd_inverse(y[1]))


def bundle_integrate(state0: BundleState, dt: float, t_end: float,
                     record_every: int = 1, c_cfl: float = DEFAULT_C_CFL):
    """Integrate the torus-bundle flow on a periodic chart with
    ``integrate.grid_integrate``.  The extinction guard watches the smallest
    eigenvalues of g and of Q.  Returns (records, stop_reason), each record a
    ``BundleRecord`` on the start's chart, its values read-only broadcast
    views."""
    lin = state0.alpha.curvature_linear_part()
    return grid_integrate(
        (state0.g, state0.Q, state0.alpha), state0.t,
        lambda chart, y, inverses: _stages(chart, y, inverses, lin), _factor,
        lambda t, fields, min_eigs, _: BundleRecord(*fields, t, *min_eigs),
        dt, t_end, c_cfl, record_every)
