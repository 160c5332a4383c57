"""Named verification checks, one per acceptance criterion.

Each check is a self-contained deterministic run returning a
:class:`CheckResult`; the CLI ``verify`` command and the acceptance test
module both dispatch through :data:`CHECKS`.  Tolerances are fixed here,
not configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import bakry_emery as be
from . import kahler_einstein as ke
from .bundle import (PointwiseBundleData, StructureConstants, blocks_to_chart,
                     flow_rhs_from_data, lie_group_ricci, ricci_blocks_general,
                     ricci_blocks_torus, warped_product_data)
from .catalog import (berger, heisenberg, heisenberg_c_of_t, sl2r, sol3,
                      su2_invariant_metric, su2_sigma)
from .cli import _geometry_entry, run_flow_be, run_flow_bundle
from .diffgeo import DEFAULT_ORACLE_STEP, CoordinateMetric, spd_inverse
from .diffgeo import ricci as ricci_oracle
from .errors import BundleFlowError
from .grids import MetricField, PeriodicChart, ScalarField
from .svgplot import phase_points, render_phase_portrait
from .traces import read_trace, reduced_flow_trace, write_trace


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # numpy bools are not JSON serializable; reports must stay plain
        self.passed = bool(self.passed)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _rel_drift(series: np.ndarray) -> float:
    ref = series[0]
    return float(np.max(np.abs(series - ref)) / max(abs(ref), 1e-300))


# --- 1 -----------------------------------------------------------------

def check_round_sphere() -> CheckResult:
    """Equal-coefficient 3-sphere flow against its linear closed form."""
    worst = 0.0
    for lam in (1.0, 2.0):
        entry = berger(lam, lam)
        t_ext = lam ** 2 / 4.0
        trace = ke.ke_integrate(entry.ke_state0, entry.ke_params, 0.9 * t_ext)
        u_exact = lam ** 2 / 2.0 - 2.0 * trace.t
        e_exact = lam ** 2 - 4.0 * trace.t
        worst = max(worst,
                    float(np.max(np.abs(trace.u - u_exact))),
                    float(np.max(np.abs(trace.fiber_metric - e_exact))))
    return CheckResult("round-sphere", worst <= 1e-6,
                       f"max |numeric - closed form| = {worst:.3e} (tol 1e-06, "
                       "to 90% of extinction time)")


# --- 2 -----------------------------------------------------------------

def _conservation_cases():
    return [
        ("berger(1,2)", berger(1.0, 2.0), "collapse"),
        ("sl2r(1,1)", sl2r(1.0, 1.0), "horizon"),
        ("sl2r(1,2)", sl2r(1.0, 2.0), "horizon"),
        ("sol3(1,1)", sol3(1.0, 1.0), "horizon"),
        ("sol3(2,1)", sol3(2.0, 1.0), "horizon"),
    ]


def check_psi_conservation() -> CheckResult:
    """Conserved-quantity drift at tolerance 1e-9 over each run's horizon.

    Collapsing runs stop two decades down in u (1e-2 of the initial value):
    past that point the invariant's evaluation from (u, f) in binary64 is
    ill-conditioned (its log-derivative with respect to u grows without
    bound), so deeper drift measures arithmetic, not the integrator.
    """
    details = []
    worst = 0.0
    for label, entry, kind in _conservation_cases():
        if kind == "collapse":
            trace = ke.ke_integrate(entry.ke_state0, entry.ke_params, 10.0,
                                    extinction_ratio=1e-2)
        else:
            trace = ke.ke_integrate(entry.ke_state0, entry.ke_params, 100.0)
        drift = _rel_drift(trace.psi_cleared_series())
        psi_series = trace.psi_series()
        if np.all(np.isfinite(psi_series)):
            drift = max(drift, _rel_drift(psi_series))
        worst = max(worst, drift)
        details.append(f"{label}:{drift:.2e}")
    return CheckResult("psi-conservation", worst <= 1e-6,
                       "relative drift " + " ".join(details) + " (tol 1e-06)")


# --- 3 -----------------------------------------------------------------

def check_implicit_constants() -> CheckResult:
    """Conserved quantity at t = 0 against the closed expressions."""
    errs = []
    for l1, l2 in ((1.0, 2.0), (1.0, 3.0), (2.0, 2.0)):
        entry = berger(l1, l2)
        expected = np.sqrt(l2 ** 2 - l1 ** 2) / (l1 ** 2 * l2)
        errs.append(abs(ke.psi(entry.ke_state0, entry.ke_params) - expected))
    for l1, l2 in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        entry = sl2r(l1, l2)
        expected = np.sqrt(l1 ** 2 + 4.0 * l2 ** 2) / (2.0 * l1 ** 2 * l2)
        errs.append(abs(ke.psi(entry.ke_state0, entry.ke_params) - expected))
    for a, c in ((1.0, 1.0), (2.0, 1.0), (0.5, 2.0)):
        entry = sol3(a, c)
        expected = 1.0 + a * a / c
        errs.append(abs(ke.psi(entry.ke_state0, entry.ke_params) ** 2 - expected))
    worst = max(errs)
    return CheckResult("implicit-constants", worst <= 1e-12,
                       f"max |computed - closed expression| = {worst:.3e} (tol 1e-12)")


# --- 4 -----------------------------------------------------------------

def check_flat_closed_form() -> CheckResult:
    """Ricci-flat-base integrations against the exact solution."""
    worst = 0.0
    details = []
    for n, c in ((1, 1.0), (1, 2.0), (2, 1.0), (3, 1.0)):
        entry = heisenberg(n, c)
        trace = ke.ke_integrate(entry.ke_state0, entry.ke_params, 10.0)
        err = 0.0
        for i, t in enumerate(trace.t):
            exact = entry.closed_form(float(t))
            err = max(err, abs(trace.u[i] - exact.u), abs(trace.f[i] - exact.f))
        c_numeric = 1.0 / np.sqrt(trace.u ** 2 * np.exp(2.0 * trace.f))
        err_c = float(np.max(np.abs(c_numeric - heisenberg_c_of_t(n, c, trace.t))))
        worst = max(worst, err, err_c)
        details.append(f"(n={n},c={c:g}):{max(err, err_c):.2e}")
    return CheckResult("flat-closed-form", worst <= 1e-6,
                       " ".join(details) + " (tol 1e-06 over t in [0, 10])")


# --- 5 -----------------------------------------------------------------

def check_lauret() -> CheckResult:
    """Variable-change equivalence and the conserved quartic combination."""
    worst_traj = 0.0
    worst_inv = 0.0
    cases = [(berger(1.0, 2.0), 10.0, 1e-2), (sol3(1.0, 1.0), 50.0, ke.EXTINCTION_RATIO)]
    for entry, t_end, ext in cases:
        trace = ke.ke_integrate(entry.ke_state0, entry.ke_params, t_end, extinction_ratio=ext)
        a_ke, b_ke = trace.lauret_series()
        l0 = ke.to_lauret(entry.ke_state0, entry.ke_params)
        t_eval = [float(t) for t in trace.t[1:]]
        t_l, a_l, b_l, _ = ke.lauret_integrate(l0, float(trace.t[-1]), t_eval=t_eval)
        # match sample times (the direct run also records its own adaptive steps)
        pos = np.clip(np.searchsorted(t_l, trace.t), 1, len(t_l) - 1)
        left_closer = (np.abs(t_l[pos - 1] - trace.t) < np.abs(t_l[pos] - trace.t))
        pos = pos - left_closer
        matched = np.abs(t_l[pos] - trace.t) <= 1e-9 * (1.0 + np.abs(trace.t))
        if np.mean(matched) < 0.9:
            return CheckResult("lauret", False,
                               f"only {np.mean(matched):.0%} of sample times matched")
        err_a = np.abs(a_l[pos] - a_ke) / (1.0 + np.abs(a_ke))
        err_b = np.abs(b_l[pos] - b_ke) / (1.0 + np.abs(b_ke))
        worst_traj = max(worst_traj, float(np.max(err_a[matched])),
                         float(np.max(err_b[matched])))
        worst_inv = max(worst_inv, _rel_drift(trace.lambda_invariant_series()))
        worst_inv = max(worst_inv, _rel_drift(ke.lambda_invariant(a_l, b_l)))
    ok = worst_traj <= 1e-6 and worst_inv <= 1e-6
    return CheckResult("lauret", ok,
                       f"trajectory mismatch {worst_traj:.2e}, invariant drift "
                       f"{worst_inv:.2e} (tol 1e-06 each)")


# --- 6 -----------------------------------------------------------------

def _oracle_cases():
    cases = []
    for label, entry, point in (
            ("heisenberg(1,1)", heisenberg(1, 1.0), [0.3, -0.2, 0.7]),
            ("heisenberg(2,1)", heisenberg(2, 1.0), [0.3, 0.15, -0.2, 0.4, 0.7]),
            ("sol3(1,1)", sol3(1.0, 1.0), [1.3, 0.4, -0.1])):
        point = np.array(point)
        data, alpha_at = entry.bundle_at(point)
        cases.append((label, entry.total_metric, point,
                      blocks_to_chart(ricci_blocks_torus(data), alpha_at)))

    su2 = StructureConstants.su2()
    for label, q_frame in (("su2-product-round", np.eye(3)),
                           ("su2-product-berger", np.diag([1.0, 1.0, 0.25]))):
        point = np.array([0.55, 0.8, 0.35])
        fiber_chart = su2_invariant_metric(q_frame, right=True, name=label)
        sigma = su2_sigma(point)
        frame_inv = np.linalg.inv(sigma)
        q_at = frame_inv.T @ fiber_chart(point) @ frame_inv
        ric_fiber, _ = lie_group_ricci(su2, q_at)
        expected = np.zeros((5, 5))
        expected[2:, 2:] = sigma.T @ ric_fiber @ sigma

        def total(p, fiber_chart=fiber_chart):
            out = np.zeros((5, 5))
            out[:2, :2] = np.eye(2)
            out[2:, 2:] = fiber_chart(p[2:])
            return out

        cases.append((label, CoordinateMetric(5, total, name=label),
                      np.concatenate([[0.2, -0.4], point]), expected))
    return cases


def check_curvature_oracle() -> CheckResult:
    """Formula blocks against nested finite differences of the total metric,
    with the mesh-halving error ratio confirming second-order convergence.

    The flat-base Heisenberg metrics are low-degree polynomials in the
    coordinates, so the difference oracle reproduces them to roundoff; the
    halving ratio is only meaningful (and required) where the error still has
    a truncation part, i.e. above ROUNDOFF_FLOOR.
    """
    h = DEFAULT_ORACLE_STEP
    ROUNDOFF_FLOOR = 1e-9
    worst_err = 0.0
    ok_ratio = True
    measured_ratios = 0
    details = []
    for label, metric, point, expected in _oracle_cases():
        err_h = float(np.max(np.abs(ricci_oracle(metric, point, step=h) - expected)))
        err_h2 = float(np.max(np.abs(ricci_oracle(metric, point, step=h / 2) - expected)))
        worst_err = max(worst_err, err_h)
        if err_h2 >= ROUNDOFF_FLOOR:
            ratio = err_h / err_h2
            measured_ratios += 1
            ok_ratio = ok_ratio and 3.0 <= ratio <= 5.0
            details.append(f"{label}:{err_h:.1e}/r{ratio:.2f}")
        else:
            ok_ratio = ok_ratio and err_h <= ROUNDOFF_FLOOR
            details.append(f"{label}:{err_h:.1e}/exact")
    ok = worst_err <= 2e-5 and ok_ratio and measured_ratios >= 1
    return CheckResult("curvature-oracle", ok,
                       " ".join(details) + " (err tol 2e-05 at h=1e-3, ratio in [3, 5] "
                       "where truncation-limited)")


# --- 7 -----------------------------------------------------------------

def _random_general_data(rng: np.ndarray, c: StructureConstants, d: int) -> PointwiseBundleData:
    q = c.q

    def spd(k):
        m = rng.normal(size=(k, k))
        return m @ m.T + k * np.eye(k)

    g = spd(d)
    Q = spd(q)
    gamma = rng.normal(size=(d, d, d))
    gamma = 0.5 * (gamma + np.einsum("lcb->lbc", gamma))
    DQ = rng.normal(size=(d, q, q))
    DQ = 0.5 * (DQ + np.einsum("bkj->bjk", DQ))
    F = rng.normal(size=(q, d, d))
    F = F - np.einsum("kcb->kbc", F)
    ddq_sym = rng.normal(size=(d, d, q, q))
    ddq_sym = 0.5 * (ddq_sym + np.einsum("cbjk->bcjk", ddq_sym))
    ddq_sym = 0.5 * (ddq_sym + np.einsum("bckj->bcjk", ddq_sym))
    # frame commutator: (D_b D_c - D_c D_b) Q_jk = -F^m_bc (c_mj^s Q_sk + c_mk^s Q_sj)
    dq_fiber = (np.einsum("mjs,sk->mjk", c.c, Q) + np.einsum("mks,sj->mjk", c.c, Q))
    skew = -0.5 * np.einsum("mbc,mjk->bcjk", F, dq_fiber)
    DDQ = ddq_sym + skew
    ric_b = rng.normal(size=(d, d))
    ric_b = 0.5 * (ric_b + ric_b.T)
    ric_alg, _ = lie_group_ricci(c, Q)
    return PointwiseBundleData(
        g=g, g_inv=np.linalg.inv(g), gamma=gamma, Q=Q, Q_inv=np.linalg.inv(Q),
        DQ=DQ, DDQ=DDQ, F=F, divF=rng.normal(size=(q, d)), c=c,
        ric_base=ric_b, ric_fiber_alg=ric_alg)


def check_symmetry_cancellation() -> CheckResult:
    """Skew part of the raw second-derivative term cancels against the
    trace-vector curvature term for non-abelian, non-unimodular fibers."""
    rng = np.random.default_rng(20240817)
    aff = np.zeros((2, 2, 2))
    aff[0, 1, 1] = 1.0
    aff[1, 0, 1] = -1.0
    worst = 0.0
    raw_skew_min = np.inf
    for c in (StructureConstants(2, aff), StructureConstants.su2()):
        for _ in range(25):
            data = _random_general_data(rng, c, d=3)
            blocks = ricci_blocks_general(data)
            worst = max(worst, blocks.base_asymmetry)
            half_qddq = -0.5 * np.einsum("us,bcus->bc", data.Q_inv, data.DDQ)
            raw = float(np.max(np.abs(half_qddq - half_qddq.T)))
            if not c.is_abelian and np.any(c.trace_vector):
                raw_skew_min = min(raw_skew_min, raw)
    ok = worst <= 1e-10 and raw_skew_min > 1e-3
    return CheckResult("symmetry-cancellation", ok,
                       f"assembled base-block asymmetry {worst:.2e} (tol 1e-10); "
                       f"uncancelled raw term alone reaches {raw_skew_min:.2e}")


# --- 8 -----------------------------------------------------------------

def check_torus_specialization() -> CheckResult:
    """General evaluator with zero structure constants equals the torus one bitwise."""
    rng = np.random.default_rng(777)
    total = 0
    identical = True
    for d, q, count in ((2, 1, 300), (3, 2, 500), (2, 3, 200)):
        c = StructureConstants.abelian(q)
        for _ in range(count):
            data = replace(_random_general_data(rng, c, d=d), ric_fiber_alg=np.zeros((q, q)))
            bg = ricci_blocks_general(data)
            bt = ricci_blocks_torus(data)
            same = (np.array_equal(bg.fiber, bt.fiber)
                    and np.array_equal(bg.mixed, bt.mixed)
                    and np.array_equal(bg.base, bt.base))
            identical = identical and same
            total += 1
    return CheckResult("torus-specialization", identical and total == 1000,
                       f"{total} randomized pointwise inputs, bitwise equal: {identical}")


# --- 9 -----------------------------------------------------------------

def check_pde_ode_consistency() -> CheckResult:
    """Spatially constant circle-bundle data: a default ``flow-bundle`` run versus
    the reduced flow."""
    cfg = {"command": "flow-bundle", "geometry": "heisenberg"}
    records, _ = run_flow_bundle(cfg)
    entry = _geometry_entry(cfg)
    worst = 0.0
    spatial = 0.0
    for s in records:
        exact = entry.closed_form(s.t)
        gv = s.g.values
        qv = s.Q.values[..., 0, 0]
        spatial = max(spatial, float(np.max(gv.max(axis=(0, 1)) - gv.min(axis=(0, 1)))),
                      float(qv.max() - qv.min()))
        worst = max(worst,
                    float(np.max(np.abs(gv[..., 0, 0] - exact.u))),
                    float(np.max(np.abs(gv[..., 1, 1] - exact.u))),
                    float(np.max(np.abs(gv[..., 0, 1]))),
                    float(np.max(np.abs(qv - exact.fiber_metric))))
    ok = worst <= 1e-6 and spatial <= 1e-12
    return CheckResult("pde-ode", ok,
                       f"max |grid - reduced| = {worst:.3e} (tol 1e-06), "
                       f"spatial inhomogeneity {spatial:.1e}")


# --- 10 ----------------------------------------------------------------

def check_bakry_emery() -> CheckResult:
    """Monotone corrected scalars, and the gradient bound in both regimes."""
    msgs = []
    ok = True
    for N in (5.0, np.inf):
        records, _ = run_flow_be({"command": "flow-be", "params": {"N": N}})
        grad0 = records[0].max_grad_f_sq
        mono_violation = 0.0
        grad_excess = 0.0
        for k in records[0].min_tildeS:
            mins = np.array([r.min_tildeS[k] for r in records])
            mono_violation = max(mono_violation, float(np.max(-np.diff(mins), initial=0.0)))
        for r in records:
            grad_excess = max(grad_excess, r.max_grad_f_sq - grad0 * (1.0 + 1e-6))
        ok = ok and mono_violation <= 1e-8 and grad_excess <= 0.0
        msgs.append(f"N={N:g}: worst min-decrease {mono_violation:.1e}, "
                    f"gradient excess {grad_excess:.1e}")
    records, _ = run_flow_be({"command": "flow-be", "params": {"N": 1.0}})
    grad0 = records[0].max_grad_f_sq
    bound_excess = 0.0
    for r in records:
        bound = be.gradient_bound(r.t, grad0, n=2, N=1.0)
        bound_excess = max(bound_excess, r.max_grad_f_sq - bound * (1.0 + 1e-4))
    ok = ok and bound_excess <= 0.0
    msgs.append(f"N=1<n: bound excess {bound_excess:.1e}")
    return CheckResult("bakry-emery", ok, "; ".join(msgs))


# --- 11 ----------------------------------------------------------------

def check_warped_product() -> CheckResult:
    """Density-flow right-hand side equals the reduced torus-bundle one."""
    rng = np.random.default_rng(4242)
    chart = PeriodicChart((2.0 * np.pi, 2.0 * np.pi), (16, 16))
    coords = chart.grid_coords()
    x, y = coords[..., 0], coords[..., 1]
    worst = 0.0
    for q in (1, 2, 3):
        amp = rng.uniform(0.05, 0.15, size=6)
        f_vals = (amp[0] * np.sin(x) + amp[1] * np.cos(y)
                  + amp[2] * np.sin(x + 2 * y))
        g_vals = np.zeros(chart.resolution + (2, 2))
        g_vals[..., 0, 0] = 1.0 + amp[3] * np.sin(y)
        g_vals[..., 1, 1] = 1.0 + amp[4] * np.cos(x)
        g_vals[..., 0, 1] = g_vals[..., 1, 0] = amp[5] * np.sin(x) * np.sin(y) * 0.5
        g = MetricField(chart, g_vals)
        f = ScalarField(chart, f_vals)
        state = be.BEState(g, f, N=2 + q)
        dg_be, df_be = be.be_rhs(be.be_stage(chart, g.values, f.values, state.inv_excess,
                                             spd_inverse(g.values)))
        data = warped_product_data(g, f, q)
        dg_fl, dq_fl, _ = flow_rhs_from_data(data)
        df_fl = -(q / 2.0) * dq_fl[..., 0, 0] / data.Q[..., 0, 0]
        scale_g = float(np.max(np.abs(dg_be))) + 1e-300
        scale_f = float(np.max(np.abs(df_be))) + 1e-300
        worst = max(worst,
                    float(np.max(np.abs(dg_be - dg_fl))) / scale_g,
                    float(np.max(np.abs(df_be - df_fl))) / scale_f)
    return CheckResult("warped-product", worst <= 1e-12,
                       f"max relative difference {worst:.3e} (tol 1e-12, q in 1..3)")


# --- 12 ----------------------------------------------------------------

def check_asymptotic_roundness() -> CheckResult:
    """Anisotropic collapse approaches the round relation e^{-2f} = 2u."""
    entry = berger(1.0, 2.0)
    trace = ke.ke_integrate(entry.ke_state0, entry.ke_params, 10.0)
    below = np.nonzero(trace.u < 1e-3 * entry.ke_state0.u)[0]
    if below.size == 0:
        return CheckResult("asymptotic-roundness", False,
                           "trace never reached u < 1e-3 u0")
    i = int(below[0])
    ratio = float(trace.fiber_metric[i] / trace.u[i])
    ok = 1.98 <= ratio <= 2.02
    return CheckResult("asymptotic-roundness", ok,
                       f"e^{{-2f}}/u = {ratio:.6f} at first u < 1e-3 u0 "
                       "(window [1.98, 2.02])")


# --- 13 ----------------------------------------------------------------

def figure_traces():
    out = []
    for l1, l2 in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.5, 1.0)):
        entry = berger(l1, l2)
        trace = ke.ke_integrate(entry.ke_state0, entry.ke_params, 10.0)
        out.append(reduced_flow_trace(
            trace, meta={"lambda1": format(l1, "g"), "lambda2": format(l2, "g")}))
    return out


def check_figure_reproduction() -> CheckResult:
    """Deterministic well-formed phase portrait with all collapses reaching the origin.

    Runs the plot pipeline end to end twice from scratch — integrate, write
    the CSV traces, read them back, render — and compares the bytes.
    """
    import tempfile
    import xml.etree.ElementTree as ET

    def full_pipeline(workdir):
        paths = []
        for i, trace in enumerate(figure_traces()):
            path = f"{workdir}/trace_{i}.csv"
            write_trace(trace, path)
            paths.append(path)
        loaded = [read_trace(p) for p in paths]
        return render_phase_portrait(loaded), loaded

    with tempfile.TemporaryDirectory() as work1, tempfile.TemporaryDirectory() as work2:
        svg1, traces = full_pipeline(work1)
        svg2, _ = full_pipeline(work2)
    deterministic = svg1 == svg2
    try:
        root = ET.fromstring(svg1)
        well_formed = root.tag.endswith("svg")
        n_polylines = sum(1 for e in root.iter() if e.tag.endswith("polyline"))
    except ET.ParseError:
        well_formed = False
        n_polylines = 0
    endpoints = [np.hypot(*phase_points(t)[-1]) for t in traces]
    near_origin = max(endpoints) <= 1e-2
    ok = deterministic and well_formed and n_polylines == len(traces) and near_origin
    return CheckResult("figure-reproduction", ok,
                       f"deterministic={deterministic} (through CSV round-trip), "
                       f"well-formed={well_formed}, polylines={n_polylines}, "
                       f"max endpoint distance {max(endpoints):.2e} (tol 1e-02)")


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "round-sphere": check_round_sphere,
    "psi-conservation": check_psi_conservation,
    "implicit-constants": check_implicit_constants,
    "flat-closed-form": check_flat_closed_form,
    "lauret": check_lauret,
    "curvature-oracle": check_curvature_oracle,
    "symmetry-cancellation": check_symmetry_cancellation,
    "torus-specialization": check_torus_specialization,
    "pde-ode": check_pde_ode_consistency,
    "bakry-emery": check_bakry_emery,
    "warped-product": check_warped_product,
    "asymptotic-roundness": check_asymptotic_roundness,
    "figure-reproduction": check_figure_reproduction,
}


def run_check(name: str) -> CheckResult:
    try:
        return CHECKS[name]()
    except BundleFlowError as exc:
        return CheckResult(name, False, f"error: {exc}")
