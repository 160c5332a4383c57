"""Mutation probe of the numerical core: does tier-1 notice a one-line fault?

Each mutant below replaces one unique line fragment of a module under
``src/bundleflow`` with a plausible slip (a flipped sign, a dropped factor, a
shifted stencil index, a loosened comparison, a changed default).  For every mutant the probe
copies ``src``, ``tests``, ``perfbench`` and ``pyproject.toml`` into a fresh
temporary directory, applies the mutant there and runs the tier-1 suite on
that copy (``python -m pytest -x -q``), then reports KILLED (the suite
failed) or SURVIVED (it passed).  A survivor is a fault the tests cannot
see (DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978).

Pytest does not collect this file (it is not ``test_*.py``).  Run it from
the checkout root, for every mutant or for the named ones:

    python tests/mutation_probe.py [NAME ...]

It first runs tier-1 on an unmutated copy, which must pass.  The exit
code is 0 when every mutant run was killed, 1 when one was not, and 2 for
an unknown name or a failing unmutated copy.  A mutant whose fragment is
missing from its module, or not unique there, or that changes nothing, is
reported STALE and counts as not killed: update its entry after a refactor
(``test_mutation_probe.py`` checks this in tier-1).  The working tree is
never modified.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

# name -> (module, original fragment, mutated fragment)
MUTANTS = {
    # integrate
    "rk4-midpoint-stage": ("integrate", "k2 = f(shifted(k1, 0.5 * dt))",
                           "k2 = f(shifted(k1, dt))"),
    "rk4-weights": ("integrate", "(a + 2.0 * b + 2.0 * c + d)", "(a + 2.0 * b + c + d)"),
    "halving-factor": ("integrate", "dt *= 0.5", "dt *= 0.25"),
    "cfl-cap-h-squared": ("integrate", "cap = c_cfl * h_min * h_min *", "cap = c_cfl * h_min *"),
    "guard-at-or-below": ("integrate", "crossed = any(m <= g for", "crossed = any(m < g for"),
    "record-cadence": ("integrate", "step_index % record_every == 0",
                       "step_index % record_every == 1"),
    "dp-accept-test": ("integrate", "if err <= 1.0:", "if err <= 10.0:"),
    # integrate: the finiteness gate of a grid step's result
    "finite-gate-dropped": ("integrate", "_require_finite(chart, y_new)", "None"),
    "stage-gate-dropped": ("integrate", "return rhs(_require_finite(chart, s))", "return rhs(s)"),
    "finite-gate-any-node": ("integrate", "if not finite.all():", "if not finite.any():"),
    # diffgeo
    "christoffel-lowered-sign": ("diffgeo", "low = dg_n + np.swapaxes(dg_n, -1, -2) - dg",
                                 "low = dg_n + np.swapaxes(dg_n, -1, -2) + dg"),
    "christoffel-half": ("diffgeo", "return 0.5 * (g_inv @ low", "return 1.0 * (g_inv @ low"),
    "ricci-trace-gradient": ("diffgeo", "- grad(trace, chart)", "+ grad(trace, chart)"),
    "ricci-quadratic-sign": ("diffgeo", "- gamma_t.reshape(chart.resolution + (d, d * d))",
                             "+ gamma_t.reshape(chart.resolution + (d, d * d))"),
    "hessian-christoffel-sign": ("diffgeo", "second_derivs(f, chart, df) - np.einsum",
                                 "second_derivs(f, chart, df) + np.einsum"),
    "spd-bound-loosened": ("diffgeo", "<= (0.5 * CONDITION_CAP) ** 2",
                           "<= (2.0 * CONDITION_CAP) ** 2"),
    # grids
    "deriv-step": ("grids", "/ (2.0 * chart.spacing[axis])", "/ (chart.spacing[axis])"),
    "deriv2-centre": ("grids", "- 2.0 * values + values.take", "- values + values.take"),
    "grad-direction": ("grids", "diff = (v.take(up, 0) - v.take(down, 0))",
                       "diff = (v.take(down, 0) - v.take(up, 0))"),
    "mixed-partial-mirror": ("grids", "out[idx_grid + (wide[i + 1:], a)] = mixed",
                             "out[idx_grid + (wide[i + 1:], a)] = -mixed"),
    "stencil-index": ("grids", "(np.arange(n) - 1) % n", "(np.arange(n) - 2) % n"),
    # grids: the one-node axis rule of the stencils
    "deriv-one-node-zeros": ("grids", "return np.zeros(values.shape)",
                             "return np.ones(values.shape)"),
    "deriv2-one-node-zeros": ("grids", "return ((values - 2.0 * values) + values) / (h * h)",
                              "return np.zeros(values.shape)"),
    "grad-one-node-zeros": ("grids", "return np.zeros(shape)", "return np.ones(shape)"),
    "second-derivs-start": ("grids", "out = np.zeros(chart.resolution",
                            "out = np.ones(chart.resolution"),
    "second-derivs-one-node-centre": ("grids", "centre = (values - 2.0 * values) + values",
                                      "centre = np.zeros(values.shape)"),
    # grids: the constancy test of PeriodicChart.collapsed
    "collapse-node-zero-first-slice": ("grids", "if not (b == b[(0,) * self.dims]).all()",
                                       "if not (b[:1] == b[(0,) * self.dims]).all()"),
    "collapse-value-compare": ("grids", "np.ascontiguousarray(a).view(np.int64)",
                               "np.ascontiguousarray(a)"),
    "collapse-first-two-slices": ("grids", "(b == b.take([0], a)).all()",
                                  "(b.take([1], a) == b.take([0], a)).all()"),
    # bakry_emery
    "density-ricci-factor": ("bakry_emery", "dg = -2.0 * ric_hess", "dg = -1.0 * ric_hess"),
    "density-excess-sign": ("bakry_emery", "dg = dg + 2.0 * inv_excess",
                            "dg = dg - 2.0 * inv_excess"),
    "density-f-equation": ("bakry_emery", "return dg, lap - grad_sq", "return dg, lap + grad_sq"),
    "monitor-k-weight": ("bakry_emery", "(k + 1.0) * grad_sq", "k * grad_sq"),
    # bundle: the first three are the Christoffel corrections of the grid assembly
    "ddq-christoffel-sign": ("bundle", "DDQ = second_derivs(Q, chart, DQ) - gamma_dq",
                             "DDQ = second_derivs(Q, chart, DQ) + gamma_dq"),
    "divf-trace-christoffel-sign": ("bundle", "- (np.swapaxes(F, -1, -2) @ gamma_tr",
                                    "+ (np.swapaxes(F, -1, -2) @ gamma_tr"),
    "divf-christoffel-sign": ("bundle", "- F.reshape(batch + (q, d * d)) @ g_gamma",
                              "+ F.reshape(batch + (q, d * d)) @ g_gamma"),
    "rhs-dq-square-sign": ("bundle", "- 0.5 * _pair_dot(A, np.swapaxes(A, -1, -2))",
                           "+ 0.5 * _pair_dot(A, np.swapaxes(A, -1, -2))"),
    "curvature-antisymmetry": ("bundle", '- np.einsum("...ckb->...kbc", da)',
                               '+ np.einsum("...ckb->...kbc", da)'),
    "fiber-laplacian-sign": ("bundle", "fiber = (-0.5 * lap_q", "fiber = (0.5 * lap_q"),
    # bundle: the accepted state's eigenvalue order, and the state's own agreement check
    "bundle-factor-eig-order": ("bundle", "(min_g, min_q)", "(min_q, min_g)"),
    "bundle-state-fiber-check": ("bundle", "if self.Q.q != self.alpha.q:", "if False:"),
    # cli: defaults of the flow commands, which the pde-ode and bakry-emery checks run too,
    # and a rule of the config table
    "bundle-record-every": ("cli", '"record_every": (5, _COUNT)', '"record_every": (1, _COUNT)'),
    "flow-t-end": ("cli", "T_END = 1.0", "T_END = 0.5"),
    "bundle-default-c": ("cli", '"c": (1.0, _FINITE)', '"c": (2.0, _FINITE)'),
    "checks-non-empty": ("cli", "isinstance(v, list) and len(v) > 0", "isinstance(v, list)"),
    # cli: the curvature command's exit codes around the oracle, and catalog: sol3's domain,
    # which its metric and its bundle data share
    "oracle-rejection-domain-only": ("cli", "except (DomainError, SingularMetric) as exc:",
                                     "except DomainError as exc:"),
    "stencil-point-metric-skipped": ("cli", "spd_inverse(entry.total_metric(point))", "None"),
    "sol3-metric-domain-unchecked": ("catalog", "x = _sol3_x(a, c, float(p[0]))",
                                     "x = float(p[0])"),
    "sol3-point-unchecked": ("catalog", '_representable({"x^2": x * x,', 'dict({"x^2": x * x,'),
}


def applies(text: str, old: str, new: str) -> bool:
    """The fragment occurs exactly once in the module's text, on one line, and
    the mutant changes it; a mutant that does not apply is STALE."""
    return text.count(old) == 1 and "\n" not in old and old != new


def apply(tree: pathlib.Path, module: str, old: str, new: str) -> bool:
    """Replace the fragment in the copy; False when the mutant does not apply."""
    path = tree / "src" / "bundleflow" / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    if not applies(text, old, new):
        return False
    path.write_text(text.replace(old, new), encoding="utf-8")
    return True


def run(name: str | None) -> str:
    """Tier-1 on a copy of the tree with the named mutant (None: unmutated)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        for entry in COPIED:
            source = ROOT / entry
            if source.is_dir():
                shutil.copytree(source, tree / entry,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / entry)
        if name is not None and not apply(tree, *MUTANTS[name]):
            return "STALE"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tree, capture_output=True, text=True,
            env={**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
                 "PYTHONDONTWRITEBYTECODE": "1"})
        return "SURVIVED" if result.returncode == 0 else "KILLED"


def main(names) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        print(f"unknown mutants {unknown}; choose from {sorted(MUTANTS)}")
        return 2
    if run(None) != "SURVIVED":
        print("tier-1 fails on the unmutated copy; fix that first")
        return 2
    outcomes = {}
    for name in names or MUTANTS:
        outcomes[name] = run(name)
        print(f"{outcomes[name]:8s} {name} ({MUTANTS[name][0]})", flush=True)
    alive = [n for n, o in outcomes.items() if o != "KILLED"]
    print(f"{len(outcomes) - len(alive)} of {len(outcomes)} killed; not killed: {alive or 'none'}")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
