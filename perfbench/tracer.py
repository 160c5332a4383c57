"""Instrumentation of bundleflow from outside the package.

Nothing under ``src/`` knows it is being measured.  ``Patcher`` rebinds a
public function at every ``bundleflow`` module that holds it (the defining
module and every module that imported the name), so calls made inside the
package go through the wrapper too, and restores the originals afterwards.

Two instruments use it:

* ``StepClock`` is installed for every run, traced or not.  It takes one
  ``process_time()`` per integrator call, per density-flow step and per
  bundle-flow RHS stage, which is what the end-to-end step times and the
  set-up/solve split need.
* ``Tracer`` is installed only for traced repetitions.  It records a span
  (name, parent, start, end) around every call into the layer functions
  listed in ``LAYER_FUNCTIONS`` plus the field validation of
  ``MetricField``/``QField``/``ScalarField`` (reported as
  ``grids.validate``), and the exact counters the per-layer metrics need.
  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import process_time

LAYER_FUNCTIONS = {
    "grids": ("deriv", "deriv2", "grad", "second_derivs"),
    "diffgeo": ("spd_inverse", "christoffel_field", "ricci_field_with_defect",
                "hessian_field", "ricci_with_defect"),
    "bundle": ("bundle_data_from_fields", "flow_rhs_from_data", "curvature_from_connection",
               "ricci_blocks_torus", "ricci_blocks_general", "lie_group_ricci",
               "bundle_integrate"),
    "bakry_emery": ("be_rhs", "monitors", "be_step", "be_integrate"),
    "integrate": ("adaptive_rk",),
    "kahler_einstein": ("ke_integrate", "lauret_integrate"),
    "traces": ("write_trace", "read_trace"),
    "svgplot": ("render_phase_portrait",),
    "cli": ("main", "load_config"),
}
VALIDATED_CLASSES = ("MetricField", "QField", "ScalarField")
VALIDATE_SPAN = "grids.validate"
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in LAYER_FUNCTIONS.items() for f in fs) + (VALIDATE_SPAN,)

# Spans whose descendants count as work done inside one grid right-hand side.
# The bundle RHS is bundle_data_from_fields followed by flow_rhs_from_data.
RHS_ROOTS = ("bakry_emery.be_rhs", "bundle.bundle_data_from_fields", "bundle.flow_rhs_from_data")
PER_RHS_NAMES = ("diffgeo.spd_inverse", "diffgeo.christoffel_field", "grids.deriv")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bundleflow" or name.startswith("bundleflow."))]


class Patcher:
    """Rebinds module attributes and class methods; ``restore`` undoes every change."""

    def __init__(self):
        self._undo = []

    def rebind(self, module: str, name: str, make_wrapper) -> None:
        home = sys.modules[f"bundleflow.{module}"]
        current = getattr(home, name)
        wrapper = make_wrapper(current)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is current:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


class StepClock:
    """Integrator entry/exit, step starts and RHS-stage starts of one job."""

    def __init__(self):
        self.step_starts: list[float] = []
        self.stage_starts: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.solve_start = None
        self.solve_end = None
        self.step_starts.clear()
        self.stage_starts.clear()
        self.result = None

    def install(self, patcher: Patcher) -> None:
        patcher.rebind("bakry_emery", "be_integrate", self._integrator)
        patcher.rebind("bundle", "bundle_integrate", self._integrator)
        patcher.rebind("bakry_emery", "be_step", self._marker(self.step_starts))
        patcher.rebind("bundle", "bundle_data_from_fields", self._marker(self.stage_starts))

    def _integrator(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.solve_start = process_time()
            try:
                self.result = fn(*args, **kwargs)
                return self.result
            finally:
                self.solve_end = process_time()
        return timed

    @staticmethod
    def _marker(times: list):
        def make(fn):
            @functools.wraps(fn)
            def marked(*args, **kwargs):
                times.append(process_time())
                return fn(*args, **kwargs)
            return marked
        return make

    def step_seconds(self) -> list[float]:
        """Wall time of each step: from one step's start to the next, the last
        one ending when the integrator returns.  A bundle-flow step starts with
        the first of its four RHS stages."""
        starts = self.step_starts or self.stage_starts[::4]
        bounds = starts + [self.solve_end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


class Tracer:
    """In-memory spans with parent links, plus exact counters."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def install(self, patcher: Patcher) -> None:
        import bundleflow.grids as grids

        for module, names in LAYER_FUNCTIONS.items():
            for name in names:
                span = f"{module}.{name}"
                patcher.rebind(module, name, lambda fn, span=span: self._wrap(span, fn))
        for cls_name in VALIDATED_CLASSES:
            cls = getattr(grids, cls_name)
            patcher.replace(cls, "__post_init__", self._wrap(VALIDATE_SPAN, cls.__post_init__))

    def _wrap(self, span: str, fn):
        names, parents, starts, ends, stack = (self.names, self.parents, self.starts,
                                               self.ends, self._stack)
        probe = _PROBES.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(process_time())
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(self.counters, fn, args, kwargs)
            finally:
                ends[idx] = process_time()
                stack.pop()
        return traced

    def spans(self) -> list[dict]:
        return [{"id": i, "name": n, "parent": p, "start": s, "end": e}
                for i, (n, p, s, e) in enumerate(zip(self.names, self.parents,
                                                     self.starts, self.ends))]

    def summary(self) -> dict:
        """Per-span calls/self/total, RHS-relative counts and the exact counters."""
        n = len(self.names)
        child = [0.0] * n
        under_rhs = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
                under_rhs[i] = under_rhs[p] or self.names[p] in RHS_ROOTS
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.total_s"] = 0.0
        in_rhs = Counter()
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += dur
            out[f"{name}.self_s"] += dur - child[i]
            if under_rhs[i]:
                in_rhs[name] += 1
        c = self.counters
        be_rhs = out["bakry_emery.be_rhs.calls"]
        bundle_rhs = out["bundle.flow_rhs_from_data.calls"]
        out["bakry_emery.rhs_evals"] = be_rhs
        out["bakry_emery.halvings"] = be_rhs / 4 - out["bakry_emery.be_step.calls"]
        out["bundle.rhs_evals"] = bundle_rhs
        out["bundle.halvings"] = bundle_rhs / 4 - c["bundle.steps_accepted"]
        for key in ("integrate.steps_accepted", "integrate.steps_rejected",
                    "integrate.rhs_evals", "grids.deriv.bytes_computed",
                    "traces.write_trace.bytes", "svgplot.render_phase_portrait.bytes"):
            out[key] = c[key]
        tried = c["integrate.steps_accepted"] + c["integrate.steps_rejected"]
        out["integrate.accept_ratio"] = c["integrate.steps_accepted"] / tried if tried else 0.0
        rhs = be_rhs + bundle_rhs
        for name in PER_RHS_NAMES:
            out[f"{name}.per_rhs"] = in_rhs[name] / rhs if rhs else 0.0
        return out


# Probes run the wrapped call and record counters from its arguments or result.

def _probe_adaptive_rk(counters, fn, args, kwargs):
    f, rest = args[0], args[1:]

    def counted(t, y):
        counters["integrate.rhs_evals"] += 1
        return f(t, y)

    res = fn(counted, *rest, **kwargs)
    counters["integrate.steps_accepted"] += res.n_steps
    counters["integrate.steps_rejected"] += res.n_rejected
    return res


def _probe_bundle_integrate(counters, fn, args, kwargs):
    states, stop = fn(*args, **kwargs)
    # every bundle job runs with record_every = 1, so states = accepted steps + 1
    counters["bundle.steps_accepted"] += len(states) - 1
    return states, stop


def _probe_deriv(counters, fn, args, kwargs):
    # computed from array sizes: the input array read plus the output written
    counters["grids.deriv.bytes_computed"] += 2 * args[0].nbytes
    return fn(*args, **kwargs)


def _probe_write_trace(counters, fn, args, kwargs):
    out = fn(*args, **kwargs)
    counters["traces.write_trace.bytes"] += os.path.getsize(args[1])
    return out


def _probe_render(counters, fn, args, kwargs):
    svg = fn(*args, **kwargs)
    counters["svgplot.render_phase_portrait.bytes"] += len(svg.encode("utf-8"))
    return svg


_PROBES = {
    "integrate.adaptive_rk": _probe_adaptive_rk,
    "bundle.bundle_integrate": _probe_bundle_integrate,
    "grids.deriv": _probe_deriv,
    "traces.write_trace": _probe_write_trace,
    "svgplot.render_phase_portrait": _probe_render,
}
