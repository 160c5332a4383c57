"""SHA-256 pins of the grid flows on seeded non-uniform fields.

The golden outputs pin bundle-flow bytes only on spatially constant data,
where every Christoffel symbol, derivative of Q and divergence of F is
zero.  These pins hold the exact float64 bits of the grid right-hand sides
(density flow at N = 5, inf and 1; bundle flow for base dimension d = 2, 3,
4 and fiber dimension q = 1, 2), of three-step runs of both integrators,
and of two halving runs (a density run at dt 2.5 that ends in
``StepRejected``, whose message is pinned too, and a bundle run at dt 5),
all on seeded non-uniform fields over 8^d charts.

Like ``test_golden.py`` they characterize the code as it stood.  The bits
depend on the floating-point library, so ``field_pins.json`` records the
numpy version and BLAS build that produced it.  A change that moves a pin
on purpose rewrites the file (``python tests/test_field_pins.py``) and
names each moved pin in CHANGES.md with the reason.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bundleflow import bakry_emery as be
from bundleflow.bundle import (BundleState, bundle_data_from_fields, bundle_integrate,
                              flow_rhs_from_data)
from bundleflow.diffgeo import spd_inverse
from bundleflow.errors import StepRejected
from bundleflow.grids import ConnectionField, MetricField, PeriodicChart, QField, ScalarField
from test_golden import library_build

PIN_FILE = Path(__file__).with_name("field_pins.json")
BUNDLE_SHAPES = [(d, q) for d in (2, 3, 4) for q in (1, 2)]


def digest(*arrays) -> str:
    """SHA-256 of the shapes and little-endian float64 bytes of the arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def smooth(rng, chart: PeriodicChart, amp: float) -> np.ndarray:
    """A periodic scalar on the chart: three low Fourier modes of seeded phase."""
    x = chart.grid_coords()
    out = np.zeros(chart.resolution)
    for _ in range(3):
        wave = rng.integers(-1, 2, size=chart.dims)
        out += rng.uniform(0.5, 1.0) * amp * np.sin(x @ wave + rng.uniform(0.0, 2.0 * np.pi))
    return out


def spd_array(rng, chart: PeriodicChart, k: int, amp: float = 0.05) -> np.ndarray:
    """Identity plus a smooth symmetric perturbation at every node, (..., k, k)."""
    g = np.broadcast_to(np.eye(k), chart.resolution + (k, k)).copy()
    for i in range(k):
        for j in range(i, k):
            bump = smooth(rng, chart, amp)
            g[..., i, j] += bump
            if i != j:
                g[..., j, i] += bump
    return g


def density_fields(seed: int, amp: float = 0.1):
    rng = np.random.default_rng(seed)
    chart = PeriodicChart((2.0 * np.pi,) * 2, (8, 8))
    return chart, spd_array(rng, chart, 2), smooth(rng, chart, amp)


def bundle_fields(d: int, q: int, seed: int):
    """(g, Q, alpha) on 8^d with a periodic connection part and a constant
    linear-gauge curvature."""
    rng = np.random.default_rng(seed)
    chart = PeriodicChart((2.0 * np.pi,) * d, (8,) * d)
    g = spd_array(rng, chart, d)
    Q = spd_array(rng, chart, q)
    a = np.stack([np.stack([smooth(rng, chart, 0.1) for _ in range(d)], -1)
                  for _ in range(q)], -2)
    linear = 0.2 * rng.normal(size=(q, d, d))
    return (MetricField(chart, g), QField(chart, q, Q), ConnectionField(chart, q, a, linear))


def density_rhs(N: float) -> str:
    chart, g, f = density_fields(11)
    state = be.BEState(MetricField(chart, g), ScalarField(chart, f), N)
    return digest(*be.be_rhs(be.be_stage(chart, state.g.values, state.f.values,
                                         state.inv_excess, spd_inverse(state.g.values))))


def bundle_rhs(d: int, q: int) -> str:
    g, Q, alpha = bundle_fields(d, q, 100 * d + q)
    data = bundle_data_from_fields(g.chart, g.values, Q.values, alpha.values,
                                   alpha.curvature_linear_part(),
                                   spd_inverse(g.values), spd_inverse(Q.values))
    return digest(*flow_rhs_from_data(data))


def density_states(trace) -> list:
    out = []
    for s, m in zip(trace.states, trace.monitors):
        out += [[s.t], s.g.values, s.f.values, m.barS, m.grad_f_sq,
                *(m.tildeS[k] for k in sorted(m.tildeS))]
    return out


def bundle_states(records) -> list:
    out = []
    for r in records:
        out += [[r.t, r.min_eig_g, r.min_eig_q], r.g.values, r.Q.values, r.alpha.values]
    return out


def density_run() -> str:
    chart, g, f = density_fields(12)
    trace = be.be_integrate(be.BEState(MetricField(chart, g), ScalarField(chart, f), 5.0),
                            dt=0.01, t_end=0.03)
    assert len(trace.states) == 4
    return digest(*density_states(trace))


def bundle_run() -> str:
    records, stop = bundle_integrate(BundleState(*bundle_fields(2, 2, 13), 0.0),
                                     dt=0.01, t_end=0.03)
    assert len(records) == 4 and stop == "Horizon"
    return digest(*bundle_states(records))


def density_halving(monkeypatch) -> str:
    """dt 2.5 with no step cap: the steps halve until one is rejected
    outright; pins every accepted state and the message."""
    accepted = []
    step = be.be_step

    def watched(cur, dt):
        nxt = step(cur, dt)
        accepted.append(nxt.state)
        return nxt

    monkeypatch.setattr(be, "be_step", watched)
    chart, g, f = density_fields(14, amp=0.5)
    with pytest.raises(StepRejected) as err:
        be.be_integrate(be.BEState(MetricField(chart, g), ScalarField(chart, f), 5.0),
                        2.5, 2.5, c_cfl=1e9)
    assert accepted
    arrays = [a for s in accepted for a in ([s.t], s.g.values, s.f.values)]
    return digest(*arrays) + " " + str(err.value)


def bundle_halving() -> str:
    """dt 5 with no step cap: each step halves until Q stays positive
    definite, and the run reaches its horizon."""
    records, stop = bundle_integrate(BundleState(*bundle_fields(2, 2, 16), 0.0),
                                     5.0, 5.0, c_cfl=1e9)
    assert 0.0 < records[1].t < 5.0 and stop == "Horizon"
    return stop + " " + digest(*bundle_states(records))


def produce(monkeypatch) -> dict:
    pins = {f"rhs.density.N{N:g}": density_rhs(N) for N in (5.0, np.inf, 1.0)}
    pins.update({f"rhs.bundle.d{d}q{q}": bundle_rhs(d, q) for d, q in BUNDLE_SHAPES})
    pins["run.density"] = density_run()
    pins["run.bundle"] = bundle_run()
    pins["halving.density"] = density_halving(monkeypatch)
    pins["halving.bundle"] = bundle_halving()
    return pins


def test_field_pins(monkeypatch):
    recorded = json.loads(PIN_FILE.read_text(encoding="utf-8"))
    pins = produce(monkeypatch)
    moved = sorted(name for name in set(recorded["pins"]) | set(pins)
                   if pins.get(name) != recorded["pins"].get(name))
    here = library_build()
    assert not moved, (f"pins moved: {moved}; recorded with "
                       f"{ {key: recorded[key] for key in here} }, this run uses {here}")


if __name__ == "__main__":
    # Rewrite the pin file from the current code (a deliberate pin move).
    with pytest.MonkeyPatch.context() as patch:
        pins = produce(patch)
    PIN_FILE.write_text(json.dumps({**library_build(), "pins": pins}, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} pins to {PIN_FILE}")
