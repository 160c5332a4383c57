"""SHA-256 pins of the reduced-flow integrator on paths no golden output covers.

``verify``'s lauret check runs ``lauret_integrate`` with ``t_eval`` but
prints only its mismatch to three digits, and no golden output holds a
``ke_integrate`` run with a trial step at u <= 0 (the right-hand side
returns NaN there, so the trial is rejected).  These pins hold the exact
float64 bits of such runs; like ``test_golden.py`` they characterize the
code as it stood, and moving one needs a CHANGES.md entry with the reason.
"""

import hashlib

import numpy as np
import pytest

from bundleflow import kahler_einstein as ke
from bundleflow.catalog import berger, sol3


def digest(*columns) -> str:
    """SHA-256 of the little-endian float64 bytes of equal-length columns."""
    return hashlib.sha256(np.asarray(columns, dtype="<f8").tobytes()).hexdigest()


# verify.check_lauret's two cases: (entry, t_end, extinction_ratio) -> sha256 of (t, a, b)
LAURET_PINS = [
    (berger(1.0, 2.0), 10.0, 1e-2,
     "cebdc1802f89246f07508dbba0e3612a1bf05412d1cf5eb36974413937ec5183"),
    (sol3(1.0, 1.0), 50.0, ke.EXTINCTION_RATIO,
     "bcc4243f2c4f822aec623183b35801793f434fac3fbde1f28d3f3152b292be73"),
]

# berger(1, 2) at tol 1e-3 to u = 1e-6 u0: one trial lands at u <= 0 -> sha256 of (t, u, f)
NEGATIVE_TRIAL_PIN = "2ce48bdc5cb1ff0bbeae66251b8a2027e26e1486e0e5c0308f83c4ba7880b805"


@pytest.mark.parametrize("entry, t_end, ratio, expected", LAURET_PINS,
                         ids=["berger_1_2", "sol3_1_1"])
def test_lauret_integrate_at_sample_times(entry, t_end, ratio, expected):
    trace = ke.ke_integrate(entry.ke_state0, entry.ke_params, t_end, tol=1e-9,
                            extinction_ratio=ratio)
    l0 = ke.to_lauret(entry.ke_state0, entry.ke_params)
    t, a, b, _ = ke.lauret_integrate(l0, float(trace.t[-1]), tol=1e-9,
                                     t_eval=[float(x) for x in trace.t[1:]])
    assert digest(t, a, b) == expected


def test_ke_integrate_rejects_a_trial_at_nonpositive_u(monkeypatch):
    trials = []
    adaptive_rk = ke.adaptive_rk

    def watched(f, *args, **kwargs):
        def rhs(t, y):
            trials.append(y[0])
            return f(t, y)
        return adaptive_rk(rhs, *args, **kwargs)

    monkeypatch.setattr(ke, "adaptive_rk", watched)
    entry = berger(1.0, 2.0)
    trace = ke.ke_integrate(entry.ke_state0, entry.ke_params, 10.0, tol=1e-3,
                            extinction_ratio=1e-6)
    assert trace.stop_reason == "Extinct"
    assert min(trials) <= 0.0
    assert digest(trace.t, trace.u, trace.f) == NEGATIVE_TRIAL_PIN
