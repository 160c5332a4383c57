"""Explicit Runge-Kutta machinery shared by every flow integrator.

``fixed_step_integrate`` is the one driver of both grid flows (the density
flow and the torus-bundle flow).  Each state it accepts is symmetrized,
validated and factored exactly once (``diffgeo.spd_factor``);
the exact smallest eigenvalues cap the step at c_cfl * h_min^2 *
lambda_min(g) and feed the extinction guard, and the factorization gives the
next step's first stage k1 (first same as last, like ``adaptive_rk``'s
``k_first``).  Each step is classical RK4 on a tuple of arrays
(``rk4_step``).  A step whose later stages or result are not positive
definite or exceed the condition cap (``SingularMetric``, raised by
``diffgeo.spd_inverse`` alone) is halved and retried from the same k1, up
to ``MAX_HALVINGS`` times, then ``StepRejected`` is raised.  After every
accepted step the smallest eigenvalue of each positive-definite array is
compared with ``EXTINCTION_RATIO`` times its initial value; at or below it
the crossing state is recorded and the run stops with "ExtinctionGuard".
Otherwise every ``record_every``-th state and the final one are recorded.

``adaptive_rk`` is a Dormand-Prince 5(4) embedded pair with a PI step-size
controller.  Steps are clamped to requested sample times (if any), every
accepted step is recorded, and a caller-supplied predicate can stop the
integration early.  Everything is deterministic for fixed inputs.  Its
states are short (the reduced flows have two components), so it runs on
Python floats: the state and every stage are lists of floats, and the
right-hand side takes and returns floats.  Each stage state is formed per
component in the order numpy forms y + dt * sum(a_j * k_j) over stage
arrays (0 + a_0 k_0 + a_1 k_1 ..., then times dt, then plus y), so every
bit equals that array form's.  The two weighted sums of the stages stay
numpy ``@`` products on one array per step: BLAS's dot does not sum in
sequence, and a sequential sum would move the last bit of about a third
of the components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, SingularMetric, StepRejected, StepUnderflow

# Dormand-Prince 5(4) tableau
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])

MIN_STEP = 1e-14
MAX_STEPS = 2_000_000
MAX_HALVINGS = 20
EXTINCTION_RATIO = 1e-6
DEFAULT_C_CFL = 0.2     # step cap factor of both grid flows
DEFAULT_TOL = 1e-9      # relative tolerance of the reduced flows


def rk4_step(f: Callable, t: float, y: tuple, dt: float, k1: tuple) -> tuple:
    """One classical fourth-order step of y' = f(t, y) for a tuple of arrays y,
    from its first stage k1 = f(t, y)."""
    def shifted(k, c):
        return tuple(yi + c * ki for yi, ki in zip(y, k))

    k2 = f(t + 0.5 * dt, shifted(k1, 0.5 * dt))
    k3 = f(t + 0.5 * dt, shifted(k2, 0.5 * dt))
    k4 = f(t + dt, shifted(k3, dt))
    return tuple(yi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def rk4_halving(f: Callable, t: float, y: tuple, k1: tuple, dt: float, accept: Callable):
    """One RK4 step from y and its first stage k1, halving dt while a later
    stage or the result is rejected; every retry reuses k1.

    ``accept(t_new, y_new)`` validates and factors the new arrays and returns
    the caller's next ``Accepted``.  It rejects a result that is not positive
    definite or is above the condition cap, so such a step is halved, not
    accepted.  Raises StepRejected after ``MAX_HALVINGS`` halvings.
    """
    for _ in range(MAX_HALVINGS + 1):
        try:
            return accept(t + dt, rk4_step(f, t, y, dt, k1))
        except SingularMetric:
            dt *= 0.5
    raise StepRejected(f"step kept failing after {MAX_HALVINGS} halvings at t={t:g}")


@dataclass
class Accepted:
    """An accepted state, the smallest eigenvalue over the grid of each of its
    SPD arrays (base metric first), and what the next step's k1 reuses.  The
    step takes ``reuse`` away, so it is freed once k1 is formed."""

    state: Any
    min_eigs: tuple
    reuse: Any

    def take_reuse(self):
        reuse, self.reuse = self.reuse, None
        return reuse


def fixed_step_integrate(step: Callable, factor: Callable, record: Callable, state0,
                         dt: float, t_end: float, h_min: float, c_cfl: float, record_every: int):
    """Drive ``step(current, dt) -> current`` from ``state0.t`` to t_end.

    The current state is an ``Accepted``: ``factor(state0)`` makes the first,
    ``step`` each next one.  ``record(current)`` is stored for each recorded
    state; it must not keep ``reuse``.  Returns (records, stop_reason).
    """
    if (not (dt > 0 and t_end > state0.t and c_cfl > 0)
            or not isinstance(record_every, Integral) or record_every < 1):
        raise DomainError(
            "need dt > 0, t_end > start time, c_cfl > 0 and an integer record_every >= 1, "
            f"got dt={dt!r}, t_end={t_end!r}, c_cfl={c_cfl!r}, record_every={record_every!r}")
    cur = factor(state0)
    guards = [EXTINCTION_RATIO * m for m in cur.min_eigs]
    records = [record(cur)]
    stop_reason = "Horizon"
    step_index = 0
    while cur.state.t < t_end - MIN_STEP:
        cap = c_cfl * h_min * h_min * max(cur.min_eigs[0], 1e-300)
        cur = step(cur, min(dt, cap, t_end - cur.state.t))
        step_index += 1
        crossed = any(m <= g for m, g in zip(cur.min_eigs, guards))
        if crossed or step_index % record_every == 0 or cur.state.t >= t_end - MIN_STEP:
            records.append(record(cur))
        if crossed:
            stop_reason = "ExtinctionGuard"
            break
    return records, stop_reason


@dataclass
class OdeResult:
    t: np.ndarray
    y: np.ndarray
    stop_reason: str
    n_steps: int
    n_rejected: int


def _stage_state(y: list, dt: float, row: tuple, ks: list) -> list:
    """y + dt * (0 + a_0 k_0 + a_1 k_1 + ...) per component, each sum taken
    left to right as ``sum`` takes it over numpy stage arrays."""
    out = []
    for c, yc in enumerate(y):
        s = 0.0
        for a, k in zip(row, ks):
            s += a * k[c]
        out.append(yc + dt * s)
    return out


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def _dp_attempt(f: Callable, t: float, y: list, dt: float, k_first: Sequence[float],
                rtol: float, atol: float):
    """One Dormand-Prince trial step from y and its first stage: (err, y5, k7).

    err is the RMS of the 5(4) difference over atol + rtol * max(|y|, |y5|),
    summed in index order (numpy's own order below eight components), or
    inf, with y5 and k7 None, when a stage or y5 is not finite.
    """
    ks = [k_first]
    for i in range(1, 6):
        ki = f(t + _C[i] * dt, _stage_state(y, dt, _A[i], ks))
        if not _finite(ki):
            return math.inf, None, None
        ks.append(ki)
    k = np.empty((7, len(y)))
    k[:6] = ks
    y5 = [yc + dt * w for yc, w in zip(y, (_B5[:6] @ k[:6]).tolist())]
    k_last = f(t + dt, y5)
    if not (_finite(k_last) and _finite(y5)):
        return math.inf, None, None
    k[6] = k_last
    y4 = [yc + dt * w for yc, w in zip(y, (_B4 @ k).tolist())]
    total = 0.0
    for a, b, c in zip(y, y5, y4):
        r = (b - c) / (atol + rtol * max(abs(a), abs(b)))
        total += r * r
    return math.sqrt(total / len(y)), y5, k_last


def adaptive_rk(f: Callable[[float, list], Sequence[float]],
                t0: float, y0: Sequence[float], t_end: float,
                rtol: float = DEFAULT_TOL, atol: float = 1e-12,
                stop: Optional[Callable[[float, list], Optional[str]]] = None,
                t_eval: Optional[Sequence[float]] = None) -> OdeResult:
    """Integrate y' = f(t, y) from t0 to t_end, recording every accepted step.

    The state is a list of Python floats: ``f(t, y)`` receives one and
    returns a sequence of floats, and ``stop(t, y)`` receives each accepted
    state and may return a reason string to end the run.  When ``t_eval``
    is given, steps are shortened so those times are hit exactly (entries
    must be increasing and inside (t0, t_end]).  The right-hand side may
    return non-finite values for out-of-domain trial states; such trials are
    rejected and retried with a smaller step.  The run stops with "MaxSteps"
    after ``MAX_STEPS`` accepted steps.
    """
    y = [float(v) for v in y0]
    t = float(t0)
    ts, ys = [t], [y]
    eval_times = list(t_eval) if t_eval is not None else []

    def t_close(a: float, b: float) -> bool:
        return abs(a - b) <= max(MIN_STEP, 8.0 * math.ulp(max(abs(a), abs(b))))

    next_eval = 0
    while next_eval < len(eval_times) and eval_times[next_eval] <= t0 + MIN_STEP:
        next_eval += 1

    dt = min(1e-4, (t_end - t0) * 1e-3)
    err_prev = 1.0
    n_steps = n_rejected = 0
    k_first = f(t, y)
    stop_reason = "Horizon"

    while t < t_end - MIN_STEP:
        dt = min(dt, t_end - t)
        while next_eval < len(eval_times) and (eval_times[next_eval] <= t
                                               or t_close(t, eval_times[next_eval])):
            next_eval += 1
        if next_eval < len(eval_times):
            dt = min(dt, eval_times[next_eval] - t)
        if dt < MIN_STEP:
            raise StepUnderflow(f"step size underflow at t={t:.17g}")
        err, y5, k_last = _dp_attempt(f, t, y, dt, k_first, rtol, atol)
        if err <= 1.0:
            t = t + dt
            y = y5
            k_first = k_last
            ts.append(t)
            ys.append(y)
            n_steps += 1
            if next_eval < len(eval_times) and t_close(t, eval_times[next_eval]):
                next_eval += 1
            if stop is not None:
                reason = stop(t, y)
                if reason:
                    stop_reason = reason
                    break
            if n_steps >= MAX_STEPS:
                stop_reason = "MaxSteps"
                break
            fac = 0.9 * (err + 1e-300) ** (-0.7 / 5.0) * (err_prev + 1e-300) ** (0.4 / 5.0)
            dt *= min(5.0, max(0.2, fac))
            err_prev = err
        else:
            n_rejected += 1
            shrink = 0.9 * err ** (-1.0 / 5.0) if math.isfinite(err) else 0.2
            dt *= min(1.0, max(0.2, shrink))
    return OdeResult(np.array(ts), np.array(ys), stop_reason, n_steps, n_rejected)
