"""Explicit Runge-Kutta machinery shared by every flow integrator.

``fixed_step_integrate`` is the one driver of both grid flows (the density
flow and the torus-bundle flow).  Each step is classical RK4 on a tuple of
arrays (``rk4_step``), capped at c_cfl * h_min^2 * lambda_min(g).  A step
whose stages or result lose positive definiteness (``SingularMetric`` or
``LinAlgError``) is halved and retried, up to ``max_halvings`` times, then
``StepRejected`` is raised.  After every accepted step the smallest
eigenvalue of each positive-definite array is compared with
``extinction_ratio`` times its initial value; at or below it the crossing
state is recorded and the run stops with "ExtinctionGuard".  Otherwise every
``record_every``-th state and the final one are recorded.

``adaptive_rk`` is a Dormand-Prince 5(4) embedded pair with a PI step-size
controller.  Steps are clamped to requested sample times (if any), every
accepted step is recorded, and a caller-supplied predicate can stop the
integration early.  Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional, Sequence

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


def rk4_step(f: Callable, t: float, y: tuple, dt: float) -> tuple:
    """One classical fourth-order step of y' = f(t, y) for a tuple of arrays y."""
    def shifted(k, c):
        return tuple(yi + c * ki for yi, ki in zip(y, k))

    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, shifted(k1, 0.5 * dt))
    k3 = f(t + 0.5 * dt, shifted(k2, 0.5 * dt))
    k4 = f(t + dt, shifted(k3, dt))
    return tuple(yi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                 for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def rk4_halving(f: Callable, t: float, y: tuple, dt: float,
                accept: Callable, max_halvings: int = 20):
    """One RK4 step, halving dt while a stage or the result is not positive definite.

    ``accept(t_new, y_new)`` validates the new arrays and returns them as the
    caller's state object.  Returns that object; raises StepRejected after
    ``max_halvings`` halvings.
    """
    for _ in range(max_halvings + 1):
        try:
            return accept(t + dt, rk4_step(f, t, y, dt))
        except (SingularMetric, np.linalg.LinAlgError):
            dt *= 0.5
    raise StepRejected(f"step kept failing after {max_halvings} halvings at t={t:g}")


def _min_eig(values: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh(values)))


def fixed_step_integrate(step: Callable, state0, spd: Callable, dt: float, t_end: float,
                         h_min: float, c_cfl: float, record_every: int,
                         extinction_ratio: float, max_halvings: int = 20,
                         record: Callable = lambda s: s):
    """Drive ``step(state, dt, max_halvings) -> state`` from ``state0.t`` to t_end.

    ``spd(state)`` returns the state's positive-definite arrays, base metric
    first; they set the step cap and the extinction guard (module docstring).
    ``record(state)`` is what gets stored for each recorded state.  Returns
    (records, stop_reason); records[0] is ``record(state0)``.
    """
    if (not (dt > 0 and t_end > state0.t and c_cfl > 0)
            or not isinstance(record_every, Integral) or record_every < 1):
        raise DomainError(
            "need dt > 0, t_end > start time, c_cfl > 0 and an integer record_every >= 1, "
            f"got dt={dt!r}, t_end={t_end!r}, c_cfl={c_cfl!r}, record_every={record_every!r}")
    min_eigs = [_min_eig(a) for a in spd(state0)]
    guards = [extinction_ratio * m for m in min_eigs]
    records = [record(state0)]
    s = state0
    stop_reason = "Horizon"
    step_index = 0
    while s.t < t_end - MIN_STEP:
        cap = c_cfl * h_min * h_min * max(min_eigs[0], 1e-300)
        s = step(s, min(dt, cap, t_end - s.t), max_halvings)
        step_index += 1
        min_eigs = [_min_eig(a) for a in spd(s)]
        crossed = any(m <= g for m, g in zip(min_eigs, guards))
        if crossed or step_index % record_every == 0 or s.t >= t_end - MIN_STEP:
            records.append(record(s))
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


def adaptive_rk(f: Callable[[float, np.ndarray], np.ndarray],
                t0: float, y0: Sequence[float], t_end: float,
                rtol: float = 1e-9, atol: float = 1e-12,
                stop: Optional[Callable[[float, np.ndarray], Optional[str]]] = None,
                t_eval: Optional[Sequence[float]] = None,
                dt0: Optional[float] = None,
                max_steps: int = 2_000_000) -> OdeResult:
    """Integrate y' = f(t, y) from t0 to t_end, recording every accepted step.

    stop(t, y) may return a reason string to end the run after an accepted
    step.  When ``t_eval`` is given, steps are shortened so those times are
    hit exactly (entries must be increasing and inside (t0, t_end]).  The
    right-hand side may return non-finite values for out-of-domain trial
    states; such trials are rejected and retried with a smaller step.
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    ts, ys = [t], [y.copy()]
    eval_times = list(t_eval) if t_eval is not None else []

    def t_close(a: float, b: float) -> bool:
        return abs(a - b) <= max(MIN_STEP, 8.0 * np.spacing(max(abs(a), abs(b))))

    next_eval = 0
    while next_eval < len(eval_times) and eval_times[next_eval] <= t0 + MIN_STEP:
        next_eval += 1

    dt = dt0 if dt0 is not None else min(1e-4, (t_end - t0) * 1e-3)
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
        k = np.empty((7, y.size))
        k[0] = k_first
        finite = True
        for i in range(1, 6):
            yi = y + dt * sum(a * k[j] for j, a in enumerate(_A[i]))
            k[i] = f(t + _C[i] * dt, yi)
            if not np.all(np.isfinite(k[i])):
                finite = False
                break
        if finite:
            y5 = y + dt * (_B5[:6] @ k[:6])
            k[6] = f(t + dt, y5)
            finite = np.all(np.isfinite(k[6])) and np.all(np.isfinite(y5))
        if finite:
            y4 = y + dt * (_B4 @ k)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
        else:
            err = np.inf
        if err <= 1.0:
            t = t + dt
            y = y5
            k_first = k[6]
            ts.append(t)
            ys.append(y.copy())
            n_steps += 1
            if next_eval < len(eval_times) and t_close(t, eval_times[next_eval]):
                next_eval += 1
            if stop is not None:
                reason = stop(t, y)
                if reason:
                    stop_reason = reason
                    break
            if n_steps >= max_steps:
                stop_reason = "MaxSteps"
                break
            fac = 0.9 * (err + 1e-300) ** (-0.7 / 5.0) * (err_prev + 1e-300) ** (0.4 / 5.0)
            dt *= min(5.0, max(0.2, fac))
            err_prev = err
        else:
            n_rejected += 1
            shrink = 0.9 * err ** (-1.0 / 5.0) if np.isfinite(err) else 0.2
            dt *= min(1.0, max(0.2, shrink))
    return OdeResult(np.array(ts), np.array(ys), stop_reason, n_steps, n_rejected)
