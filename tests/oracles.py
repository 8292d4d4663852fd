"""Independent reference computations the tests compare the library against.

Nothing here imports the code paths under test: the filter reference works
from direct inner products plus bisection and a brute-force grid, the
benchmark's Lie derivatives and bound reference work from closed-form field
formulas, and the run reference is the row-by-row simulation loop, built on the
single-state primitive ``lie_derivatives`` with its own textbook RK4 steps,
state check, scheduling and trigger arithmetic. The falsifier of hold
periods steps whole stacks with the public ``rk4_step``, which the
simulator's tests check against the textbook step.
"""

from __future__ import annotations

import math

import numpy as np

from safehold.acc_benchmark import AccParams
from safehold.cbf_core import lie_derivatives
from safehold.errors import (
    DivergenceError,
    InfeasibleFilterError,
    RegionExitError,
)
from safehold.simulator import VIOLATION_TOL, Trace, rk4_step


def qp_reference(filt, x, *, grid_step: float = 1e-3, grid_span: float = 1.5):
    """Brute-force reference for the scalar least-deviation filter.

    The decrease constraint is affine in u: margin(u) = a + b u, with a and
    b formed by direct inner products against the drift and actuation
    columns. If the nominal input is feasible it is the answer. Otherwise
    the nearest feasible point is bracketed by doubling steps, pinned by
    bisection, and then re-picked from a grid of the given step so the
    reference never divides by b.
    """
    x = np.asarray(x, dtype=float)
    u_des = float(filt.nominal(x)[0])
    grad = np.asarray(filt.barrier.gradient(x), dtype=float)
    f = np.asarray(filt.dynamics.drift(x), dtype=float)
    g = np.asarray(filt.dynamics.actuation(x), dtype=float)
    a = float(grad @ f) + float(filt.alpha(filt.barrier.value(x)))
    b = float(grad @ g[:, 0])

    def margin(u):
        return a + b * u

    if margin(u_des) >= 0.0:
        return u_des
    if b == 0.0:
        raise ValueError("constraint infeasible: no input authority")

    direction = 1.0 if b > 0.0 else -1.0
    step = max(1.0, abs(u_des)) * 1e-3
    hi = u_des
    for _ in range(200):
        hi = hi + direction * step
        if margin(hi) >= 0.0:
            break
        step *= 2.0
    else:
        raise RuntimeError("failed to bracket the feasible set")

    lo = u_des
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if margin(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if abs(hi - lo) <= 1e-13 * max(1.0, abs(hi)):
            break

    offsets = np.arange(-grid_span, grid_span + grid_step / 2, grid_step)
    cands = np.concatenate(([u_des], hi + offsets))
    feasible = cands[a + b * cands >= 0.0]
    return float(feasible[np.argmin(np.abs(feasible - u_des))])


def acc_closed_form_lie(params: AccParams, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Hand-derived barrier Lie derivatives of the cruise benchmark,
    independent of the generic gradient-times-field route."""
    p = params
    speed = float(x[1])
    lfh = (p.lead_speed - speed) + 2.0 * p.headway * speed * p.resistance(speed) / p.mass
    lgh = np.array([-2.0 * p.headway * speed / p.mass])
    return lfh, lgh


def dense_acc_bounds(lo, hi, params: AccParams | None = None,
                     nv: int = 2001, ng: int = 2001) -> dict[str, float]:
    """Closed-form field bounds for the cruise benchmark over a box.

    Vectorized analytic route: the drift and the actuation row of the
    barrier depend on speed alone, the filtered control on (speed, gap), and
    position enters nothing. A unit-slope decrease rate is assumed, matching
    the benchmark default.
    """
    p = params or AccParams()
    v = np.linspace(lo[1], hi[1], nv)
    R = p.f0 + p.f1 * v + p.f2 * v**2
    f_rows = np.stack([v, -R / p.mass, p.lead_speed - v], axis=1)
    b_f = float(np.max(np.linalg.norm(f_rows, axis=1)))
    b_g = 1.0 / p.mass
    lgh_v = -2.0 * p.headway * v / p.mass
    lam = float(np.max(np.abs(lgh_v)))

    vb = v[(p.headway * v**2 >= lo[2]) & (p.headway * v**2 <= hi[2])]
    mu = float(np.min(np.abs(-2.0 * p.headway * vb / p.mass))) if len(vb) else float("nan")

    G = np.linspace(lo[2], hi[2], ng)
    V2, G2 = np.meshgrid(v, G, indexing="ij")
    R2 = p.f0 + p.f1 * V2 + p.f2 * V2**2
    h2 = G2 - p.headway * V2**2
    lfh2 = (p.lead_speed - V2) + 2.0 * p.headway * V2 * R2 / p.mass
    lgh2 = -2.0 * p.headway * V2 / p.mass
    udes2 = -p.tracking_gain * (p.mass / 2.0) * (V2 - p.desired_speed) + R2
    slack = lfh2 + lgh2 * udes2 + h2
    ustar = (-h2 - lfh2) / lgh2
    k2 = np.where(slack >= 0.0, udes2, ustar)
    b_k = float(np.max(np.abs(k2)))

    dv = v[1] - v[0]
    dg = G[1] - G[0]
    kv = np.gradient(k2, dv, axis=0)
    kg = np.gradient(k2, dg, axis=1)
    l_k = float(np.max(np.sqrt(kv**2 + kg**2)))
    m_lip = 2.0 * p.headway / p.mass
    return dict(b_f=b_f, b_g=b_g, b_k=b_k, lam=lam, mu=mu, l_k=l_k, m_lip=m_lip)


DIVERGENCE_LIMIT = 1e8


def _sample(sc, x, t):
    try:
        return sc.controller(x)
    except InfeasibleFilterError as exc:
        msg = exc.args[0] if exc.args else "safety filter infeasible"
        raise InfeasibleFilterError(msg, state=x, time=t) from exc


def _check(x, t, lo, hi):
    norm = math.sqrt(x @ x)
    if not norm <= DIVERGENCE_LIMIT:
        raise DivergenceError(f"state diverged at t={t:.6g}: |x|={norm:.6g}", state=x, time=t)
    if lo is not None and not ((x >= lo).all() and (x <= hi).all()):
        off = [i for i in range(len(x)) if x[i] < lo[i] or x[i] > hi[i]]
        raise RegionExitError(
            f"state left the certified region at t={t:.6g} on axis(es) {off}; "
            "bounds no longer cover the trajectory",
            state=x,
            time=t,
        )


def rk4_reference(dyn, x, u, dt):
    """The textbook RK4 step with the input u frozen across stages."""
    k1 = dyn.rate(x, u)
    k2 = dyn.rate(x + 0.5 * dt * k1, u)
    k3 = dyn.rate(x + 0.5 * dt * k2, u)
    k4 = dyn.rate(x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _closed_loop_step(sc, x, t, dt):
    """RK4 with the law evaluated at every stage, each stage at its time."""
    def rate(s, ts):
        return sc.dynamics.rate(s, _sample(sc, s, ts))

    k1 = rate(x, t)
    k2 = rate(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rate(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rate(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def run_reference(sc) -> Trace:
    """The closed-loop run, one row at a time: at each row the Lie
    derivatives, the schedule decision, the recorded columns, then one
    RK4 step and the state check of the next row."""
    dyn = sc.dynamics
    x = np.asarray(sc.x0, dtype=float).copy()
    steps, dt = sc.integrator.steps, sc.integrator.substep
    lo = hi = None
    if sc.region is not None:
        lo, hi = sc.region.lower_arr, sc.region.upper_arr
    _check(x, 0.0, lo, hi)
    t_arr = np.arange(steps + 1) * dt
    X = np.empty((steps + 1, dyn.n))
    U = np.empty((steps + 1, dyn.m))
    H, HD, TR = np.empty(steps + 1), np.empty(steps + 1), np.empty(steps + 1)
    EV = np.zeros(steps + 1, dtype=int)
    mode = sc.schedule.mode
    if mode == "periodic":
        hold_steps = int(math.floor(sc.schedule.period / dt + 1e-9))
    floor = sc.schedule.floor
    floor_steps = int(math.ceil(floor / dt - 1e-9)) if floor > 0 else 0
    u_held, last = None, 0
    for i in range(steps + 1):
        t = float(t_arr[i])
        lfh, lgh = lie_derivatives(dyn, sc.barrier, x)
        h = sc.barrier.value(x)
        amplified = (1.0 + sc.trigger_c) * sc.alpha(h)
        if mode == "continuous":
            u_row = _sample(sc, x, t)
        else:
            sample_now = False
            if i < steps:
                if u_held is None:
                    sample_now = True
                elif mode == "periodic":
                    sample_now = i % hold_steps == 0
                elif i - last >= max(1, floor_steps):
                    sample_now = lfh + float(lgh @ u_held) + amplified <= 0.0
            if sample_now:
                u_held, last = _sample(sc, x, t), i
                EV[i] = 1
            u_row = u_held
        hd = lfh + float(lgh @ u_row)
        X[i], U[i], H[i], HD[i], TR[i] = x, u_row, h, hd, hd + amplified
        if i < steps:
            if mode == "continuous":
                x = _closed_loop_step(sc, x, t, dt)
            else:
                x = rk4_reference(dyn, x, u_row, dt)
            _check(x, float(t_arr[i + 1]), lo, hi)
    return Trace(t=t_arr, x=X, u=U, h=H, hdot=HD, trigger=TR, event=EV)


# Safe start states the falsifier draws from a box, and how long it holds
# their inputs, in seconds.
FALSIFIER_STATES = 512
FALSIFIER_HORIZON = 3.0


def falsified_period(sc):
    """The first time at which one held input breaks the barrier from a safe
    state of the scenario's box, with that start state; None when no row
    breaks it within ``FALSIFIER_HORIZON``.

    ``FALSIFIER_STATES`` states with h >= 0 are drawn uniformly from
    ``sc.region`` (seed 0). Each holds the scenario controller's input at
    that state, and the stack is stepped with ``rk4_step`` at the
    scenario's substep. A row counts while it has stayed inside the box; the
    first row with h below -``VIOLATION_TOL`` ends the search. A uniform
    hold period at or above that time fails from that start state, so any
    certified period must lie below it.
    """
    lo, hi = sc.region.lower_arr, sc.region.upper_arr
    rng = np.random.default_rng(0)
    starts = np.empty((0, len(lo)))
    while len(starts) < FALSIFIER_STATES:
        draw = rng.uniform(lo, hi, size=(FALSIFIER_STATES, len(lo)))
        starts = np.concatenate((starts, draw[sc.barrier.value(draw) >= 0.0]))
    starts = x = starts[:FALSIFIER_STATES]
    u, dt = sc.controller(starts), sc.integrator.substep
    inside = np.ones(len(starts), dtype=bool)
    for step in range(1, int(math.floor(FALSIFIER_HORIZON / dt + 1e-9)) + 1):
        x = rk4_step(sc.dynamics, x, u, dt)
        inside &= ((x >= lo) & (x <= hi)).all(axis=1)
        broken = inside & (sc.barrier.value(x) < -VIOLATION_TOL)
        if broken.any():
            return step * dt, starts[int(broken.argmax())]
    return None
