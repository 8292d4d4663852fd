"""Sample-and-hold closed-loop simulator.

The loop integrates the plant with a fixed-step RK4 scheme while the control
input follows one of three update disciplines:

* ``continuous``: the control law is re-evaluated at every integrator stage,
  approximating the ideal closed loop the continuous-time theory assumes.
* ``periodic``: the input is sampled on a fixed period and held constant in
  between. Periods are quantized down to whole substeps, which only shortens
  holds and therefore never weakens a hold-period certificate.
* ``event``: the input is held until the monitored trigger (held-input
  barrier rate plus the amplified decrease term) reaches zero, then
  resampled.

Each recorded row is a consistent snapshot: the state at that instant, the
input applied from that instant forward, and the barrier value, barrier
rate, and trigger evaluated for that state-input pair. Runs abort loudly on
region exit, state divergence, or filter infeasibility; the raised error
carries the offending time and state.

A run is integrated hold by hold. After each sample, ``rk4_step`` advances
the state one substep at a time under the held input, and every new state
passes the run's state check before any callable sees it. Only the sampled
law runs inside that loop (at every stage, in continuous mode). The barrier
value, barrier rate and trigger columns are recorded afterwards, in stacked
evaluations over blocks of the trace (see the batch contract in
``cbf_core``), bit for bit equal to evaluating each row alone. In event
mode a hold is integrated in segments, and the held-input trigger is
evaluated as one stack per segment; the run resamples at the first row
where it fires and integrates the rest of that segment again under the
new input. An error raised past that row is the discarded tail's, not the
run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cbf_core import (
    BarrierFunction,
    ClassKappa,
    ControlAffineDynamics,
    _probe_shapes,
    lie_derivatives,
)
from .constants import OperatingRegion
from .errors import (
    ConfigurationError,
    DivergenceError,
    InfeasibleFilterError,
    RegionExitError,
)

__all__ = [
    "IntegratorConfig",
    "HoldSchedule",
    "Trace",
    "RunSummary",
    "Scenario",
    "rk4_step",
    "trigger_value",
    "run",
    "analyze",
]

_MODES = ("continuous", "periodic", "event")

# A state whose norm exceeds this (or is not finite) aborts the run.
_DIVERGENCE_LIMIT = 1e8

# Rows per stacked evaluation of the recorded h, hdot and trigger columns;
# bounds the temporaries of one evaluation whatever the horizon.
_RECORD_BLOCK = 4096

# Longest speculative segment of an event-mode hold, in substeps. A stacked
# trigger evaluation costs about one RK4 substep, so at this length it adds
# under 2% to a long hold, while a firing row discards at most 63 substeps.
_SEGMENT_CAP = 64


@dataclass(frozen=True)
class IntegratorConfig:
    horizon: float
    substep: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ConfigurationError(f"horizon must be finite and > 0, got {self.horizon}")
        if not (math.isfinite(self.substep) and self.substep > 0.0):
            raise ConfigurationError(f"substep must be finite and > 0, got {self.substep}")
        if self.substep > self.horizon:
            raise ConfigurationError(
                f"substep {self.substep} exceeds horizon {self.horizon}"
            )

    @property
    def steps(self) -> int:
        return max(1, int(math.floor(self.horizon / self.substep + 1e-9)))


@dataclass(frozen=True)
class HoldSchedule:
    """Input update discipline. Build via the classmethods."""

    mode: str
    period: float | None = None
    floor: float = 0.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigurationError(f"unknown hold mode {self.mode!r}, expected one of {_MODES}")
        if self.mode == "periodic":
            if self.period is None or not (math.isfinite(self.period) and self.period > 0.0):
                raise ConfigurationError(f"periodic mode needs period > 0, got {self.period}")
        elif self.period is not None:
            raise ConfigurationError(f"{self.mode} mode takes no period")
        if not (math.isfinite(self.floor) and self.floor >= 0.0):
            raise ConfigurationError(f"floor must be >= 0, got {self.floor}")

    @classmethod
    def continuous(cls) -> "HoldSchedule":
        return cls(mode="continuous")

    @classmethod
    def periodic(cls, period: float) -> "HoldSchedule":
        return cls(mode="periodic", period=period)

    @classmethod
    def event(cls, floor: float = 0.0) -> "HoldSchedule":
        """floor is an optional minimum spacing between resamples; zero means
        the trigger alone decides."""
        return cls(mode="event", floor=floor)


@dataclass
class Trace:
    """Recorded closed-loop run. Arrays share length; ``event`` flags the
    rows where the input was sampled."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    h: np.ndarray
    hdot: np.ndarray
    trigger: np.ndarray
    event: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def events(self) -> tuple[float, ...]:
        """The sampling instants (empty for continuous runs)."""
        return tuple(self.t[self.event == 1].tolist())

    def to_csv(self, path) -> None:
        n = self.x.shape[1]
        m = self.u.shape[1]
        names = (
            ["t"]
            + [f"x{i}" for i in range(n)]
            + [f"u{j}" for j in range(m)]
            + ["h", "hdot", "trigger", "event"]
        )
        data = np.column_stack([
            self.t, self.x, self.u, self.h, self.hdot, self.trigger,
            self.event.astype(float),
        ])
        fmt = ["%.17g"] * (len(names) - 1) + ["%d"]
        np.savetxt(path, data, fmt=fmt, delimiter=",", header=",".join(names), comments="")

    @classmethod
    def from_csv(cls, path) -> "Trace":
        with open(path, "r", encoding="utf-8") as fh:
            names = fh.readline().strip().split(",")
        expected_tail = ["h", "hdot", "trigger", "event"]
        if names[:1] != ["t"] or names[-4:] != expected_tail:
            raise ConfigurationError(f"unrecognized trace header: {names}")
        n = sum(1 for s in names if s.startswith("x") and s[1:].isdigit())
        m = sum(1 for s in names if s.startswith("u") and s[1:].isdigit())
        if 1 + n + m + 4 != len(names):
            raise ConfigurationError(f"trace header does not partition into columns: {names}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t = data[:, 0]
        x = data[:, 1:1 + n]
        u = data[:, 1 + n:1 + n + m]
        h, hdot, trig = data[:, -4], data[:, -3], data[:, -2]
        ev = data[:, -1].astype(int)
        return cls(t=t, x=x, u=u, h=h, hdot=hdot, trigger=trig, event=ev)


@dataclass(frozen=True)
class RunSummary:
    min_h: float
    min_h_time: float
    violation_time: float | None
    num_events: int
    miet: float | None
    mean_iet: float | None
    max_iet: float | None
    max_hold_error: float


@dataclass(frozen=True)
class Scenario:
    """Everything a closed-loop run needs.

    ``controller`` is the sampled law (already composed: plain filtered,
    or sigmoid-boosted). ``trigger_c`` is the amplification used by the
    recorded trigger signal and by event-mode resampling. Construction
    checks the plant, barrier and controller shapes at ``x0``.
    """

    name: str
    dynamics: ControlAffineDynamics
    barrier: BarrierFunction
    alpha: ClassKappa
    controller: Callable[[np.ndarray], np.ndarray]
    x0: tuple[float, ...]
    integrator: IntegratorConfig
    schedule: HoldSchedule
    region: OperatingRegion | None = None
    trigger_c: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.trigger_c) and self.trigger_c >= 0.0):
            raise ConfigurationError(f"trigger_c must be >= 0, got {self.trigger_c}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.dynamics.n,):
            raise ConfigurationError(f"x0 has shape {x0.shape}, expected ({self.dynamics.n},)")
        _probe_shapes(self.dynamics, self.barrier, x0, self.controller)


def rk4_step(
    dyn: ControlAffineDynamics, x: np.ndarray, u: np.ndarray, dt: float
) -> np.ndarray:
    """One classic RK4 step with the input frozen across stages."""
    k1 = dyn.rate(x, u)
    k2 = dyn.rate(x + 0.5 * dt * k1, u)
    k3 = dyn.rate(x + 0.5 * dt * k2, u)
    k4 = dyn.rate(x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_step_closed_loop(
    sc: Scenario, x: np.ndarray, u: np.ndarray, t: float, dt: float
) -> np.ndarray:
    """One RK4 step from the state x at time t with the control law
    re-evaluated at every stage; u is the law's input at x, so stage 1
    reuses it.

    This is what "continuous" mode means here: holding the input even across
    one substep leaves a first-order input error that shows up as a small
    barrier penetration, so the ideal loop must close at stage resolution.
    An infeasible filter at a later stage is reported with that stage's time
    and state.
    """
    dyn = sc.dynamics
    k1 = dyn.rate(x, u)
    s = x + 0.5 * dt * k1
    k2 = dyn.rate(s, _checked_sample(sc, s, t + 0.5 * dt))
    s = x + 0.5 * dt * k2
    k3 = dyn.rate(s, _checked_sample(sc, s, t + 0.5 * dt))
    s = x + dt * k3
    k4 = dyn.rate(s, _checked_sample(sc, s, t + dt))
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _barrier_rates(
    dyn: ControlAffineDynamics,
    barrier: BarrierFunction,
    alpha: ClassKappa,
    c: float,
    x: np.ndarray,
    u: np.ndarray,
) -> tuple:
    """Barrier value, barrier rate under the input u, and trigger at one
    state or at each state of a (k, n) stack, from one Lie evaluation.

    u is (m,) or, on a stack, (m,) held for every row or (k, m). Stacked
    outputs may come back broadcastable rather than (k,) (see the batch
    contract in ``cbf_core``); each row equals the single-state value bit
    for bit.
    """
    lfh, lgh = lie_derivatives(dyn, barrier, x)
    h = barrier.value(x)
    hdot = lfh + np.vecdot(lgh, u)
    return h, hdot, hdot + (1.0 + c) * alpha(h)


def trigger_value(
    dyn: ControlAffineDynamics,
    barrier: BarrierFunction,
    alpha: ClassKappa,
    c: float,
    x: np.ndarray,
    u: np.ndarray,
) -> float | np.ndarray:
    """Barrier rate under the given (held) input plus the amplified decrease
    term. Resampling is due when this reaches zero.

    A float for one state x of shape (n,); shape (k,) for a (k, n) stack,
    under one held input u of shape (m,) or one input per row, (k, m). The
    event decision and the recorded trigger column share this definition.
    """
    trig = _barrier_rates(dyn, barrier, alpha, c, x, u)[2]
    if np.ndim(x) == 1:
        return float(trig)
    rows = np.shape(x)[:-1]
    return trig if np.shape(trig) == rows else np.broadcast_to(trig, rows)


def _checked_sample(sc: Scenario, x: np.ndarray, t: float) -> np.ndarray:
    try:
        return sc.controller(x)
    except InfeasibleFilterError as exc:
        msg = exc.args[0] if exc.args else "safety filter infeasible"
        raise InfeasibleFilterError(msg, state=x, time=t) from exc


def _check_state(
    x: np.ndarray, t: float, lo: np.ndarray | None, hi: np.ndarray | None
) -> None:
    """Divergence first, then the region box [lo, hi] (skipped when None)."""
    norm = math.sqrt(x @ x)
    # Also true for inf and nan entries, whose norm is not <= any limit.
    if not norm <= _DIVERGENCE_LIMIT:
        raise DivergenceError(
            f"state diverged at t={t:.6g}: |x|={norm:.6g}",
            state=x,
            time=t,
        )
    if lo is not None and not ((x >= lo).all() and (x <= hi).all()):
        off = [i for i in range(len(x)) if x[i] < lo[i] or x[i] > hi[i]]
        raise RegionExitError(
            f"state left the certified region at t={t:.6g} on axis(es) {off}; "
            "bounds no longer cover the trajectory",
            state=x,
            time=t,
        )


def _state_gate(t_arr: np.ndarray, lo: np.ndarray | None, hi: np.ndarray | None, n: int):
    """The per-row state check of a run: ``check(x, row)`` raises what
    ``_check_state`` raises for the state x at ``t_arr[row]``, and passes
    exactly the states it passes.

    Most states pass a cheaper test first: every coordinate within the box
    and within 0.99 * limit / sqrt(n) of zero, as plain float comparisons.
    Such a state is finite, inside the box, and its squared norm, rounding
    included, stays below limit**2, so ``_check_state`` would pass it. Any
    other state (nan fails every comparison) goes to ``_check_state``.
    """
    reach = 0.99 * _DIVERGENCE_LIMIT / math.sqrt(n)
    lows = [-reach] * n if lo is None else [max(-reach, v) for v in lo.tolist()]
    highs = [reach] * n if hi is None else [min(reach, v) for v in hi.tolist()]

    def check(x: np.ndarray, row: int) -> None:
        for a, v, b in zip(lows, x.tolist(), highs):
            if not a <= v <= b:
                _check_state(x, float(t_arr[row]), lo, hi)
                return

    return check


def run(sc: Scenario) -> Trace:
    """Integrate the scenario and return the recorded trace.

    Raises ``RegionExitError``, ``DivergenceError``, or
    ``InfeasibleFilterError`` (each carrying time and state) when the run
    cannot be certified past that point.
    """
    dyn = sc.dynamics
    n, m = dyn.n, dyn.m
    x0 = np.asarray(sc.x0, dtype=float)
    steps = sc.integrator.steps
    dt = sc.integrator.substep
    lo = hi = None
    if sc.region is not None:
        lo, hi = sc.region.lower_arr, sc.region.upper_arr
    _check_state(x0, 0.0, lo, hi)

    t_arr = np.arange(steps + 1) * dt
    X = np.empty((steps + 1, n))
    U = np.empty((steps + 1, m))
    EV = np.zeros(steps + 1, dtype=int)
    X[0] = x0
    check = _state_gate(t_arr, lo, hi, n)

    mode = sc.schedule.mode
    if mode == "continuous":
        _run_continuous(sc, X, U, t_arr, check)
    elif mode == "periodic":
        hold_steps = int(math.floor(sc.schedule.period / dt + 1e-9))
        if hold_steps < 1:
            raise ConfigurationError(
                f"hold period {sc.schedule.period} is shorter than the substep {dt}"
            )
        _run_periodic(sc, X, U, EV, t_arr, check, hold_steps)
    else:
        floor = sc.schedule.floor
        floor_steps = int(math.ceil(floor / dt - 1e-9)) if floor > 0 else 0
        _run_event(sc, X, U, EV, t_arr, check, max(1, floor_steps))

    H = np.empty(steps + 1)
    HD = np.empty(steps + 1)
    TR = np.empty(steps + 1)
    for a in range(0, steps + 1, _RECORD_BLOCK):
        b = a + _RECORD_BLOCK
        H[a:b], HD[a:b], TR[a:b] = _barrier_rates(
            dyn, sc.barrier, sc.alpha, sc.trigger_c, X[a:b], U[a:b]
        )
    return Trace(t=t_arr, x=X, u=U, h=H, hdot=HD, trigger=TR, event=EV)


def _run_continuous(sc: Scenario, X, U, t_arr, check) -> None:
    """Fill X and U, re-evaluating the law at every row and RK4 stage."""
    dt = sc.integrator.substep
    steps = len(t_arr) - 1
    x = X[0]
    for i in range(steps + 1):
        t = float(t_arr[i])
        u = _checked_sample(sc, x, t)
        U[i] = u
        if i < steps:
            x = _rk4_step_closed_loop(sc, x, u, t, dt)
            check(x, i + 1)
            X[i + 1] = x


def _run_periodic(sc: Scenario, X, U, EV, t_arr, check, hold_steps: int) -> None:
    """Fill X, U and EV with holds of hold_steps substeps; the terminal row
    keeps the last input."""
    dyn, dt = sc.dynamics, sc.integrator.substep
    steps = len(t_arr) - 1
    x = X[0]
    for i in range(0, steps, hold_steps):
        u = _checked_sample(sc, x, float(t_arr[i]))
        EV[i] = 1
        stop = min(i + hold_steps, steps)
        for row in range(i + 1, stop + 1):
            x = rk4_step(dyn, x, u, dt)
            check(x, row)
            X[row] = x
        U[i:stop] = u
    U[steps] = u


def _run_event(sc: Scenario, X, U, EV, t_arr, check, first_check: int) -> None:
    """Fill X, U and EV, resampling at the first row, first_check or more
    substeps after the last sample, where the held-input trigger is <= 0.

    Each hold is integrated in segments whose trigger values are evaluated
    as one stack. The first segment of a hold reaches as far as the previous
    hold lasted (at least to the first row the trigger may fire, at most
    ``_SEGMENT_CAP`` substeps); later ones start at the floor's length and
    double up to the cap. Rows past a firing row are discarded and
    integrated again under the new input.
    """
    i, last_hold = 0, first_check
    while True:
        u = _checked_sample(sc, X[i], float(t_arr[i]))
        EV[i] = 1
        fired = _hold(sc, X, u, i, t_arr, check, first_check, last_hold)
        if fired is None:
            U[i:] = u
            return
        U[i:fired] = u
        i, last_hold = fired, fired - i


def _hold(sc: Scenario, X, u, i: int, t_arr, check, first_check: int, reach: int) -> int | None:
    """Integrate from the sample row i under the held input u; return the
    first row where the trigger fires, or None when the run ends first.

    An exception raised while integrating a segment stands only if the
    trigger fires at no row up to the one the failing step started from.
    A one-row segment is evaluated as a single state, at a third of the
    cost of a stacked call.
    """
    dyn, dt = sc.dynamics, sc.integrator.substep
    steps = len(t_arr) - 1
    x = X[i]
    done, length, grow = i, max(first_check, min(reach, _SEGMENT_CAP)), first_check
    while done < steps:
        stop = min(done + length, steps)
        pending = None
        try:
            for row in range(done + 1, stop + 1):
                x = rk4_step(dyn, x, u, dt)
                check(x, row)
                X[row] = x
        except Exception as exc:
            pending, stop = exc, row - 1
        a, b = max(done + 1, i + first_check), min(stop, steps - 1)
        if a == b:
            if trigger_value(dyn, sc.barrier, sc.alpha, sc.trigger_c, X[a], u) <= 0.0:
                return a
        elif a <= b:
            fire = trigger_value(dyn, sc.barrier, sc.alpha, sc.trigger_c, X[a:b + 1], u) <= 0.0
            if fire.any():
                return a + int(fire.argmax())
        if pending is not None:
            raise pending
        done, length, grow = stop, grow, min(2 * grow, _SEGMENT_CAP)
    return None


def analyze(trace: Trace, violation_tol: float = 0.0) -> RunSummary:
    """Summarize a trace: worst barrier value, first violation, event count,
    inter-event gap statistics, and the largest hold error (state drift
    since the last sampling instant).

    violation_tol deadbands the violation flag: only h < -violation_tol
    counts. The default is exact; callers comparing against an ideal loop
    that rides the boundary should allow for integrator noise.
    """
    if violation_tol < 0.0:
        raise ConfigurationError(f"violation_tol must be >= 0, got {violation_tol}")
    i_min = int(np.argmin(trace.h))
    min_h = float(trace.h[i_min])
    min_h_time = float(trace.t[i_min])
    below = np.flatnonzero(trace.h < -violation_tol)
    violation_time = float(trace.t[below[0]]) if len(below) else None

    marks = np.flatnonzero(trace.event == 1)
    num_events = len(marks)
    if num_events >= 2:
        gaps = np.diff(trace.t[marks])
        miet = float(np.min(gaps))
        mean_iet = float(np.mean(gaps))
        max_iet = float(np.max(gaps))
    else:
        miet = mean_iet = max_iet = None

    # Hold error per row: distance from the state at the latest sampling
    # instant at or before that row. Rows before any event contribute zero.
    if num_events:
        idx = np.zeros(len(trace), dtype=int) - 1
        idx[marks] = marks
        idx = np.maximum.accumulate(idx)
        covered = idx >= 0
        err = np.zeros(len(trace))
        err[covered] = np.linalg.norm(
            trace.x[covered] - trace.x[idx[covered]], axis=1
        )
        max_hold_error = float(np.max(err))
    else:
        max_hold_error = 0.0

    return RunSummary(
        min_h=min_h,
        min_h_time=min_h_time,
        violation_time=violation_time,
        num_events=num_events,
        miet=miet,
        mean_iet=mean_iet,
        max_iet=max_iet,
        max_hold_error=max_hold_error,
    )
