"""Sample-and-hold closed-loop simulator.

The loop integrates the plant with a fixed-step RK4 scheme while the control
input follows one of three update disciplines:

* ``continuous``: the control law is re-evaluated at every integrator stage,
  approximating the ideal closed loop the continuous-time theory assumes.
* ``periodic`` and ``event``: the input is sampled and held. Both follow one
  rule: after each sample, resample at the first row at least ``first_check``
  substeps later where resampling is due. A periodic schedule's
  ``first_check`` is its period in whole substeps, quantized down (which only
  shortens holds and so never weakens a hold-period certificate), and
  resampling is always due. An event schedule's ``first_check`` is its floor
  in whole substeps, rounded up and at least one, and resampling is due where
  the monitored trigger (held-input barrier rate plus the amplified decrease
  term) is <= 0.

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
``cbf_core``), bit for bit equal to evaluating each row alone. A hold is
integrated in segments, and the due test is evaluated as one stack per
segment; the run resamples at the first due row and integrates the rest of
that segment again under the new input. An error raised past that row is
the discarded tail's, not the run's. A periodic hold is a single segment
whose due test is its last row, so it evaluates no trigger.
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
                f"substep must not exceed horizon {self.horizon}, got {self.substep}"
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
            raise ConfigurationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "periodic":
            if self.period is None or not (math.isfinite(self.period) and self.period > 0.0):
                raise ConfigurationError(
                    f"period must be finite and > 0 in periodic mode, got {self.period}"
                )
        elif self.period is not None:
            raise ConfigurationError(f"period is only valid in periodic mode, not {self.mode!r}")
        if not (math.isfinite(self.floor) and self.floor >= 0.0):
            raise ConfigurationError(f"floor must be finite and >= 0, got {self.floor}")
        if self.floor > 0.0 and self.mode != "event":
            raise ConfigurationError(f"floor is only valid in event mode, not {self.mode!r}")

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

    @property
    def columns(self) -> list[str]:
        """The CSV column names, in order."""
        return (
            ["t"]
            + [f"x{i}" for i in range(self.x.shape[1])]
            + [f"u{j}" for j in range(self.u.shape[1])]
            + ["h", "hdot", "trigger", "event"]
        )

    def to_csv(self, path) -> None:
        names = self.columns
        data = np.column_stack([
            self.t, self.x, self.u, self.h, self.hdot, self.trigger,
            self.event.astype(float),
        ])
        fmt = ["%.17g"] * (len(names) - 1) + ["%d"]
        np.savetxt(path, data, fmt=fmt, delimiter=",", header=",".join(names), comments="")


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
        n = self.dynamics.n
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (n,):
            raise ConfigurationError(f"x0 has shape {x0.shape}, expected ({n},)")
        if self.region is not None and self.region.dimension != n:
            raise ConfigurationError(f"region has dimension {self.region.dimension}, expected {n}")
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


def _state_gate(sc: Scenario, t_arr: np.ndarray):
    """The state check of a run: ``check(x, row)`` raises ``DivergenceError``
    for a state x at ``t_arr[row]`` whose norm exceeds the limit or is not
    finite, else ``RegionExitError`` for one outside the scenario's region
    (when it has one).

    Most states pass a cheaper test first: every coordinate within the box
    and within 0.99 * limit / sqrt(n) of zero, as plain float comparisons.
    Such a state is finite, inside the box, and its squared norm, rounding
    included, stays below limit**2. Only the other states (nan fails every
    comparison) have their norm and box tested.
    """
    n = sc.dynamics.n
    reach = 0.99 * _DIVERGENCE_LIMIT / math.sqrt(n)
    lo = hi = None
    lows, highs = [-reach] * n, [reach] * n
    if sc.region is not None:
        lo, hi = sc.region.lower_arr, sc.region.upper_arr
        lows = [max(-reach, v) for v in lo.tolist()]
        highs = [min(reach, v) for v in hi.tolist()]

    def check(x: np.ndarray, row: int) -> None:
        for a, v, b in zip(lows, x.tolist(), highs):
            if not a <= v <= b:
                break
        else:
            return  # the cheaper test passed
        t = float(t_arr[row])
        norm = math.sqrt(x @ x)
        # Also true for inf and nan entries, whose norm is not <= any limit.
        if not norm <= _DIVERGENCE_LIMIT:
            raise DivergenceError(f"state diverged at t={t:.6g}: |x|={norm:.6g}", state=x, time=t)
        if lo is not None and not ((x >= lo).all() and (x <= hi).all()):
            off = [i for i in range(n) if x[i] < lo[i] or x[i] > hi[i]]
            raise RegionExitError(
                f"state left the certified region at t={t:.6g} on axis(es) {off}; "
                "bounds no longer cover the trajectory",
                state=x,
                time=t,
            )

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
    t_arr = np.arange(steps + 1) * dt
    check = _state_gate(sc, t_arr)
    check(x0, 0)

    X = np.empty((steps + 1, n))
    U = np.empty((steps + 1, m))
    EV = np.zeros(steps + 1, dtype=int)
    X[0] = x0

    if sc.schedule.mode == "continuous":
        _run_continuous(sc, X, U, t_arr, check)
    else:
        _run_held(sc, X, U, EV, t_arr, check)

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


def _run_held(sc: Scenario, X, U, EV, t_arr, check) -> None:
    """Fill X, U and EV under the module's sample-and-hold rule; the
    terminal row keeps the last input.

    Each hold is integrated in segments whose due test is evaluated as one
    stack. The first segment of a hold reaches as far as the previous hold
    lasted (at least to the first row resampling may be due, otherwise at
    most ``_SEGMENT_CAP`` substeps); later ones start at ``first_check``
    substeps and double up to the cap. An exception raised while
    integrating a segment stands only if resampling is due at no row up to
    the one the failing step started from.
    """
    dyn, dt = sc.dynamics, sc.integrator.substep
    steps = len(t_arr) - 1
    schedule = sc.schedule
    if schedule.mode == "periodic":
        first_check = int(math.floor(schedule.period / dt + 1e-9))
        if first_check < 1:
            raise ConfigurationError(
                f"hold period {schedule.period} is shorter than the substep {dt}"
            )

        def due(rows):
            return np.True_  # at one state or at every row of a stack

    else:
        first_check = max(1, int(math.ceil(schedule.floor / dt - 1e-9)))

        def due(rows):
            # u is the input held since the current hold's sample.
            return trigger_value(dyn, sc.barrier, sc.alpha, sc.trigger_c, rows, u) <= 0.0

    i, reach = 0, first_check
    while True:
        x = X[i]
        u = _checked_sample(sc, x, float(t_arr[i]))
        EV[i] = 1
        done, length, grow = i, max(first_check, min(reach, _SEGMENT_CAP)), first_check
        fired = None
        while fired is None and done < steps:
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
            if a == b:  # one state costs a third of a stacked evaluation
                if due(X[a]):
                    fired = a
            elif a < b:
                fire = due(X[a:b + 1])
                if fire.any():
                    fired = a + int(fire.argmax())
            if fired is None and pending is not None:
                raise pending
            done, length, grow = stop, grow, min(2 * grow, _SEGMENT_CAP)
        if fired is None:
            U[i:] = u
            return
        U[i:fired] = u
        i, reach = fired, fired - i


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
