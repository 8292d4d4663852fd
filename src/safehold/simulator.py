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
    dyn: ControlAffineDynamics,
    controller: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One RK4 step with the control law re-evaluated at every stage.

    This is what "continuous" mode means here: holding the input even across
    one substep leaves a first-order input error that shows up as a small
    barrier penetration, so the ideal loop must close at stage resolution.
    """

    def rate(s: np.ndarray) -> np.ndarray:
        return dyn.rate(s, controller(s))

    k1 = rate(x)
    k2 = rate(x + 0.5 * dt * k1)
    k3 = rate(x + 0.5 * dt * k2)
    k4 = rate(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def trigger_value(
    dyn: ControlAffineDynamics,
    barrier: BarrierFunction,
    alpha: ClassKappa,
    c: float,
    x: np.ndarray,
    u: np.ndarray,
) -> float:
    """Barrier rate under the given (held) input plus the amplified decrease
    term. Resampling is due when this reaches zero."""
    lfh, lgh = lie_derivatives(dyn, barrier, x)
    h = barrier.value(x)
    return lfh + float(lgh @ u) + (1.0 + c) * alpha(h)


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
    H = np.empty(steps + 1)
    HD = np.empty(steps + 1)
    TR = np.empty(steps + 1)
    EV = np.zeros(steps + 1, dtype=int)

    mode = sc.schedule.mode
    x = x0.copy()

    if mode == "periodic":
        hold_steps = int(math.floor(sc.schedule.period / dt + 1e-9))
        if hold_steps < 1:
            raise ConfigurationError(
                f"hold period {sc.schedule.period} is shorter than the substep {dt}"
            )
    floor_steps = int(math.ceil(sc.schedule.floor / dt - 1e-9)) if sc.schedule.floor > 0 else 0

    u_held: np.ndarray | None = None
    last_sample_step = 0

    for i in range(steps + 1):
        t = float(t_arr[i])
        # One Lie evaluation per row feeds both the event trigger and the
        # recorded hdot/trigger columns, in trigger_value's operation order.
        lfh, lgh = lie_derivatives(dyn, sc.barrier, x)
        h = sc.barrier.value(x)
        amplified = (1.0 + sc.trigger_c) * sc.alpha(h)
        if mode == "continuous":
            u_row = _checked_sample(sc, x, t)
        else:
            sample_now = False
            if i < steps:  # the terminal row never resamples
                if u_held is None:
                    sample_now = True
                elif mode == "periodic":
                    sample_now = i % hold_steps == 0
                elif i - last_sample_step >= max(1, floor_steps):
                    sample_now = lfh + float(lgh @ u_held) + amplified <= 0.0
            if sample_now:
                u_held = _checked_sample(sc, x, t)
                last_sample_step = i
                EV[i] = 1
            u_row = u_held

        hd = lfh + float(lgh @ u_row)
        X[i] = x
        U[i] = u_row
        H[i] = h
        HD[i] = hd
        TR[i] = hd + amplified

        if i < steps:
            if mode == "continuous":
                x = _rk4_step_closed_loop(dyn, sc.controller, x, dt)
            else:
                x = rk4_step(dyn, x, u_row, dt)
            _check_state(x, float(t_arr[i + 1]), lo, hi)

    return Trace(t=t_arr, x=X, u=U, h=H, hdot=HD, trigger=TR, event=EV)


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
