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

``run_many`` runs a group of sampled scenarios that share one plant and one
integrator in lockstep: their states form one (k, n) stack, and the RK4
kernel advances it one substep at a time, each row under its own
scenario's held input (see the batch contract in ``cbf_core``). When the
plant's actuation returns an (n, m) matrix on a stack, it does not depend
on the state: the input term g u of the held inputs is computed once per
segment of a hold (below), and every stage adds it to the drift. An
actuation whose output has a stack axis is evaluated at every stage. Each
scenario keeps its own schedule, samples, due tests and errors, and every
new row passes its scenario's state check before any callable sees it.
``run`` of a sampled scenario is the group of one, whose stack is its (n,)
state. Only the sampled laws run inside that loop (at every stage, in
continuous mode). The barrier value, barrier rate and trigger columns are
recorded afterwards, in stacked evaluations over blocks of each trace, bit
for bit equal to evaluating each row alone.

Two kernels step the rows of a hold, chosen whenever the group's membership
changes. A group of one under a state-independent actuation, with at most
``_FLOAT_ROWS_MAX_N`` state coordinates, steps on the kernel that
``_float_rows`` generates for its n: ``_rk4``'s operations in ``_rk4``'s
order on Python floats, one local per coordinate, without numpy's dispatch
on tiny arrays. Stacks, state-dependent actuations and larger states step
with ``_rk4`` on numpy arrays. Both round each operation alike, so both give
the same bits.

Holds are integrated in segments. After each segment, each scenario's due
test covers its rows of the segment as one stack; the group resumes from
the earliest due row, where the scenarios due there resample, and
integrates the rest of that segment again. An error raised past a
scenario's due row is the discarded tail's, not its run's. A periodic
schedule's due row is known in advance, so it evaluates no trigger.
"""

from __future__ import annotations

import functools
import math
import os
import re
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
from .constants import OperatingRegion, _row_blocks
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
    "run_many",
    "analyze",
]

_MODES = ("continuous", "periodic", "event")

# A state whose norm exceeds this (or is not finite) aborts the run.
_DIVERGENCE_LIMIT = 1e8

# Longest speculative segment of an event-mode hold, in substeps. On the ACC
# plant a stacked trigger evaluation over 64 rows costs about 20 us and a
# held substep about 8 us on the float kernel (13 us with ``_rk4``; 2-core
# Xeon, Python 3.11, numpy 2.4), so at this length the due test adds about
# 4% to a long hold, while a firing row discards at most 63 substeps.
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
    refuses a hold period shorter than the substep and checks the plant,
    barrier and controller shapes at ``x0``.
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
        dt = self.integrator.substep
        if self.schedule.mode == "periodic" and _first_check(self.schedule, dt) < 1:
            raise ConfigurationError(
                f"hold period {self.schedule.period} is shorter than the substep {dt}"
            )
        _probe_shapes(self.dynamics, self.barrier, x0, self.controller)


def _rk4(rate, x: np.ndarray, half, full, sixth) -> np.ndarray:
    """One classic RK4 step of xdot = rate(x) from x, on numpy arrays.

    ``half``, ``full`` and ``sixth`` are dt / 2, dt and dt / 6, either as
    floats or as (n,) arrays filled with them, which give the same bits; an
    array times an array skips numpy's slower scalar dispatch. ``rate``
    returns a new array, so the stages combine in place, in the order
    ((k1 + 2 k2) + 2 k3) + k4 with 2 k written k + k, which is exact.

    ``rk4_step``, the continuous step and the held loop's stacks step with
    this formula. A held one-member run with a state-independent actuation
    and at most ``_FLOAT_ROWS_MAX_N`` coordinates steps its rows with the
    kernel of ``_float_rows`` instead: the same operations in the same
    order on Python floats, which round each one as numpy does, so both
    give the same bits.
    """
    k1 = rate(x)
    k2 = rate(x + half * k1)
    k3 = rate(x + half * k2)
    k4 = rate(x + full * k3)
    k2 += k2
    k2 += k1
    k3 += k3
    k2 += k3
    k2 += k4
    k2 *= sixth
    return x + k2


def _rk4_rows(rate, half, full, sixth, X, row: int, end: int, lows: list, highs: list) -> int:
    """Step the rows X[row], ..., X[end] of a hold, each from the one before,
    with ``_rk4`` under ``rate``. Returns the first row it could not step
    (its step raised, or its state failed the cheaper state test; see
    ``_state_gate``), or end + 1."""
    xs = X[row - 1]
    while row <= end:
        try:
            xs = _rk4(rate, xs, half, full, sixth)
        except Exception:
            return row
        if not _inside(lows, highs, xs):
            return row
        X[row] = xs
        row += 1
    return row


# ``_rk4_rows`` on Python floats for one state of n coordinates, under the
# drift plus a constant input term gu (n floats): one local per coordinate,
# ``_rk4``'s operations in its order, and ``_inside`` inline. ``_float_rows``
# writes out each {...} once per coordinate i, with # standing for i, joined
# by ", " into a tuple (with a trailing comma, so n = 1 is one too) or by the
# separator after |. Each stage's drift gets a new (n,) array.
_FLOAT_ROWS = """
def rows(drift, gu, half, full, sixth, X, row, end, lows, highs):
    array = np.array
    try:
        {g#} = gu
        {l#} = lows
        {h#} = highs
        {x#} = X[row - 1].tolist()
        while row <= end:
            {a#} = drift(array(({x#}))).tolist()
            {a# += g#|; }
            {b#} = drift(array(({x# + half * a#}))).tolist()
            {b# += g#|; }
            {c#} = drift(array(({x# + half * b#}))).tolist()
            {c# += g#|; }
            {d#} = drift(array(({x# + full * c#}))).tolist()
            {d# += g#|; }
            {x# += (b# + b# + a# + (c# + c#) + d#) * sixth|; }
            if not ({l# <= x# <= h#| and }):
                return row
            X[row] = {x#}
            row += 1
    except Exception:
        pass
    return row
"""

# Largest state dimension that steps on the float kernel. Its cost grows
# with each coordinate's float operations, ``_rk4``'s is mostly numpy's
# dispatch per call. With a one-ufunc drift (-0.3 x), where that dispatch
# weighs most, a float row costs 0.55 of an ``_rk4`` row at n = 3, 0.9 at
# n = 12 and 1.04 at n = 14 (medians of 15 paired runs of 4,000 rows,
# 2-core Xeon, Python 3.11, numpy 2.4).
_FLOAT_ROWS_MAX_N = 12


@functools.cache
def _float_rows(n: int):
    """The float kernel for n coordinates, generated from ``_FLOAT_ROWS`` on
    first use, as ``dataclasses`` generates methods, and kept for the
    process. Same arguments and result as ``_rk4_rows``, with ``drift``,
    the input term ``gu`` and the coefficients as floats in place of
    ``rate`` and the arrays. Whatever raises, a row that ``drift`` does not
    give as an array of n numbers among them, ends the kernel at that row,
    which the caller steps again with ``_rk4``."""
    def expand(match):
        terms = [match[1].replace("#", str(i)) for i in range(n)]
        return ", ".join(terms) + "," if match[2] is None else match[2].join(terms)

    namespace = {"np": np}
    exec(re.sub(r"\{([^{}|]+)(?:\|([^{}]+))?\}", expand, _FLOAT_ROWS), namespace)
    return namespace["rows"]


def rk4_step(
    dyn: ControlAffineDynamics, x: np.ndarray, u: np.ndarray, dt: float
) -> np.ndarray:
    """One classic RK4 step with the input frozen across stages."""
    return _rk4(lambda s: dyn.rate(s, u), x, 0.5 * dt, dt, dt / 6.0)


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
    later = iter((t + 0.5 * dt, t + 0.5 * dt, t + dt))

    def rate(s: np.ndarray) -> np.ndarray:
        """Under u at x itself; at each later stage, under the law sampled
        there at that stage's time."""
        return dyn.rate(s, u if s is x else _checked_sample(sc, s, next(later)))

    return _rk4(rate, x, 0.5 * dt, dt, dt / 6.0)


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
    """The state check of a run, as ``(lows, highs, check)``.

    ``check(x, row)`` raises ``DivergenceError`` for a state x at
    ``t_arr[row]`` whose norm exceeds the limit or is not finite, else
    ``RegionExitError`` for one outside the scenario's region (when it has
    one). Most states pass a cheaper test first (``_inside``): every
    coordinate within the box and within 0.99 * limit / sqrt(n) of zero, as
    plain float comparisons against the lists ``lows`` and ``highs``. Such a
    state is finite, inside the box, and its squared norm, rounding
    included, stays below limit**2. Only the other states (nan fails every
    comparison) need ``check``.
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

    return lows, highs, check


def _inside(lows: list, highs: list, x: np.ndarray) -> bool:
    """The cheaper state test, on one state or on a stack whose rows'
    bounds are concatenated in ``lows`` and ``highs``."""
    for a, v, b in zip(lows, x.ravel().tolist(), highs):
        if not a <= v <= b:
            return False
    return True


def _record(sc: Scenario, t_arr, X, U, EV) -> Trace:
    """The trace of a run whose states, inputs and event flags are filled:
    the barrier value, barrier rate and trigger columns are evaluated in
    stacked blocks."""
    rows = len(t_arr)
    H, HD, TR = np.empty(rows), np.empty(rows), np.empty(rows)
    for block in _row_blocks(rows):
        H[block], HD[block], TR[block] = _barrier_rates(
            sc.dynamics, sc.barrier, sc.alpha, sc.trigger_c, X[block], U[block]
        )
    return Trace(t=t_arr, x=X, u=U, h=H, hdot=HD, trigger=TR, event=EV)


def run(sc: Scenario) -> Trace:
    """Integrate the scenario and return the recorded trace.

    Raises ``RegionExitError``, ``DivergenceError``, or
    ``InfeasibleFilterError`` (each carrying time and state) when the run
    cannot be certified past that point, and ``ConfigurationError`` before
    anything is allocated when its trace would not fit in physical memory.
    """
    _check_storage([sc])
    if sc.schedule.mode == "continuous":
        return _run_continuous(sc)
    return _run_held([sc])[0]


def run_many(scenarios) -> list[Trace]:
    """Run sampled scenarios that share one plant and one integrator in
    lockstep, as one stack, and return ``[run(sc) for sc in scenarios]``
    bit for bit.

    Every scenario must hold its input (periodic or event schedule), use
    the first one's ``dynamics`` object and an equal ``integrator``; the
    other fields (start state, controller, barrier, schedule, region,
    trigger amplification) are free. A member that breaks this, or traces
    that would not fit in physical memory, raise ``ConfigurationError``
    before anything is integrated. Otherwise the error raised is that of
    the first scenario, in list order, whose run raises, and the scenarios
    after it stop when it does.
    """
    scs = list(scenarios)
    for j, sc in enumerate(scs):
        if sc.dynamics is not scs[0].dynamics:
            raise ConfigurationError(f"scenario {j} has another dynamics object than scenario 0")
        if sc.integrator != scs[0].integrator:
            raise ConfigurationError(f"scenario {j} has another integrator than scenario 0")
        if sc.schedule.mode == "continuous":
            raise ConfigurationError(
                f"scenario {j} is continuous; run_many takes periodic and event schedules"
            )
    if not scs:
        return []
    _check_storage(scs)
    return _run_held(scs)


def _check_storage(scs: list[Scenario]) -> None:
    """Raise ``ConfigurationError`` when the traces of the scenarios, which
    share one integrator, would not fit in physical memory; called before
    any of their arrays is allocated."""
    integrator = scs[0].integrator
    rows = integrator.steps + 1
    # Per trace row: t, h, hdot, trigger, the state and the input as float64,
    # and the event flag.
    row_bytes = sum(
        np.dtype(float).itemsize * (4 + sc.dynamics.n + sc.dynamics.m) + np.dtype(int).itemsize
        for sc in scs
    )
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return  # no sysconf here: the allocation itself reports a shortage
    if rows * row_bytes > memory:
        raise ConfigurationError(
            f"horizon {integrator.horizon:g} s at substep {integrator.substep:g} s gives "
            f"{rows:,} rows, whose traces need {rows * row_bytes / 2**30:.1f} GiB, more than "
            f"the {memory / 2**30:.1f} GiB of physical memory; use a longer substep or a "
            "shorter horizon"
        )


def _run_continuous(sc: Scenario) -> Trace:
    """The run of a continuous schedule: the law is re-evaluated at every
    row and RK4 stage."""
    dyn, dt, steps = sc.dynamics, sc.integrator.substep, sc.integrator.steps
    t_arr = np.arange(steps + 1) * dt
    lows, highs, check = _state_gate(sc, t_arr)
    x = np.asarray(sc.x0, dtype=float)
    check(x, 0)
    X = np.empty((steps + 1, dyn.n))
    U = np.empty((steps + 1, dyn.m))
    X[0] = x
    for i in range(steps + 1):
        t = float(t_arr[i])
        u = _checked_sample(sc, x, t)
        U[i] = u
        if i < steps:
            x = _rk4_step_closed_loop(sc, x, u, t, dt)
            if not _inside(lows, highs, x):
                check(x, i + 1)
            X[i + 1] = x
    return _record(sc, t_arr, X, U, np.zeros(steps + 1, dtype=int))


def _first_check(schedule: HoldSchedule, dt: float) -> int:
    """Substeps after a sample before resampling may be due."""
    if schedule.mode == "periodic":
        return int(math.floor(schedule.period / dt + 1e-9))
    return max(1, int(math.ceil(schedule.floor / dt - 1e-9)))


def _run_held(scs: list[Scenario]) -> list[Trace]:
    """The runs of sampled scenarios sharing one plant and integrator, under
    the module's sample-and-hold rule, in lockstep; the terminal row keeps
    the last input.

    Before anything is integrated, each member in list order has its start
    state checked (a failure is that member's error, as below). The stack
    advances through segments: each member plans where its current segment
    ends, and the stack integrates to the earliest plan. A member's first
    segment of a hold reaches as far as its previous hold lasted (at least
    to the first row resampling may be due, otherwise at most
    ``_SEGMENT_CAP`` substeps); later ones start at ``first_check`` substeps
    and double up to the cap.
    Each member's due test then covers its rows of the segment, as one stack
    (a periodic member is due at its first eligible row and evaluates
    nothing). The stack resumes from the earliest row where some member is
    due, after those members resample; the rows past it are integrated
    again, and the batch contract makes the others' repeated rows identical.
    A step of either kernel (see the module docstring) that raises, or a
    row that fails the cheaper state test, is stepped again one member at a
    time with ``_rk4``, and the kernel resumes after it. A member's integration error
    stands only if it is due at no row up to the one its failing step
    started from; an error of its sample or due test stands at once. An
    error that stands stops that member and those after it in the list, and
    is raised once the members before it have finished, unless one of them
    raises. With one member left, the stack is its (n,) state.
    """
    k = len(scs)
    dyn, integrator = scs[0].dynamics, scs[0].integrator
    dt, steps = integrator.substep, integrator.steps
    t_arr = np.arange(steps + 1) * dt
    X = np.empty((steps + 1, k, dyn.n))
    U = np.empty((steps + 1, k, dyn.m))
    EV = np.zeros((steps + 1, k), dtype=int)
    gates, first = [], []
    active, error = k, None  # members [0, active) run; error is the next to raise

    def stop(j: int, exc: Exception) -> None:
        nonlocal active, error
        if j < active:
            active, error = j, exc

    for j, sc in enumerate(scs):
        gates.append(_state_gate(sc, t_arr))
        X[0, j] = sc.x0
        try:
            gates[j][2](X[0, j], 0)
        except Exception as exc:
            stop(j, exc)
            break
        first.append(_first_check(sc.schedule, dt))

    periodic = [sc.schedule.mode == "periodic" for sc in scs]
    # The RK4 coefficients, as floats and as arrays. The actuation is
    # evaluated once, on a 2-row stack of the first start state: an (n, m)
    # output has no stack axis, so it does not depend on the state (see the
    # batch contract in ``cbf_core``) and the held inputs' term is computed
    # once per segment.
    coefs = (0.5 * dt, dt, dt / 6.0)
    half, full, sixth = (np.full(dyn.n, c) for c in coefs)
    drift, g = dyn.drift, dyn.actuation(np.tile(X[0, 0], (2, 1)))
    if np.ndim(g) != 2:
        g = None

    def held_rate(u):
        """The rate under the held input u, one member's (m,) or the
        stack's (k, m)."""
        if g is None:
            return lambda s: dyn.rate(s, u)
        gu = np.matvec(g, u)
        return lambda s: drift(s) + gu

    # Per member: the held input, the first row where resampling may be due,
    # the planned end of the current segment, and the length of the next one.
    held, opens, plan, grow = [None] * active, [0] * active, [0] * active, first[:active]

    def restep(row: int):
        """Step ``row`` one member at a time: the states, stacked, or None
        and each failing member's error."""
        states, failures = [], {}
        for j in range(active):
            try:
                x = _rk4(held_rate(held[j]), X[row - 1, j], half, full, sixth)
                gates[j][2](x, row)
                states.append(x)
            except Exception as exc:
                failures[j] = exc
        if failures:
            return None, failures
        return (states[0] if active == 1 else np.array(states)), failures

    frontier, shaped, due = 0, None, dict.fromkeys(range(active), 0)
    while True:
        # In list order: the members due at the frontier resample (one that
        # raises stops itself and those after it), the others whose planned
        # segment ended there plan the next one.
        for j in range(active):
            if due.get(j) == frontier:
                try:
                    u = _checked_sample(scs[j], X[frontier, j], float(t_arr[frontier]))
                except Exception as exc:
                    stop(j, exc)
                    break
                span = frontier + first[j] - opens[j]  # the hold ending here, if any
                if span > _SEGMENT_CAP:
                    span = _SEGMENT_CAP
                held[j], U[frontier, j], EV[frontier, j] = u, u, 1
                opens[j] = frontier + first[j]
                plan[j] = frontier + (span if span > first[j] else first[j])
                grow[j] = first[j]
            elif plan[j] <= frontier:
                plan[j] += grow[j]
                grow[j] = min(2 * grow[j], _SEGMENT_CAP)
        if not active or frontier == steps:
            break

        if shaped != active:  # the stack's views, bounds and kernel, per membership
            shaped = active
            Xa = X[:, 0] if active == 1 else X[:, :active]
            lows = [v for j in range(active) for v in gates[j][0]]
            highs = [v for j in range(active) for v in gates[j][1]]
            floats = active == 1 and g is not None and dyn.n <= _FLOAT_ROWS_MAX_N
            kernel = _float_rows(dyn.n) if floats else _rk4_rows
        if floats:
            head = (drift, np.matvec(g, held[0]).tolist(), *coefs)
        else:
            head = (held_rate(held[0] if active == 1 else np.array(held[:active])),
                    half, full, sixth)
        reached, failures = min(plan[:active]), None
        if reached > steps:
            reached = steps
        row = kernel(*head, Xa, frontier + 1, reached, lows, highs)
        while row <= reached:
            xs, failures = restep(row)
            if failures:
                reached = row - 1
                break
            Xa[row] = xs
            row = kernel(*head, Xa, row + 1, reached, lows, highs)

        due, b = {}, reached if reached < steps else steps - 1
        for j in range(active):
            a = opens[j] if opens[j] > frontier else frontier + 1
            if a > b:
                continue
            if periodic[j]:
                due[j] = a
                continue
            sc, u = scs[j], held[j]  # the input held since member j's last sample
            try:
                if a == b:  # one state costs a third of a stacked evaluation
                    if trigger_value(dyn, sc.barrier, sc.alpha, sc.trigger_c, X[a, j], u) <= 0.0:
                        due[j] = a
                else:
                    fire = trigger_value(
                        dyn, sc.barrier, sc.alpha, sc.trigger_c, X[a:b + 1, j], u
                    ) <= 0.0
                    if fire.any():
                        due[j] = a + int(fire.argmax())
            except Exception as exc:
                stop(j, exc)
                break
        if failures:
            for j, exc in failures.items():
                if j not in due:
                    stop(j, exc)
        frontier = reached
        for j, row in due.items():
            if row < frontier and j < active:
                frontier = row

    if error is not None:
        raise error
    traces = []
    for j, sc in enumerate(scs):
        # Each input holds from its sample row to the next, the last to the end.
        rows = np.flatnonzero(EV[:, j])
        U[:, j] = U[np.repeat(rows, np.diff(rows, append=steps + 1)), j]
        traces.append(_record(sc, t_arr, X[:, j], U[:, j], EV[:, j]))
    return traces


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
    # Each block of rows is reduced to its maximum before the next is made;
    # np.max, not max, so that a NaN state propagates.
    err = [0.0]
    if num_events:
        states = trace.x[marks[0]:]
        last = np.repeat(marks, np.diff(marks, append=len(trace)))
        for block in _row_blocks(len(states)):
            gap = states[block] - trace.x[last[block]]
            err.append(np.max(np.linalg.norm(gap, axis=1)))
    max_hold_error = float(np.max(err))

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
