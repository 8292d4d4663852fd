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

When the plant's actuation returns an (n, m) matrix on a stack, it does not
depend on the state (see the batch contract in ``cbf_core``): the input term
g u of the held input is computed once per sample, and every stage adds it
to the drift. An actuation whose output has a stack axis is evaluated at
every stage. Every new row passes the state check before any callable sees
it. Only the sampled law runs inside that loop (at every stage, in
continuous mode). The barrier value, barrier rate and trigger columns are
recorded afterwards, in stacked evaluations over blocks of the trace, bit
for bit equal to evaluating each row alone.

The rows of a hold step on the kernel that ``_float_rows`` (in
``safehold._kernel``) generates for the state's n coordinates: ``_rk4``'s
operations in ``_rk4``'s order on Python floats, one local per coordinate,
without numpy's dispatch on tiny arrays. Python floats round each operation
as numpy does, so its rows equal ``_rk4``'s bit for bit. It writes each row,
and each sample's input and event flag, through flat memoryviews of the
run's arrays. Under a state-independent actuation its stages compute the
plant's ``scalar_drift`` and add the held input term. The drift is recorded
once per run on stand-in arguments (``_kernel._recorded``), and its
operations are written into each stage, so that a row makes no call; a drift
that is not plain arithmetic on its arguments is called at each stage
instead, and a plant without one has its drift called on an (n,) array.
Under a state-dependent actuation the stages call the plant's rate under the
held input on an (n,) array and add -0.0, which leaves every float as it is.

A periodic schedule under a state-independent actuation whose controller
gives a float law (``float_law``, see ``safety_filter``; a one-input plant)
runs whole in one call of the kernel, which samples that law on the state's
n coordinates at each hold's first row. The float law is generated code
too, with the recorded drift, barrier and nominal law written in, so that
a sample makes one call. This is the only place a run samples a float law;
every other sample calls the controller, which equals it bit for bit.

Holds are integrated in segments. A hold's first segment ends at the first
row where resampling may be due, and each later one is twice as long as
the one before, up to ``_SEGMENT_CAP`` substeps. After each segment, the
due test covers the segment's eligible rows as one stack; the run resumes
from the first due row, where it resamples, and integrates the rest of that
segment again. An error raised past the due row is the discarded tail's,
not the run's. A periodic schedule's due row is known in advance: it is
the last row of the hold's first segment, and no trigger is evaluated.
"""

from __future__ import annotations

import math
import os
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
from ._kernel import _float_rows, _recorded
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
    "analyze",
]

_MODES = ("continuous", "periodic", "event")

# A state whose norm exceeds this (or is not finite) aborts the run.
_DIVERGENCE_LIMIT = 1e8

# Barrier dips smaller than this are integrator noise, not violations: the
# ideal continuous loop rides h = 0 and lands a hair on either side.
VIOLATION_TOL = 1e-9

# Longest segment of a hold, in substeps; a hold's later segments double up
# to it. On the ACC plant a stacked trigger evaluation over 256 rows costs
# about 33 us and a held substep about 1.0 us on the float kernel with the
# drift written in (2-core Xeon, Python 3.11, numpy 2.4, one CPU), so the
# due test adds about an eighth to a long hold, and a firing row discards
# at most 255 substeps.
_SEGMENT_CAP = 256

# Rows per block of ``Trace.to_csv``. Each block's columns become Python
# floats at once, and these raise the process's peak RSS: on `sweep
# configs/approach-plain-sweep.yaml 0.5 1 2 5 10` (fresh processes, 10 each,
# median) by 0.36 MB at 1,024 rows, 0.22 MB at 512 and 0.06 MB at 256 over
# the former ``np.savetxt`` writer, and by none at 32 to 128, while
# ``to_csv`` took about as long from 128 rows up (2-core Xeon, Python 3.11,
# numpy 2.4, one CPU).
_CSV_ROWS = 128


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
        """Write the header, then each row as ``%.17g`` floats and a ``%d``
        event, formatted from the columns ``_CSV_ROWS`` (128) rows at a
        time. A block is held as Python floats while it is written, so the
        block stays small: 1,024-row blocks raised ``sweep``'s peak RSS by
        0.36 MB, 128-row ones by nothing measurable (see ``_CSV_ROWS``)."""
        names = self.columns
        line = ",".join(["%.17g"] * (len(names) - 1) + ["%d"]) + "\n"
        columns = [self.t, *self.x.T, *self.u.T, self.h, self.hdot, self.trigger, self.event]
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for start in range(0, len(self.t), _CSV_ROWS):
                rows = zip(*(c[start:start + _CSV_ROWS].tolist() for c in columns))
                fh.writelines(line % row for row in rows)


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

    ``half``, ``full`` and ``sixth`` are dt / 2, dt and dt / 6. ``rate``
    returns a new array, so the stages combine in place, in the order
    ((k1 + 2 k2) + 2 k3) + k4 with 2 k written k + k, which is exact.

    ``rk4_step`` (on one state or a stack) and the continuous step use
    this formula, and a held run steps with it each row that the kernel of
    ``_float_rows`` could not finish. That kernel does the same operations
    in the same order on Python floats, which round each one as numpy does,
    so both give the same bits.
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


def _checked_sample(sc: Scenario, x: np.ndarray, t: float):
    """The scenario's controller at the state x at time t; an infeasible
    filter is reported with x and t."""
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
    one). It runs a cheaper test first and returns when the state passes
    it: every coordinate within the box and within 0.99 * limit / sqrt(n) of
    zero, as plain float comparisons against the lists ``lows`` and
    ``highs``. Such a state is finite, inside the box, and its squared norm,
    rounding included, stays below limit**2. Only the other states (nan
    fails every comparison) need the norm and the box on arrays. The float
    kernel runs the cheaper test inline and leaves the rest to ``check``.
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
            return
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
    _check_storage(sc)
    if sc.schedule.mode == "continuous":
        return _run_continuous(sc)
    return _run_held(sc)


def _check_storage(sc: Scenario) -> None:
    """Raise ``ConfigurationError`` when the scenario's trace would not fit
    in physical memory; called before any of its arrays is allocated."""
    integrator = sc.integrator
    rows = integrator.steps + 1
    # Per trace row: t, h, hdot, trigger, the state and the input as float64,
    # and the event flag.
    row_bytes = (
        np.dtype(float).itemsize * (4 + sc.dynamics.n + sc.dynamics.m) + np.dtype(int).itemsize
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
    check = _state_gate(sc, t_arr)[2]
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
            check(x, i + 1)
            X[i + 1] = x
    return _record(sc, t_arr, X, U, np.zeros(steps + 1, dtype=int))


def _first_check(schedule: HoldSchedule, dt: float) -> int:
    """Substeps after a sample before resampling may be due."""
    if schedule.mode == "periodic":
        return int(math.floor(schedule.period / dt + 1e-9))
    return max(1, int(math.ceil(schedule.floor / dt - 1e-9)))


def _run_held(sc: Scenario) -> Trace:
    """The run of a sampled scenario under the module's sample-and-hold
    rule; the terminal row keeps the last input.

    A periodic schedule with a float law runs whole in one call of the
    kernel (see the module docstring). When the kernel stops at a hold it
    cannot finish, the loop below runs the rest of the schedule from that
    hold's sample row, under the kernel's input when that sample succeeded;
    else it samples the controller there, so that the error carries the
    time and the state. Every other run is the loop's from the start.

    The loop advances through segments. The first segment of a hold spans
    ``first_check`` substeps, to the first row where resampling may be due;
    each later one doubles the span, up to ``_SEGMENT_CAP`` substeps. The
    due test then covers the segment's eligible rows, as one stack (a
    periodic schedule is due at its first eligible row and evaluates
    nothing). The run resumes from the first due row, where it resamples;
    the rows past it are integrated again. A step of the kernel that
    raises, or a row that fails the cheaper state test, is stepped again
    with ``_rk4`` and checked, and the kernel resumes after it. An
    integration error stands only if resampling is due at no row up to the
    one its failing step started from; an error of a sample or a due test
    stands at once.
    """
    dyn, dt, steps = sc.dynamics, sc.integrator.substep, sc.integrator.steps
    t_arr = np.arange(steps + 1) * dt
    X = np.empty((steps + 1, dyn.n))
    U = np.empty((steps + 1, dyn.m))
    EV = np.zeros(steps + 1, dtype=int)
    lows, highs, check = _state_gate(sc, t_arr)
    X[0] = sc.x0
    check(X[0], 0)
    first = _first_check(sc.schedule, dt)
    periodic = sc.schedule.mode == "periodic"

    # The actuation is evaluated once, on a 2-row stack of the start state:
    # an (n, m) output has no stack axis, so it does not depend on the state
    # (see the batch contract in ``cbf_core``) and the held input's term gu
    # is computed once per sample. Otherwise the rates are the plant's whole
    # rate under the held input, and gu is -0.0 in each coordinate: adding
    # -0.0 leaves every float as it is, -0.0 included (adding 0.0 would
    # not). ``rates`` serves the kernel and ``rate`` the re-step of a row
    # with ``_rk4``; both read the held u and gu when called. The held u is
    # then the (m,) row of U, whether the kernel's float law or the
    # controller gave it.
    coefs = (0.5 * dt, dt, dt / 6.0)
    drift, g = dyn.drift, dyn.actuation(np.tile(X[0], (2, 1)))
    law = body = None
    if np.ndim(g) == 2:
        body = _recorded(dyn.scalar_drift, X[0], dyn.n)
        rates = dyn.scalar_drift or (lambda *c: drift(np.array(c)).tolist())
        rate = lambda s: drift(s) + np.array(gu)
        if periodic and hasattr(sc.controller, "float_law"):
            law = sc.controller.float_law(X[0])
    else:
        g, gu = None, (-0.0,) * dyn.n
        rates = lambda *c: dyn.rate(np.array(c), u).tolist()
        rate = lambda s: dyn.rate(s, u)
    kernel = _float_rows(dyn.n, body)

    # A periodic schedule with a float law runs whole in the kernel, which
    # stops only at a hold it cannot finish; the loop below resumes from
    # that hold's sample row. The frontier is the row the run has reached,
    # ``opens`` the first row where resampling may be due, ``span`` the
    # current segment's length in substeps, and ``due`` the row where the
    # run resamples.
    opens = span = frontier = 0
    if law is not None:
        row = kernel(rates, None, *coefs, X, 1, steps, lows, highs,
                     law, g[:, 0].tolist(), U[:, 0], EV, first)
        frontier = steps if row > steps else (row - 1) // first * first
    due = frontier
    while frontier < steps:
        if due == frontier:
            if not EV[frontier]:
                u = _checked_sample(sc, X[frontier], float(t_arr[frontier]))
                U[frontier], EV[frontier] = u, 1
            opens, span = frontier + first, first
            if g is not None:
                u = U[frontier]
                gu = np.matvec(g, u).tolist()
        else:
            span = min(2 * span, _SEGMENT_CAP)

        reached, failure = min(frontier + span, steps), None
        row = kernel(rates, gu, *coefs, X, frontier + 1, reached, lows, highs)
        while row <= reached:
            try:
                xs = _rk4(rate, X[row - 1], *coefs)
                check(xs, row)
            except Exception as exc:
                reached, failure = row - 1, exc
                break
            X[row] = xs
            row = kernel(rates, gu, *coefs, X, row + 1, reached, lows, highs)

        due = None
        a, b = max(opens, frontier + 1), min(reached, steps - 1)
        if a <= b and periodic:
            due = a
        elif a <= b:
            fire = trigger_value(dyn, sc.barrier, sc.alpha, sc.trigger_c, X[a:b + 1], u) <= 0.0
            if fire.any():
                due = a + int(fire.argmax())
        if failure is not None and due is None:
            raise failure
        frontier = reached if due is None else due

    # Each input holds from its sample row to the next, the last to the end.
    rows = np.flatnonzero(EV)
    U = U[np.repeat(rows, np.diff(rows, append=steps + 1))]
    return _record(sc, t_arr, X, U, EV)


def analyze(trace: Trace) -> RunSummary:
    """Summarize a trace: worst barrier value, first violation, event count,
    inter-event gap statistics, and the largest hold error (state drift
    since the last sampling instant).

    A violation is a row whose barrier value is below -``VIOLATION_TOL``;
    ``min_h`` reports the worst value itself.
    """
    i_min = int(np.argmin(trace.h))
    min_h = float(trace.h[i_min])
    min_h_time = float(trace.t[i_min])
    below = np.flatnonzero(trace.h < -VIOLATION_TOL)
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
    # Each block of rows finds its sampling rows in marks and is reduced to
    # its maximum before the next is made; np.max, not max, so that a NaN
    # state propagates.
    err = [0.0]
    if num_events:
        states = trace.x[marks[0]:]
        for block in _row_blocks(len(states)):
            rows = np.arange(block.start, block.stop) + marks[0]
            last = marks[np.searchsorted(marks, rows, side="right") - 1]
            gap = states[block] - trace.x[last]
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
