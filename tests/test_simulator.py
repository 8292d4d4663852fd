"""Sample-and-hold closed-loop engine: held integration, scheduling,
trigger evaluation, trace analysis, and CSV persistence."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import safehold
from safehold.acc_benchmark import acc_filter, certified_tuning, ride_region
from safehold.cbf_core import BarrierFunction, ClassKappa, ControlAffineDynamics
from safehold.config import load_config, parse_config, scenario_from_config
from safehold.constants import _BLOCK_ROWS, OperatingRegion
from safehold.errors import (
    ConfigurationError,
    DivergenceError,
    InfeasibleFilterError,
    RegionExitError,
)
from safehold.safety_filter import CbfQpFilter, NominalController
from safehold.simulator import (
    _FLOAT_ROWS_MAX_N,
    _float_rows,
    _rk4,
    HoldSchedule,
    IntegratorConfig,
    Scenario,
    Trace,
    analyze,
    rk4_step,
    run,
    run_many,
    trigger_value,
)

from oracles import rk4_reference, run_reference

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CERTIFIED = CONFIGS / "ride-certified.yaml"


def _ride_event(horizon: float) -> Scenario:
    """The certified ride config's event-triggered run, cut to ``horizon``."""
    return scenario_from_config(load_config(CERTIFIED, [f"sim.horizon={horizon}"]))


def _decay() -> ControlAffineDynamics:
    return ControlAffineDynamics(
        drift=lambda x: -x,
        actuation=lambda x: np.zeros((1, 1)),
        n=1, m=1,
    )


def _integrator() -> ControlAffineDynamics:
    return ControlAffineDynamics(
        drift=lambda x: np.zeros(1),
        actuation=lambda x: np.ones((1, 1)),
        n=1, m=1,
    )


def _integrate_held(dyn, x0, u, steps, substep=1e-3) -> np.ndarray:
    """States at every substep boundary under a constant held input."""
    path = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        path.append(rk4_step(dyn, path[-1], u, substep))
    return np.array(path)


class TestIntegrateHeld:
    def test_frozen_field_is_exact(self):
        # constant closed-loop field: x(t) = x0 + t * (f + g u), exact for RK4
        dyn = ControlAffineDynamics(
            drift=lambda x: np.array([1.0, -2.0]),
            actuation=lambda x: np.array([[1.0], [0.5]]),
            n=2, m=1,
        )
        path = _integrate_held(dyn, np.array([0.0, 1.0]), np.array([2.0]), 8, substep=0.125)
        assert path.shape == (9, 2)
        assert np.allclose(path[-1], [3.0, 1.0 + (-2.0 + 1.0) * 1.0], atol=1e-12)

    def test_exponential_decay_oracle(self):
        path = _integrate_held(_decay(), np.array([1.0]), np.zeros(1), 1000)
        assert path[-1, 0] == pytest.approx(0.36787944117144233, abs=1e-8)

    def test_integrator_with_held_input(self):
        path = _integrate_held(_integrator(), np.array([0.5]), np.array([2.0]), 4, substep=0.25)
        assert path[-1, 0] == pytest.approx(2.5, abs=1e-15)
        assert path[0, 0] == 0.5

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises(self):
        # held-input rollout of xdot = x^2 from 1 blows up at t = 1
        blow = ControlAffineDynamics(
            drift=lambda x: x * x, actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
        sc = Scenario(
            name="blowup-held", dynamics=blow, barrier=barrier,
            alpha=ClassKappa(1.0), controller=lambda x: np.zeros(1), x0=(1.0,),
            integrator=IntegratorConfig(horizon=3.0, substep=1e-2),
            schedule=HoldSchedule.periodic(3.0),
        )
        with pytest.raises(DivergenceError) as exc:
            run(sc)
        assert 0.9 < exc.value.time < 1.1


def _scalar_scenario(mode: str, *, drift_rate=0.0, x0=1.0, horizon=1.0,
                     substep=1e-3, period=None, floor=0.0, c=0.0,
                     region=None, nominal=None) -> Scenario:
    dyn = ControlAffineDynamics(
        drift=lambda x: np.array([drift_rate]),
        actuation=lambda x: np.ones((1, 1)),
        n=1, m=1,
    )
    barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
    alpha = ClassKappa(1.0)
    filt = CbfQpFilter(
        dynamics=dyn, barrier=barrier, alpha=alpha,
        nominal=NominalController(law=nominal or (lambda x: np.zeros(1))),
    )
    return Scenario(
        name=f"scalar-{mode}",
        dynamics=dyn, barrier=barrier, alpha=alpha, controller=filt,
        x0=(x0,),
        integrator=IntegratorConfig(horizon=horizon, substep=substep),
        schedule=HoldSchedule(mode=mode, period=period, floor=floor),
        region=region, trigger_c=c,
    )


class TestRun:
    def test_trace_spacing_and_shapes(self):
        tr = run(_scalar_scenario("periodic", period=0.25, horizon=1.0, substep=0.0625))
        assert len(tr) == 17
        assert np.array_equal(tr.t, np.arange(17) * 0.0625)
        assert tr.x.shape == (17, 1) and tr.u.shape == (17, 1)

    def test_period_equal_to_horizon_gives_one_event(self):
        tr = run(_scalar_scenario("periodic", period=1.0, horizon=1.0))
        assert tr.events == (0.0,)
        assert tr.event[0] == 1 and tr.event[1:].sum() == 0

    def test_terminal_row_never_resamples(self):
        tr = run(_scalar_scenario("periodic", period=0.5, horizon=1.0, substep=0.0625))
        assert tr.events == (0.0, 0.5)
        assert tr.event[-1] == 0

    def test_input_is_bitwise_constant_between_events(self):
        sc = _scalar_scenario(
            "periodic", period=0.25, horizon=1.0, substep=0.0625,
            nominal=lambda x: np.sin(x.T[:1]).T,
        )
        tr = run(sc)
        marks = list(np.flatnonzero(tr.event == 1)) + [len(tr)]
        assert len(marks) == 5
        for a, b in zip(marks[:-1], marks[1:]):
            assert np.all(tr.u[a:b] == tr.u[a])

    def test_event_mode_starts_with_an_event_at_zero(self):
        tr = run(_scalar_scenario("event", drift_rate=-0.5, x0=2.0))
        assert tr.events[0] == 0.0

    def test_event_mode_trigger_positive_between_events(self):
        # x falls toward the boundary; with no floor every substep checks the
        # held-input trigger, so non-event rows can only record positive ones
        # (the terminal row is never checked and is excluded).
        tr = run(_scalar_scenario("event", drift_rate=-0.5, x0=2.0, horizon=4.0))
        assert len(tr.events) > 1
        interior = (tr.event[:-1] == 0)
        assert np.all(tr.trigger[:-1][interior] > 0.0)

    def test_event_floor_blocks_early_resampling(self):
        base = _scalar_scenario("event", drift_rate=-0.5, x0=2.0, horizon=4.0)
        floored = _scalar_scenario("event", drift_rate=-0.5, x0=2.0, horizon=4.0, floor=1.0)
        t_free = run(base)
        t_floor = run(floored)
        assert len(t_floor.events) <= len(t_free.events)
        gaps = np.diff(np.asarray(t_floor.events))
        assert np.all(gaps >= 1.0 - 1e-12)

    def test_continuous_mode_has_no_events(self):
        tr = run(_scalar_scenario("continuous", drift_rate=-0.5, x0=2.0))
        assert tr.events == ()
        assert tr.event.sum() == 0

    def test_period_shorter_than_substep_rejected(self):
        # Refused when the scenario is built, at each substep the properties
        # draw; one substep, up to the quantization's tolerance, is a hold.
        for substep in (1e-3, 2.5e-3, 1e-2):
            message = rf"^hold period {0.5 * substep} is shorter than the substep {substep}$"
            with pytest.raises(ConfigurationError, match=message):
                _scalar_scenario("periodic", period=0.5 * substep, substep=substep)
            for period in (substep, substep * (1.0 - 1e-10)):
                assert _scalar_scenario("periodic", period=period, substep=substep).schedule.period
        with pytest.raises(ConfigurationError):
            run(_scalar_scenario("periodic", period=1e-4, substep=1e-3))

    def test_substep_and_floor_must_be_finite_and_not_negative(self):
        for substep in (0.0, -1e-3, float("nan"), float("inf")):
            message = f"substep must be finite and > 0, got {substep}"
            with pytest.raises(ConfigurationError, match=message):
                IntegratorConfig(horizon=1.0, substep=substep)
        for floor in (-1e-3, float("nan"), float("inf")):
            message = f"floor must be finite and >= 0, got {floor}"
            with pytest.raises(ConfigurationError, match=message):
                HoldSchedule.event(floor=floor)

    def test_floor_only_in_event_mode(self):
        for mode, period in (("continuous", None), ("periodic", 0.5)):
            with pytest.raises(ConfigurationError, match="floor is only valid in event mode"):
                HoldSchedule(mode=mode, period=period, floor=0.5)
            assert HoldSchedule(mode=mode, period=period, floor=0.0).floor == 0.0
        assert HoldSchedule.event(floor=0.5).floor == 0.5

    def test_scenario_checks_start_state_and_region_against_the_plant(self):
        with pytest.raises(ConfigurationError, match=r"x0 has shape \(2,\), expected \(1,\)"):
            dataclasses.replace(_scalar_scenario("continuous"), x0=(1.0, 2.0))
        plane = OperatingRegion(lower=(0.0, 0.0), upper=(2.0, 2.0))
        with pytest.raises(ConfigurationError, match="region has dimension 2, expected 1"):
            _scalar_scenario("continuous", region=plane)

    def test_region_exit_raises_with_location(self):
        reg = OperatingRegion(lower=(0.0,), upper=(1.5,))
        sc = _scalar_scenario(
            "periodic", period=0.25, horizon=5.0, x0=1.0, drift_rate=0.3, region=reg,
            nominal=lambda x: np.array([1.0]),
        )
        with pytest.raises(RegionExitError) as exc:
            run(sc)
        assert exc.value.time is not None and exc.value.time > 0.0

    def test_divergence_raises(self):
        dyn = ControlAffineDynamics(
            drift=lambda x: 100.0 * x, actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            nominal=NominalController(law=lambda x: np.zeros(1)),
        )
        sc = Scenario(
            name="blowup", dynamics=dyn, barrier=barrier,
            alpha=ClassKappa(1.0), controller=filt, x0=(1.0,),
            integrator=IntegratorConfig(horizon=1.0, substep=1e-3),
            schedule=HoldSchedule(mode="periodic", period=0.5),
        )
        with pytest.raises(DivergenceError):
            run(sc)

    def test_infeasible_filter_propagates(self):
        dyn = ControlAffineDynamics(
            drift=lambda x: np.array([-1.0]), actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            nominal=NominalController(law=lambda x: np.zeros(1)),
        )
        sc = Scenario(
            name="stuck", dynamics=dyn, barrier=barrier,
            alpha=ClassKappa(1.0), controller=filt, x0=(0.0,),
            integrator=IntegratorConfig(horizon=1.0, substep=1e-3),
            schedule=HoldSchedule(mode="event"),
        )
        with pytest.raises(InfeasibleFilterError):
            run(sc)


class TestTriggerValue:
    def test_boundary_balancing_input_is_zero(self):
        dyn = ControlAffineDynamics(
            drift=lambda x: np.array([1.0]), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
        got = trigger_value(
            dyn, barrier, ClassKappa(1.0), 0.0, np.array([0.0]), np.array([-1.0]),
        )
        assert got == 0.0

    def test_amplification_formula(self):
        dyn = ControlAffineDynamics(
            drift=lambda x: np.array([0.3]), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
        alpha = ClassKappa(2.0)
        x, u, c = np.array([0.5]), np.array([0.1]), 3.0
        got = trigger_value(dyn, barrier, alpha, c, x, u)
        assert got == pytest.approx((0.3 + 0.1) + (1.0 + c) * 1.0, rel=1e-15)

    def test_matches_trace_rows(self):
        sc = _ride_event(horizon=1.0)
        tr = run(sc)
        for i in (0, 137, len(tr) - 1):
            manual = trigger_value(
                sc.dynamics, sc.barrier, sc.alpha, sc.trigger_c, tr.x[i], tr.u[i],
            )
            assert tr.trigger[i] == pytest.approx(manual, rel=1e-12)


def _synthetic_trace(h: np.ndarray, t: np.ndarray | None = None) -> Trace:
    n = len(h)
    t = np.arange(n, dtype=float) / 10.0 if t is None else t
    return Trace(
        t=t, x=np.zeros((n, 1)), u=np.zeros((n, 1)), h=np.asarray(h, dtype=float),
        hdot=np.zeros(n), trigger=np.zeros(n), event=np.zeros(n, dtype=int),
    )


class TestAnalyze:
    def test_nonnegative_h_reports_no_violation(self):
        s = analyze(_synthetic_trace(np.array([1.0, 0.5, 0.0, 0.2])))
        assert s.violation_time is None
        assert s.min_h == 0.0 and s.min_h_time == pytest.approx(0.2)

    def test_dip_is_located(self):
        t = np.arange(0.0, 5.0 + 1e-12, 0.1)
        h = np.ones_like(t)
        h[t >= 3.7] = -0.02
        h[t >= 4.0] = 1.0
        s = analyze(_synthetic_trace(h, t))
        assert s.violation_time == pytest.approx(3.7)
        assert s.min_h == -0.02
        assert s.min_h_time == pytest.approx(3.7)

    def test_violation_tol_deadband(self):
        tr = _synthetic_trace(np.array([0.5, -1e-12, 0.5]))
        assert analyze(tr).violation_time is not None
        assert analyze(tr, violation_tol=1e-9).violation_time is None
        with pytest.raises(ConfigurationError):
            analyze(tr, violation_tol=-1.0)

    def test_periodic_gap_statistics_are_exact(self):
        tr = run(_scalar_scenario("periodic", period=0.25, horizon=1.0, substep=0.0625))
        s = analyze(tr)
        assert s.num_events == 4
        assert s.miet == 0.25 and s.mean_iet == 0.25 and s.max_iet == 0.25

    def test_single_event_has_no_gap_statistics(self):
        tr = run(_scalar_scenario("periodic", period=1.0, horizon=1.0))
        s = analyze(tr)
        assert s.num_events == 1
        assert s.miet is None and s.mean_iet is None and s.max_iet is None

    def test_hold_error_measures_drift_since_last_sample(self):
        # single event at t=0, then x moves linearly: worst drift is at the end
        sc = _scalar_scenario(
            "periodic", period=1.0, horizon=1.0, substep=0.125, x0=1.0,
            nominal=lambda x: np.array([2.0]),
        )
        tr = run(sc)
        s = analyze(tr)
        assert s.max_hold_error == pytest.approx(2.0, abs=1e-12)

    def test_no_events_means_zero_hold_error(self):
        s = analyze(_synthetic_trace(np.ones(5)))
        assert s.max_hold_error == 0.0

    @pytest.mark.parametrize("case", ["late_first_event", "no_events", "nan_state", "long"])
    def test_blocked_hold_error_equals_the_whole_trace_formula(self, case):
        # Traces of two blocks and of more, each block reduced before the
        # next; the reference is one full-height pass over the trace.
        rows = {"long": 3 * _BLOCK_ROWS + 5}.get(case, _BLOCK_ROWS + 7)
        rng = np.random.default_rng(3)
        event = (rng.random(rows) < 0.01).astype(int)
        event[:100] = 0
        if case == "no_events":
            event[:] = 0
        x = rng.normal(size=(rows, 3))
        if case == "nan_state":
            x[_BLOCK_ROWS + 3, 1] = np.nan
        trace = dataclasses.replace(_synthetic_trace(np.ones(rows)), x=x, event=event)

        marks = np.flatnonzero(event == 1)
        want = 0.0
        if len(marks):
            idx = np.maximum.accumulate(np.where(event == 1, np.arange(rows), -1))
            covered = idx >= 0
            err = np.zeros(rows)
            err[covered] = np.linalg.norm(x[covered] - x[idx[covered]], axis=1)
            want = float(np.max(err))
        got = analyze(trace).max_hold_error
        assert float(got).hex() == float(want).hex()
        assert np.isnan(got) == (case == "nan_state")


class TestCsvRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        tr = run(_ride_event(horizon=0.5))
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        # columns: t, x0..x2, u0, h, hdot, trigger, event
        assert data.shape == (len(tr), 9)
        assert np.array_equal(data[:, 0], tr.t)
        assert np.array_equal(data[:, 1:4], tr.x)
        assert np.array_equal(data[:, 4:5], tr.u)
        assert np.array_equal(data[:, 5], tr.h)
        assert np.array_equal(data[:, 6], tr.hdot)
        assert np.array_equal(data[:, 7], tr.trigger)
        assert np.array_equal(data[:, 8], tr.event)
        assert tr.events and set(np.unique(data[:, 8])) == {0.0, 1.0}

    def test_header_names_the_columns(self, tmp_path):
        tr = run(_scalar_scenario("periodic", period=0.5, horizon=1.0, substep=0.25))
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x0,u0,h,hdot,trigger,event"


class TestNumericalBehavior:
    def test_periodic_min_h_converges_in_substep(self):
        # halving the substep moves min_h by far less than the tolerance the
        # acceptance runs use; event-mode runs are excluded on purpose since
        # firing times quantize to the substep
        mins = []
        for substep in (1e-3, 5e-4):
            sc = scenario_from_config(load_config(
                CONFIGS / "approach-plain-sweep.yaml", ["sim.period=0.25", f"sim.substep={substep}"],
            ))
            mins.append(analyze(run(sc)).min_h)
        assert abs(mins[0] - mins[1]) < 1e-6

    def test_continuous_filter_rides_the_boundary_safely(self):
        sc = scenario_from_config(parse_config({
            "scenario": {"name": "acc-approach", "controller": "plain"},
            "sim": {"mode": "continuous", "horizon": 10.0},
        }))
        s = analyze(run(sc), violation_tol=1e-6)
        assert s.violation_time is None
        assert s.min_h >= -1e-6


# ---------------------------------------------------------------------------
# hold-segment core against the row-by-row reference loop

PROPERTY = settings(max_examples=40, deadline=None)

PLANTS = ("acc", "constant", "linear", "twin", "blowup", "blind")

COLUMNS = ("t", "x", "u", "h", "hdot", "trigger", "event")


def _outcome(fn, sc):
    """fn(sc), or the error it raises: the run's own errors and those of the
    plant's or the law's callables alike."""
    try:
        return fn(sc)
    except Exception as exc:
        return exc


def _assert_same_outcome(sc):
    return _assert_matches(_outcome(run, sc), _outcome(run_reference, sc))


def _assert_matches(got, want):
    """got equals want bit for bit: the same error (type, message, time and
    state) or a trace with the same seven columns."""
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert got.args == want.args
        assert getattr(got, "time", None) == getattr(want, "time", None)
        assert np.array_equal(getattr(got, "state", None), getattr(want, "state", None))
        return want
    assert isinstance(got, Trace), got
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    return want


def _counted(sc: Scenario, calls: list) -> Scenario:
    """sc with a plant whose actuation appends to calls at each call. The
    controller keeps its own plant, so its calls are not counted."""
    act = sc.dynamics.actuation
    dyn = dataclasses.replace(sc.dynamics, actuation=lambda x: calls.append(1) or act(x))
    return dataclasses.replace(sc, dynamics=dyn)


def _counted_rk4(monkeypatch) -> list:
    """Patches the simulator's numpy ``_rk4`` to append to the list returned
    at each call."""
    calls = []
    monkeypatch.setattr("safehold.simulator._rk4", lambda *args: calls.append(1) or _rk4(*args))
    return calls


def _blocks(rows: int) -> int:
    """The stacked evaluations that record the columns of rows rows."""
    return -(-rows // _BLOCK_ROWS)


def _blind_plant() -> CbfQpFilter:
    """xdot = 1 + g(x) u with the input cut off past x = 0.5001, h = 1 - x:
    the filter turns infeasible once the state crosses the cut-off."""
    dyn = ControlAffineDynamics(
        drift=lambda x: np.ones(np.shape(x)),
        actuation=lambda x: np.where(x.T[0] < 0.5001, 1.0, 0.0)[..., None, None],
        n=1, m=1,
    )
    barrier = BarrierFunction(value=lambda x: 1.0 - x.T[0], gradient=lambda x: -np.ones(np.shape(x)))
    return CbfQpFilter(
        dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
        nominal=NominalController(law=lambda x: np.zeros(np.shape(x))),
    )


@st.composite
def plants(draw, kind: str) -> dict:
    """Scenario fields of one test plant, x0 and region included. Several
    return outputs that broadcast against a stack instead of stacking."""
    if kind == "acc":
        filt = acc_filter()
        controller = certified_tuning().controller(filt) if draw(st.booleans()) else filt
        speed = draw(st.floats(17.0, 20.0))
        gap = min(1.8 * speed * speed + draw(st.floats(0.0, 40.0)), 739.0)
        x0 = (draw(st.floats(0.0, 50.0)), speed, gap)
        region = draw(st.sampled_from((None, "ride", "tight")))
        if region == "ride":
            region = ride_region()
        elif region == "tight":
            w = draw(st.sampled_from(((5.0, 0.01, 1.0), (1.0, 0.1, 0.5), (20.0, 1.0, 10.0))))
            region = OperatingRegion(
                lower=tuple(v - d for v, d in zip(x0, w)), upper=tuple(v + d for v, d in zip(x0, w)),
            )
        return dict(dynamics=filt.dynamics, barrier=filt.barrier, controller=controller,
                    x0=x0, region=region)
    if kind == "constant":
        # drift, gradient, actuation and nominal law ignore the stack
        d = draw(st.sampled_from((-1.0, -0.5, 0.3)))
        u0 = draw(st.sampled_from((0.0, 1.0, -2.0)))
        dyn = ControlAffineDynamics(
            drift=lambda x: np.array([d]), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            nominal=NominalController(law=lambda x: np.array([u0])),
        )
        x0 = draw(st.floats(0.05, 3.0))
        region = draw(st.sampled_from((None, (0.0, 3.5), (x0 - 0.2, x0 + 0.2))))
        region = None if region is None else OperatingRegion(lower=(region[0],), upper=(region[1],))
        return dict(dynamics=dyn, barrier=barrier, controller=filt, x0=(x0,), region=region)
    if kind == "linear":
        # per-row drift and nominal law, constant actuation and gradient
        a = np.array([[-0.4, 1.0], [-1.0, -0.2]])
        c, k = np.array([0.3, -1.0]), np.array([0.5, 1.5])
        dyn = ControlAffineDynamics(
            drift=lambda x: np.vecdot(x[..., None, :], a),
            actuation=lambda x: np.array([[0.2], [1.0]]), n=2, m=1,
        )
        barrier = BarrierFunction(value=lambda x: 1.0 + np.vecdot(x, c), gradient=lambda x: c)
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(2.0),
            nominal=NominalController(law=lambda x: np.vecdot(x, k)[..., None]),
        )
        x0 = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        region = draw(st.sampled_from((None, 1.2, 3.0)))
        region = None if region is None else OperatingRegion(lower=(-region,) * 2, upper=(region,) * 2)
        return dict(dynamics=dyn, barrier=barrier, controller=filt, x0=x0, region=region)
    if kind == "twin":
        # two inputs, so the recorded rate sums two products per row
        g = np.array([[1.0, 0.3], [-0.2, 0.5]])
        dyn = ControlAffineDynamics(
            drift=lambda x: -0.3 * x, actuation=lambda x: g, n=2, m=2,
        )
        barrier = BarrierFunction(
            value=lambda x: 4.0 - np.vecdot(x, x), gradient=lambda x: -2.0 * x,
        )
        x0 = (draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5)))
        return dict(dynamics=dyn, barrier=barrier, controller=lambda x: np.sin(x) - 0.7 * x,
                    x0=x0, region=None)
    if kind == "blowup":
        dyn = ControlAffineDynamics(
            drift=lambda x: x * x, actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: 2.0 - x.T[0], gradient=lambda x: -np.ones(1))
        return dict(dynamics=dyn, barrier=barrier, controller=lambda x: np.zeros(1),
                    x0=(draw(st.floats(2.5, 40.0)),), region=None)
    filt = _blind_plant()
    return dict(dynamics=filt.dynamics, barrier=filt.barrier, controller=filt,
                x0=(draw(st.floats(0.3, 0.5)),), region=None)


@st.composite
def scenarios(draw, kind: str) -> Scenario:
    fields = draw(plants(kind))
    substep = draw(st.sampled_from((1e-3, 2.5e-3, 1e-2)))
    horizon = draw(st.floats(substep, 0.5))
    mode = draw(st.sampled_from(("continuous", "periodic", "event")))
    if mode == "periodic":
        multiple = draw(st.sampled_from((1.0, 1.37, 2.0, 7.0, 25.0, 100.0)))
        schedule = HoldSchedule.periodic(multiple * substep)
    elif mode == "event":
        schedule = HoldSchedule.event(floor=draw(st.sampled_from((0.0, 0.5, 1.0, 3.0, 20.0))) * substep)
    else:
        schedule = HoldSchedule.continuous()
    return Scenario(
        name="property", alpha=ClassKappa(1.0),
        integrator=IntegratorConfig(horizon=horizon, substep=substep), schedule=schedule,
        trigger_c=draw(st.sampled_from((0.0, 1e-6, 0.01, 3.0))), **fields,
    )


def _ramp(lower: float, horizon: float) -> Scenario:
    """xdot = u, h = x, nominal u = -1, trigger amplification c = 1: from
    x0 = 0.9 the filter holds u = -x at each sample, and each hold ends when
    x has fallen to half its sampled value. A speculative segment that runs past that row keeps
    falling at the old rate toward the box's lower face."""
    dyn = ControlAffineDynamics(
        drift=lambda x: np.zeros(np.shape(x)), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
    )
    barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
    filt = CbfQpFilter(
        dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
        nominal=NominalController(law=lambda x: -np.ones(np.shape(x))),
    )
    return Scenario(
        name="ramp", dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
        controller=filt, x0=(0.9,), integrator=IntegratorConfig(horizon=horizon, substep=0.02),
        schedule=HoldSchedule.event(), region=OperatingRegion(lower=(lower,), upper=(1.0,)),
        trigger_c=1.0,
    )


class TestHoldCore:
    @pytest.mark.parametrize("kind", PLANTS)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_equals_the_row_by_row_reference(self, kind):
        @PROPERTY
        @given(scenarios(kind))
        def check(sc):
            _assert_same_outcome(sc)

        check()

    def test_error_in_a_discarded_tail_is_not_raised(self):
        # First hold: x falls from 0.9 at rate 0.9 and the trigger fires at
        # x = 0.45, 0.5 s in (row 25); the segment holding that row runs on
        # at the old rate and leaves the box at row 29 (x = 0.378), but the
        # run resamples at row 25 and stays inside to the end at row 30.
        sc = _ramp(lower=0.38, horizon=0.6)
        trace = _assert_same_outcome(sc)
        assert isinstance(trace, Trace)
        assert trace.events == (0.0, 0.5)
        assert trace.x.min() > 0.4

    def test_region_exit_after_a_speculative_segment(self):
        # The same discarded tail; the run itself, falling at rate 0.45
        # after the resample, leaves the box at row 33.
        sc = _ramp(lower=0.38, horizon=1.0)
        err = _assert_same_outcome(sc)
        assert isinstance(err, RegionExitError)
        assert err.time == 33 * 0.02

    def test_a_drift_error_mid_segment_stands_only_where_the_run_reaches_it(self):
        # The ramp's drift is undefined below x = 0.4. A step of the first
        # hold's discarded tail reaches below it from row 27; the run,
        # resampled at row 25, reaches below it from row 30.
        def drift(x):
            if np.any(x < 0.4):
                raise ValueError("drift undefined below x = 0.4")
            return np.zeros(np.shape(x))

        def ramp(horizon):
            sc = _ramp(lower=0.0, horizon=horizon)
            return dataclasses.replace(sc, dynamics=dataclasses.replace(sc.dynamics, drift=drift))

        assert _assert_same_outcome(ramp(0.6)).events == (0.0, 0.5)
        for fn in (run, run_reference, lambda sc: run_many([sc])[0]):
            with pytest.raises(ValueError, match="drift undefined below x = 0.4"):
                fn(ramp(1.0))

    def test_a_state_past_the_cheaper_test_within_the_limit_is_kept(self, monkeypatch):
        # Every row of x = 0.995e8 fails the cheaper per-axis test (0.99e8)
        # but its norm is within the 1e8 limit, so it is stepped again alone
        # with ``_rk4`` and kept. The plant's actuation is constant, so no
        # stage of those steps calls it either.
        calls = []
        sc = _counted(_scalar_scenario("periodic", period=0.25, x0=0.995e8, horizon=0.5), calls)
        steps = _counted_rk4(monkeypatch)
        calls.clear()
        assert np.all(run(sc).x == 0.995e8)
        assert len(calls) == 1 + _blocks(501)
        assert len(steps) == 500
        assert np.all(_assert_same_outcome(sc).x == 0.995e8)
        _assert_group_matches([sc, dataclasses.replace(sc, x0=(0.996e8,))])
        # Falling at 1.5e7 per second, the state passes the cheaper test
        # again from row 34 on: the rows before are stepped again one at a
        # time, and the float kernel resumes after each of them.
        falling = _scalar_scenario(
            "periodic", period=0.25, x0=0.995e8, horizon=0.5, drift_rate=-1.5e7,
        )
        steps.clear()
        x = run(falling).x[1:, 0]
        assert len(steps) == np.count_nonzero(x > 0.99e8) == 33
        _assert_same_outcome(falling)

    def test_continuous_stage_infeasibility_carries_stage_time(self):
        # The filter's input at x0 = 0.5 is -0.5, so stage 2 sits at
        # 0.5 + 0.5e-3 * 0.5, past the actuation cut-off, at t = 0.5e-3.
        filt = _blind_plant()
        sc = Scenario(
            name="blind", dynamics=filt.dynamics, barrier=filt.barrier, alpha=filt.alpha,
            controller=filt, x0=(0.5,), integrator=IntegratorConfig(horizon=0.1, substep=1e-3),
            schedule=HoldSchedule.continuous(),
        )
        err = _assert_same_outcome(sc)
        assert isinstance(err, InfeasibleFilterError)
        assert err.time == 0.5e-3
        assert np.array_equal(err.state, [0.50025])

    def test_continuous_substep_calls_the_law_four_times(self):
        calls = []
        filt = acc_filter()

        def law(x):
            calls.append(1)
            return filt(x)

        ride = load_config(
            CERTIFIED, ["scenario.controller=plain", "sim.mode=continuous", "sim.horizon=0.01"],
        )
        sc = dataclasses.replace(scenario_from_config(ride), controller=law)
        calls.clear()
        trace = run(sc)
        # one call per row, plus stages 2-4 of each substep
        assert len(calls) == len(trace) + 3 * (len(trace) - 1)

    def test_trigger_value_on_a_stack_equals_single_states(self):
        sc = _ride_event(horizon=0.2)
        trace = run(sc)
        args = (sc.dynamics, sc.barrier, sc.alpha, sc.trigger_c)
        stacked = trigger_value(*args, trace.x, trace.u)
        assert stacked.shape == (len(trace),)
        single = [trigger_value(*args, x, u) for x, u in zip(trace.x, trace.u)]
        assert all(type(v) is float for v in single)
        assert np.array_equal(stacked, single)
        assert np.array_equal(stacked, trace.trigger)
        held = trigger_value(*args, trace.x, trace.u[0])
        assert np.array_equal(held, [trigger_value(*args, x, trace.u[0]) for x in trace.x])

    def test_trigger_value_broadcasts_constant_fields(self):
        sc = _scalar_scenario("event", drift_rate=-0.5)
        xs = np.array([[0.2], [1.0], [3.0]])
        got = trigger_value(sc.dynamics, sc.barrier, sc.alpha, 2.0, xs, np.array([0.25]))
        assert got.shape == (3,)
        assert np.array_equal(got, (-0.5 + 0.25) + 3.0 * xs[:, 0])


# ---------------------------------------------------------------------------
# lockstep: a stack of states, and a group of scenarios run as one stack


@st.composite
def stacks(draw, kind: str):
    """A test plant with a (k, n) stack of states around its start state and
    one input per row."""
    fields = draw(plants(kind))
    dyn = fields["dynamics"]
    x0 = np.asarray(fields["x0"])
    k = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0)
    xs = x0 + np.array([[draw(unit) for _ in range(dyn.n)] for _ in range(k)]) * (
        0.05 * np.abs(x0) + 0.1
    )
    scale = 2000.0 if kind == "acc" else 3.0
    us = scale * np.array([[draw(unit) for _ in range(dyn.m)] for _ in range(k)])
    return dyn, xs, us


@st.composite
def groups(draw, kind: str) -> list[Scenario]:
    """One to four sampled scenarios sharing one plant object, substep and
    horizon, each with its own start state, region, controller, schedule
    and trigger amplification. No period is shorter than the substep."""
    substep = draw(st.sampled_from((1e-3, 2.5e-3, 1e-2)))
    integrator = IntegratorConfig(horizon=draw(st.floats(substep, 0.5)), substep=substep)
    members, dyn = [], None
    for _ in range(draw(st.integers(1, 4))):
        fields = draw(plants(kind))
        dyn = fields["dynamics"] if dyn is None else dyn
        if draw(st.booleans()):
            multiple = draw(st.sampled_from((1.0, 1.37, 2.0, 7.0, 25.0, 100.0)))
            schedule = HoldSchedule.periodic(multiple * substep)
        else:
            floor = draw(st.sampled_from((0.0, 0.5, 1.0, 3.0, 20.0)))
            schedule = HoldSchedule.event(floor=floor * substep)
        members.append(Scenario(
            name="member", alpha=ClassKappa(1.0), integrator=integrator,
            schedule=schedule, trigger_c=draw(st.sampled_from((0.0, 1e-6, 0.01, 3.0))),
            **{**fields, "dynamics": dyn},
        ))
    return members


def _reference_group(group):
    """What ``[run(sc) for sc in group]`` gives: every trace, or the error of
    the first scenario whose run raises."""
    traces = []
    for sc in group:
        out = _outcome(run_reference, sc)
        if isinstance(out, Exception):
            return out
        traces.append(out)
    return traces


def _assert_group_matches(group):
    got, want = _outcome(run_many, group), _reference_group(group)
    if isinstance(want, Exception):
        return _assert_matches(got, want)
    assert isinstance(got, list) and len(got) == len(want), got
    for a, b in zip(got, want):
        _assert_matches(a, b)
    return want


class TestLockstep:
    @pytest.mark.parametrize("kind", PLANTS)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_stacked_step_equals_its_rows_stepped_alone(self, kind):
        @PROPERTY
        @given(stacks(kind), st.sampled_from((1e-3, 2.5e-2)))
        def check(case, dt):
            dyn, xs, us = case
            rows = np.array([rk4_step(dyn, x, u, dt) for x, u in zip(xs, us)])
            textbook = np.array([rk4_reference(dyn, x, u, dt) for x, u in zip(xs, us)])
            assert rows.tobytes() == textbook.tobytes()
            assert rk4_step(dyn, xs, us, dt).tobytes() == rows.tobytes()
            rows = np.array([rk4_step(dyn, x, us[0], dt) for x in xs])
            assert rk4_step(dyn, xs, us[0], dt).tobytes() == rows.tobytes()
            for x, u in zip(xs, us):  # one state: the matrix product
                want = dyn.drift(x) + dyn.actuation(x) @ u
                assert dyn.rate(x, u).tobytes() == want.tobytes()

        check()

    @pytest.mark.parametrize("kind", PLANTS)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_many_equals_the_row_by_row_reference(self, kind):
        @settings(max_examples=25, deadline=None)
        @given(groups(kind))
        def check(group):
            _assert_group_matches(group)

        check()

    def _exits(self):
        """x rises at 1.3 per second inside the box [0, 1.5]: from 1.0 it
        leaves 0.385 s in, from 1.4 after 0.077 s."""
        slow = _scalar_scenario(
            "periodic", period=0.25, horizon=2.0, x0=1.0, drift_rate=0.3,
            region=OperatingRegion(lower=(0.0,), upper=(1.5,)), nominal=lambda x: np.array([1.0]),
        )
        return slow, dataclasses.replace(slow, x0=(1.4,))

    def test_the_first_member_error_is_raised_though_a_later_one_fails_sooner(self):
        slow, fast = self._exits()
        err = _assert_group_matches([slow, fast])
        assert isinstance(err, RegionExitError)
        assert err.time == pytest.approx(0.385, abs=1e-3)
        with pytest.raises(RegionExitError) as sooner:
            run(fast)
        assert sooner.value.time < err.time

    def test_a_completed_first_member_leaves_the_second_error(self):
        slow, fast = self._exits()
        err = _assert_group_matches([dataclasses.replace(slow, region=None), fast])
        assert isinstance(err, RegionExitError)
        assert err.time == pytest.approx(0.077, abs=1e-3)

    def test_members_after_a_failed_one_stop(self):
        slow, fast = self._exits()
        calls = []
        counted = dataclasses.replace(
            slow, region=None, controller=lambda x: calls.append(1) or slow.controller(x),
        )
        calls.clear()
        with pytest.raises(RegionExitError):
            run_many([dataclasses.replace(slow, region=None), fast, counted])
        assert len(calls) == 1  # its sample at t = 0; the next was due at 0.25

    def test_a_barrier_error_in_a_due_test_stops_only_its_member(self):
        # x rises at rate 1 and each member's barrier is undefined past 1.5:
        # member 1, from 1.2, gets there first, but member 0's error is the
        # one ``[run(sc) for sc in group]`` raises.
        def barrier(j):
            def defined(x):
                if np.any(x > 1.5):
                    raise ValueError(f"member {j} barrier undefined past x = 1.5")
                return x

            return BarrierFunction(
                value=lambda x: 10.0 - defined(x).T[0],
                gradient=lambda x: -np.ones(np.shape(defined(x))),
            )

        dyn = ControlAffineDynamics(
            drift=lambda x: np.ones(np.shape(x)), actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
        )
        group = [
            Scenario(
                name=f"member {j}", dynamics=dyn, barrier=barrier(j), alpha=ClassKappa(1.0),
                controller=lambda x: np.zeros(np.shape(x)), x0=(x0,),
                integrator=IntegratorConfig(horizon=1.5, substep=0.01),
                schedule=HoldSchedule.event(),
            )
            for j, x0 in enumerate((0.5, 1.2))
        ]
        with pytest.raises(ValueError, match="member 0 barrier"):
            run_many(group)
        for sc in group:
            for fn in (run, run_reference):
                with pytest.raises(ValueError, match=f"{sc.name} barrier"):
                    fn(sc)

    def test_group_errors_name_the_member(self, no_integration):
        base = _scalar_scenario("periodic", period=0.25)
        cases = [
            (_scalar_scenario("periodic", period=0.25), "scenario 1 has another dynamics object"),
            (dataclasses.replace(base, integrator=IntegratorConfig(horizon=0.5)),
             "scenario 1 has another integrator"),
            (dataclasses.replace(base, schedule=HoldSchedule.continuous()),
             "scenario 1 is continuous"),
        ]
        for member, message in cases:
            with pytest.raises(ConfigurationError, match=message):
                run_many([base, member])
        # A member's period is checked when it is built, before any group.
        with pytest.raises(ConfigurationError,
                           match="hold period 0.0001 is shorter than the substep 0.001"):
            dataclasses.replace(base, schedule=HoldSchedule.periodic(1e-4))
        assert run_many([]) == []


# ---------------------------------------------------------------------------
# the held input term: once per sample for a state-independent actuation


class TestHeldInputTerm:
    @pytest.mark.parametrize("mode", ("periodic", "event"))
    def test_a_constant_actuation_is_not_called_per_substep(self, mode):
        calls = []
        periodic = ["sim.mode=periodic", "sim.period=0.01"] if mode == "periodic" else []
        cfg = load_config(CERTIFIED, ["sim.horizon=0.5", *periodic])
        sc = _counted(scenario_from_config(cfg), calls)
        calls.clear()
        trace = run(sc)
        substeps = len(trace) - 1
        # once to see that it is constant, then the due tests and the columns
        assert len(calls) < substeps
        if mode == "periodic":
            assert len(calls) == 1 + _blocks(len(trace))
        _assert_same_outcome(sc)

    def test_a_state_dependent_actuation_is_called_at_every_stage(self):
        calls = []
        filt = _blind_plant()
        sc = _counted(Scenario(
            name="blind", dynamics=filt.dynamics, barrier=filt.barrier, alpha=filt.alpha,
            controller=filt, x0=(0.3,), integrator=IntegratorConfig(horizon=0.05, substep=1e-3),
            schedule=HoldSchedule.periodic(5e-3),
        ), calls)
        calls.clear()
        trace = run(sc)
        assert len(calls) == 1 + 4 * (len(trace) - 1) + _blocks(len(trace))
        _assert_same_outcome(sc)

    @pytest.mark.parametrize("kind", PLANTS)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_each_plant_takes_its_path_and_matches_the_reference(self, kind):
        # Under a law that never reads the plant, a run evaluates the
        # actuation once on a stack of x0 and once per block of recorded
        # rows, and a state-dependent one (blind's) at every stage besides.
        @settings(max_examples=5, deadline=None)
        @given(plants(kind))
        def check(fields):
            calls, m = [], fields["dynamics"].m
            sc = _counted(Scenario(
                name=kind, alpha=ClassKappa(1.0),
                integrator=IntegratorConfig(horizon=0.02, substep=1e-3),
                schedule=HoldSchedule.periodic(5e-3),
                **{**fields, "controller": lambda x: np.full(np.shape(x)[:-1] + (m,), 0.5),
                   "region": None},
            ), calls)
            calls.clear()
            trace = run(sc)
            stages = 4 * (len(trace) - 1) if kind == "blind" else 0
            assert len(calls) == 1 + stages + _blocks(len(trace))
            _assert_same_outcome(sc)
            _assert_group_matches([sc, dataclasses.replace(sc, x0=trace.x[-1])])

        check()


# ---------------------------------------------------------------------------
# the float kernel: one-member holds under a state-independent actuation


def _mixing_plant(g: np.ndarray) -> ControlAffineDynamics:
    """A drift that couples every coordinate to the next, nonlinearly, under
    the constant actuation g (n, m)."""
    n, m = g.shape
    return ControlAffineDynamics(
        drift=lambda x: np.sin(np.roll(x, 1, axis=-1)) - 0.5 * x * np.cos(x),
        actuation=lambda x: g, n=n, m=m,
    )


def _decoupled(n: int) -> Scenario:
    """xdot = -0.3 x + u e with e all ones, h = 10 - x_0, under a law that
    holds u = 0.5: a plant of any state dimension n."""
    dyn = ControlAffineDynamics(
        drift=lambda x: -0.3 * x, actuation=lambda x: np.ones((n, 1)), n=n, m=1,
    )
    barrier = BarrierFunction(value=lambda x: 10.0 - x.T[0], gradient=lambda x: -np.eye(n)[0])
    return Scenario(
        name=f"decoupled-{n}", dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
        controller=lambda x: np.full(np.shape(x)[:-1] + (1,), 0.5), x0=(0.5,) * n,
        integrator=IntegratorConfig(horizon=0.02, substep=1e-3),
        schedule=HoldSchedule.periodic(5e-3),
    )


class TestFloatKernel:
    @pytest.mark.parametrize("n", (1, 2, 3, 5, _FLOAT_ROWS_MAX_N))
    def test_its_rows_equal_the_textbook_steps(self, n):
        @PROPERTY
        @given(st.data(), st.sampled_from((1e-3, 2.5e-2, 0.3)), st.integers(1, 2))
        def check(data, dt, m):
            unit = st.floats(-2.0, 2.0)
            x0 = np.array([data.draw(unit) for _ in range(n)])
            g = np.array([[data.draw(unit) for _ in range(m)] for _ in range(n)])
            u = np.array([data.draw(st.floats(-50.0, 50.0)) for _ in range(m)])
            dyn, rows = _mixing_plant(g), 8
            X = np.empty((rows + 1, n))
            X[0] = x0
            end = _float_rows(n)(dyn.drift, np.matvec(g, u).tolist(), 0.5 * dt, dt, dt / 6.0,
                                 X, 1, rows, [-math.inf] * n, [math.inf] * n)
            assert end == rows + 1
            want = [x0]
            for _ in range(rows):
                want.append(rk4_reference(dyn, want[-1], u, dt))
            assert X.tobytes() == np.array(want).tobytes()

        check()

    @pytest.mark.parametrize("kind", [kind for kind in PLANTS if kind != "blind"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_run_equals_its_run_in_a_stack(self, kind):
        # The plants of constant actuation: run steps the one member on
        # floats, run_many the two as a stack with ``_rk4``.
        @settings(max_examples=25, deadline=None)
        @given(scenarios(kind).filter(lambda sc: sc.schedule.mode != "continuous"))
        def check(sc):
            want = _assert_group_matches([sc, dataclasses.replace(sc, name="copy")])
            _assert_matches(_outcome(run, sc), want if isinstance(want, Exception) else want[0])

        check()

    def test_the_kernel_follows_members_actuation_and_dimension(self, monkeypatch):
        # One member under a constant actuation with at most
        # _FLOAT_ROWS_MAX_N coordinates steps on floats; a stack, a larger
        # state and a state-dependent actuation step with ``_rk4``, one call
        # per substep.
        steps = _counted_rk4(monkeypatch)
        blind, three = _blind_plant(), _decoupled(3)
        cases = [
            ([_decoupled(1)], 0),
            ([_decoupled(_FLOAT_ROWS_MAX_N)], 0),
            ([_decoupled(_FLOAT_ROWS_MAX_N + 1)], 20),
            ([three, dataclasses.replace(three, name="copy")], 20),
            ([dataclasses.replace(_decoupled(1), dynamics=blind.dynamics, barrier=blind.barrier,
                                  controller=blind, x0=(0.3,))], 20),
        ]
        for group, calls in cases:
            steps.clear()
            _assert_group_matches(group)
            assert len(steps) == calls, group[0].name
            if len(group) == 1:
                _assert_same_outcome(group[0])

    def test_the_integration_guard_blocks_both_kernels(self, no_integration):
        sc = _decoupled(3)
        with pytest.raises(AssertionError, match="integrated"):
            run(sc)
        with pytest.raises(AssertionError, match="integrated"):
            run_many([sc, dataclasses.replace(sc, name="copy")])

    def test_errors_in_the_middle_of_a_hold_match_the_reference(self):
        # Each run holds its one input for a whole second.
        exits = _scalar_scenario(
            "periodic", period=1.0, horizon=2.0, x0=1.0, drift_rate=0.3,
            region=OperatingRegion(lower=(0.0,), upper=(1.5,)), nominal=lambda x: np.array([1.0]),
        )
        err = _assert_same_outcome(exits)
        assert isinstance(err, RegionExitError)
        assert err.time == pytest.approx(0.385, abs=1e-3)

        # xdot = x * x from 2.5 blows up at t = 0.4.
        blowup = dataclasses.replace(
            exits, region=None, x0=(2.5,), dynamics=ControlAffineDynamics(
                drift=lambda x: x * x, actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
            ),
        )
        err = _assert_same_outcome(blowup)
        assert isinstance(err, DivergenceError)
        assert 0.39 < err.time < 0.41

        def undefined_past(x):
            if np.any(x > 1.2):
                raise ValueError("drift undefined past x = 1.2")
            return np.full(np.shape(x), 0.3)

        raising = dataclasses.replace(exits, dynamics=dataclasses.replace(
            exits.dynamics, drift=undefined_past,
        ))
        err = _assert_same_outcome(raising)
        assert isinstance(err, ValueError) and err.args == ("drift undefined past x = 1.2",)

    def test_a_drift_that_returns_a_list_is_stepped_with_rk4(self, monkeypatch):
        # The shape probe accepts a list; the float kernel cannot read one,
        # so each row is stepped again with ``_rk4``.
        sc = _scalar_scenario("periodic", period=0.25, horizon=0.5, x0=2.0)
        sc = dataclasses.replace(sc, dynamics=dataclasses.replace(
            sc.dynamics, drift=lambda x: (-0.5 * x).tolist(),
        ))
        steps = _counted_rk4(monkeypatch)
        trace = _assert_same_outcome(sc)
        assert isinstance(trace, Trace)
        assert len(steps) == len(trace) - 1


def test_importing_the_package_and_running_leaves_scipy_unloaded():
    """Neither a simulation nor certification (`constants`: bound
    estimation, assumption checks, tuning validation) imports SciPy."""
    src = str(Path(safehold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys\n"
        "import safehold.cli\n"
        "from safehold.config import load_config, scenario_from_config\n"
        "from safehold.simulator import run\n"
        f"run(scenario_from_config(load_config({str(CERTIFIED)!r}, ['sim.horizon=0.01'])))\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert safehold.cli.main(['constants', {str(CERTIFIED)!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)[:5]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
