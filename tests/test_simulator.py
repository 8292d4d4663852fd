"""Sample-and-hold closed-loop engine: held integration, scheduling,
trigger evaluation, trace analysis, and CSV persistence."""

from __future__ import annotations

import ast
import collections
import dataclasses
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import safehold
from safehold import safety_filter
from safehold.acc_benchmark import (
    AccParams,
    acc_dynamics,
    acc_filter,
    acc_nominal,
    build_scenario,
    certified_tuning,
    ride_region,
)
from safehold.cbf_core import (
    BarrierFunction,
    ClassKappa,
    ControlAffineDynamics,
    lie_derivatives,
)
from safehold.config import (
    filter_from_config,
    load_config,
    parse_config,
    scenario_from_config,
)
from safehold.constants import _BLOCK_ROWS, OperatingRegion
from safehold.errors import (
    ConfigurationError,
    DivergenceError,
    InfeasibleFilterError,
    RegionExitError,
)
from safehold._kernel import _FLOAT_ROWS, _source, _StandIn
from safehold.safety_filter import (
    _FLOAT_LAW,
    CbfQpFilter,
    NominalController,
    TunableControllerConfig,
)
from safehold.simulator import (
    _CSV_ROWS,
    _SEGMENT_CAP,
    _float_rows,
    _recorded,
    _rk4,
    VIOLATION_TOL,
    HoldSchedule,
    IntegratorConfig,
    Scenario,
    Trace,
    analyze,
    rk4_step,
    run,
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
        drift_form=lambda a: (-a,),
        actuation=lambda x: np.zeros((1, 1)),
        n=1, m=1,
    )


def _integrator() -> ControlAffineDynamics:
    return ControlAffineDynamics(
        drift_form=lambda a: (0.0,),
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
            drift_form=lambda a, b: (1.0, -2.0),
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
            drift_form=lambda a: (a * a,), actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (a, 1.0))
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
        drift_form=lambda a: (drift_rate,),
        actuation=lambda x: np.ones((1, 1)),
        n=1, m=1,
    )
    barrier = BarrierFunction(form=lambda a: (a, 1.0))
    alpha = ClassKappa(1.0)
    filt = CbfQpFilter(
        dynamics=dyn, barrier=barrier, alpha=alpha,
        nominal=NominalController(form=nominal or (lambda a: 0.0)),
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
            nominal=np.sin,
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
            nominal=lambda a: 1.0,
        )
        with pytest.raises(RegionExitError) as exc:
            run(sc)
        assert exc.value.time is not None and exc.value.time > 0.0

    def test_divergence_raises(self):
        dyn = ControlAffineDynamics(
            drift_form=lambda a: (100.0 * a,), actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (a, 1.0))
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            nominal=NominalController(form=lambda a: 0.0),
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
            drift_form=lambda a: (-1.0,), actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (a, 1.0))
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            nominal=NominalController(form=lambda a: 0.0),
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
            drift_form=lambda a: (1.0,), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (a, 1.0))
        got = trigger_value(
            dyn, barrier, ClassKappa(1.0), 0.0, np.array([0.0]), np.array([-1.0]),
        )
        assert got == 0.0

    def test_amplification_formula(self):
        dyn = ControlAffineDynamics(
            drift_form=lambda a: (0.3,), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (a, 1.0))
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
        # A dip to -VIOLATION_TOL (1e-9) is integrator noise; one below it
        # is a violation.
        assert VIOLATION_TOL == 1e-9
        s = analyze(_synthetic_trace(np.array([0.5, -1e-9, 0.5])))
        assert s.violation_time is None and s.min_h == -1e-9
        s = analyze(_synthetic_trace(np.array([0.5, -2e-9, 0.5])))
        assert s.violation_time == pytest.approx(0.1)

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
            nominal=lambda a: 2.0,
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


# Floats whose text is easy to get wrong: signed zeros and infinities, nan,
# the smallest subnormals and normal, and the largest magnitudes.
CSV_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
              2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308)


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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_trace_is_written_as_one_savetxt_of_its_stack(self, data, tmp_path_factory):
        # At and around the block edges, with every float that prints
        # oddly: the file is that of one savetxt call over the whole
        # stacked trace.
        rows = data.draw(st.sampled_from(
            [1, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 3]
        ))
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        floats = st.one_of(st.sampled_from(CSV_FLOATS), st.floats())

        def column(*shape):
            return data.draw(hnp.arrays(np.float64, shape, elements=floats))

        tr = Trace(
            t=column(rows), x=column(rows, n), u=column(rows, m), h=column(rows),
            hdot=column(rows), trigger=column(rows),
            event=data.draw(hnp.arrays(int, rows, elements=st.integers(0, 1))),
        )
        path = tmp_path_factory.mktemp("csv") / "trace.csv"
        whole = path.with_name("whole.csv")
        tr.to_csv(path)
        stack = np.column_stack([tr.t, tr.x, tr.u, tr.h, tr.hdot, tr.trigger, tr.event])
        np.savetxt(whole, stack, fmt=["%.17g"] * (4 + n + m) + ["%d"], delimiter=",",
                   header=",".join(tr.columns), comments="")
        assert path.read_bytes() == whole.read_bytes()

    def test_a_trace_without_rows_is_its_header(self, tmp_path):
        tr = Trace(
            t=np.zeros(0), x=np.zeros((0, 2)), u=np.zeros((0, 1)), h=np.zeros(0),
            hdot=np.zeros(0), trigger=np.zeros(0), event=np.zeros(0, dtype=int),
        )
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        assert path.read_text() == "t,x0,x1,u0,h,hdot,trigger,event\n"


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
        s = analyze(run(sc))
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
        drift_form=lambda a: (1.0,),
        actuation=lambda x: np.where(x.T[0] < 0.5001, 1.0, 0.0)[..., None, None],
        n=1, m=1,
    )
    barrier = BarrierFunction(form=lambda a: (1.0 - a, -1.0))
    return CbfQpFilter(
        dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
        nominal=NominalController(form=lambda a: 0.0),
    )


@st.composite
def plants(draw, kind: str) -> dict:
    """Scenario fields of one test plant, x0 and region included. Several
    forms return constants, which broadcast against a stack."""
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
        # drift, gradient, actuation and nominal law ignore the state
        d = draw(st.sampled_from((-1.0, -0.5, 0.3)))
        u0 = draw(st.sampled_from((0.0, 1.0, -2.0)))
        dyn = ControlAffineDynamics(
            drift_form=lambda a: (d,), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (a, 1.0))
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            nominal=NominalController(form=lambda a: u0),
        )
        x0 = draw(st.floats(0.05, 3.0))
        region = draw(st.sampled_from((None, (0.0, 3.5), (x0 - 0.2, x0 + 0.2))))
        region = None if region is None else OperatingRegion(lower=(region[0],), upper=(region[1],))
        return dict(dynamics=dyn, barrier=barrier, controller=filt, x0=(x0,), region=region)
    if kind == "linear":
        # per-row drift and nominal law, constant actuation and gradient
        dyn = ControlAffineDynamics(
            drift_form=lambda p, q: (-0.4 * p + q, -p - 0.2 * q),
            actuation=lambda x: np.array([[0.2], [1.0]]), n=2, m=1,
        )
        barrier = BarrierFunction(form=lambda p, q: (1.0 + (0.3 * p - q), 0.3, -1.0))
        filt = CbfQpFilter(
            dynamics=dyn, barrier=barrier, alpha=ClassKappa(2.0),
            nominal=NominalController(form=lambda p, q: 0.5 * p + 1.5 * q),
        )
        x0 = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        region = draw(st.sampled_from((None, 1.2, 3.0)))
        region = None if region is None else OperatingRegion(lower=(-region,) * 2, upper=(region,) * 2)
        return dict(dynamics=dyn, barrier=barrier, controller=filt, x0=x0, region=region)
    if kind == "twin":
        # two inputs, so the recorded rate sums two products per row
        g = np.array([[1.0, 0.3], [-0.2, 0.5]])
        dyn = ControlAffineDynamics(
            drift_form=lambda p, q: (-0.3 * p, -0.3 * q), actuation=lambda x: g, n=2, m=2,
        )
        barrier = BarrierFunction(form=lambda p, q: (4.0 - (p * p + q * q), -2.0 * p, -2.0 * q))
        x0 = (draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5)))
        return dict(dynamics=dyn, barrier=barrier, controller=lambda x: np.sin(x) - 0.7 * x,
                    x0=x0, region=None)
    if kind == "blowup":
        dyn = ControlAffineDynamics(
            drift_form=lambda a: (a * a,), actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (2.0 - a, -1.0))
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
        drift_form=lambda a: (0.0,), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
    )
    barrier = BarrierFunction(form=lambda a: (a, 1.0))
    filt = CbfQpFilter(
        dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
        nominal=NominalController(form=lambda a: -1.0),
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
        # x = 0.45, 0.5 s in (row 25); the segment holding that row (rows
        # 16-30, after segments of 1, 2, 4 and 8 rows) runs on at the old
        # rate and leaves the box at row 29 (x = 0.378), but the run
        # resamples at row 25 and stays inside to the end at row 30.
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
            return (0.0,)

        def ramp(horizon):
            sc = _ramp(lower=0.0, horizon=horizon)
            return dataclasses.replace(
                sc, dynamics=dataclasses.replace(sc.dynamics, drift_form=drift),
            )

        assert _assert_same_outcome(ramp(0.6)).events == (0.0, 0.5)
        for fn in (run, run_reference):
            with pytest.raises(ValueError, match="drift undefined below x = 0.4"):
                fn(ramp(1.0))

    def test_a_barrier_error_in_a_due_test_stands(self):
        # x rises at rate 1 and the trigger, 9 - x, never fires; the barrier
        # is undefined past x = 1.5, so the due test of the segment that
        # gets there raises.
        def defined(x):
            if np.any(x > 1.5):
                raise ValueError("barrier undefined past x = 1.5")
            return x

        dyn = ControlAffineDynamics(
            drift_form=lambda a: (1.0,), actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (10.0 - defined(a), -1.0))
        sc = Scenario(
            name="undefined", dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            controller=lambda x: np.zeros(np.shape(x)), x0=(1.2,),
            integrator=IntegratorConfig(horizon=1.5, substep=0.01), schedule=HoldSchedule.event(),
        )
        err = _assert_same_outcome(sc)
        assert isinstance(err, ValueError) and err.args == ("barrier undefined past x = 1.5",)

    def test_every_due_test_is_one_stacked_trigger_evaluation(self, monkeypatch):
        # x falls from 2 at rate 0.5 until the filter turns active at
        # x = 0.5, 3 s in; from there each held input lasts one substep, so
        # the run takes 1,000 holds and each due window is a single row.
        calls = []

        def spy(dyn, barrier, alpha, c, x, u):
            calls.append(np.shape(x))
            return trigger_value(dyn, barrier, alpha, c, x, u)

        sc = _scalar_scenario("event", drift_rate=-0.5, x0=2.0, horizon=4.0)
        monkeypatch.setattr("safehold.simulator.trigger_value", spy)
        assert _assert_same_outcome(sc).event.sum() == 1000
        assert calls and all(len(shape) == 2 and shape[1] == 1 for shape in calls)
        assert calls.count((1, 1)) >= 999

    @pytest.mark.parametrize("c, floor", [(0.0, 0.0), (0.002, 0.0), (0.003, 0.0), (0.0, 0.0035)])
    def test_short_holds_after_a_long_one_match_the_reference(self, c, floor):
        # The first hold lasts about 3,000 substeps, longer than a segment
        # may grow; every later one lasts 1, 2, 3 or 4 substeps (the floor
        # sets 4), so each ends inside a hold's first segments.
        sc = _scalar_scenario("event", drift_rate=-0.5, x0=2.0, horizon=3.5, c=c, floor=floor)
        trace = _assert_same_outcome(sc)
        holds = np.diff(np.flatnonzero(trace.event))
        assert holds[0] > _SEGMENT_CAP
        assert len(holds) > 100 and set(holds[1:].tolist()) <= {1, 2, 3, 4}

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
        _assert_same_outcome(dataclasses.replace(sc, x0=(0.996e8,)))
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
        # The same fall from the held input u = -1.5e7 under a
        # state-dependent actuation: the rows stepped again take the
        # plant's whole rate.
        pushed = _scalar_scenario(
            "periodic", period=0.25, x0=0.995e8, horizon=0.5,
            nominal=lambda a: -1.5e7,
        )
        pushed = dataclasses.replace(pushed, dynamics=dataclasses.replace(
            pushed.dynamics, actuation=lambda x: np.ones(np.shape(x))[..., None],
        ))
        steps.clear()
        x = run(pushed).x[1:, 0]
        assert len(steps) == np.count_nonzero(x > 0.99e8) == 33
        _assert_same_outcome(pushed)

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
# lockstep: one RK4 step of a (k, n) stack of states, the public
# ``rk4_step`` on many states at once


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

        check()


# ---------------------------------------------------------------------------
# the sampled law on plain floats


def _counted_boosts(monkeypatch) -> list:
    """Patches ``safety_filter.tunable_control``, the boosted array law, to
    append to the list returned at each call."""
    calls, boost = [], safety_filter.tunable_control
    monkeypatch.setattr(safety_filter, "tunable_control",
                        lambda *args: calls.append(1) or boost(*args))
    return calls


def _without_float_law(sc: Scenario) -> Scenario:
    """sc with its controller behind a plain callable, which has no float law."""
    law = sc.controller
    return dataclasses.replace(sc, controller=lambda x: law(x))


class TestFloatSamples:
    @pytest.mark.parametrize("kind", ("periodic-boosted",))
    def test_acc_samples_call_no_array_law(self, kind, monkeypatch):
        # The ACC's actuation does not depend on the state, so its boosted
        # law, held periodically, is sampled on floats in the whole kernel,
        # with no ``tunable_control`` call, to the bits of the run whose
        # controller hides the float law and so samples the array law.
        calls = _counted_boosts(monkeypatch)
        sc = build_scenario(kind, period=0.01, horizon=0.5, setting="ride")
        calls.clear()  # the shape probe's
        trace = run(sc)
        assert not calls
        array_sc = _without_float_law(sc)
        calls.clear()  # the shape probe's
        _assert_matches(run(array_sc), trace)
        assert len(calls) == len(trace.events)

    def test_no_float_form_is_called_per_sample(self, monkeypatch):
        # The ACC's drift, barrier and nominal law record, so the kernel and
        # the float law have them written in: a periodic boosted run calls
        # each form as often at 0.2 s as at 0.5 s (at the recordings, and on
        # the one block of rows whose columns the trace records), not once
        # per sample.
        boosts = _counted_boosts(monkeypatch)
        counts = []
        for horizon in (0.2, 0.5):
            calls = collections.Counter()

            def counted(name, form):
                return lambda *c: calls.update([name]) or form(*c)

            cfg = load_config(CERTIFIED, [
                "sim.mode=periodic", "sim.period=0.01", f"sim.horizon={horizon}",
            ])
            sc, filt = scenario_from_config(cfg), filter_from_config(cfg)
            filt = dataclasses.replace(
                filt,
                dynamics=dataclasses.replace(
                    filt.dynamics, drift_form=counted("drift", filt.dynamics.drift_form)),
                barrier=dataclasses.replace(
                    filt.barrier, form=counted("barrier", filt.barrier.form)),
                nominal=dataclasses.replace(
                    filt.nominal, form=counted("nominal", filt.nominal.form)),
            )
            sc = dataclasses.replace(sc, dynamics=filt.dynamics, barrier=filt.barrier,
                                     controller=certified_tuning().controller(filt))
            boosts.clear()  # the shape probe's
            trace = run(sc)
            counts.append((dict(calls), len(trace.events)))
        assert not boosts
        (short, short_samples), (long, long_samples) = counts
        assert short == long and set(short) == {"drift", "barrier", "nominal"}
        assert short_samples < long_samples

    def test_the_shipped_law_has_every_form_written_in(self):
        # A form the float law calls is a free variable of it; the law built
        # from the shipped config calls none.
        sc = scenario_from_config(load_config(CERTIFIED))
        law = sc.controller.float_law(np.array(sc.x0))
        assert not {"barrier", "drift", "nominal"} & set(law.__code__.co_freevars)

    def test_event_holds_sample_the_array_law(self, monkeypatch):
        # Only the whole periodic kernel samples a float law: an event run
        # samples the boosted law's array form, once per event, to the bits
        # of the run whose controller hides the float law.
        calls = _counted_boosts(monkeypatch)
        sc = build_scenario("event", period=None, horizon=5.0, setting="approach")
        calls.clear()  # the shape probe's
        trace = run(sc)
        assert len(calls) == len(trace.events) >= 2
        _assert_matches(run(_without_float_law(sc)), trace)

    def test_the_float_law_reads_the_controllers_own_plant(self):
        # The simulated car is 10% heavier than the one the controller
        # models: the float law, like the array law, divides by the model's
        # mass, and the input term by the simulated car's.
        sc = build_scenario("periodic-boosted", period=0.01, horizon=0.5, setting="ride")
        heavier = dataclasses.replace(sc, dynamics=acc_dynamics(AccParams(mass=1815.0)))
        trace = run(heavier)
        _assert_matches(run(_without_float_law(heavier)), trace)
        _assert_same_outcome(heavier)
        assert trace.x.tobytes() != run(sc).x.tobytes()

    @pytest.mark.parametrize("kind", ("periodic", "event"))
    def test_a_nominal_controller_samples_its_array_law(self, kind):
        # A bare nominal law has a form but no float law of a filter: the
        # run samples it as the controller, as at any plant.
        sc = build_scenario(kind, period=0.01 if kind != "event" else None, horizon=0.5,
                            setting="ride")
        sc = dataclasses.replace(sc, controller=acc_nominal())
        assert not hasattr(sc.controller, "float_law")
        _assert_same_outcome(sc)

    def test_the_input_term_sums_from_zero(self):
        # x0 has drift -0.0 and a zero actuation entry, and the filter keeps
        # the nominal u = -1: np.matvec's input term there is 0.0 + 0.0 * -1
        # = 0.0, which turns x0 from -0.0 to 0.0 at the first row. Sampled
        # on floats the term must be the same; 0.0 * -1 alone is -0.0.
        dyn = ControlAffineDynamics(
            drift_form=lambda a, b: (-0.0, -0.3 * b),
            actuation=lambda x: np.array([[0.0], [1.0]]), n=2, m=1,
        )
        barrier = BarrierFunction(form=lambda a, b: (10.0 - b, 0.0, -1.0))
        nominal = NominalController(form=lambda a, b: -1.0)
        filt = CbfQpFilter(dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0), nominal=nominal)
        sc = Scenario(
            name="minus-zero-input", dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            controller=filt, x0=(-0.0, 0.3),
            integrator=IntegratorConfig(horizon=0.02, substep=1e-3),
            schedule=HoldSchedule.periodic(5e-3),
        )
        trace = run(sc)
        _assert_matches(run(_without_float_law(sc)), trace)
        _assert_same_outcome(sc)
        assert np.signbit(trace.x[0, 0]) and not np.any(np.signbit(trace.x[1:, 0]))
        assert np.all(trace.u == -1.0)


def _dense_forms() -> tuple[CbfQpFilter, OperatingRegion]:
    """A dense plant, n = 4, whose drift, barrier and nominal law are each
    written once on coordinates. h = 4 - sum q_i (x_i - o_i)^2
    and the actuation column are dense, so the Lie-derivative products are
    inexact at almost every state of the box around the barrier's centre o
    (``test_its_lie_products_are_inexact``)."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)).tolist()
    slopes = (-2.0 * rng.uniform(0.5, 1.5, size=4)).tolist()
    centre = rng.normal(size=4).tolist()
    gains = rng.normal(size=4).tolist()
    g = rng.normal(size=(4, 1))
    g.flags.writeable = False

    def drift(*x):
        return tuple(((r[0] * x[0] + r[1] * x[1]) + r[2] * x[2]) + r[3] * x[3] for r in a)

    def form(*x):
        d = [xi - oi for xi, oi in zip(x, centre)]
        h = 4.0 + (((0.5 * slopes[0] * d[0] * d[0] + 0.5 * slopes[1] * d[1] * d[1])
                    + 0.5 * slopes[2] * d[2] * d[2]) + 0.5 * slopes[3] * d[3] * d[3])
        return (h, *(s * di for s, di in zip(slopes, d)))

    def law(*x):
        return ((gains[0] * x[0] + gains[1] * x[1]) + gains[2] * x[2]) + gains[3] * x[3]

    dyn = ControlAffineDynamics(drift_form=drift, actuation=lambda x: g, n=4, m=1)
    barrier = BarrierFunction(form=form)
    nominal = NominalController(form=law)
    filt = CbfQpFilter(dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0), nominal=nominal)
    return filt, OperatingRegion(lower=[c - 1.5 for c in centre], upper=[c + 1.5 for c in centre])


DENSE, DENSE_BOX = _dense_forms()
DENSE_TUNING = TunableControllerConfig(c=1.0, delta=0.5, band=2.0, epsilon=0.5, margin=1.0)


def _unrecorded(filt: CbfQpFilter) -> list[tuple[CbfQpFilter, str | None]]:
    """filt, and filt with one form replaced by one that returns the same
    floats but does not record, each with the name under which its float
    law calls that form (None for filt, whose law calls none): a barrier
    form with a numpy call, a nominal law with an int constant, one with a
    comparison, and a drift that returns one more value on stand-ins than
    on floats and rows."""
    drift, form, law = filt.dynamics.drift_form, filt.barrier.form, filt.nominal.form

    def barrier_call(*x):
        h, *grad = form(*x)
        return (np.ldexp(h, 0), *grad)

    def drift_count(*x):
        return drift(*x) + ((0.0,) if isinstance(x[0], _StandIn) else ())

    replace = dataclasses.replace
    return [
        (filt, None),
        (replace(filt, barrier=replace(filt.barrier, form=barrier_call)), "barrier"),
        (replace(filt, nominal=replace(filt.nominal, form=lambda *x: law(*x) * 1)), "nominal"),
        (replace(filt, nominal=replace(
            filt.nominal, form=lambda *x: law(*x) * (x[0] == x[0]))), "nominal"),
        (replace(filt, dynamics=replace(filt.dynamics, drift_form=drift_count)), "drift"),
    ]


@st.composite
def dense_states(draw, k: int):
    """A (k, 4) stack of states inside the dense plant's box."""
    unit = draw(hnp.arrays(np.float64, (k, 4), elements=st.floats(0.0, 1.0)))
    return DENSE_BOX.lower_arr + unit * (DENSE_BOX.upper_arr - DENSE_BOX.lower_arr)


class TestDenseFloatForms:
    # The Lie derivatives are summed in index order on floats and on arrays
    # alike, so the float laws equal the array laws on any plant, not only
    # where the sums are exact.

    def test_its_lie_products_are_inexact(self):
        # The premise: at seeded states every product of the two Lie sums
        # rounds, and the index-order sum differs from the exactly rounded
        # one at some state, so another summation order would show.
        dyn, barrier = DENSE.dynamics, DENSE.barrier
        reordered = False
        for x in DENSE_BOX.sample(np.random.default_rng(0), 256):
            grad = barrier.gradient(x).tolist()
            for field in (dyn.drift(x).tolist(), dyn.actuation(x)[:, 0].tolist()):
                products = [p * q for p, q in zip(grad, field)]
                assert all(Fraction(p) * Fraction(q) != Fraction(r)
                           for p, q, r in zip(grad, field, products))
                ordered = 0.0
                for r in products:
                    ordered += r
                reordered |= ordered != math.fsum(products)
        assert reordered

    # Each filter of ``_unrecorded`` but the first has one form that does
    # not record and is called from the float law instead; the laws' bits
    # stay the same.
    @settings(max_examples=60, deadline=None)
    @given(xs=dense_states(8))
    def test_the_float_laws_equal_the_array_laws(self, xs):
        for filt, called in _unrecorded(DENSE):
            filt_law = filt.float_law(xs[0])
            boosted_law = DENSE_TUNING.controller(filt).float_law(xs[0])
            for law in (filt_law, boosted_law):
                assert {"barrier", "drift", "nominal"} & set(law.__code__.co_freevars) == (
                    {called} if called else set())
            for x in xs:
                coords = x.tolist()
                assert (np.array([filt_law(*coords)]).tobytes()
                        == safety_filter.solve_cbf_qp(DENSE, x).tobytes())
                assert (np.array([boosted_law(*coords)]).tobytes()
                        == safety_filter.tunable_control(DENSE, DENSE_TUNING, x).tobytes())

    @settings(max_examples=60, deadline=None)
    @given(xs=st.integers(1, 40).flatmap(dense_states))
    def test_the_lie_derivatives_of_a_stack_are_its_rows(self, xs):
        lfh, lgh = lie_derivatives(DENSE.dynamics, DENSE.barrier, xs)
        rows = [lie_derivatives(DENSE.dynamics, DENSE.barrier, x) for x in xs]
        assert lfh.tobytes() == np.array([r[0] for r in rows]).tobytes()
        assert lgh.tobytes() == np.array([r[1] for r in rows]).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(x0=dense_states(1), boosted=st.booleans())
    def test_a_periodic_run_samples_them_to_the_array_laws_bits(self, x0, boosted):
        for filt, _ in _unrecorded(DENSE):
            controller = DENSE_TUNING.controller(filt) if boosted else filt
            assert controller.float_law(x0[0]) is not None
            sc = Scenario(
                name="dense-forms", dynamics=filt.dynamics, barrier=filt.barrier,
                alpha=ClassKappa(1.0), controller=controller, x0=tuple(x0[0].tolist()),
                integrator=IntegratorConfig(horizon=0.05, substep=1e-3),
                schedule=HoldSchedule.periodic(5e-3),
            )
            _assert_matches(_outcome(run, sc), _outcome(run, _without_float_law(sc)))


# ---------------------------------------------------------------------------
# the float kernel: the rows of every hold


def _mixing_plant(g: np.ndarray) -> ControlAffineDynamics:
    """A drift that couples every coordinate to the next, nonlinearly, under
    the constant actuation g (n, m)."""
    n, m = g.shape
    return ControlAffineDynamics(
        drift_form=lambda *x: tuple(
            np.sin(x[i - 1]) - 0.5 * x[i] * np.cos(x[i]) for i in range(n)
        ),
        actuation=lambda x: g, n=n, m=m,
    )


def _decoupled(n: int) -> Scenario:
    """xdot = -0.3 x + u e with e all ones, h = 10 - x_0, under a law that
    holds u = 0.5: a plant of any state dimension n."""
    dyn = ControlAffineDynamics(
        drift_form=lambda *x: tuple(-0.3 * xi for xi in x),
        actuation=lambda x: np.ones((n, 1)), n=n, m=1,
    )
    barrier = BarrierFunction(form=lambda *x: (10.0 - x[0], -1.0) + (0.0,) * (n - 1))
    return Scenario(
        name=f"decoupled-{n}", dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
        controller=lambda x: np.full(np.shape(x)[:-1] + (1,), 0.5), x0=(0.5,) * n,
        integrator=IntegratorConfig(horizon=0.02, substep=1e-3),
        schedule=HoldSchedule.periodic(5e-3),
    )


class _ProductRate(ControlAffineDynamics):
    """A one-input plant whose rate adds its actuation column times the input
    to the drift, with no sum: a zero entry under a negative input adds
    -0.0, where ``np.matvec``, which sums from 0.0, adds 0.0."""

    def rate(self, x, u):
        return self.drift(x) + self.actuation(x)[..., 0] * u[..., :1]


class TestFloatKernel:
    @pytest.mark.parametrize("n", (1, 2, 3, 5, 12, 13, 24))
    def test_its_rows_equal_the_textbook_steps(self, n):
        @PROPERTY
        @given(st.data(), st.sampled_from((1e-3, 2.5e-2, 0.3)), st.integers(1, 2), st.booleans())
        def check(data, dt, m, state_dependent):
            unit = st.floats(-2.0, 2.0)
            x0 = np.array([data.draw(unit) for _ in range(n)])
            g = np.array([[data.draw(unit) for _ in range(m)] for _ in range(n)])
            u = np.array([data.draw(st.floats(-50.0, 50.0)) for _ in range(m)])
            dyn, rows = _mixing_plant(g), 8
            X = np.empty((rows + 1, n))
            X[0] = x0
            if state_dependent:
                # The run's rates under a state-dependent actuation: the
                # whole rate under the held input, plus -0.0.
                dyn = dataclasses.replace(dyn, actuation=lambda x: g * np.cos(x)[..., None])
                rates, gu = (lambda *c: dyn.rate(np.array(c), u).tolist()), (-0.0,) * n
            else:
                # The run's rates: the drift form, here called at each stage
                # (its numpy calls do not record).
                rates = dyn.drift_form
                gu = np.matvec(g, u).tolist()
            end = _float_rows(n)(rates, gu, 0.5 * dt, dt, dt / 6.0,
                                 X, 1, rows, [-math.inf] * n, [math.inf] * n)
            assert end == rows + 1
            want = [x0]
            for _ in range(rows):
                want.append(rk4_reference(dyn, want[-1], u, dt))
            assert X.tobytes() == np.array(want).tobytes()

        check()

    def test_acc_rows_call_the_float_drift_four_times_each(self, monkeypatch):
        # The ACC's drift form is recorded once per run, on stand-ins and
        # then at the start state, and its operations are written into the
        # kernel: its rows call it no more, a counting wrapper around it
        # included (the wrapper is recorded with it), and call no ``_rk4``.
        # A drift form that cannot be recorded, here one that casts its
        # arguments to numpy's float64, is called four times per row after
        # the one refused recording. Both runs give the same bits, and each
        # evaluates the form once more, on the one block of rows whose
        # barrier rates the trace records.
        cfg = load_config(CERTIFIED, ["sim.mode=periodic", "sim.period=0.01", "sim.horizon=0.5"])
        sc, calls = scenario_from_config(cfg), []
        drift = sc.dynamics.drift_form

        def counted(cast):
            return dataclasses.replace(sc, dynamics=dataclasses.replace(
                sc.dynamics, drift_form=lambda *c: calls.append(1) or drift(*map(cast, c)),
            ))

        recorded, refused = counted(lambda v: v), counted(np.float64)
        steps = _counted_rk4(monkeypatch)
        calls.clear()
        trace = run(recorded)
        assert _blocks(len(trace)) == 1
        assert len(calls) == 2 + 1 and not steps
        calls.clear()
        _assert_matches(run(refused), trace)
        assert len(calls) == 1 + 4 * (len(trace) - 1) + 1 and not steps

    def test_every_held_run_steps_on_floats(self, monkeypatch):
        # A constant actuation at any state dimension and a state-dependent
        # actuation alike step on the float kernel, with no ``_rk4`` call.
        steps = _counted_rk4(monkeypatch)
        blind = _blind_plant()
        cases = [
            _decoupled(1),
            _decoupled(13),
            _decoupled(24),
            dataclasses.replace(_decoupled(1), dynamics=blind.dynamics, barrier=blind.barrier,
                                controller=blind, x0=(0.3,)),
        ]
        for sc in cases:
            steps.clear()
            _assert_same_outcome(sc)
            assert len(steps) == 0, sc.name

    def test_a_held_rate_of_minus_zero_keeps_its_sign(self):
        # x0 has drift -0.0 and a zero actuation row, and the law holds
        # u = -1, so its held rate is -0.0 + 0.0 * -1 = -0.0 and it stays
        # -0.0 from its start at -0.0. The actuation depends on x1, so the
        # float kernel adds -0.0 as the input term; 0.0 would turn x0 to 0.0.
        def actuation(x):
            x1 = x.T[1]
            return np.stack((np.zeros(np.shape(x1)), np.cos(x1)), -1)[..., None]

        dyn = _ProductRate(
            drift_form=lambda a, b: (a * 0.0, b * -0.3), actuation=actuation, n=2, m=1,
        )
        barrier = BarrierFunction(form=lambda a, b: (10.0 - b, 0.0, -1.0))
        sc = Scenario(
            name="minus-zero", dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
            controller=lambda x: np.full(np.shape(x)[:-1] + (1,), -1.0), x0=(-0.0, 0.3),
            integrator=IntegratorConfig(horizon=0.02, substep=1e-3),
            schedule=HoldSchedule.periodic(5e-3),
        )
        trace = _assert_same_outcome(sc)
        assert isinstance(trace, Trace)
        assert np.all(np.signbit(trace.x[:, 0])) and not np.any(trace.x[:, 0])

    def test_the_integration_guard_blocks_both_kernels(self, no_integration):
        with pytest.raises(AssertionError, match="integrated"):
            run(_decoupled(3))

    def test_errors_in_the_middle_of_a_hold_match_the_reference(self):
        # Each run holds its one input for a whole second.
        exits = _scalar_scenario(
            "periodic", period=1.0, horizon=2.0, x0=1.0, drift_rate=0.3,
            region=OperatingRegion(lower=(0.0,), upper=(1.5,)), nominal=lambda a: 1.0,
        )
        err = _assert_same_outcome(exits)
        assert isinstance(err, RegionExitError)
        assert err.time == pytest.approx(0.385, abs=1e-3)

        # xdot = x * x from 2.5 blows up at t = 0.4.
        blowup = dataclasses.replace(
            exits, region=None, x0=(2.5,), dynamics=ControlAffineDynamics(
                drift_form=lambda a: (a * a,), actuation=lambda x: np.zeros((1, 1)), n=1, m=1,
            ),
        )
        err = _assert_same_outcome(blowup)
        assert isinstance(err, DivergenceError)
        assert 0.39 < err.time < 0.41

        def undefined_past(x):
            if np.any(x > 1.2):
                raise ValueError("drift undefined past x = 1.2")
            return (0.3,)

        raising = dataclasses.replace(exits, dynamics=dataclasses.replace(
            exits.dynamics, drift_form=undefined_past,
        ))
        err = _assert_same_outcome(raising)
        assert isinstance(err, ValueError) and err.args == ("drift undefined past x = 1.2",)

    def test_a_drift_form_that_returns_a_list_is_written_in(self, monkeypatch):
        # The shape probe counts a list's values as a tuple's; recording
        # writes its operations into the kernel, and no row is stepped
        # again with ``_rk4``.
        sc = _scalar_scenario("periodic", period=0.25, horizon=0.5, x0=2.0)
        sc = dataclasses.replace(sc, dynamics=dataclasses.replace(
            sc.dynamics, drift_form=lambda a: [-0.5 * a],
        ))
        assert _recorded(sc.dynamics.drift_form, np.array(sc.x0), 1) is not None
        steps = _counted_rk4(monkeypatch)
        trace = _assert_same_outcome(sc)
        assert isinstance(trace, Trace)
        assert not steps


# ---------------------------------------------------------------------------
# the drift written into the kernel


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# Constants of the drawn drifts: Python floats and numpy float64s, signed
# zeros among them.
_CONSTANTS = (-0.0, 0.0, 0.5, -1.25, 3.0, 1e-3, np.float64(2.5), np.float64(-0.75))


@st.composite
def drift_programs(draw, n: int):
    """A straight-line program of +, -, *, / and unary - on n arguments,
    as ``(steps, outputs)``. An operand is ``("x", i)``, the i-th argument,
    ``("t", k)``, the k-th step's result, or ``("c", value)``, a constant,
    drawn in either order, so that ``c - x`` and ``c / x`` occur; an output
    is any of the three."""
    def operand(k):
        kind = draw(st.sampled_from(("x", "t", "c") if k else ("x", "c")))
        if kind == "x":
            return kind, draw(st.integers(0, n - 1))
        if kind == "t":
            return kind, draw(st.integers(0, k - 1))
        return kind, draw(st.sampled_from(_CONSTANTS))

    steps = []
    for k in range(draw(st.integers(0, 8))):
        op = draw(st.sampled_from(("+", "-", "*", "/", "neg")))
        steps.append((op, operand(k)) if op == "neg" else (op, operand(k), operand(k)))
    return steps, [operand(len(steps)) for _ in range(n)]


def _interpreted(program):
    """The drift form that runs a drawn program on its arguments."""
    steps, outputs = program

    def form(*args):
        results = []

        def value(ref):
            kind, v = ref
            return args[v] if kind == "x" else results[v] if kind == "t" else v

        for op, *refs in steps:
            results.append(-value(refs[0]) if op == "neg" else _BINARY[op](*map(value, refs)))
        return tuple(value(ref) for ref in outputs)

    return form


def _float_form_scenario(drift_form, barrier_form, law_form, g, x0, schedule, *,
                         horizon, substep=1e-3, region=None) -> Scenario:
    """The filtered plant xdot = drift_form(x) + g u with the barrier
    barrier_form (h and its gradient) and the nominal law law_form, all
    given on coordinates; under the constant g the filter has a float
    law."""
    dyn = ControlAffineDynamics(drift_form=drift_form, actuation=lambda x: g, n=len(x0), m=1)
    barrier = BarrierFunction(form=barrier_form)
    nominal = NominalController(form=law_form)
    filt = CbfQpFilter(dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0), nominal=nominal)
    return Scenario(
        name="float-forms", dynamics=dyn, barrier=barrier, alpha=ClassKappa(1.0),
        controller=filt, x0=x0, integrator=IntegratorConfig(horizon=horizon, substep=substep),
        schedule=schedule, region=region,
    )


def _oscillator(drift_form, schedule) -> Scenario:
    """A damped oscillator pushed on its speed, filtered to stay in the disc
    of radius 2, with its drift given as drift_form."""
    return _float_form_scenario(
        drift_form, lambda a, b: (4.0 - a * a - b * b, -2.0 * a, -2.0 * b), lambda a, b: -a,
        np.array([[0.0], [1.0]]), (1.0, 0.5), schedule, horizon=0.1,
    )


@pytest.mark.parametrize("n", (1, 3, 4))
def test_the_generated_sources_parse_as_python_3_10(n):
    # The package supports Python 3.10 up: the kernel's and the float law's
    # sources, with every form written in and with every form called, use
    # no later syntax.
    filt, x = {
        1: (_float_form_scenario(
            lambda a: (-0.5 * a,), lambda a: (1.0 - a, -1.0), lambda a: 2.0 * a,
            np.ones((1, 1)), (0.5,), HoldSchedule.periodic(5e-3), horizon=0.01,
        ).controller, np.array([0.5])),
        3: (acc_filter(), np.array([0.0, 20.0, 735.0])),
        4: (DENSE, 0.5 * (DENSE_BOX.lower_arr + DENSE_BOX.upper_arr)),
    }[n]
    drift = _recorded(filt.dynamics.drift_form, x, n)
    bodies = {
        "barrier": _recorded(filt.barrier.form, x, n + 1),
        "drift": drift,
        "nominal": _recorded(lambda *c: (filt.nominal.form(*c),), x, 1),
    }
    assert None not in bodies.values()
    for template, written in ((_FLOAT_ROWS, {"rates": drift}), (_FLOAT_LAW, bodies)):
        for forms in (written, {}):
            ast.parse(_source(template, n, forms), feature_version=(3, 10))


class TestRecordedDrift:
    @pytest.mark.parametrize("n", (1, 3, 5))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_kernel_rows_with_the_recorded_body_equal_rows_that_call_it(self, n):
        @PROPERTY
        @given(drift_programs(n), st.data(), st.sampled_from((1e-3, 2.5e-2)))
        def check(program, data, dt):
            form = _interpreted(program)
            x0 = np.array([data.draw(st.floats(-2.0, 2.0)) for _ in range(n)])
            gu = [data.draw(st.floats(-5.0, 5.0)) for _ in range(n)]
            # numpy float64 constants divide by zero with a warning where
            # floats raise; raising on both makes both kernels stop there.
            with np.errstate(divide="raise", invalid="raise"):
                try:
                    form(*x0.tolist())
                except (ZeroDivisionError, FloatingPointError):
                    assume(False)
                body = _recorded(form, x0, n)
                assert body is not None
                got = []
                for kernel in (_float_rows(n, body), _float_rows(n)):
                    X = np.zeros((9, n))
                    X[0] = x0
                    end = kernel(form, gu, 0.5 * dt, dt, dt / 6.0, X, 1, 8, [-1e6] * n, [1e6] * n)
                    got.append((end, X.tobytes()))
            assert got[0] == got[1]

        check()

    @pytest.mark.parametrize("schedule", (HoldSchedule.periodic(3e-3), HoldSchedule.event()))
    def test_a_drift_that_is_not_plain_arithmetic_is_called(self, schedule):
        # Each of these drifts refuses to be recorded: the kernel calls it at
        # each stage instead, to the reference's bits. The last, plain
        # arithmetic, is recorded.
        refused = [
            lambda a, b: (b, np.where(a > 0.0, -a, -2.0 * a) - 0.5 * b),  # a comparison
            lambda a, b: (b, np.exp(-a) - 1.0 - 0.5 * b),
            lambda a, b: tuple(np.array([b, -a - 0.5 * b])),
            lambda a, b: (b, -a - 1 * b),  # an int constant
            lambda a, b: (b, -a - 0.5 * b + b / math.inf),
            lambda a, b: (b, abs(a) - a - 0.5 * b),
            # other arithmetic on stand-ins than on floats
            lambda a, b: (b, (a if isinstance(a, _StandIn) else -a) - 0.5 * b),
        ]
        for form in refused + [lambda a, b: (b, -a - 0.5 * b)]:
            sc = _oscillator(form, schedule)
            body = _recorded(form, np.array(sc.x0), 2)
            assert (body is None) == (form in refused)
            assert isinstance(_assert_same_outcome(sc), Trace)

    def test_a_drift_of_another_length_is_not_recorded(self):
        # The shape probe refuses such a plant before any run; recording
        # refuses it too.
        dyn = _oscillator(lambda a, b: (b, -a - 0.5 * b), HoldSchedule.event()).dynamics
        for form in (lambda a, b: (b,), lambda a, b: (b, -a, a)):
            assert _recorded(form, np.ones(2), dyn.n) is None

    def test_a_long_chain_is_written_in_parts(self):
        # 300 additions in a chain would nest deeper than Python's parser
        # allows if each were written into the next; the kernel keeps every
        # few in a local instead, and its rows equal calls of the drift.
        def form(a):
            total = a
            for _ in range(300):
                total = total + a * 1e-3
            return (total,)

        body = _recorded(form, np.array([0.5]), 1)
        assert body is not None and len(body[0]) == 600
        got = []
        for kernel in (_float_rows(1, body), _float_rows(1)):
            X = np.zeros((9, 1))
            X[0] = 0.5
            got.append((kernel(form, [0.1], 5e-4, 1e-3, 1e-3 / 6.0, X, 1, 8, [-1e6], [1e6]),
                        X.tobytes()))
        assert got[0] == got[1] == (9, got[1][1])

    def test_a_second_run_of_the_same_plant_generates_no_kernel(self):
        def ride(*overrides):
            return scenario_from_config(load_config(CERTIFIED, ["sim.horizon=0.05", *overrides]))

        run(ride())
        built = _float_rows.cache_info().misses
        run(ride())
        run(ride("sim.mode=periodic", "sim.period=0.01"))
        assert _float_rows.cache_info().misses == built


# ---------------------------------------------------------------------------
# periodic holds run whole in the kernel


def _counted_kernels(monkeypatch) -> list:
    """Patches ``_float_rows`` so that its kernels append their positional
    arguments to the list returned at each call."""
    calls, build = [], _float_rows

    def counting(n, body=None):
        kernel = build(n, body)
        return lambda *args: calls.append(args) or kernel(*args)

    monkeypatch.setattr("safehold.simulator._float_rows", counting)
    return calls


class TestWholeHolds:
    @pytest.mark.parametrize("hold", (1, 2, 7))
    def test_a_periodic_acc_run_is_one_kernel_call(self, hold, monkeypatch):
        sc = scenario_from_config(load_config(CERTIFIED, [
            "sim.mode=periodic", f"sim.period={hold * 1e-3}", "sim.horizon=0.2",
        ]))
        kernels, steps = _counted_kernels(monkeypatch), _counted_rk4(monkeypatch)
        trace = run(sc)
        assert len(kernels) == 1 and not steps
        assert np.array_equal(np.flatnonzero(trace.event), np.arange(0, 200, hold))
        _assert_matches(trace, _assert_same_outcome(sc))

    def test_a_region_exit_mid_hold(self):
        # Holds of 7 substeps; the box's position face lies between rows 38
        # and 39, inside the sixth hold (rows 35 to 42).
        sc = scenario_from_config(load_config(CERTIFIED, [
            "sim.mode=periodic", "sim.period=0.007", "sim.horizon=0.2",
        ]))
        position = run(sc).x[:, 0]
        box = ride_region()
        face = 0.5 * (position[38] + position[39])
        sc = dataclasses.replace(sc, region=dataclasses.replace(box, upper=(face, *box.upper[1:])))
        err = _assert_same_outcome(sc)
        assert isinstance(err, RegionExitError)
        assert err.time == 39 * 1e-3

    def test_an_infeasible_sample_of_a_later_hold(self):
        # h = 1 - b with b rising at rate 1 and the input acting on a only:
        # the filter has no authority, and its slack, -b, turns negative
        # between the samples at rows 10 and 15 (b = 0.0023 and -0.0027
        # after them). The run's error carries that sample's time and state,
        # as the reference's does.
        sc = _float_form_scenario(
            lambda a, b: (0.0, 1.0), lambda a, b: (1.0 - b, 0.0, -1.0), lambda a, b: 0.0,
            np.array([[1.0], [0.0]]), (0.0, -0.0123), HoldSchedule.periodic(5e-3), horizon=0.1,
        )
        err = _assert_same_outcome(sc)
        assert isinstance(err, InfeasibleFilterError)
        assert err.time == 15 * 1e-3

    def test_rows_past_the_cheaper_test_from_a_later_hold(self, monkeypatch):
        # x rises from 0.9899e8 by 100 per substep and passes the cheaper
        # test's 0.99e8 after row 100, inside the hold sampled at row 98.
        # Every later row is stepped again with ``_rk4`` and kept (its norm
        # is within the 1e8 limit), and every later hold is still sampled
        # on time, its law evaluated once: the kernel stops there, and the
        # loop finishes the run from row 98 under the kernel's input. The
        # nominal law's comparison keeps it from being recorded into the
        # float law, so each sample calls it, after the one call of the
        # refused recording at the start of the run.
        samples = []
        sc = _float_form_scenario(
            lambda a: (1e5,), lambda a: (a, 1.0),
            lambda a: samples.append(1) or 0.0 * (a > 0.0),
            np.ones((1, 1)), (0.9899e8,), HoldSchedule.periodic(7e-3), horizon=0.2,
        )
        steps = _counted_rk4(monkeypatch)
        samples.clear()
        trace = run(sc)
        assert len(steps) == np.count_nonzero(trace.x > 0.99e8) == 100
        assert np.array_equal(np.flatnonzero(trace.event), np.arange(0, 200, 7))
        assert len(samples) == 1 + len(trace.events)
        _assert_matches(trace, _assert_same_outcome(sc))

    def test_the_kernel_runs_whole_at_most_once(self, monkeypatch):
        # The same run: one kernel call carries the law and stops at row
        # 101; the loop's calls, from row 98 to the end, carry none.
        sc = _float_form_scenario(
            lambda a: (1e5,), lambda a: (a, 1.0), lambda a: 0.0,
            np.ones((1, 1)), (0.9899e8,), HoldSchedule.periodic(7e-3), horizon=0.2,
        )
        kernels = _counted_kernels(monkeypatch)
        trace = run(sc)
        whole = [args for args in kernels if len(args) > 10 and args[10] is not None]
        assert len(whole) == 1 and len(kernels) > 1
        _assert_matches(trace, _assert_same_outcome(sc))


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
