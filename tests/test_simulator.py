"""Sample-and-hold closed-loop engine: held integration, scheduling,
trigger evaluation, trace analysis, and CSV persistence."""

from __future__ import annotations


import numpy as np
import pytest

from safehold.acc_benchmark import build_scenario, certified_tuning
from safehold.cbf_core import BarrierFunction, ClassKappa, ControlAffineDynamics
from safehold.constants import OperatingRegion
from safehold.errors import (
    ConfigurationError,
    DivergenceError,
    InfeasibleFilterError,
    RegionExitError,
)
from safehold.safety_filter import CbfQpFilter, NominalController
from safehold.simulator import (
    HoldSchedule,
    IntegratorConfig,
    RunSummary,
    Scenario,
    Trace,
    analyze,
    rk4_step,
    run,
    trigger_value,
)


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
            alpha=ClassKappa.linear(1.0), controller=lambda x: np.zeros(1), x0=(1.0,),
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
    alpha = ClassKappa.linear(1.0)
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
        with pytest.raises(ConfigurationError):
            run(_scalar_scenario("periodic", period=1e-4, substep=1e-3))

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
            dynamics=dyn, barrier=barrier, alpha=ClassKappa.linear(1.0),
            nominal=NominalController(law=lambda x: np.zeros(1)),
        )
        sc = Scenario(
            name="blowup", dynamics=dyn, barrier=barrier,
            alpha=ClassKappa.linear(1.0), controller=filt, x0=(1.0,),
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
            dynamics=dyn, barrier=barrier, alpha=ClassKappa.linear(1.0),
            nominal=NominalController(law=lambda x: np.zeros(1)),
        )
        sc = Scenario(
            name="stuck", dynamics=dyn, barrier=barrier,
            alpha=ClassKappa.linear(1.0), controller=filt, x0=(0.0,),
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
            dyn, barrier, ClassKappa.linear(1.0), 0.0, np.array([0.0]), np.array([-1.0]),
        )
        assert got == 0.0

    def test_amplification_formula(self):
        dyn = ControlAffineDynamics(
            drift=lambda x: np.array([0.3]), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(value=lambda x: x.T[0], gradient=lambda x: np.ones(1))
        alpha = ClassKappa.linear(2.0)
        x, u, c = np.array([0.5]), np.array([0.1]), 3.0
        got = trigger_value(dyn, barrier, alpha, c, x, u)
        assert got == pytest.approx((0.3 + 0.1) + (1.0 + c) * 1.0, rel=1e-15)

    def test_matches_trace_rows(self):
        sc = build_scenario(
            "event", setting="ride", tuning=certified_tuning(), horizon=1.0, substep=1e-3,
        )
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


class TestCsvRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        sc = build_scenario(
            "event", setting="ride", tuning=certified_tuning(), horizon=0.5, substep=1e-3,
        )
        tr = run(sc)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        back = Trace.from_csv(path)
        assert np.array_equal(tr.t, back.t)
        assert np.array_equal(tr.x, back.x)
        assert np.array_equal(tr.u, back.u)
        assert np.array_equal(tr.h, back.h)
        assert np.array_equal(tr.hdot, back.hdot)
        assert np.array_equal(tr.trigger, back.trigger)
        assert np.array_equal(tr.event, back.event)
        assert back.events == tr.events

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
            sc = build_scenario("periodic", period=0.25, horizon=6.0, substep=substep)
            mins.append(analyze(run(sc)).min_h)
        assert abs(mins[0] - mins[1]) < 1e-6

    def test_continuous_filter_rides_the_boundary_safely(self):
        sc = build_scenario("continuous", horizon=10.0)
        s = analyze(run(sc), violation_tol=1e-6)
        assert s.violation_time is None
        assert s.min_h >= -1e-6
