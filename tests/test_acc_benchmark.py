"""Adaptive-cruise benchmark: plant, barrier, nominal law, presets."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import acc_closed_form_lie
from safehold.acc_benchmark import (
    X0_FAR,
    X0_NEAR,
    AccParams,
    acc_barrier,
    acc_dynamics,
    acc_filter,
    acc_nominal,
    approach_region,
    build_scenario,
    certified_tuning,
    ride_region,
    thin_band_tuning,
)
from safehold.cbf_core import lie_derivatives
from safehold.config import load_config, parse_config, scenario_from_config
from safehold.constants import boundary_points
from safehold.errors import ConfigurationError
from safehold.simulator import analyze, run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Plant constants and states: finite, of either sign where the plant allows
# it, and far from overflow.
_REALS = st.floats(-1e3, 1e3)
_POSITIVE = st.floats(1e-3, 1e6)


@st.composite
def _plants(draw) -> AccParams:
    return AccParams(
        mass=draw(_POSITIVE), f0=draw(_REALS), f1=draw(_REALS), f2=draw(_REALS),
        lead_speed=draw(_REALS), headway=draw(_POSITIVE),
    )


class TestParams:
    def test_default_values(self):
        p = AccParams()
        assert (p.mass, p.f0, p.f1, p.f2) == (1650.0, 0.1, 5.0, 0.25)
        assert (p.lead_speed, p.desired_speed) == (13.89, 24.0)
        assert (p.tracking_gain, p.headway) == (5.0, 1.8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AccParams(mass=-1.0)
        with pytest.raises(ConfigurationError):
            AccParams(headway=0.0)
        with pytest.raises(ConfigurationError):
            AccParams(f1=float("nan"))


class TestPlant:
    def test_drift_hand_values_at_twenty(self):
        dyn = acc_dynamics()
        f = dyn.drift(np.array([0.0, 20.0, 300.0]))
        # resistance at v=20 is 0.1 + 100 + 100 = 200.1
        assert f[0] == 20.0
        assert f[1] == pytest.approx(-200.1 / 1650.0, rel=1e-12)
        assert f[2] == pytest.approx(13.89 - 20.0, rel=1e-12)

    @pytest.mark.parametrize("region", (ride_region(), approach_region()), ids=("ride", "approach"))
    def test_scalar_drift_equals_the_drift_bit_for_bit(self, region):
        # The float form the held loop calls at each RK4 stage and the array
        # drift, on one state and on each row of a stack, give the same bits.
        dyn = acc_dynamics()
        boxed = [st.floats(lo, hi) for lo, hi in zip(region.lower, region.upper)]

        @settings(max_examples=60, deadline=None)
        @given(st.lists(st.tuples(*boxed), min_size=1, max_size=9))
        def check(states):
            stack = np.array(states)
            stacked = dyn.drift(stack)
            for x, row in zip(stack, stacked):
                want = dyn.drift(x).tobytes()
                assert np.array(dyn.scalar_drift(*x.tolist())).tobytes() == want
                assert row.tobytes() == want

        check()

    @settings(max_examples=200, deadline=None)
    @given(_plants(), _REALS)
    def test_scalar_drift_repeats_the_resistance_bit_for_bit(self, p, speed):
        # The float drift writes p.resistance out inline, for speed; it must
        # stay the same formula in the same order.
        _, rate, _ = acc_dynamics(p).scalar_drift(0.0, speed, 0.0)
        assert rate.hex() == (-p.resistance(speed) / p.mass).hex()

    def test_actuation_column_is_constant(self):
        dyn = acc_dynamics()
        for v in (1.0, 15.0, 30.0):
            g = dyn.actuation(np.array([0.0, v, 100.0]))
            assert g.shape == (3, 1)
            assert np.array_equal(g[:, 0], [0.0, 1.0 / 1650.0, 0.0])

    def test_nominal_hand_values(self):
        nom = acc_nominal()
        # v=20: tracking push plus resistance compensation
        assert nom(np.array([0.0, 20.0, 200.0]))[0] == pytest.approx(16700.1, rel=1e-12)
        # at the desired speed only resistance remains
        assert nom(np.array([0.0, 24.0, 200.0]))[0] == pytest.approx(264.1, rel=1e-12)

    def test_nominal_alone_tracks_the_desired_speed(self):
        # closed loop under the raw nominal: vdot = -(gain/2)(v - v_d); the
        # speed must relax at that rate (within 2%) and never overshoot
        p = AccParams()
        dyn = acc_dynamics(p)
        nom = acc_nominal(p)
        x = np.array([0.0, 20.0, 5000.0])
        dt = 1e-3
        rate = p.tracking_gain / 2.0
        vs = [x[1]]
        from safehold.simulator import rk4_step
        for _ in range(2000):
            x = rk4_step(dyn, x, nom(x), dt)
            vs.append(x[1])
        vs = np.array(vs)
        assert np.all(vs <= p.desired_speed + 1e-9)
        measured = -np.log((p.desired_speed - vs[-1]) / (p.desired_speed - vs[0])) / 2.0
        assert measured == pytest.approx(rate, rel=0.02)


class TestBarrier:
    def test_values_at_the_named_starts(self):
        barrier = acc_barrier()
        assert barrier.value(np.asarray(X0_FAR)) == pytest.approx(280.0, abs=1e-12)
        assert barrier.value(np.asarray(X0_NEAR)) == pytest.approx(15.0, abs=1e-12)

    def test_gradient(self):
        barrier = acc_barrier()
        g = barrier.gradient(np.array([12.0, 20.0, 300.0]))
        assert np.array_equal(g, [0.0, -2.0 * 1.8 * 20.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(_plants(), st.lists(st.tuples(_REALS, _REALS, _REALS), min_size=1, max_size=9))
    def test_gradient_rows_are_the_scalar_form_partials(self, p, states):
        # The array gradient and the float form's partials are written
        # apart; on a stack, and on each state alone, they give the same bits.
        barrier = acc_barrier(p)
        stack = np.array(states)
        for x, row in zip(stack, barrier.gradient(stack)):
            want = np.array(barrier.scalar_form(*x.tolist())[1:]).tobytes()
            assert row.tobytes() == want
            assert barrier.gradient(x).tobytes() == want

    def test_zero_on_the_braking_parabola(self):
        barrier = acc_barrier()
        for v in (5.0, 17.0, 29.0):
            assert barrier.value(np.array([0.0, v, 1.8 * v * v])) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_points_obey_the_parabola(self):
        barrier = acc_barrier()
        pts = boundary_points(approach_region(), barrier, rng=np.random.default_rng(0))
        for p in pts:
            assert p[2] == pytest.approx(1.8 * p[1] ** 2, rel=1e-9)


class TestLieDerivatives:
    def test_actuation_row_hand_value(self):
        p = AccParams()
        _, lgh = acc_closed_form_lie(p, np.array([0.0, 20.0, 300.0]))
        assert lgh[0] == pytest.approx(-72.0 / 1650.0, rel=1e-12)

    def test_closed_form_agrees_with_generic_route(self):
        p = AccParams()
        dyn, barrier = acc_dynamics(p), acc_barrier(p)
        rng = np.random.default_rng(101)
        pts = approach_region().sample(rng, 1000)
        for x in pts:
            lfh_c, lgh_c = acc_closed_form_lie(p, x)
            lfh_g, lgh_g = lie_derivatives(dyn, barrier, x)
            assert lfh_c == pytest.approx(lfh_g, rel=1e-10, abs=1e-10)
            assert lgh_c[0] == pytest.approx(lgh_g[0], rel=1e-10, abs=1e-10)


class TestRegions:
    def test_boxes(self):
        a = approach_region()
        assert a.lower == (0.0, 1.0, 5.0) and a.upper == (2000.0, 30.0, 1200.0)
        r = ride_region()
        assert r.lower == (0.0, 16.5, 590.0) and r.upper == (500.0, 20.5, 740.0)

    def test_named_starts_live_in_the_approach_box(self):
        a = approach_region()
        for x0 in (X0_FAR, X0_NEAR):
            assert all(lo <= v <= hi for lo, v, hi in zip(a.lower, x0, a.upper))


class TestTuningPresets:
    def test_thin_band_values(self):
        t = thin_band_tuning()
        assert (t.c, t.delta, t.band, t.epsilon, t.margin) == (9.18, 5e-4, 5e-3, 1.0, 0.004)

    def test_wide_band_values(self):
        t = load_config(CONFIGS / "approach-boosted.yaml").tuning
        assert (t.c, t.delta, t.band, t.margin) == (9.18, 0.5, 5.0, 0.004)
        assert t.epsilon == pytest.approx(1.0 / 3000.0, rel=1e-12)
        assert t.sharpness == 0.25

    def test_certified_values(self):
        t = certified_tuning()
        assert (t.c, t.delta, t.band, t.epsilon, t.margin) == (3.0, 1.0, 10.0, 1.5e-4, 2.0)


class TestBuildScenario:
    """The preset lookup the benchmark's run() probes build from."""

    def test_error_paths_name_the_problem(self):
        with pytest.raises(ConfigurationError, match="kind"):
            build_scenario("nope", period=None, horizon=0.5, setting="ride")
        with pytest.raises(ConfigurationError, match="period"):
            build_scenario("periodic", period=None, horizon=0.5, setting="ride")
        with pytest.raises(ConfigurationError, match="scenario.name"):
            build_scenario("event", period=None, horizon=0.5, setting="nope")

    @pytest.mark.parametrize("setting", ["approach", "ride"])
    def test_kind_picks_flavor_and_mode_on_the_preset(self, setting):
        preset = parse_config({
            "scenario": {"name": f"acc-{setting}", "controller": "plain"},
            "sim": {"mode": "continuous", "horizon": 0.5},
        })
        for kind, flavor, mode in (
            ("continuous", "plain", "continuous"),
            ("periodic", "plain", "periodic"),
            ("periodic-boosted", "boosted", "periodic"),
            ("event", "boosted", "event"),
        ):
            period = 0.05 if mode == "periodic" else None
            sc = build_scenario(kind, period=period, horizon=0.5, setting=setting)
            assert sc.name == f"acc-{setting}-{flavor}-{mode}"
            assert sc.schedule.period == period
            assert tuple(sc.x0) == preset.x0 and sc.region == preset.region
            assert sc.integrator == preset.integrator

    def test_event_on_approach_defaults_to_the_far_start(self):
        sc = build_scenario("event", period=None, horizon=0.5, setting="approach")
        assert tuple(sc.x0) == X0_FAR

    def test_amplification_reaches_the_trigger(self):
        sc = build_scenario("event", period=None, horizon=0.5, setting="ride")
        assert sc.trigger_c == certified_tuning().c


class TestScenarioFamily:
    def test_sweep_frequencies_cover_both_controllers(self):
        for f in (0.5, 1.0, 2.0, 5.0, 10.0):
            plain, boosted = (
                build_scenario(kind, period=1.0 / f, horizon=6.0, setting="approach")
                for kind in ("periodic", "periodic-boosted")
            )
            # controlled comparison: same schedule, same start, same plant
            assert plain.schedule.period == boosted.schedule.period == pytest.approx(1.0 / f)
            assert tuple(plain.x0) == tuple(boosted.x0)
            assert plain.trigger_c == boosted.trigger_c

    # (events, min_h) of the four ride-box runs the run() probes time.
    PROBED = {
        "periodic": (10, "0x1.1f609689e9980p+3"),
        "periodic-boosted": (10, "0x1.1f609689e9980p+3"),
        "event": (1, "0x1.df38ffa79ee80p+2"),
        "continuous": (0, "0x1.23227cca89fc0p+3"),
    }

    @pytest.mark.parametrize("kind", list(PROBED))
    def test_probed_ride_runs_are_pinned(self, kind):
        period = 0.05 if kind.startswith("periodic") else None
        s = analyze(run(build_scenario(kind, period=period, horizon=0.5, setting="ride")))
        assert (s.num_events, float(s.min_h).hex()) == self.PROBED[kind]


class TestFilteredLoopSpotCheck:
    def test_boosted_loop_dual_route_consistency(self):
        # one closed-loop step through the public scenario equals composing
        # the exported pieces by hand
        sc = scenario_from_config(load_config(CONFIGS / "approach-boosted.yaml", [
            "sim.period=0.5", "sim.horizon=0.01", "sim.substep=0.01",
            "scenario.x0=[0.0,20.0,735.0]",
        ]))
        tr = run(sc)
        filt = acc_filter()
        from safehold.safety_filter import tunable_control
        tuning = load_config(CONFIGS / "approach-boosted.yaml").tuning
        u_hand = tunable_control(filt, tuning, np.asarray(sc.x0))
        assert tr.u[0, 0] == pytest.approx(u_hand[0], rel=1e-12)

    def test_plain_short_run_summary_shape(self):
        sc = scenario_from_config(load_config(
            CONFIGS / "approach-plain-sweep.yaml", ["sim.period=0.1", "sim.horizon=0.5"],
        ))
        s = analyze(run(sc))
        assert s.num_events == 5
        assert s.min_h > 0.0
