"""Regional bound estimation, hold-period budgets, and assumption checks."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import dense_acc_bounds
from safehold.acc_benchmark import (
    acc_barrier,
    acc_dynamics,
    acc_filter,
    ride_region,
)
from safehold.cbf_core import BarrierFunction, ControlAffineDynamics
from safehold.constants import (
    BoundSet,
    OperatingRegion,
    boundary_points,
    check_assumptions,
    error_bound_plain,
    error_bound_tunable,
    estimate_bounds,
    practical_sampling_time,
    violation_free_sampling_time,
)
from safehold.errors import BoundarySamplingError, ConfigurationError
from safehold.simulator import rk4_step

ALL_ONES = BoundSet(
    b_f=1.0, b_g=1.0, b_k=1.0, lam=1.0, mu=1.0,
    m_lip=1.0, l_k=1.0, l_sigma=1.0, safety_factor=1.0,
)


def _plane_system():
    """Constant drift of unit norm, identity-column actuation, h = x1."""
    dyn = ControlAffineDynamics(
        drift=lambda x: np.array([0.6, -0.8]),
        actuation=lambda x: np.array([[1.0], [0.0]]),
        n=2, m=1,
    )
    barrier = BarrierFunction(
        value=lambda x: x.T[0], gradient=lambda x: np.array([1.0, 0.0]),
    )
    return dyn, barrier


class TestOperatingRegion:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OperatingRegion(lower=(1.0,), upper=(0.0,))
        with pytest.raises(ConfigurationError):
            OperatingRegion(lower=(0.0, 0.0), upper=(1.0,))
        with pytest.raises(ConfigurationError):
            OperatingRegion(lower=(0.0,), upper=(1.0,), sample_count=1)

    def test_contains_and_scale(self):
        reg = OperatingRegion(lower=(0.0, -1.0), upper=(2.0, 1.0))
        inside, outside = np.array([1.0, 0.0]), np.array([3.0, 0.0])
        assert np.all(inside >= reg.lower_arr) and np.all(inside <= reg.upper_arr)
        assert not (np.all(outside >= reg.lower_arr) and np.all(outside <= reg.upper_arr))
        assert reg.scale == 2.0

    def test_sample_stays_inside(self):
        reg = OperatingRegion(lower=(0.0, -1.0), upper=(2.0, 1.0))
        pts = reg.sample(np.random.default_rng(0), 500)
        assert pts.shape == (500, 2)
        assert np.all(pts >= reg.lower_arr) and np.all(pts <= reg.upper_arr)

    def test_lattice_includes_faces(self):
        reg = OperatingRegion(lower=(0.0, -1.0), upper=(2.0, 1.0))
        lat = reg.lattice(3)
        assert lat.shape == (9, 2)
        assert [0.0, -1.0] in lat.tolist() and [2.0, 1.0] in lat.tolist()


class TestBoundaryPoints:
    def test_points_sit_on_the_boundary(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        pts = boundary_points(reg, barrier, 64)
        assert len(pts) == 64
        for p in pts:
            assert abs(barrier.value(p)) <= 1e-9
            assert np.all(p >= reg.lower_arr) and np.all(p <= reg.upper_arr)

    def test_box_off_the_boundary_raises(self):
        _, barrier = _plane_system()
        reg = OperatingRegion(lower=(1.0, -1.0), upper=(2.0, 1.0))
        with pytest.raises(BoundarySamplingError):
            boundary_points(reg, barrier, 64)


class TestEstimateBounds:
    def test_plane_system_exact_values(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        b = estimate_bounds(
            reg, dyn, lambda x: np.zeros(1), barrier,
            safety_factor=1.0,
        )
        assert b.b_f == pytest.approx(1.0, rel=1e-12)
        assert b.b_g == 1.0
        assert b.b_k == 0.0
        assert b.lam == 1.0
        assert b.mu == 1.0
        assert b.l_k == 0.0
        assert b.m_lip == 0.0
        assert b.l_sigma == 0.0

    def test_safety_factor_direction(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        b = estimate_bounds(
            reg, dyn, lambda x: np.zeros(1), barrier,
            safety_factor=1.1,
        )
        # maxima inflated, the boundary minimum deflated
        assert b.lam == pytest.approx(1.1, rel=1e-12)
        assert b.mu == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_rejects_safety_factor_below_one(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            estimate_bounds(reg, dyn, lambda x: np.zeros(1), barrier, safety_factor=0.9)

    def test_deterministic_given_seed(self):
        filt = acc_filter()
        reg = ride_region(sample_count=256)
        b1 = estimate_bounds(reg, filt.dynamics, filt, filt.barrier)
        b2 = estimate_bounds(reg, filt.dynamics, filt, filt.barrier)
        assert b1 == b2

    def test_cruise_box_matches_dense_reference_within_5pct(self, ride_bounds):
        # Raw estimates (safety factor removed) against the vectorized
        # closed-form reference. l_sigma is analytic and checked separately.
        est = ride_bounds.value
        ora = dense_acc_bounds((0.0, 16.5, 590.0), (500.0, 20.5, 740.0))
        sf = est.safety_factor
        for key, reference in ora.items():
            raw = getattr(est, key) * (sf if key == "mu" else 1.0 / sf)
            assert raw == pytest.approx(reference, rel=0.05), key

    def test_cruise_box_frozen_goldens(self, ride_bounds):
        b = ride_bounds.value
        assert b.b_f == pytest.approx(23.693651198054503, rel=1e-12)
        assert b.b_g == pytest.approx(6.6666666666666675e-4, rel=1e-12)
        assert b.b_k == pytest.approx(7723.3398611111124, rel=1e-12)
        assert b.lam == pytest.approx(0.0492, rel=1e-12)
        assert b.mu == pytest.approx(0.03597288956746978, rel=1e-12)
        assert b.m_lip == pytest.approx(0.0024000000000000722, rel=1e-12)
        assert b.l_k == pytest.approx(2277.7898029392377, rel=1e-12)
        assert b.l_sigma == pytest.approx(33333.333333333336, rel=1e-12)

    def test_sigmoid_only_changes_the_slope_bound(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        from safehold.cbf_core import SigmoidGain
        plain = estimate_bounds(reg, dyn, lambda x: np.zeros(1), barrier)
        gated = estimate_bounds(
            reg, dyn, lambda x: np.zeros(1), barrier,
            sigmoid=SigmoidGain(epsilon=0.5, delta=1.0, band=2.0),
        )
        assert gated.l_sigma == 100.0 / (4.0 * 0.5)
        for key in ("b_f", "b_g", "b_k", "lam", "mu", "l_k", "m_lip"):
            assert getattr(gated, key) == getattr(plain, key)


class TestErrorBounds:
    def test_plain_hand_value(self):
        b = BoundSet(
            b_f=2.0, b_g=1.0, b_k=3.0, lam=1.0, mu=1.0,
            m_lip=1.0, l_k=1.0, l_sigma=1.0, safety_factor=1.0,
        )
        assert error_bound_plain(b, 0.1) == pytest.approx(0.5, rel=1e-15)

    def test_plain_is_linear_in_the_hold(self):
        assert error_bound_plain(ALL_ONES, 0.4) == pytest.approx(
            2.0 * error_bound_plain(ALL_ONES, 0.2), rel=1e-15,
        )
        assert error_bound_plain(ALL_ONES, 0.0) == 0.0

    def test_tunable_all_ones_hand_value(self):
        assert error_bound_tunable(ALL_ONES, 0.5, 1.0) == pytest.approx(4.0, rel=1e-15)

    def test_tunable_collapses_to_plain_for_huge_epsilon(self):
        t = 0.7
        assert error_bound_tunable(ALL_ONES, 1e15, t) == pytest.approx(
            error_bound_plain(ALL_ONES, t), rel=1e-12,
        )

    def test_tunable_exceeds_plain(self):
        assert error_bound_tunable(ALL_ONES, 0.5, 1.0) > error_bound_plain(ALL_ONES, 1.0)

    def test_negative_hold_rejected(self):
        with pytest.raises(ConfigurationError):
            error_bound_plain(ALL_ONES, -0.1)
        with pytest.raises(ConfigurationError):
            error_bound_tunable(ALL_ONES, 1.0, -0.1)

    def test_soundness_on_cruise_holds(self, ride_bounds):
        # Measured drift over a held step never exceeds the advertised bound.
        filt = acc_filter()
        b = ride_bounds.value
        reg = ride_region()
        span = reg.upper_arr - reg.lower_arr
        rng = np.random.default_rng(41)
        for _ in range(10):
            x0 = rng.uniform(reg.lower_arr + 0.05 * span, reg.upper_arr - 0.05 * span)
            t_hold = rng.uniform(1e-3, 5e-3)
            u = filt(x0)
            x = x0.copy()
            worst = 0.0
            for _ in range(10):
                x = rk4_step(filt.dynamics, x, u, t_hold / 10)
                worst = max(worst, float(np.linalg.norm(x - x0)))
            assert worst <= error_bound_plain(b, t_hold)


class TestHoldBudgets:
    def test_practical_all_ones(self):
        assert practical_sampling_time(ALL_ONES, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_practical_linear_in_margin(self):
        assert practical_sampling_time(ALL_ONES, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_violation_free_all_ones(self):
        got = violation_free_sampling_time(ALL_ONES, 1.0, 1.0)
        assert got == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_violation_free_linear_in_margin(self):
        got = violation_free_sampling_time(ALL_ONES, 1.0, 2.0)
        assert got == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_violation_free_half_epsilon(self):
        got = violation_free_sampling_time(ALL_ONES, 0.5, 1.0)
        assert got == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_monotone_in_epsilon_for_fixed_bounds(self):
        periods = [violation_free_sampling_time(ALL_ONES, e, 1.0) for e in (0.25, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(periods, periods[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            practical_sampling_time(ALL_ONES, -1.0)
        with pytest.raises(ConfigurationError):
            violation_free_sampling_time(ALL_ONES, -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            violation_free_sampling_time(ALL_ONES, 1.0, -1.0)

    def test_degenerate_bounds_rejected(self):
        zero = BoundSet(
            b_f=0.0, b_g=0.0, b_k=0.0, lam=0.0, mu=0.0,
            m_lip=0.0, l_k=0.0, l_sigma=0.0, safety_factor=1.0,
        )
        with pytest.raises(ConfigurationError):
            practical_sampling_time(zero, 1.0)

    # The two budgets answer different questions (margin-expanded set vs the
    # original set), so no ordering between them is asserted anywhere.


class TestCheckAssumptions:
    def test_plane_system_passes_all_five(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0), sample_count=1024)
        report = check_assumptions(reg, dyn, lambda x: np.zeros(1), barrier)
        names = [c.name for c in report.checks]
        assert names == [
            "bounded_fields", "controller_lipschitz", "boundary_actuation",
            "gradient_actuation_lipschitz", "barrier_envelope",
        ]
        assert report.passed
        assert all(c.status == "pass" for c in report.checks)

    def test_no_input_authority_fails_boundary_check(self):
        dyn = ControlAffineDynamics(
            drift=lambda x: np.array([0.6, -0.8]),
            actuation=lambda x: np.zeros((2, 1)),
            n=2, m=1,
        )
        barrier = BarrierFunction(
            value=lambda x: x.T[0], gradient=lambda x: np.array([1.0, 0.0]),
        )
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0), sample_count=1024)
        report = check_assumptions(reg, dyn, lambda x: np.zeros(1), barrier)
        assert report["boundary_actuation"].status == "fail"
        assert not report.passed

    def test_zero_speed_cruise_box_fails_boundary_check(self):
        # The standstill corner of the boundary has no barrier actuation;
        # the projected boundary samples must find that sliver.
        filt = acc_filter()
        reg = OperatingRegion(lower=(0.0, 0.0, 0.0), upper=(2000.0, 30.0, 1200.0))
        report = check_assumptions(reg, filt.dynamics, filt, filt.barrier)
        assert report["boundary_actuation"].status == "fail"

    def test_cruise_box_passes(self):
        filt = acc_filter()
        report = check_assumptions(ride_region(), filt.dynamics, filt, filt.barrier)
        assert report.passed

    def test_unknown_check_name_raises(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        report = check_assumptions(reg, dyn, lambda x: np.zeros(1), barrier)
        with pytest.raises(KeyError):
            report["nope"]
