"""Regional bound estimation, hold-period budgets, and assumption checks."""

from __future__ import annotations

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_acc_bounds, falsified_period
from safehold import constants
from safehold.acc_benchmark import (
    acc_filter,
    certified_tuning,
    ride_region,
)
from safehold.cbf_core import BarrierFunction, ControlAffineDynamics
from safehold.config import load_config, scenario_from_config
from safehold.constants import (
    BoundSet,
    Check,
    OperatingRegion,
    boundary_points,
    certify,
    certify_region,
    error_bound_plain,
    error_bound_tunable,
    practical_sampling_time,
    violation_free_sampling_time,
)
from safehold.errors import BoundarySamplingError, ConfigurationError
from safehold.simulator import rk4_step
from test_cbf_core import _gain

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

ALL_ONES = BoundSet(
    b_f=1.0, b_g=1.0, b_k=1.0, lam=1.0, mu=1.0,
    m_lip=1.0, l_k=1.0, l_sigma=1.0, safety_factor=1.0,
)


def _plane_system():
    """Constant drift of unit norm, identity-column actuation, h = x1."""
    dyn = ControlAffineDynamics(
        drift_form=lambda a, b: (0.6, -0.8),
        actuation=lambda x: np.array([[1.0], [0.0]]),
        n=2, m=1,
    )
    barrier = BarrierFunction(form=lambda a, b: (a, 1.0, 0.0))
    return dyn, barrier


def _nan_band_barrier():
    """h = 0.5 - x1, undefined (NaN) on the band 0.4 < x1 < 0.6 that every
    segment from the safe side to the unsafe side of the unit box crosses."""
    return BarrierFunction(
        form=lambda a, b: (np.where((a > 0.4) & (a < 0.6), np.nan, 0.5 - a), -1.0, 0.0),
    )


class TestOperatingRegion:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OperatingRegion(lower=(1.0,), upper=(0.0,))
        with pytest.raises(ConfigurationError):
            OperatingRegion(lower=(0.0, 0.0), upper=(1.0,))
        with pytest.raises(ConfigurationError):
            OperatingRegion(lower=(0.0,), upper=(1.0,), seed=-1)
        with pytest.raises(ConfigurationError, match="lower and upper must be finite"):
            OperatingRegion(lower=(0.0,), upper=(np.inf,))

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


class TestBoundaryPoints:
    def test_points_sit_on_the_boundary(self, monkeypatch):
        monkeypatch.setattr(constants, "_BOUNDARY_COUNT", 64)
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        pts = boundary_points(reg, barrier, rng=np.random.default_rng(0))
        assert len(pts) == 64
        for p in pts:
            assert abs(barrier.value(p)) <= 1e-9
            assert np.all(p >= reg.lower_arr) and np.all(p <= reg.upper_arr)

    def test_box_off_the_boundary_raises(self):
        _, barrier = _plane_system()
        reg = OperatingRegion(lower=(1.0, -1.0), upper=(2.0, 1.0))
        with pytest.raises(BoundarySamplingError):
            boundary_points(reg, barrier, rng=np.random.default_rng(0))

    def test_a_jump_across_zero_gives_no_boundary_points(self):
        # Every segment closes on the jump at x1 = 0.5, where |h| is still 1.
        jump = BarrierFunction(form=lambda a, b: (np.where(a < 0.5, 1.0, -1.0), 0.0, 0.0))
        reg = OperatingRegion(lower=(0.0, 0.0), upper=(1.0, 1.0))
        with pytest.raises(BoundarySamplingError, match="produced no converged points"):
            boundary_points(reg, jump, rng=np.random.default_rng(0))

    def test_a_segment_with_one_sign_at_both_ends_is_refused(self):
        # Only a barrier whose values depend on the stack they come in can
        # hand the root-finder such a segment.
        a, b = np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
        message = r"one sign at both ends of the segment from \[0\.0, 0\.0\] to \[1\.0, 1\.0\]"
        with pytest.raises(BoundarySamplingError, match=message):
            constants._brent_roots(lambda x: 1.0 + x.T[0], a, b)

    def test_a_barrier_nan_on_a_segment_names_the_state(self):
        reg = OperatingRegion(lower=(0.0, 0.0), upper=(1.0, 1.0))
        with pytest.raises(BoundarySamplingError, match=r"barrier value nan at state \[0\.[45]"):
            boundary_points(reg, _nan_band_barrier(), rng=np.random.default_rng(0))
        dyn, _ = _plane_system()
        report, bounds, _ = certify_region(reg, dyn, lambda x: np.zeros(1), _nan_band_barrier())
        assert bounds is None
        assert "root-finding cannot continue" in report["boundary_actuation"].detail


class TestEstimateBounds:
    def test_plane_system_exact_values(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0), safety_factor=1.0)
        _, b, _ = certify_region(reg, dyn, lambda x: np.zeros(1), barrier)
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
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0), safety_factor=1.1)
        _, b, _ = certify_region(reg, dyn, lambda x: np.zeros(1), barrier)
        # maxima inflated, the boundary minimum deflated
        assert b.lam == pytest.approx(1.1, rel=1e-12)
        assert b.mu == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_rejects_safety_factor_below_one(self):
        # The region carries the factor, so its constructor is the one check.
        for factor in (0.9, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=f">= 1, got {factor}$"):
                OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0), safety_factor=factor)

    def test_deterministic_given_seed(self):
        filt = acc_filter()
        reg = ride_region()
        _, b1, _ = certify_region(reg, filt.dynamics, filt, filt.barrier)
        _, b2, _ = certify_region(reg, filt.dynamics, filt, filt.barrier)
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
        _, plain, _ = certify_region(reg, dyn, lambda x: np.zeros(1), barrier)
        _, gated, _ = certify_region(
            reg, dyn, lambda x: np.zeros(1), barrier,
            tuning=_gain(epsilon=0.5, delta=1.0, band=2.0),
        )
        assert gated.l_sigma == 100.0 / (4.0 * 0.5)
        for key in ("b_f", "b_g", "b_k", "lam", "mu", "l_k", "m_lip"):
            assert getattr(gated, key) == getattr(plain, key)

    def test_band_values_come_from_the_certifying_draw(self):
        # h = x1 and |lgh| = 1 everywhere: one value per root-found boundary
        # point and per box sample of certification's draw with 0 <= x1 < delta.
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        assert certify_region(reg, dyn, lambda x: np.zeros(1), barrier)[2] is None
        _, _, band = certify_region(
            reg, dyn, lambda x: np.zeros(1), barrier,
            tuning=_gain(epsilon=0.5, delta=0.25, band=2.0),
        )
        box = reg.sample(np.random.default_rng(reg.seed), constants._SAMPLE_COUNT)
        in_band = np.count_nonzero((0.0 <= box[:, 0]) & (box[:, 0] < 0.25))
        assert len(band) == constants._BOUNDARY_COUNT + in_band
        assert np.all(band == 1.0)


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

    def test_bound_set_rejects_a_safety_factor_below_one(self):
        with pytest.raises(ConfigurationError, match="safety_factor must be >= 1, got 0.5"):
            dataclasses.replace(ALL_ONES, safety_factor=0.5)

    def test_degenerate_bounds_rejected(self):
        zero = BoundSet(
            b_f=0.0, b_g=0.0, b_k=0.0, lam=0.0, mu=0.0,
            m_lip=0.0, l_k=0.0, l_sigma=0.0, safety_factor=1.0,
        )
        with pytest.raises(ConfigurationError):
            practical_sampling_time(zero, 1.0)
        with pytest.raises(ConfigurationError):
            violation_free_sampling_time(zero, 1.0, 1.0)

    # The two budgets answer different questions (margin-expanded set vs the
    # original set), so no ordering between them is asserted anywhere.

    @pytest.mark.parametrize("name", ("ride-certified", "approach-boosted"))
    def test_t_star_lies_below_the_falsified_period(self, name):
        # One held input from a safe state of the box first breaks the
        # barrier at 0.899 s (ride) and 0.201 s (approach); t_star, about
        # 3.56e-4 s and 9.87e-9 s, must lie below. Tighter bounds close
        # the gap; a t_star past it would certify a period that fails.
        cfg = load_config(CONFIGS / f"{name}.yaml")
        sc = scenario_from_config(cfg)
        falsified, start = falsified_period(sc)
        cert = certify(cfg)
        t_star = violation_free_sampling_time(cert.bounds, cfg.tuning.epsilon, cfg.tuning.margin)
        assert 0.0 < t_star < falsified
        region = sc.region
        assert sc.barrier.value(start) >= 0.0
        assert np.all((region.lower_arr <= start) & (start <= region.upper_arr))


class TestCheckAssumptions:
    def test_plane_system_passes_all_five(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        report, _, _ = certify_region(reg, dyn, lambda x: np.zeros(1), barrier)
        names = [c.name for c in report.checks]
        assert names == [
            "bounded_fields", "controller_lipschitz", "boundary_actuation",
            "gradient_actuation_lipschitz", "barrier_envelope",
        ]
        assert report.passed
        assert all(c.status == "pass" for c in report.checks)

    def test_box_off_the_boundary_still_reports_all_five(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(1.0, -1.0), upper=(2.0, 1.0))
        report, _, _ = certify_region(reg, dyn, lambda x: np.zeros(1), barrier)
        assert [(c.name, c.status) for c in report.checks] == [
            ("bounded_fields", "pass"), ("controller_lipschitz", "pass"),
            ("boundary_actuation", "fail"), ("gradient_actuation_lipschitz", "pass"),
            ("barrier_envelope", "skipped"),
        ]

    def test_a_barrier_nan_on_the_segments_fails_boundary_check(self):
        dyn, _ = _plane_system()
        reg = OperatingRegion(lower=(0.0, 0.0), upper=(1.0, 1.0))
        report, _, _ = certify_region(reg, dyn, lambda x: np.zeros(1), _nan_band_barrier())
        assert [(c.name, c.status) for c in report.checks] == [
            ("bounded_fields", "pass"), ("controller_lipschitz", "pass"),
            ("boundary_actuation", "fail"), ("gradient_actuation_lipschitz", "pass"),
            ("barrier_envelope", "skipped"),
        ]
        assert "barrier value nan at state" in report["boundary_actuation"].detail

    def test_no_input_authority_fails_boundary_check(self):
        dyn = ControlAffineDynamics(
            drift_form=lambda a, b: (0.6, -0.8),
            actuation=lambda x: np.zeros((2, 1)),
            n=2, m=1,
        )
        barrier = BarrierFunction(form=lambda a, b: (a, 1.0, 0.0))
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        report, bounds, _ = certify_region(reg, dyn, lambda x: np.zeros(1), barrier)
        assert report["boundary_actuation"].status == "fail"
        assert not report.passed
        assert bounds is None

    def test_zero_speed_cruise_box_fails_boundary_check(self):
        # The standstill corner of the boundary has no barrier actuation;
        # the projected boundary samples must find that sliver.
        filt = acc_filter()
        reg = OperatingRegion(lower=(0.0, 0.0, 0.0), upper=(2000.0, 30.0, 1200.0))
        report, _, _ = certify_region(reg, filt.dynamics, filt, filt.barrier)
        assert report["boundary_actuation"].status == "fail"

    def test_cruise_box_passes(self):
        filt = acc_filter()
        report, _, _ = certify_region(ride_region(), filt.dynamics, filt, filt.barrier)
        assert report.passed

    def test_a_box_with_too_few_safe_samples_skips_the_envelope(self):
        # About 4 of the 4096 box samples have h = x - 0.999 >= 0.
        dyn = ControlAffineDynamics(
            drift_form=lambda a: (0.0,), actuation=lambda x: np.ones((1, 1)), n=1, m=1,
        )
        barrier = BarrierFunction(form=lambda a: (a - 0.999, 1.0))
        reg = OperatingRegion(lower=(0.0,), upper=(1.0,))
        report, bounds, _ = certify_region(reg, dyn, lambda x: np.zeros(np.shape(x)), barrier)
        assert report["barrier_envelope"] == Check(
            "barrier_envelope", "skipped", "too few safe samples",
        )
        assert report.passed
        assert bounds is not None and bounds.mu == 1.0 / 1.1

    def test_unknown_check_name_raises(self):
        dyn, barrier = _plane_system()
        reg = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        report, _, _ = certify_region(reg, dyn, lambda x: np.zeros(1), barrier)
        with pytest.raises(KeyError):
            report["nope"]


def _state_actuation_system():
    """A circular barrier under an actuation that varies with the state, so
    that each row's singular values are taken in its own block. On the
    circle |lgh| = 2 (0.25 + x0^2 x1^2) >= 0.5, so the report passes and
    the bounds are built."""
    dyn = ControlAffineDynamics(
        drift_form=lambda a, b: (b, -a),
        actuation=lambda x: np.stack(
            [x.T[0] * (1.0 + x.T[1] ** 2), x.T[1]], axis=-1,
        )[..., None],
        n=2, m=1,
    )
    barrier = BarrierFunction(form=lambda a, b: (0.25 - a ** 2 - b ** 2, -2.0 * a, -2.0 * b))
    return dyn, barrier, lambda x: (np.sin(3.0 * x.T[0]) * x.T[1])[..., None]


def _certification(case):
    """The bounds and reports of one certification, with each bound as its
    exact hex string: ``certify_region``'s assumption report on the
    state-actuation plant, and ``certify``'s assumption and tuning reports
    on the shipped ride and approach configs."""
    if case == "state_actuation":
        dyn, barrier, controller = _state_actuation_system()
        region = OperatingRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        report, bounds, _ = certify_region(region, dyn, controller, barrier)
        reports = [report]
    else:
        cfg = load_config(CONFIGS / {"ride": "ride-certified.yaml",
                                     "approach": "approach-boosted.yaml"}[case])
        cert = certify(cfg)
        bounds, reports = cert.bounds, [cert.assumptions, cert.tuning]
    hexes = {f.name: float(getattr(bounds, f.name)).hex() for f in dataclasses.fields(bounds)}
    return hexes, reports


class TestBlockedEvaluation:
    """Sample sets are evaluated in blocks of rows, and each block is
    reduced before the next. The block size must not move any bound."""

    @pytest.mark.parametrize("case", ["ride", "approach", "state_actuation"])
    def test_a_block_size_dividing_no_sample_count_gives_equal_results(
        self, case, monkeypatch,
    ):
        at_default = _certification(case)
        # 997 divides neither the 100,000 pairs, the 4,096 box points nor
        # the 29,791 lattice points, so every pass ends on a short block.
        monkeypatch.setattr(constants, "_BLOCK_ROWS", 997)
        assert _certification(case) == at_default

    @pytest.mark.parametrize("block_rows", [4096, 997])
    def test_pair_blocks_are_two_whole_draws(self, block_rows, monkeypatch):
        monkeypatch.setattr(constants, "_BLOCK_ROWS", block_rows)
        for seed in (0, 7, 15):
            for n in range(1, 5):
                region = OperatingRegion(
                    lower=tuple(-1.0 - i for i in range(n)),
                    upper=tuple(2.0 * i + 1 for i in range(n)),
                )
                for count in (1, 4095, 4096, 4097, 100_000):
                    monkeypatch.setattr(constants, "_PAIR_COUNT", count)
                    whole = np.random.default_rng(seed)
                    pa, pb = region.sample(whole, count), region.sample(whole, count)
                    rng = np.random.default_rng(seed)
                    blocks = list(constants._pair_blocks(region, rng))
                    assert np.array_equal(np.concatenate([a for a, _ in blocks]), pa)
                    assert np.array_equal(np.concatenate([b for _, b in blocks]), pb)

    def test_blocked_lattice_rows_are_the_meshgrid_grid(self, monkeypatch):
        axes = [np.linspace(0.0, 2.0, 3), np.linspace(-1.0, 1.0, 4), np.linspace(5.0, 6.0, 5)]
        grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        for block_rows in (4096, 7, 1):
            monkeypatch.setattr(constants, "_BLOCK_ROWS", block_rows)
            rows = np.concatenate([
                constants._lattice_rows(axes, np.arange(r.start, r.stop))
                for r in constants._row_blocks(len(grid))
            ])
            assert np.array_equal(rows, grid)
        corners = rows.tolist()
        assert [0.0, -1.0, 5.0] in corners and [2.0, 1.0, 6.0] in corners

    def test_state_actuation_values_are_pinned(self):
        # Captured from the separate estimator and assumption checks that
        # certify_region replaced.
        hexes, (report,) = _certification("state_actuation")
        assert hexes == {
            "b_f": "0x1.8e3e170bf282fp+0",
            "b_g": "0x1.3ad69f7f3f386p+1",
            "b_k": "0x1.19998fd4ee74fp+0",
            "lam": "0x1.a666666666667p+2",
            "mu": "0x1.d17460b0fa820p-2",
            "m_lip": "0x1.6221638d297adp+3",
            "l_k": "0x1.a650786880f1bp+1",
            "l_sigma": "0x0.0p+0",
            "safety_factor": "0x1.199999999999ap+0",
        }
        assert [(c.name, c.status, c.detail) for c in report.checks] == [
            ("bounded_fields", "pass", "max|f|=1.40065, max|g|=2.20011, max|k|=0.994497"),
            ("controller_lipschitz", "pass", "sampled difference quotient 2.65166"),
            ("boundary_actuation", "pass",
             "min |lgh|=0.5 over 512 root-found + 4095 projected boundary points vs "
             "max |lgh|=5.84773 (degenerate at or below 0.01 ratio)"),
            ("gradient_actuation_lipschitz", "pass", "sampled difference quotient 9.34392"),
            ("barrier_envelope", "pass",
             "monotone envelope knots: (0, 0.0003252), (0.03082, 0.03016), "
             "(0.06165, 0.05799), (0.09247, 0.0841), (0.1233, 0.1087), (0.1541, 0.1301), "
             "(0.1849, 0.1508), (0.2158, 0.1695), (0.2466, 0.1858), (0.2774, 0.2006), "
             "(0.3082, 0.214), (0.3391, 0.2242), (0.3699, 0.2333), (0.4007, 0.2403), "
             "(0.4315, 0.2454), (0.4624, 0.249)"),
        ]

    def test_estimation_memory_stays_bounded(self):
        # Peak traced allocation on the ride box: the whole certification,
        # and the report, whose temporaries are freed before the pair draw.
        # One full-height stacked call per sample set peaks at about 17 MiB
        # and 7 MiB; whole pair draws and a whole lattice at about 8 MiB.
        filt = acc_filter()
        args = (ride_region(), filt.dynamics, filt, filt.barrier)
        calls = {
            "certify_region": (lambda: certify_region(*args), 2.0),
            "_assumption_report": (
                lambda: constants._assumption_report(
                    *args, np.random.default_rng(0), certified_tuning().delta,
                ),
                2.0,
            ),
        }
        for name, (call, limit_mib) in calls.items():
            assert _traced_peak_mib(call) < limit_mib, name

    def test_estimation_memory_is_flat_in_the_pair_count(self, monkeypatch):
        # Whole pair draws grow the peak by about 4.6 MiB per 100,000 pairs
        # on the three-axis ride box.
        filt = acc_filter()
        args = (ride_region(), filt.dynamics, filt, filt.barrier)
        at_default = _traced_peak_mib(lambda: certify_region(*args))
        monkeypatch.setattr(constants, "_PAIR_COUNT", 400_000)
        assert _traced_peak_mib(lambda: certify_region(*args)) - at_default < 0.25


def _traced_peak_mib(call) -> float:
    """Peak traced allocation of the second of two calls, in MiB; the first
    loads modules and fills caches."""
    call()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20
