"""Acceptance gate: ten end-to-end checks, one line each under ``pytest -v``.

Every check carries a wall-clock budget asserted inside the test. Where a
test consumes a session fixture, the fixture's recorded cost (conftest.Timed)
is charged against that budget too, so caching never hides slow work.
Reference values pinned here were frozen from probe runs of these exact
recipes; the runs are deterministic, so they reproduce bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import qp_reference
from safehold.acc_benchmark import (
    acc_filter,
    approach_region,
    certified_tuning,
    ride_region,
    thin_band_tuning,
)
from safehold.cbf_core import lie_derivatives
from safehold.config import load_config, scenario_from_config
from safehold.constants import (
    BoundSet,
    certify_region,
    error_bound_plain,
    error_bound_tunable,
    practical_sampling_time,
    validate_tuning,
    violation_free_sampling_time,
)
from safehold.safety_filter import solve_cbf_qp
from safehold.simulator import HoldSchedule, analyze, rk4_step, run

CERTIFIED = Path(__file__).resolve().parents[1] / "configs" / "ride-certified.yaml"
WIDE_BAND = CERTIFIED.with_name("approach-boosted.yaml")


def _within_budget(limit_s: float, spent_s: float) -> None:
    assert spent_s < limit_s, f"took {spent_s:.3f}s, budget is {limit_s:g}s"


def test_criterion_01_hold_budget_formulas_are_exact():
    ones = BoundSet(
        b_f=1.0, b_g=1.0, b_k=1.0, lam=1.0, mu=1.0, m_lip=1.0,
        l_k=1.0, l_sigma=1.0, safety_factor=1.0,
    )
    t0 = time.perf_counter()
    t_star = violation_free_sampling_time(ones, 1.0, 1.0)
    t_prac = practical_sampling_time(ones, 1.0)
    spent = time.perf_counter() - t0
    assert abs(t_star - 1.0 / 9.0) <= 1e-15
    assert abs(t_prac - 0.5) <= 1e-15
    _within_budget(1e-3, spent)


def test_criterion_02_closed_form_filter_matches_grid_search():
    """1000 random states: the closed-form filter agrees with a brute-force
    1e-3 grid minimizer that shares no code with it."""
    t0 = time.perf_counter()
    filt = acc_filter()
    states = approach_region().sample(np.random.default_rng(2024), 1000)
    worst = 0.0
    for x in states:
        u = float(solve_cbf_qp(filt, x)[0])
        worst = max(worst, abs(u - qp_reference(filt, x, grid_step=1e-3)))
    assert worst <= 2e-3
    _within_budget(10.0, time.perf_counter() - t0)


def test_criterion_03_boosted_law_holds_amplified_decrease_margin():
    """Inside the safe set the boosted controller keeps the amplified
    decrease condition satisfied with margin to spare, pointwise on a
    10k-state sample of the approach box."""
    t0 = time.perf_counter()
    filt = acc_filter()
    cfg = thin_band_tuning()
    reg = approach_region()
    rng = np.random.default_rng(424242)
    pts = []
    while len(pts) < 10_000:
        cand = reg.sample(rng, 4096)
        for x in cand:
            if filt.barrier.value(x) >= 0.0:
                pts.append(x)
                if len(pts) == 10_000:
                    break
    law = cfg.controller(filt)
    worst = math.inf
    for x in pts:
        u = law(x)
        lfh, lgh = lie_derivatives(filt.dynamics, filt.barrier, x)
        h = filt.barrier.value(x)
        expr = lfh + float(lgh @ u) + (1.0 + cfg.c) * filt.alpha(h) - cfg.margin
        worst = min(worst, expr)
    assert worst >= -1e-6
    assert worst == pytest.approx(0.446596, abs=1e-6)
    _within_budget(30.0, time.perf_counter() - t0)


def test_criterion_04_plain_sweep_minima_increase_with_frequency(plain_sweep):
    t0 = time.perf_counter()
    summaries = plain_sweep.value
    minima = [summaries[f].min_h for f in sorted(summaries)]
    assert minima[0] < -1e-6
    for slower, faster in zip(minima, minima[1:]):
        assert faster - slower > 1e-6
    assert minima == pytest.approx([
        -15.1921415826964,
        -0.048400624055148,
        0.00492981073148258,
        0.0190882561253147,
        0.0272175659639515,
    ], rel=1e-12)
    _within_budget(60.0, plain_sweep.elapsed + time.perf_counter() - t0)


def test_criterion_05_boosted_sweep_has_a_threshold_frequency(
    boosted_sweep, plain_at_1hz_60s,
):
    t0 = time.perf_counter()
    summaries = boosted_sweep.value
    grid = sorted(summaries)
    safe = {f for f in grid if summaries[f].min_h >= -1e-9}
    f_star = min(safe)
    assert all(f in safe for f in grid if f >= f_star)
    assert f_star == 1.0
    # threshold is strict within the grid: one notch slower already violates
    assert summaries[0.5].min_h < -1e-9
    # the plain filter at the boosted threshold frequency is unsafe
    assert plain_at_1hz_60s.value.min_h < -1e-6
    for f, ref in ((0.5, -207.964), (1.0, 0.224792), (2.0, 2.13571),
                   (5.0, 2.13384), (10.0, 2.13321)):
        assert summaries[f].min_h == pytest.approx(ref, rel=1e-4)
    spent = boosted_sweep.elapsed + plain_at_1hz_60s.elapsed + time.perf_counter() - t0
    _within_budget(60.0, spent)


def test_criterion_06_certified_period_never_violates(ride_bounds, ride_periodic_star):
    t0 = time.perf_counter()
    filt = acc_filter()
    cfg = certified_tuning()
    report = validate_tuning(cfg, ride_bounds.value, filt, ride_region())
    assert report.passed
    trace, summary = ride_periodic_star.value
    assert summary.min_h >= -1e-9
    assert float(trace.trigger.min()) >= -1e-6
    assert summary.min_h == pytest.approx(5.99696982408477, rel=1e-12)
    assert float(trace.trigger.min()) > 18.8
    spent = ride_bounds.elapsed + ride_periodic_star.elapsed + time.perf_counter() - t0
    _within_budget(60.0, spent)


def test_criterion_07_event_trigger_beats_certified_periodic_rate(
    ride_bounds, ride_budgets, ride_periodic_star, ride_event,
):
    t0 = time.perf_counter()
    t_star = ride_budgets["t_star"]
    trace, summary = ride_event.value
    _, periodic_summary = ride_periodic_star.value
    assert summary.min_h >= -1e-9
    gaps = np.diff(trace.events)
    assert gaps.size > 0
    assert float(gaps.min()) >= t_star
    assert summary.num_events < periodic_summary.num_events
    assert (summary.num_events, periodic_summary.num_events) == (2, 33747)
    assert summary.miet == pytest.approx(0.74707823799439688, rel=1e-12)
    assert summary.min_h == pytest.approx(3.76676097855773, rel=1e-12)
    spent = (ride_bounds.elapsed + ride_periodic_star.elapsed + ride_event.elapsed
             + time.perf_counter() - t0)
    _within_budget(60.0, spent)


def test_criterion_08_hold_deviation_stays_under_analytic_bound():
    """100 random hold intervals, plain and boosted: integrated state drift
    never exceeds the closed-form per-mode bound."""
    t0 = time.perf_counter()
    filt = acc_filter()
    reg = approach_region()
    wcfg = load_config(WIDE_BAND).tuning
    _, bounds = certify_region(
        reg, filt.dynamics, filt, filt.barrier, tuning=wcfg,
    )
    boost = wcfg.controller(filt)
    rng = np.random.default_rng(11)
    # stay clear of the walls so the held trajectory cannot leave the box
    lo = reg.lower_arr + 6.0
    hi = reg.upper_arr - 6.0
    worst_plain = worst_boost = math.inf
    for _ in range(100):
        x0 = rng.uniform(lo, hi)
        hold = rng.uniform(1e-3, 1e-2)
        for ctrl, bound, plain in (
            (filt, error_bound_plain(bounds, hold), True),
            (boost, error_bound_tunable(bounds, wcfg.epsilon, hold), False),
        ):
            u = ctrl(x0)
            x = x0.copy()
            err = 0.0
            for _ in range(20):
                x = rk4_step(filt.dynamics, x, u, hold / 20)
                err = max(err, float(np.linalg.norm(x - x0)))
            if plain:
                worst_plain = min(worst_plain, bound - err)
            else:
                worst_boost = min(worst_boost, bound - err)
    assert worst_plain > 0.0
    assert worst_boost > 0.0
    assert worst_plain == pytest.approx(0.0911508, rel=1e-4)
    assert worst_boost == pytest.approx(0.0912778, rel=1e-4)
    _within_budget(30.0, time.perf_counter() - t0)


def test_criterion_09_practical_period_respects_expanded_floor(
    ride_bounds, ride_budgets,
):
    """Plain filter at the practical period stays above the expanded floor
    the budget was solved for; at this tuning it only grazes zero."""
    t0 = time.perf_counter()
    cfg = certified_tuning()
    t_prac = ride_budgets["t_practical"]
    plain = load_config(CERTIFIED, ["scenario.controller=plain"])
    sc = scenario_from_config(replace(
        plain, schedule=HoldSchedule.periodic(t_prac),
        integrator=replace(plain.integrator, substep=t_prac / 2),
    ))
    summary = analyze(run(sc))
    # linear alpha with unit slope: the expanded set bottoms out at -margin
    assert summary.min_h >= -cfg.margin - 1e-9
    assert summary.min_h == pytest.approx(9.430685975075903e-05, rel=1e-12)
    _within_budget(30.0, ride_bounds.elapsed + time.perf_counter() - t0)


def test_criterion_10_replayed_certified_run_is_byte_identical(
    ride_budgets, ride_periodic_star, tmp_path,
):
    t_star = ride_budgets["t_star"]
    first, _ = ride_periodic_star.value
    cfg = load_config(CERTIFIED)
    second = run(scenario_from_config(replace(
        cfg, schedule=HoldSchedule.periodic(t_star),
        integrator=replace(cfg.integrator, substep=t_star / 2),
    )))
    a = tmp_path / "first.csv"
    b = tmp_path / "second.csv"
    first.to_csv(a)
    second.to_csv(b)
    assert a.read_bytes() == b.read_bytes()
