"""Shared fixtures.

The expensive artifacts (bound estimation, minute-long closed-loop runs) are
computed once per session. Each is wrapped in ``Timed`` carrying the wall
time it cost, so acceptance tests that consume a fixture can charge that
time against their own wall-clock budget instead of getting it for free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import pytest

from safehold.acc_benchmark import acc_filter, certified_tuning, ride_region
from safehold.config import load_config, scenario_from_config
from safehold.constants import (
    certify_region,
    practical_sampling_time,
    violation_free_sampling_time,
)
from safehold.simulator import HoldSchedule, RunSummary, Trace, analyze, run

SWEEP_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def no_integration(monkeypatch) -> None:
    """Makes the simulator's RK4 kernels fail the test when they step: the
    numpy ``_rk4`` and the float kernels of ``_float_rows``. Where a config
    error must come first, nothing may integrate."""
    def refuse(*args):
        raise AssertionError("integrated before the config error")

    monkeypatch.setattr("safehold.simulator._rk4", refuse)
    monkeypatch.setattr("safehold.simulator._float_rows", lambda n, body=None: refuse)


@dataclass(frozen=True)
class Timed:
    value: Any
    elapsed: float


def timed(fn: Callable[[], Any]) -> Timed:
    t0 = time.perf_counter()
    value = fn()
    return Timed(value, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def ride_bounds() -> Timed:
    """Estimated bounds for the cruise box under the certified tuning."""
    filt = acc_filter()
    return timed(lambda: certify_region(
        ride_region(), filt.dynamics, filt, filt.barrier,
        tuning=certified_tuning(),
    )[1])


@pytest.fixture(scope="session")
def ride_budgets(ride_bounds: Timed) -> dict[str, float]:
    cfg = certified_tuning()
    b = ride_bounds.value
    return {
        "t_star": violation_free_sampling_time(b, cfg.epsilon, cfg.margin),
        "t_practical": practical_sampling_time(b, cfg.margin),
    }


@pytest.fixture(scope="session")
def ride_periodic_star(ride_budgets: dict[str, float]) -> Timed:
    """Boosted periodic run on the cruise box at the violation-free period."""
    ts = ride_budgets["t_star"]

    def go() -> tuple[Trace, RunSummary]:
        cfg = load_config(CONFIGS / "ride-certified.yaml")
        sc = scenario_from_config(replace(
            cfg, schedule=HoldSchedule.periodic(ts),
            integrator=replace(cfg.integrator, substep=ts / 2),
        ))
        tr = run(sc)
        return tr, analyze(tr)

    return timed(go)


@pytest.fixture(scope="session")
def ride_event(ride_budgets: dict[str, float]) -> Timed:
    """Event-triggered run on the cruise box, same substep as the periodic
    reference so the sample-count comparison is apples to apples."""
    ts = ride_budgets["t_star"]

    def go() -> tuple[Trace, RunSummary]:
        cfg = load_config(CONFIGS / "ride-certified.yaml")
        sc = scenario_from_config(
            replace(cfg, integrator=replace(cfg.integrator, substep=ts / 2))
        )
        tr = run(sc)
        return tr, analyze(tr)

    return timed(go)


def _sweep(base) -> dict[float, RunSummary]:
    """The base scenario's summary at each grid frequency."""
    return {
        f: analyze(run(replace(base, schedule=HoldSchedule.periodic(1.0 / f))))
        for f in SWEEP_GRID
    }


@pytest.fixture(scope="session")
def plain_sweep() -> Timed:
    """Plain periodic sweep, 6 s horizon, start just inside the boundary."""
    return timed(lambda: _sweep(
        scenario_from_config(load_config(CONFIGS / "approach-plain-sweep.yaml"))
    ))


@pytest.fixture(scope="session")
def boosted_sweep() -> Timed:
    """Boosted periodic sweep, 60 s horizon, same start as the plain sweep."""
    return timed(lambda: _sweep(scenario_from_config(load_config(
        CONFIGS / "approach-boosted.yaml", ["sim.period=1.0", "scenario.x0=[0.0,20.0,735.0]"],
    ))))


@pytest.fixture(scope="session")
def plain_at_1hz_60s() -> Timed:
    """Plain periodic at the boosted sweep's threshold frequency, full 60 s."""
    return timed(lambda: analyze(run(scenario_from_config(
        load_config(CONFIGS / "approach-plain-sweep.yaml", ["sim.horizon=60.0"])
    ))))
