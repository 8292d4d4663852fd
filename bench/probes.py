"""Fixed-state µs/call probes of the hot per-state functions and of run().

Usage: ``python3 bench/probes.py SEED``; prints one JSON object.

Each function is timed over a seeded set of ride-box states, repeated, and
the median of the per-call means is reported. ``run()`` is timed per hold
mode on a short ride-box recipe, ``continuous`` included although no
workload reaches it. ``_check_state`` is private and not probed; its share
shows only inside ``run_us_per_substep``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from safehold.acc_benchmark import acc_filter, build_scenario, certified_tuning, ride_region
from safehold.cbf_core import lie_derivatives
from safehold.safety_filter import solve_cbf_qp, tunable_control
from safehold.simulator import rk4_step, run, trigger_value

STATES = 1000
REPEATS = 7
RUN_HORIZON = 0.5  # s of simulated time per run() probe, 500 substeps
RUN_REPEATS = 5
RUN_PERIOD = 0.05  # s hold period for the periodic modes


def per_call_us(fn, pairs) -> float:
    """fn takes (state, filtered input at that state)."""
    means = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for x, u in pairs:
            fn(x, u)
        means.append((time.perf_counter() - start) / len(pairs) * 1e6)
    return statistics.median(means)


def run_us_per_substep(kind: str) -> float:
    period = RUN_PERIOD if kind.startswith("periodic") else None
    sc = build_scenario(kind, setting="ride", period=period, horizon=RUN_HORIZON)
    means = []
    for _ in range(RUN_REPEATS):
        start = time.perf_counter()
        trace = run(sc)
        means.append((time.perf_counter() - start) / (len(trace.t) - 1) * 1e6)
    return statistics.median(means)


def main() -> None:
    seed = int(sys.argv[1])
    filt = acc_filter()
    tuning = certified_tuning()
    gain = tuning.sigmoid
    dyn, bar, alpha = filt.dynamics, filt.barrier, filt.alpha
    states = ride_region().sample(np.random.default_rng(seed), STATES)
    pairs = [(x, filt(x)) for x in states]
    out = {
        "cbf_core.lie_derivatives.us": per_call_us(
            lambda x, u: lie_derivatives(dyn, bar, x), pairs),
        "safety_filter.solve_cbf_qp.us": per_call_us(lambda x, u: solve_cbf_qp(filt, x), pairs),
        "safety_filter.tunable_control.us": per_call_us(
            lambda x, u: tunable_control(filt, gain, x), pairs),
        "simulator.rk4_step.us": per_call_us(lambda x, u: rk4_step(dyn, x, u, 1e-3), pairs),
        "simulator.trigger_value.us": per_call_us(
            lambda x, u: trigger_value(dyn, bar, alpha, tuning.c, x, u), pairs),
    }
    for kind in ("periodic", "periodic-boosted", "event", "continuous"):
        out[f"simulator.run_us_per_substep.{kind}"] = run_us_per_substep(kind)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
