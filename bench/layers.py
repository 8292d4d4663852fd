"""Per-layer metrics from the traced run's spans and counters.

Layers are the ``safehold`` modules; a span's layer is the first part of its
name. ``cli.job_s.*`` are wall times; every other ``*_s`` metric is busy
time, the thread CPU time inside the span. In ``sweep`` the runs share a
thread pool, so their wall-clock spans overlap and each includes waiting
for the interpreter lock; busy time does not double count. Counter keys
from ``trace_job.py`` read ``counter@innermost-span``.
"""

from __future__ import annotations

import collections

LAYERS = ("cli", "config", "acc_benchmark", "constants", "safety_filter", "simulator")
PLANT_COUNTERS = (
    "plant.drift", "plant.actuation", "plant.barrier_value", "plant.barrier_gradient",
    "plant.nominal",
)
BOXES = ("ride", "approach")
SUBCOMMANDS = ("constants", "sweep", "compare")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Busy self time per layer: each span's thread CPU time minus that of
    its children on the same thread. Children on another thread (the sweep
    pool) ran on their own CPU clock and are not subtracted."""
    out = collections.Counter()
    by_id = {(s["job"], s["id"]): s for s in spans}
    for s in spans:
        out[s["name"].split(".", 1)[0]] += s["cpu"]
        parent = by_id.get((s["job"], s["parent"]))
        if parent is not None and parent["thread"] == s["thread"]:
            out[parent["name"].split(".", 1)[0]] -= s["cpu"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records: list[dict], probes: dict) -> dict[str, dict]:
    """Metrics from one traced job (one record per CLI step) and the probes."""
    spans = [s for r in records for s in r["spans"]]
    counts = collections.Counter()
    counts_in = collections.Counter()  # (counter, innermost span) -> count
    for r in records:
        for key, n in r["counts"].items():
            counter, inner = key.split("@", 1)
            counts[counter] += n
            counts_in[counter, inner] += n

    def span_sum(name: str, field: str, **match) -> float:
        return sum(
            s[field] for s in spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        )

    def span_s(name: str, **match) -> float:
        return span_sum(name, "cpu", **match)

    m: dict[str, tuple[float, str]] = {}
    for sub in SUBCOMMANDS:
        m[f"cli.job_s.{sub}"] = (
            sum(s["end"] - s["start"] for s in spans if s["name"] == f"cli.job.{sub}"), "s")
    m["cli.sweep.threads"] = (counts["threads.started"], "count")
    m["config.load_s"] = (span_s("config.load"), "s")
    m["acc_benchmark.plant_calls"] = (sum(counts[c] for c in PLANT_COUNTERS), "count")
    m["acc_benchmark.build_s"] = (span_s("acc_benchmark.build"), "s")
    m["cbf_core.lie_derivatives.calls"] = (counts["lie"], "count")
    m["safety_filter.controller.calls"] = (counts["filter"], "count")
    m["safety_filter.boosted.calls"] = (counts["boost"], "count")
    m["safety_filter.lie_per_control"] = (_ratio(counts["lie.in_boost"], counts["boost"]), "ratio")
    m["safety_filter.active_ratio"] = (_ratio(counts["filter.active"], counts["filter"]), "ratio")
    m["safety_filter.validate_tuning_s"] = (span_s("safety_filter.validate_tuning"), "s")
    for box in BOXES:
        m[f"constants.estimate_bounds_s.{box}"] = (
            span_s("constants.estimate_bounds", box=box), "s")
        m[f"constants.check_assumptions_s.{box}"] = (
            span_s("constants.check_assumptions", box=box), "s")
    m["constants.estimate_bounds.lie_calls"] = (
        counts_in["lie", "constants.estimate_bounds"], "count")
    m["constants.estimate_bounds.filter_calls"] = (
        counts_in["filter", "constants.estimate_bounds"], "count")
    m["constants.boundary_points_s"] = (span_s("constants.boundary_points"), "s")
    m["constants.states_evaluated"] = (counts["region.states"], "count")
    m["constants.boundary_yield"] = (
        _ratio(span_sum("constants.boundary_points", "converged"),
               span_sum("constants.boundary_points", "attempted")), "ratio")
    m["simulator.substeps"] = (span_sum("simulator.run", "substeps"), "count")
    m["simulator.samples"] = (span_sum("simulator.run", "samples"), "count")
    m["simulator.trigger_evals_per_event"] = (
        _ratio(counts["trigger"], span_sum("simulator.run", "samples", mode="event")), "ratio")
    m["simulator.analyze_s"] = (span_s("simulator.analyze"), "s")
    m["simulator.to_csv_s"] = (span_s("simulator.to_csv"), "s")
    m["simulator.to_csv_bytes"] = (span_sum("simulator.to_csv", "bytes"), "bytes")
    selfs = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (selfs[layer], "s")
    for name, us in probes.items():
        m[name] = (us, "us")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
