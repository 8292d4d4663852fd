"""Traced CLI step: run ``safehold.cli.main(argv)`` in process with spans and
counters wrapped around the layer entry points.

Usage: ``python3 bench/trace_job.py SPANS_FILE SUBCOMMAND CONFIG [ARGS...]``

Spans (name, start, end, thread CPU time, thread, parent, job id) wrap the
layer entry points as bound in the module that calls them; hot per-state
callables get counting wrappers instead. Each count is attributed to the innermost open span of
its thread. Everything stays in memory until the step ends, then one JSON
line is appended to SPANS_FILE. The exit code is the CLI's.

Nothing under ``src/`` changes: the wrappers are installed by replacing
module attributes before ``main`` runs. A name a later version no longer
has is skipped, and the metrics that depend on it read zero.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

import workloads

import safehold.cli as cli
import safehold.config as config
import safehold.constants as constants
import safehold.safety_filter as safety_filter
import safehold.simulator as simulator


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._thread_counts: list[collections.Counter] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        # Spans opened on worker threads (the sweep pool) have no open span
        # of their own thread; their parent is the main thread's innermost.
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost(self):
        stack = self._stack() or self._main_stack
        return stack[-1] if stack else None

    def span(self, name: str, fn, attrs=None):
        """Wrap fn in a span; attrs(args, kwargs, result) adds fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._innermost()
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            stack = self._stack()
            stack.append((sid, name))
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end, cpu = time.perf_counter(), time.thread_time() - cpu
                stack.pop()
            rec = {
                "id": sid, "name": name, "start": start, "end": end, "cpu": cpu,
                "thread": threading.get_ident(), "parent": parent[0] if parent else None,
                "job": self.job,
            }
            if attrs is not None:
                rec.update(attrs(args, kwargs, result))
            with self._lock:
                self.spans.append(rec)
            return result

        return wrapper

    def add(self, counter: str, amount: int = 1) -> None:
        # One Counter per thread: no lock per call, and no update lost to a
        # thread switch inside ``+=``.
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = collections.Counter()
            with self._lock:
                self._thread_counts.append(counts)
        inner = self._innermost()
        counts[f"{counter}@{inner[1] if inner else '-'}"] += amount

    def counts(self) -> dict[str, int]:
        return dict(sum(self._thread_counts, collections.Counter()))

    def count(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(counter)
            return fn(*args, **kwargs)

        return wrapper


def _patch(module, attr: str, make) -> None:
    if hasattr(module, attr):
        setattr(module, attr, make(getattr(module, attr)))


def _box(region) -> str:
    lower = tuple(region.lower)
    if lower == workloads.RIDE_BOX[0]:
        return "ride"
    if lower == workloads.APPROACH_BOX[0]:
        return "approach"
    return "other"


def install(tr: Tracer) -> None:
    local = threading.local()

    # Plant, barrier and nominal-law callables, as built for the CLI.
    def counted_law(law):
        def wrapper(x):
            tr.add("plant.nominal")
            u = law(x)
            local.last_nominal = u
            return u
        return wrapper

    def wrap_built(obj):
        fields = {f.name for f in dataclasses.fields(obj)}
        if {"drift", "actuation"} <= fields:
            return dataclasses.replace(
                obj, drift=tr.count("plant.drift", obj.drift),
                actuation=tr.count("plant.actuation", obj.actuation),
            )
        if {"value", "gradient"} <= fields:
            return dataclasses.replace(
                obj, value=tr.count("plant.barrier_value", obj.value),
                gradient=tr.count("plant.barrier_gradient", obj.gradient),
            )
        if "law" in fields:
            return dataclasses.replace(obj, law=counted_law(obj.law))
        return obj

    def counted_build(fn):
        timed = tr.span("acc_benchmark.build", fn)
        return functools.wraps(fn)(lambda *a, **k: wrap_built(timed(*a, **k)))

    for module in (cli, config):
        for name in ("acc_dynamics", "acc_barrier", "acc_nominal"):
            _patch(module, name, counted_build)

    # Module-level lie_derivatives bindings.
    def lie_counter(fn, where):
        def wrapper(*args, **kwargs):
            tr.add("lie")
            if where == "safety_filter" and getattr(local, "in_boost", False):
                tr.add("lie.in_boost")
            return fn(*args, **kwargs)
        return wrapper

    for module in (constants, safety_filter, simulator):
        where = module.__name__.rsplit(".", 1)[1]
        _patch(module, "lie_derivatives", lambda fn, w=where: lie_counter(fn, w))

    # Filter and boosted-law calls; the filter returns a copy of the nominal
    # input, bit for bit, exactly when the constraint does not bind.
    def filter_counter(fn):
        def wrapper(filt, x):
            tr.add("filter")
            u = fn(filt, x)
            last, local.last_nominal = getattr(local, "last_nominal", None), None
            if last is None or u[0] != last[0]:
                tr.add("filter.active")
            return u
        return wrapper

    def boost_counter(fn):
        def wrapper(*args, **kwargs):
            tr.add("boost")
            local.in_boost = True
            try:
                return fn(*args, **kwargs)
            finally:
                local.in_boost = False
        return wrapper

    _patch(safety_filter, "solve_cbf_qp", filter_counter)
    _patch(safety_filter, "tunable_control", boost_counter)
    _patch(simulator, "trigger_value", lambda fn: tr.count("trigger", fn))

    def states_counter(fn):
        def wrapper(*args, **kwargs):
            pts = fn(*args, **kwargs)
            tr.add("region.states", len(pts))
            return pts
        return wrapper

    _patch(constants.OperatingRegion, "sample", states_counter)
    _patch(constants.OperatingRegion, "lattice", states_counter)
    _patch(threading.Thread, "start", lambda fn: tr.count("threads.started", fn))

    # Layer entry points.
    for name in ("cmd_simulate", "cmd_sweep", "cmd_constants", "cmd_compare"):
        _patch(cli, name, lambda fn, n=name: tr.span(f"cli.job.{n[4:]}", fn))
    for name in ("_load", "load_config"):
        _patch(cli, name, lambda fn: tr.span("config.load", fn))

    def region_attrs(args, kwargs, result):
        return {"box": _box(kwargs.get("region", args[0] if args else None))}

    _patch(cli, "estimate_bounds",
           lambda fn: tr.span("constants.estimate_bounds", fn, region_attrs))
    _patch(cli, "check_assumptions",
           lambda fn: tr.span("constants.check_assumptions", fn, region_attrs))
    _patch(cli, "validate_tuning", lambda fn: tr.span("safety_filter.validate_tuning", fn))

    def boundary_attrs(args, kwargs, result):
        attempted = kwargs.get("count", args[2] if len(args) > 2 else 512)
        return {"attempted": int(attempted), "converged": len(result)}

    for module in (constants, safety_filter):
        _patch(module, "boundary_points",
               lambda fn: tr.span("constants.boundary_points", fn, boundary_attrs))

    def run_attrs(args, kwargs, result):
        sc = kwargs.get("sc", args[0] if args else None)
        return {
            "mode": sc.schedule.mode,
            "substeps": len(result.t) - 1,
            "samples": len(result.events),
        }

    _patch(cli, "run", lambda fn: tr.span("simulator.run", fn, run_attrs))
    _patch(cli, "analyze", lambda fn: tr.span("simulator.analyze", fn))

    def csv_attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(kwargs.get("path", args[1]))}

    _patch(simulator.Trace, "to_csv", lambda fn: tr.span("simulator.to_csv", fn, csv_attrs))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(job=f"{argv[0]}:{Path(argv[1]).stem}")
    install(tracer)
    rc = cli.main(argv)
    sys.stdout.flush()
    record = {"argv": argv, "returncode": rc, "spans": tracer.spans, "counts": tracer.counts()}
    with open(out_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
