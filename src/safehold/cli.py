"""Command-line front end.

Four subcommands cover the workflow: ``simulate`` runs one configured
scenario and writes its trace and summary; ``sweep`` reruns it as periodic
sampling across a frequency grid and tabulates the outcome per frequency;
``constants`` walks the certification pipeline (assumption checks, regional
bounds, tuning validation, hold-period budgets); ``compare`` runs the
certified periodic schedule and the event-triggered schedule side by side.

Exit codes are part of the contract: 0 for a completed, violation-free run;
1 for configuration or runtime errors; 2 when a run completed but the
barrier went negative (beyond integrator tolerance); 3 when an assumption
check behind estimated bounds fails, in ``constants`` or ``compare``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import filter_from_config, load_config, scenario_from_config
from .constants import (
    BoundSet,
    Report,
    certify_region,
    practical_sampling_time,
    validate_tuning,
    violation_free_sampling_time,
)
from .errors import ConfigurationError, SafeholdError
from .simulator import HoldSchedule, RunSummary, analyze, run, run_many

__all__ = ["main", "EXIT_OK", "EXIT_CONFIG", "EXIT_VIOLATION", "EXIT_ASSUMPTION"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_ASSUMPTION = 3

# Barrier dips smaller than this are integrator noise, not violations: the
# ideal continuous loop rides h = 0 and lands a hair on either side.
VIOLATION_TOL = 1e-9


def _g(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _with_parent(path: str) -> Path:
    """The path, once its parent directory exists."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _summary_lines(name: str, summary: RunSummary) -> list[str]:
    return [
        f"name={name}",
        f"min_h={_g(summary.min_h)}",
        f"min_h_time={_g(summary.min_h_time)}",
        f"violation_time={_g(summary.violation_time)}",
        f"num_events={summary.num_events}",
        f"miet={_g(summary.miet)}",
        f"max_hold_error={_g(summary.max_hold_error)}",
    ]


def _emit_summary(lines: list[str], path: str | None) -> None:
    for line in lines:
        print(line)
    if path is not None:
        _with_parent(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_plot_script(path: str, traces: list[tuple[str, str]], columns: list[str]) -> None:
    """A gnuplot script plotting the h column of each (label, CSV file)."""
    hcol = columns.index("h") + 1
    plots = ", ".join(
        f'"{file}" using 1:{hcol} with lines title "{label}"' for label, file in traces
    )
    text = "\n".join([
        "set datafile separator \",\"",
        "set xlabel \"t [s]\"",
        "set ylabel \"barrier value\"",
        "set grid",
        f"plot {plots}, 0 notitle with lines dashtype 2 linecolor \"gray\"",
        "",
    ])
    _with_parent(path).write_text(text, encoding="utf-8")


def _check_plot_script(args, cfg) -> None:
    """A plot script plots the trace files, so it needs one; checked before
    anything is integrated."""
    if args.plot_script is not None and cfg.trace_path is None:
        raise ConfigurationError("--plot-script needs output.trace set in the config")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.set)
    scenario = scenario_from_config(cfg)
    _check_plot_script(args, cfg)
    trace = run(scenario)
    summary = analyze(trace, violation_tol=VIOLATION_TOL)
    if cfg.trace_path is not None:
        trace.to_csv(_with_parent(cfg.trace_path))
        if args.plot_script is not None:
            _write_plot_script(args.plot_script, [(scenario.name, cfg.trace_path)], trace.columns)
    _emit_summary(_summary_lines(scenario.name, summary), cfg.summary_path)
    return EXIT_OK if summary.violation_time is None else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set)
    freqs = list(args.frequencies)
    if not freqs:
        raise ConfigurationError("sweep needs at least one frequency (Hz)")
    for f in freqs:
        if not f > 0.0:
            raise ConfigurationError(f"sweep frequencies must be > 0 Hz, got {f:g}")
    freqs = sorted(set(freqs))
    # Each frequency's label names its trace file, plot title and table row,
    # so no two may share one; sorted, any that do are neighbours.
    labels = [f"{f:g}" for f in freqs]
    for i in range(1, len(freqs)):
        if labels[i] == labels[i - 1]:
            raise ConfigurationError(
                f"sweep frequencies {freqs[i - 1]!r} and {freqs[i]!r} Hz both print as "
                f"{labels[i]}; their traces would share one file"
            )

    # One scenario, so one dynamics object: the frequencies run as one stack.
    scenario = scenario_from_config(cfg)
    _check_plot_script(args, cfg)
    traces = run_many(
        dataclasses.replace(scenario, schedule=HoldSchedule.periodic(1.0 / freq))
        for freq in freqs
    )
    results = [(trace, analyze(trace, violation_tol=VIOLATION_TOL)) for trace in traces]

    plot_refs = []
    for label, (trace, _) in zip(labels, results):
        if cfg.trace_path is not None:
            base = Path(cfg.trace_path)
            path = str(base.with_name(f"{base.stem}-f{label}{base.suffix or '.csv'}"))
            trace.to_csv(_with_parent(path))
            plot_refs.append((f"{label} Hz", path))
    if args.plot_script is not None:
        _write_plot_script(args.plot_script, plot_refs, results[0][0].columns)

    print(f"{'frequency_hz':>12}  {'min_h':>22}  {'violation_time':>22}  {'num_events':>10}")
    for label, (_, summary) in zip(labels, results):
        print(
            f"{label:>12}  {summary.min_h:>22.15g}  "
            f"{_g(summary.violation_time):>22}  {summary.num_events:>10}"
        )
    safe = [f for f, (_, s) in zip(freqs, results) if s.min_h >= -VIOLATION_TOL]
    print(f"smallest_safe_frequency_hz={_g(min(safe) if safe else None)}")
    return EXIT_OK


def _bounds(cfg, filt) -> tuple[Report | None, BoundSet | None]:
    """The config's bounds with no report, or ``certify_region``'s report and
    bounds over its box for the plain filter: the boosted controller's extra
    authority enters the budget formulas through epsilon, not through b_k."""
    if cfg.bounds is not None:
        return None, cfg.bounds
    return certify_region(cfg.region, filt.dynamics, filt, filt.barrier, tuning=cfg.tuning)


def _assumption_failure(report: Report) -> int:
    """Print a failing assumption report, its failed checks named on stderr."""
    for check in report.checks:
        print(f"assumption {check.name}: {check.status} ({check.detail})")
    failed = ", ".join(c.name for c in report.checks if c.status == "fail")
    print(f"assumption failure: {failed}", file=sys.stderr)
    return EXIT_ASSUMPTION


def cmd_constants(args) -> int:
    cfg = load_config(args.config, args.set)
    filt = filter_from_config(cfg)
    assumptions, bounds = _bounds(cfg, filt)
    if bounds is None:
        return _assumption_failure(assumptions)
    for f in dataclasses.fields(bounds):
        print(f"bounds.{f.name}={_g(getattr(bounds, f.name))}")
    if assumptions is None:
        print("assumption checks skipped: bounds supplied explicitly")
    else:
        for check in assumptions.checks:
            print(f"assumption {check.name}: {check.status} ({check.detail})")
    # Explicit bounds come with no box sampling, so the band check is skipped.
    report = validate_tuning(cfg.tuning, bounds, filt, None if assumptions is None else cfg.region)
    for check in report.checks:
        print(f"tuning {check.name}: {check.status} ({check.detail})")
    print(f"practical_sampling_time={_g(practical_sampling_time(bounds, cfg.tuning.margin))}")
    print(
        "violation_free_sampling_time="
        f"{_g(violation_free_sampling_time(bounds, cfg.tuning.epsilon, cfg.tuning.margin))}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = load_config(args.config, args.set)
    if cfg.controller != "boosted":
        raise ConfigurationError(
            "compare requires the boosted controller (set scenario.controller: boosted); "
            "the event trigger's hold-period floor is only certified for it"
        )
    assumptions, bounds = _bounds(cfg, filter_from_config(cfg))
    if bounds is None:
        return _assumption_failure(assumptions)
    t_star = violation_free_sampling_time(bounds, cfg.tuning.epsilon, cfg.tuning.margin)
    integrator = dataclasses.replace(
        cfg.integrator, substep=min(cfg.integrator.substep, t_star / 2.0)
    )
    base = scenario_from_config(cfg)
    periodic = dataclasses.replace(
        base, schedule=HoldSchedule.periodic(t_star), integrator=integrator
    )
    event = dataclasses.replace(
        base, schedule=HoldSchedule.event(cfg.schedule.floor), integrator=integrator
    )

    # Keep only the summaries, so no trace outlives its analysis.
    sum_p = analyze(run(periodic), violation_tol=VIOLATION_TOL)
    sum_e = analyze(run(event), violation_tol=VIOLATION_TOL)

    print(f"violation_free_sampling_time={_g(t_star)}")
    print(f"{'metric':>12}  {'periodic':>22}  {'event':>22}")
    print(f"{'samples':>12}  {sum_p.num_events:>22}  {sum_e.num_events:>22}")
    print(f"{'miet':>12}  {_g(sum_p.miet):>22}  {_g(sum_e.miet):>22}")
    print(f"{'min_h':>12}  {sum_p.min_h:>22.15g}  {sum_e.min_h:>22.15g}")
    if sum_p.violation_time is not None or sum_e.violation_time is not None:
        return EXIT_VIOLATION
    if sum_e.num_events > sum_p.num_events:
        print("event mode used more samples than periodic", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safehold",
        description="Sampled-data safety filter simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="path to a YAML run configuration")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )

    p = sub.add_parser("simulate", help="run one scenario, write trace and summary")
    common(p)
    p.add_argument(
        "--plot-script", metavar="PATH",
        help="write a gnuplot script plotting the barrier trace",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="rerun the scenario periodically over a frequency grid")
    common(p)
    p.add_argument("frequencies", nargs="*", type=float, help="sampling frequencies in Hz")
    p.add_argument(
        "--plot-script", metavar="PATH",
        help="write a gnuplot script plotting every frequency's barrier trace",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("constants", help="assumption checks, bounds, budgets")
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("compare", help="periodic-at-budget vs event-triggered")
    common(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SafeholdError as exc:
        # Runtime aborts: infeasible filter, divergence, region exit. Each
        # exception type renders its own diagnostic.
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
