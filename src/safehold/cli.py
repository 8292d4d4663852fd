"""Command-line front end.

Four subcommands cover the workflow: ``simulate`` runs one configured
scenario and writes its trace and summary; ``sweep`` reruns it as periodic
sampling across a frequency grid, writes each frequency's trace and summary
and tabulates the outcome per frequency; ``constants`` prints the
configuration's certificate (regional bounds, assumption checks, tuning
checks) and its hold-period budgets; ``compare`` runs the certified periodic
schedule and the event-triggered schedule side by side.

Exit codes are part of the contract: 0 for a completed, violation-free run;
1 for configuration or runtime errors, an output path that cannot be
written to included; 2 when a run completed but the barrier went negative
(beyond integrator tolerance); 3 when an assumption check behind estimated
bounds fails, in ``constants`` or ``compare``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .config import load_config, scenario_from_config
from .constants import (
    Report,
    certify,
    practical_sampling_time,
    violation_free_sampling_time,
)
from .errors import ConfigurationError, SafeholdError
from .simulator import VIOLATION_TOL, HoldSchedule, RunSummary, analyze, run

__all__ = ["main", "EXIT_OK", "EXIT_CONFIG", "EXIT_VIOLATION", "EXIT_ASSUMPTION"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_ASSUMPTION = 3


def _g(value: float | None) -> str:
    return "none" if value is None else f"{value:.17g}"


def _with_parent(path: str) -> Path:
    """The path, once its parent directory exists."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _frequency_path(path: str | None, label: str, suffix: str) -> str | None:
    """A sweep frequency's own file beside ``path``: ``<stem>-f<label>``
    with ``path``'s suffix, or ``suffix`` where it has none."""
    if path is None:
        return None
    out = Path(path)
    return str(out.with_name(f"{out.stem}-f{label}{out.suffix or suffix}"))


def _summary_text(name: str, summary: RunSummary) -> str:
    return "".join(f"{line}\n" for line in [
        f"name={name}",
        f"min_h={_g(summary.min_h)}",
        f"min_h_time={_g(summary.min_h_time)}",
        f"violation_time={_g(summary.violation_time)}",
        f"num_events={summary.num_events}",
        f"miet={_g(summary.miet)}",
        f"max_hold_error={_g(summary.max_hold_error)}",
    ])


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


def _check_outputs(args, traces, *others) -> None:
    """Before anything is integrated: a plot script plots the trace files,
    so it needs them, and each output path (traces, the ``others`` and the
    plot script) must be writable as far as its directories tell. The
    nearest existing one must be a directory this process may write into,
    as the rest are made from it. They are made only when the output is
    written, so a run that aborts leaves none."""
    if args.plot_script is not None and not any(traces):
        raise ConfigurationError("--plot-script needs output.trace set in the config")
    for path in (*traces, *others, args.plot_script):
        if path is None:
            continue
        target = Path(path)
        if target.is_dir():
            raise ConfigurationError(f"output {path} is a directory")
        for ancestor in (target.parent, *target.parent.parents):
            if ancestor.exists():
                break
        if not ancestor.is_dir():
            raise ConfigurationError(f"output {path}: {ancestor} is not a directory")
        if not os.access(ancestor, os.W_OK | os.X_OK):
            raise ConfigurationError(f"output {path}: {ancestor} is not writable")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.set)
    scenario = scenario_from_config(cfg)
    _check_outputs(args, [cfg.trace_path], cfg.summary_path)
    trace = run(scenario)
    summary = analyze(trace)
    if cfg.trace_path is not None:
        trace.to_csv(_with_parent(cfg.trace_path))
        if args.plot_script is not None:
            _write_plot_script(args.plot_script, [(scenario.name, cfg.trace_path)], trace.columns)
    text = _summary_text(scenario.name, summary)
    print(text, end="")
    if cfg.summary_path is not None:
        _with_parent(cfg.summary_path).write_text(text, encoding="utf-8")
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
    # Each frequency's label names its trace and summary files, plot title
    # and table row, so no two may share one; sorted, any that do are neighbours.
    labels = [f"{f:g}" for f in freqs]
    for i in range(1, len(freqs)):
        if labels[i] == labels[i - 1]:
            raise ConfigurationError(
                f"sweep frequencies {freqs[i - 1]!r} and {freqs[i]!r} Hz both print as "
                f"{labels[i]}; their traces would share one file"
            )

    # Every frequency's scenario is built, its period checked and its
    # output paths checked before anything is integrated; each trace and
    # summary file is written as its run completes and the trace dropped,
    # so only the summaries are kept.
    base = scenario_from_config(cfg)
    scenarios = [
        dataclasses.replace(base, schedule=HoldSchedule.periodic(1.0 / freq)) for freq in freqs
    ]
    paths = [_frequency_path(cfg.trace_path, label, ".csv") for label in labels]
    summary_paths = [_frequency_path(cfg.summary_path, label, ".txt") for label in labels]
    _check_outputs(args, paths, *summary_paths)
    summaries, plot_refs, columns = [], [], None
    for label, scenario, path, summary_path in zip(labels, scenarios, paths, summary_paths):
        trace = run(scenario)
        summaries.append(analyze(trace))
        columns = trace.columns
        if path is not None:
            trace.to_csv(_with_parent(path))
            plot_refs.append((f"{label} Hz", path))
        del trace
        if summary_path is not None:
            text = _summary_text(scenario.name, summaries[-1])
            _with_parent(summary_path).write_text(text, encoding="utf-8")
    if args.plot_script is not None:
        _write_plot_script(args.plot_script, plot_refs, columns)

    print(f"{'frequency_hz':>12}  {'min_h':>22}  {'violation_time':>22}  {'num_events':>10}")
    for label, summary in zip(labels, summaries):
        print(
            f"{label:>12}  {summary.min_h:>22.15g}  "
            f"{_g(summary.violation_time):>22}  {summary.num_events:>10}"
        )
    safe = [f for f, s in zip(freqs, summaries) if s.min_h >= -VIOLATION_TOL]
    print(f"smallest_safe_frequency_hz={_g(min(safe) if safe else None)}")
    return EXIT_OK


def _assumption_failure(report: Report) -> int:
    """Print a failing assumption report, its failed checks named on stderr."""
    for check in report.checks:
        print(f"assumption {check.name}: {check.status} ({check.detail})")
    failed = ", ".join(c.name for c in report.checks if c.status == "fail")
    print(f"assumption failure: {failed}", file=sys.stderr)
    return EXIT_ASSUMPTION


def cmd_constants(args) -> int:
    cfg = load_config(args.config, args.set)
    cert = certify(cfg)
    if cert.bounds is None:
        return _assumption_failure(cert.assumptions)
    bounds = cert.bounds
    for f in dataclasses.fields(bounds):
        print(f"bounds.{f.name}={_g(getattr(bounds, f.name))}")
    if cert.assumptions is None:
        print("assumption checks skipped: bounds supplied explicitly")
    else:
        for check in cert.assumptions.checks:
            print(f"assumption {check.name}: {check.status} ({check.detail})")
    for check in cert.tuning.checks:
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
    cert = certify(cfg)
    if cert.bounds is None:
        return _assumption_failure(cert.assumptions)
    t_star = violation_free_sampling_time(cert.bounds, cfg.tuning.epsilon, cfg.tuning.margin)
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
    sum_p = analyze(run(periodic))
    sum_e = analyze(run(event))

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
    except OSError as exc:
        # Writing an output failed in a way its directories did not show.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
