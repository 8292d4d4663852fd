"""Command-line interface, exercised in process through main()."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from safehold import constants
from safehold.cli import EXIT_ASSUMPTION, EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, main
from safehold.errors import RegionExitError
from safehold.simulator import run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def _write(tmp_path: Path, text: str) -> str:
    path = tmp_path / "cfg.yaml"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _no_allocation(monkeypatch) -> None:
    """Makes the simulator's run loops, whose first act is to allocate the
    trace, fail the test: a run too long to store is refused before them."""
    def refuse(*args):
        raise AssertionError("allocated the trace before the config error")

    for name in ("_run_held", "_run_continuous"):
        monkeypatch.setattr(f"safehold.simulator.{name}", refuse)


def _boosted_ride(tmp_path: Path, extra: str = "") -> str:
    return _write(tmp_path, (
        "scenario: {name: acc-ride, controller: boosted}\n"
        "tuning: {c: 3.0, delta: 1.0, band: 10.0, epsilon: 1.5e-4, margin: 2.0}\n"
        "sim: {mode: event, horizon: 1.0, substep: 1.0e-3}\n"
        + extra
    ))


# A ride box wholly inside the safe set: boundary sampling fails there.
OFF_BOUNDARY = [
    "--set", "scenario.x0=[0,20,1000]",
    "--set", "region.lower=[0,19,990]", "--set", "region.upper=[500,21,1010]",
]

RIDE_BOUNDS_YAML = (
    "bounds:\n"
    "  b_f: 23.693651198054503\n"
    "  b_g: 6.6666666666666675e-4\n"
    "  b_k: 7723.3398611111124\n"
    "  lam: 0.0492\n"
    "  mu: 0.03597288956746978\n"
    "  m_lip: 0.0024000000000000722\n"
    "  l_k: 2277.7898029392377\n"
    "  l_sigma: 33333.333333333336\n"
    "  safety_factor: 1.1\n"
)


class TestConstants:
    def test_unit_bounds_prints_exact_budgets(self, capsys):
        assert main(["constants", str(CONFIGS / "unit-bounds.yaml")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "assumption checks skipped: bounds supplied explicitly" in out
        assert "practical_sampling_time=0.5" in out
        assert "violation_free_sampling_time=0.1111111111111111" in out

    def test_negative_epsilon_override_fails_fast(self, capsys):
        code = main([
            "constants", str(CONFIGS / "unit-bounds.yaml"), "--set", "tuning.epsilon=-1.0",
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "tuning.epsilon" in err

    def test_negative_region_seed_is_a_config_error(self, capsys):
        code = main([
            "constants", str(CONFIGS / "ride-certified.yaml"), "--set", "region.seed=-1",
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "region.seed" in err

    def test_region_safety_factor_below_one_is_a_config_error(self, capsys):
        for config in ("ride-certified.yaml", "unit-bounds.yaml"):
            for command in ("constants", "simulate"):
                code = main([
                    command, str(CONFIGS / config), "--set", "region.safety_factor=0.5",
                ])
                assert code == EXIT_CONFIG
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    "config error: region.safety_factor must be >= 1, got 0.5\n"
                )

    def test_box_off_the_boundary_reports_all_five_checks(self, capsys):
        code = main([
            "constants", str(CONFIGS / "ride-certified.yaml"),
            "--set", "region.lower=[0,16.5,900]", "--set", "region.upper=[500,20.5,1000]",
        ])
        assert code == EXIT_ASSUMPTION
        captured = capsys.readouterr()
        assert captured.err == "assumption failure: boundary_actuation\n"
        names = [line.split(":")[0] for line in captured.out.splitlines()]
        assert names == [
            "assumption bounded_fields", "assumption controller_lipschitz",
            "assumption boundary_actuation", "assumption gradient_actuation_lipschitz",
            "assumption barrier_envelope",
        ]
        assert "assumption barrier_envelope: skipped (no boundary points)" in captured.out

    def test_degenerate_region_fails_the_assumption_gate(self, tmp_path, capsys):
        cfg = _write(tmp_path, (
            "scenario: {name: acc-approach, controller: plain}\n"
            "sim: {mode: continuous, horizon: 1.0}\n"
            "region:\n"
            "  lower: [0, 0, 0]\n"
            "  upper: [2000, 30, 1200]\n"
        ))
        assert main(["constants", cfg]) == EXIT_ASSUMPTION
        captured = capsys.readouterr()
        assert "boundary_actuation" in captured.err
        assert "assumption boundary_actuation: fail" in captured.out

    def test_estimation_path_reproduces_the_certified_budgets(self, capsys):
        assert main(["constants", str(CONFIGS / "ride-certified.yaml")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "bounds.b_k=7723.3398611111124" in out
        assert "bounds.mu=0.035972889567469780" in out or "bounds.mu=0.03597288956746978" in out
        for name in ("bounded_fields", "controller_lipschitz", "boundary_actuation",
                     "gradient_actuation_lipschitz", "barrier_envelope"):
            assert f"assumption {name}: pass" in out
        for name in ("amplification_covers_margin", "plateau_budget", "activation_band_gain"):
            assert f"tuning {name}: pass" in out
        assert "practical_sampling_time=0.00061875351355183451" in out
        assert "violation_free_sampling_time=0.00035558221703683811" in out

    def test_the_box_is_sampled_once(self, monkeypatch):
        # One boundary sampling and one shape probe serve the assumption
        # checks, the bounds and the tuning's band check; explicit bounds
        # need neither.
        calls = []
        for name in ("_probe_shapes", "boundary_points"):
            def spy(*args, name=name, original=getattr(constants, name), **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(constants, name, spy)
        assert main(["constants", str(CONFIGS / "ride-certified.yaml")]) == EXIT_OK
        assert calls == ["_probe_shapes", "boundary_points"]
        calls.clear()
        assert main(["constants", str(CONFIGS / "unit-bounds.yaml")]) == EXIT_OK
        assert calls == []

    def test_a_boundary_sliver_box_checks_its_band_on_the_certified_draw(self, capsys):
        # The box's boundary is a sliver that a smaller draw of its own
        # misses; the band check reads certification's draw, which finds it.
        code = main([
            "constants", str(CONFIGS / "ride-certified.yaml"),
            "--set", "region.lower=[0,19.0,787.5]", "--set", "region.upper=[500,21.0,900.0]",
            "--set", "region.seed=4",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert (
            "tuning activation_band_gain: pass (min |lgh| over the band = 0.0457218 "
            "vs mu/2 = 0.0207826 (513 band points))\n"
        ) in out
        assert "practical_sampling_time=" in out
        assert "violation_free_sampling_time=" in out

    def test_box_rows_in_the_band_can_fail_the_band_check(self, capsys):
        # At this seed, box samples in the approach tuning's band have less
        # actuation authority than half of mu, which the root-found boundary
        # points alone set. The tuning report gates nothing: exit 0.
        code = main([
            "constants", str(CONFIGS / "approach-boosted.yaml"), "--set", "region.seed=3",
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert (
            "tuning activation_band_gain: fail (min |lgh| over the band = 0.00419976 "
            "vs mu/2 = 0.00483031 (514 band points))\n"
        ) in captured.out
        assert "violation_free_sampling_time=" in captured.out
        assert captured.err == ""


class TestSimulate:
    def test_safe_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        summary = tmp_path / "run.txt"
        cfg = _boosted_ride(tmp_path, (
            f"output: {{trace: {trace}, summary: {summary}}}\n"
        ))
        assert main(["simulate", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "name=acc-ride-boosted-event" in out
        assert "min_h=" in out and "violation_time=none" in out
        assert trace.exists() and summary.exists()
        assert summary.read_text().startswith("name=acc-ride-boosted-event")
        assert trace.read_text().splitlines()[0] == "t,x0,x1,x2,u0,h,hdot,trigger,event"

    def test_violating_run_exits_two(self, tmp_path, capsys):
        cfg = _write(tmp_path, (
            "scenario:\n"
            "  name: acc-approach\n"
            "  controller: plain\n"
            "  x0: [0, 20, 735]\n"
            "sim: {mode: periodic, horizon: 3.0, period: 2.0}\n"
        ))
        assert main(["simulate", cfg]) == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "violation_time=0.997" in out

    def test_plot_script_needs_a_trace_path(self, tmp_path, capsys, no_integration):
        cfg = _boosted_ride(tmp_path)
        code = main(["simulate", cfg, "--plot-script", str(tmp_path / "plot.gp")])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --plot-script needs output.trace set in the config\n"

    def test_a_summary_path_that_is_a_directory_fails_before_integrating(
        self, tmp_path, capsys, no_integration,
    ):
        code = main([
            "simulate", str(CONFIGS / "unit-bounds.yaml"), "--set", f"output.summary={tmp_path}",
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: output {tmp_path} is a directory\n"

    def test_a_failed_write_is_one_config_error_line(self, tmp_path, capsys, monkeypatch):
        def full(trace, path):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr("safehold.simulator.Trace.to_csv", full)
        trace = tmp_path / "run.csv"
        code = main([
            "simulate", str(CONFIGS / "unit-bounds.yaml"), "--set", f"output.trace={trace}",
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: [Errno 28] No space left on device: '{trace}'\n"
        )

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "1"]])
    def test_a_trace_directory_that_cannot_be_made_fails_before_integrating(
        self, command, tmp_path, capsys, no_integration,
    ):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main([
            command[0], str(CONFIGS / "unit-bounds.yaml"), *command[1:],
            "--set", f"output.trace={blocker / 'run.csv'}",
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        # sweep names the frequency's own trace file, run-f1.csv
        assert captured.err.startswith(f"config error: output {blocker / 'run'}")
        assert captured.err.endswith(f".csv: {blocker} is not a directory\n")

    def test_a_run_too_long_to_store_is_a_config_error(self, capsys, monkeypatch):
        # 12 s at 1 ns: 1.2e10 rows, hundreds of GiB of trace.
        _no_allocation(monkeypatch)
        code = main(["simulate", str(CONFIGS / "ride-certified.yaml"), "--set", "sim.substep=1e-9"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(
            "config error: horizon 12 s at substep 1e-09 s gives 12,000,000,001 rows, "
        )

    def test_plot_script_plots_the_h_column_of_the_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        # A plot script's directory is made like the trace's.
        for plot in (tmp_path / "plot.gp", tmp_path / "plots" / "nested" / "plot.gp"):
            code = main([
                "simulate", _boosted_ride(tmp_path), "--set", "sim.horizon=0.05",
                "--set", f"output.trace={trace}", "--plot-script", str(plot),
            ])
            assert code == EXIT_OK
            assert capsys.readouterr().out.startswith("name=")
            header = trace.read_text().splitlines()[0].split(",")
            assert f'"{trace}" using 1:{header.index("h") + 1} with lines' in plot.read_text()

    @pytest.mark.parametrize("override, message", [
        ("sim.horizon=abc", "sim.horizon must be a number, got 'abc'"),
        ("sim.horizon=.inf", "sim.horizon must be finite, got inf"),
        ("sim.horizon=[1]", "sim.horizon must be a number, got list"),
        ("output.trace=5", "output.trace must be a string, got int"),
        ("sim.horizon=[1", "sim.horizon value '[1' is not valid YAML"),
    ])
    def test_bad_override_values_name_the_key(self, override, message, capsys):
        code = main(["simulate", str(CONFIGS / "unit-bounds.yaml"), "--set", override])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "absent.yaml")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_deterministic_replay_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = _boosted_ride(tmp_path)
        assert main(["simulate", cfg, "--set", f"output.trace={a}"]) == EXIT_OK
        assert main(["simulate", cfg, "--set", f"output.trace={b}"]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_start_state_of_the_wrong_length_is_a_config_error(self, capsys):
        code = main([
            "simulate", str(CONFIGS / "unit-bounds.yaml"), "--set", "scenario.x0=[1,2]",
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: scenario.x0 must be a list of 3 numbers, one per state\n"
        )

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "1"]])
    def test_a_two_axis_box_is_a_config_error(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            command[0], str(CONFIGS / "approach-plain-sweep.yaml"), *command[1:],
            "--set", "region.lower=[1,5]", "--set", "region.upper=[30,1200]",
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: region.lower must be a list of 3 numbers, one per state\n"
        )

    def test_a_run_that_leaves_the_region_aborts_with_its_location(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "simulate", str(CONFIGS / "approach-plain-sweep.yaml"),
            "--set", "scenario.x0=[0,40,735]",
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "RegionExitError: state left the certified region at t=0 on axis(es) [1]"
        )
        assert not (tmp_path / "out").exists()

    def test_floor_outside_event_mode_is_a_config_error(self, capsys):
        code = main(["simulate", str(CONFIGS / "unit-bounds.yaml"), "--set", "sim.floor=0.5"])
        assert code == EXIT_CONFIG
        assert "sim.floor is only valid in event mode" in capsys.readouterr().err


class TestSweep:
    def _cfg(self, tmp_path: Path) -> str:
        return _write(tmp_path, (
            "scenario:\n"
            "  name: acc-approach\n"
            "  controller: plain\n"
            "  x0: [0, 20, 735]\n"
            "sim: {mode: periodic, horizon: 2.0, period: 1.0}\n"
            f"output: {{trace: {tmp_path / 'sweep.csv'}}}\n"
        ))

    def test_table_traces_and_plot_script(self, tmp_path, capsys):
        # A plot script's directory is made like the traces'.
        for plot in (tmp_path / "plot.gp", tmp_path / "plots" / "nested" / "plot.gp"):
            code = main(["sweep", self._cfg(tmp_path), "5", "2", "--plot-script", str(plot)])
            assert code == EXIT_OK
            out = capsys.readouterr().out
            lines = out.splitlines()
            assert lines[0].split() == ["frequency_hz", "min_h", "violation_time", "num_events"]
            # rows come back sorted by frequency regardless of argument order
            assert lines[1].split()[0] == "2" and lines[2].split()[0] == "5"
            assert any(l.startswith("smallest_safe_frequency_hz=") for l in lines)
            assert (tmp_path / "sweep-f2.csv").exists()
            assert (tmp_path / "sweep-f5.csv").exists()
            text = plot.read_text()
            assert "sweep-f2.csv" in text and "sweep-f5.csv" in text and "plot " in text

    def test_each_trace_is_written_as_its_run_completes(self, tmp_path, capsys, monkeypatch):
        # The second run fails: the first frequency's trace is on disk, but
        # no table and no plot script, which need every run.
        runs = []

        def fail_second(sc):
            runs.append(sc)
            if len(runs) == 2:
                raise RegionExitError("second run left the region", state=sc.x0, time=0.5)
            return run(sc)

        monkeypatch.setattr("safehold.cli.run", fail_second)
        plot = tmp_path / "plot.gp"
        code = main(["sweep", self._cfg(tmp_path), "5", "2", "--plot-script", str(plot)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "RegionExitError: second run left the region\n"
        assert (tmp_path / "sweep-f2.csv").exists()
        assert not (tmp_path / "sweep-f5.csv").exists()
        assert not plot.exists()

    def test_the_shipped_sweep_writes_each_frequency_s_summary(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        sweep = str(CONFIGS / "approach-plain-sweep.yaml")
        assert main(["sweep", sweep, "0.5", "1", "2", "5", "10"]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"{'frequency_hz':>12}")
        for label in ("0.5", "1", "2", "5", "10"):
            text = (tmp_path / "out" / f"approach-plain-f{label}.txt").read_text()
            lines = text.splitlines()
            assert lines[0] == "name=acc-approach-plain-periodic"
            assert lines[4] == f"num_events={round(6 * float(label))}"

    def test_a_frequency_s_summary_is_that_of_simulate_at_its_period(self, tmp_path, capsys,
                                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        sweep = str(CONFIGS / "approach-plain-sweep.yaml")
        assert main(["sweep", sweep, "2"]) == EXIT_OK
        assert main(["simulate", sweep, "--set", "sim.period=0.5"]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "approach-plain-f2.txt").read_bytes() == (
            out / "approach-plain.txt").read_bytes()

    def test_a_summary_directory_that_cannot_be_made_fails_before_integrating(
        self, tmp_path, capsys, no_integration,
    ):
        # A summary path without a suffix gets .txt.
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main([
            "sweep", self._cfg(tmp_path), "1", "--set", f"output.summary={blocker / 'run'}",
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: output {blocker / 'run-f1.txt'}: {blocker} is not a directory\n"
        )
        assert not list(tmp_path.glob("sweep-f*.csv"))

    def test_plot_script_needs_a_trace_path(self, tmp_path, capsys, no_integration):
        cfg = _write(tmp_path, (
            "scenario: {name: acc-approach, controller: plain, x0: [0, 20, 735]}\n"
            "sim: {mode: periodic, horizon: 0.1, period: 1.0}\n"
        ))
        code = main(["sweep", cfg, "1", "--plot-script", str(tmp_path / "plot.gp")])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --plot-script needs output.trace set in the config\n"
        assert not (tmp_path / "plot.gp").exists()

    def test_a_period_shorter_than_the_substep_fails_before_integrating(
        self, tmp_path, capsys, monkeypatch, no_integration,
    ):
        monkeypatch.chdir(tmp_path)
        code = main([
            "sweep", str(CONFIGS / "approach-plain-sweep.yaml"), "0.5", "1", "2", "5", "10", "2000",
        ])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: hold period 0.0005 is shorter than the substep 0.001\n"
        assert not (tmp_path / "out").exists()

    def test_a_sweep_too_long_to_store_is_a_config_error(self, capsys, monkeypatch):
        _no_allocation(monkeypatch)
        sweep = str(CONFIGS / "approach-plain-sweep.yaml")
        assert main(["sweep", sweep, "1", "2", "--set", "sim.substep=1e-9"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "config error: horizon 6 s at substep 1e-09 s gives 6,000,000,001 rows, "
        )

    def test_no_frequencies_is_a_config_error(self, tmp_path, capsys):
        assert main(["sweep", self._cfg(tmp_path)]) == EXIT_CONFIG
        assert "at least one frequency" in capsys.readouterr().err

    def test_nonpositive_frequency_rejected(self, tmp_path, capsys):
        assert main(["sweep", self._cfg(tmp_path), "0"]) == EXIT_CONFIG
        assert "must be > 0" in capsys.readouterr().err

    def test_duplicate_frequencies_collapse(self, tmp_path, capsys):
        assert main(["sweep", self._cfg(tmp_path), "2", "2.0"]) == EXIT_OK
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.strip() and l.split()[0] == "2"]
        assert len(rows) == 1

    def test_frequencies_that_print_alike_are_rejected_before_integrating(
        self, tmp_path, capsys, no_integration,
    ):
        # Both would be labelled 1: one trace file, two table rows "1".
        assert main(["sweep", self._cfg(tmp_path), "1", "1.0000001"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: sweep frequencies 1.0 and 1.0000001 Hz both print as 1; "
            "their traces would share one file\n"
        )
        assert not list(tmp_path.glob("sweep-f*.csv"))


class TestCompare:
    def test_plain_controller_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, (
            "scenario: {name: acc-ride, controller: plain}\n"
            "sim: {mode: event, horizon: 0.5}\n"
        ))
        assert main(["compare", cfg]) == EXIT_CONFIG
        assert "boosted" in capsys.readouterr().err

    def test_a_box_failing_its_checks_exits_3_as_constants_does(self, capsys, no_integration):
        ride = str(CONFIGS / "ride-certified.yaml")
        assert main(["constants", ride, *OFF_BOUNDARY]) == EXIT_ASSUMPTION
        printed = capsys.readouterr()
        assert printed.err == "assumption failure: boundary_actuation\n"
        assert main(["compare", ride, *OFF_BOUNDARY]) == EXIT_ASSUMPTION
        assert capsys.readouterr() == printed

    def test_a_budget_too_short_to_store_is_a_config_error(self, capsys, monkeypatch):
        # The approach box certifies t* = 9.87e-9 s, so the runs step at
        # t*/2 over 60 s.
        _no_allocation(monkeypatch)
        assert main(["compare", str(CONFIGS / "approach-boosted.yaml")]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(
            "config error: horizon 60 s at substep 4.93504e-09 s gives 12,157,949,166 rows, "
        )

    def test_event_beats_periodic_and_floor_pins_one_sample(self, tmp_path, capsys):
        cfg = _write(tmp_path, (
            "scenario: {name: acc-ride, controller: boosted}\n"
            "tuning: {c: 3.0, delta: 1.0, band: 10.0, epsilon: 1.5e-4, margin: 2.0}\n"
            "sim: {mode: event, horizon: 0.5, substep: 1.0e-3, floor: 0.5}\n"
            + RIDE_BOUNDS_YAML
        ))
        assert main(["compare", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "violation_free_sampling_time=0.00035558221703683811" in out
        samples = next(l for l in out.splitlines() if l.strip().startswith("samples"))
        _, periodic, event = samples.split()
        assert int(event) == 1
        assert int(periodic) > 1000

    def test_bounds_too_small_certify_a_hold_that_violates(self, tmp_path, capsys):
        # Made-up bounds certify a hold far beyond the horizon: periodic mode
        # samples once and the held input carries the car through the
        # boundary, while the event trigger keeps it safe.
        cfg = _write(tmp_path, (
            "scenario: {name: acc-ride, controller: boosted}\n"
            "tuning: {c: 3.0, delta: 1.0, band: 10.0, epsilon: 1.5e-4, margin: 2.0}\n"
            "sim: {mode: event, horizon: 2.0, substep: 1.0e-3}\n"
            "bounds: {b_f: 1.0e-3, b_g: 1.0e-3, b_k: 1.0e-3, lam: 1.0e-3, mu: 1.0e-3,\n"
            "         m_lip: 1.0e-8, l_k: 1.0e-3, l_sigma: 1.0e-3, safety_factor: 1.0}\n"
        ))
        assert main(["compare", cfg]) == EXIT_VIOLATION
        rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
        assert rows["samples"][0] == "1"
        periodic_min_h, event_min_h = map(float, rows["min_h"])
        assert periodic_min_h < 0.0 < event_min_h

    def test_more_event_samples_than_periodic_exits_one(self, tmp_path, capsys):
        # The same made-up bounds over a shorter horizon: the single periodic
        # hold stays safe, while the trigger fires once at 0.747 s.
        cfg = _write(tmp_path, (
            "scenario: {name: acc-ride, controller: boosted}\n"
            "tuning: {c: 3.0, delta: 1.0, band: 10.0, epsilon: 1.5e-4, margin: 2.0}\n"
            "sim: {mode: event, horizon: 0.8, substep: 1.0e-3}\n"
            "bounds: {b_f: 1.0e-3, b_g: 1.0e-3, b_k: 1.0e-3, lam: 1.0e-3, mu: 1.0e-3,\n"
            "         m_lip: 1.0e-8, l_k: 1.0e-3, l_sigma: 1.0e-3, safety_factor: 1.0}\n"
        ))
        assert main(["compare", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        rows = {line.split()[0]: line.split()[1:] for line in captured.out.splitlines()}
        assert rows["samples"] == ["1", "2"]
        assert min(map(float, rows["min_h"])) > 0.0
        assert captured.err == "event mode used more samples than periodic\n"


# Runs main() on each argv of a JSON list with SciPy unimportable (a None
# entry in sys.modules makes every ``import scipy...`` raise ImportError),
# and prints each exit code and stdout as JSON.
_SCIPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from safehold.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_certification_runs_with_scipy_blocked(tmp_path):
    """`constants` prints every shipped config's golden stdout, and a short
    `compare` (bound estimation included) prints what it prints in process,
    in an interpreter that cannot import SciPy."""
    shipped = sorted(CONFIGS.glob("*.yaml"))
    compare = ["compare", str(CONFIGS / "ride-certified.yaml"), "--set", "sim.horizon=0.2"]
    argvs = [["constants", str(path)] for path in shipped] + [compare]
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED, json.dumps(argvs)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for path, (code, out) in zip(shipped, results):
        golden = (GOLDEN / f"constants-{path.stem}.txt").read_text(encoding="utf-8")
        head, _, rest = golden.partition("--- stdout\n")
        assert f"exit={code}\n" in head, path.name
        assert out == rest.partition("--- stderr\n")[0], path.name
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        code = main(compare)
    assert results[-1] == [code, expected.getvalue()]
    assert code == EXIT_OK and expected.getvalue().startswith("violation_free_sampling_time=")
