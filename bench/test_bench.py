"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

The tier-1 suite does not collect these (``testpaths`` is ``tests``).
"""

import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from layers import layer_metrics, self_times

COMPARE_STDOUT = """\
violation_free_sampling_time=0.00035558221703683811
      metric                periodic                   event
     samples                   33747                       2
        miet  0.00035558221703624326     0.74707823799439688
       min_h        5.99696982408477        3.76676097855773
"""

SWEEP_STDOUT = """\
frequency_hz                   min_h          violation_time  num_events
         0.5       -15.1921415826964                   0.997           3
           2     0.00492981073148258                    none          12
smallest_safe_frequency_hz=2
"""


def test_checked_outputs_compare_table():
    out = workloads.checked_outputs(COMPARE_STDOUT)
    assert out == {
        "violation_free_sampling_time": "0.00035558221703683811",
        "periodic.samples": "33747",
        "event.samples": "2",
        "periodic.miet": "0.00035558221703624326",
        "event.miet": "0.74707823799439688",
        "periodic.min_h": "5.99696982408477",
        "event.min_h": "3.76676097855773",
    }


def test_checked_outputs_sweep_table_and_skips_free_text():
    text = SWEEP_STDOUT + "assumption bounded_fields: pass (max|f|=21.5384)\n"
    out = workloads.checked_outputs(text)
    assert out["sweep.0.5.min_h"] == "-15.1921415826964"
    assert out["sweep.0.5.violation_time"] == "0.997"
    assert out["sweep.2.num_events"] == "12"
    assert out["smallest_safe_frequency_hz"] == "2"
    assert not any(k.startswith("assumption") for k in out)


def test_mismatches_reports_exit_code_and_changed_value():
    expected = {"returncode": 0, "outputs": workloads.checked_outputs(COMPARE_STDOUT)}
    assert workloads.mismatches(expected, 0, COMPARE_STDOUT) == []
    # Extra printed values are not a mismatch; a changed or missing one is.
    assert workloads.mismatches(expected, 0, COMPARE_STDOUT + "extra=1\n") == []
    changed = COMPARE_STDOUT.replace("33747", "33748")
    problems = workloads.mismatches(expected, 2, changed)
    assert problems == [
        "exit code 2, expected 0",
        "periodic.samples=33748, expected 33747",
    ]


def test_seed_spells_out_the_box_and_wraps_onto_reference_seeds():
    root = Path("/checkout")
    (_, argv), = workloads.steps("compare", workloads.REGION_SEEDS + 3, root)
    assert argv[:2] == ["compare", str(root / "configs" / "ride-certified.yaml")]
    assert argv[2:] == [
        "--set", "region.lower=[0.0,16.5,590.0]",
        "--set", "region.upper=[500.0,20.5,740.0]",
        "--set", "region.seed=3",
    ]
    assert workloads.steps("sweep", 5, root) == workloads.steps("sweep", 0, root)


def test_reference_seed_zero_holds_the_shipped_config_outputs():
    ref = workloads.load_reference()
    for seed in range(workloads.REGION_SEEDS):
        for workload in ("certify", "compare"):
            assert workloads.reference_key(workload, seed) in ref
    compare = ref["compare/region_seed=0"]["compare"]
    assert compare["returncode"] == 0
    assert compare["outputs"]["violation_free_sampling_time"] == "0.00035558221703683811"
    assert (compare["outputs"]["periodic.samples"], compare["outputs"]["event.samples"]) == (
        "33747", "2")
    ride = ref["certify/region_seed=0"]["ride"]["outputs"]
    assert ride["violation_free_sampling_time"] == compare["outputs"][
        "violation_free_sampling_time"]
    assert ref["sweep"]["sweep"]["outputs"]["smallest_safe_frequency_hz"] == "2"


def _span(sid, name, start, end, parent=None, thread=1, **extra):
    return {"id": sid, "name": name, "start": start, "end": end, "cpu": end - start,
            "thread": thread, "parent": parent, "job": "j", **extra}


def test_self_time_subtracts_children_on_the_same_thread_only():
    spans = [
        _span(0, "cli.job.sweep", 0.0, 10.0),
        _span(1, "config.load", 0.0, 1.0, parent=0),
        # Pool-thread runs: their CPU time is not the job thread's.
        _span(2, "simulator.run", 2.0, 5.0, parent=0, thread=2),
        _span(3, "simulator.run", 4.0, 6.0, parent=0, thread=3),
        _span(4, "simulator.analyze", 4.5, 5.5, parent=3, thread=3),
    ]
    # A second CLI step numbers its spans from 0 again.
    spans.append({**_span(0, "cli.job.constants", 0.0, 2.0), "job": "k"})
    spans.append({**_span(1, "constants.estimate_bounds", 0.0, 1.5, parent=0), "job": "k"})
    selfs = self_times(spans)
    assert selfs["cli"] == pytest.approx(9.0 + 0.5)
    assert selfs["constants"] == pytest.approx(1.5)
    assert selfs["config"] == pytest.approx(1.0)
    assert selfs["simulator"] == pytest.approx(3.0 + 2.0)


def test_layer_metrics_counts_and_ratios():
    record = {
        "spans": [
            _span(0, "cli.job.compare", 0.0, 4.0),
            _span(1, "constants.estimate_bounds", 0.0, 1.0, parent=0, box="ride"),
            _span(2, "constants.boundary_points", 0.2, 0.3, parent=1,
                  attempted=512, converged=500),
            _span(3, "simulator.run", 1.0, 3.0, parent=0, mode="event",
                  substeps=100, samples=4),
        ],
        "counts": {
            "lie@constants.estimate_bounds": 6, "filter@constants.estimate_bounds": 3,
            "filter.active@simulator.run": 1, "filter@simulator.run": 1,
            "boost@simulator.run": 1, "lie.in_boost@simulator.run": 2,
            "trigger@simulator.run": 100, "plant.drift@simulator.run": 7,
        },
    }
    probes = {name: 1.0 for name in (
        "cbf_core.lie_derivatives.us", "safety_filter.solve_cbf_qp.us",
        "safety_filter.tunable_control.us", "simulator.rk4_step.us",
        "simulator.trigger_value.us", "simulator.run_us_per_substep.periodic",
        "simulator.run_us_per_substep.periodic-boosted",
        "simulator.run_us_per_substep.event", "simulator.run_us_per_substep.continuous",
    )}
    m = {k: v["value"] for k, v in layer_metrics([record], probes).items()}
    assert m["constants.estimate_bounds_s.ride"] == pytest.approx(1.0)
    assert m["constants.estimate_bounds_s.approach"] == 0.0
    assert m["constants.estimate_bounds.lie_calls"] == 6
    assert m["safety_filter.controller.calls"] == 4
    assert m["safety_filter.active_ratio"] == pytest.approx(0.25)
    assert m["safety_filter.lie_per_control"] == pytest.approx(2.0)
    assert m["constants.boundary_yield"] == pytest.approx(500 / 512)
    assert m["simulator.trigger_evals_per_event"] == pytest.approx(25.0)
    assert m["acc_benchmark.plant_calls"] == 7
    assert m["cli.self_s"] == pytest.approx(1.0)


def test_smoke_sweep_passes_the_output_check():
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH_DIR / "run.py"), "--smoke", "--workload", "sweep"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke sweep seed=0: ok" in proc.stdout
