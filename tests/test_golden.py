"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

Covers every line ``constants`` prints on the shipped configs (bounds,
assumption and tuning detail lines, budgets), the ``sweep`` table and a
short ``compare``, where the benchmark compares only ``key=value`` lines and
table rows; and ``compare`` on a box that fails its assumption checks, which
exits 3 as ``constants`` does. A change to any printed digit or word fails
here; rewrite a file under ``tests/golden/`` only for an intended change of
output.

``compare`` on the shipped config at its full 12 s horizon is pinned by the
sha256 of each of the seven trace columns of its two runs, the periodic run
at t* and the event run, so that a change to any bit of any row fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import safehold.cli
from safehold.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# A box wholly inside the safe set, whose boundary sampling fails.
OFF_BOUNDARY = [
    "--set", "scenario.x0=[0,20,1000]",
    "--set", "region.lower=[0,19,990]", "--set", "region.upper=[500,21,1010]",
]

CASES = {
    "compare-box-off-the-boundary": ["compare", "configs/ride-certified.yaml", *OFF_BOUNDARY],
    "compare-ride-certified": ["compare", "configs/ride-certified.yaml", "--set", "sim.horizon=0.2"],
    "constants-approach-boosted": ["constants", "configs/approach-boosted.yaml"],
    "constants-approach-plain-sweep": ["constants", "configs/approach-plain-sweep.yaml"],
    "constants-ride-certified": ["constants", "configs/ride-certified.yaml"],
    "constants-unit-bounds": ["constants", "configs/unit-bounds.yaml"],
    "sweep-approach-plain-sweep": [
        "sweep", "configs/approach-plain-sweep.yaml", "0.5", "1", "2", "5", "10",
    ],
}


def render(argv: list[str]) -> str:
    """Run the CLI in process on argv (config paths relative to the repo
    root) and lay out the command, exit code, stdout and stderr as text."""
    out, err = io.StringIO(), io.StringIO()
    command = [arg if not arg.endswith(".yaml") else str(ROOT / arg) for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command)
    return (
        f"$ safehold {' '.join(argv)}\nexit={code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_the_golden_file(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the sweep writes its traces under ./out
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert render(CASES[case]) == expected


def trace_digests(trace) -> list[str]:
    """One line per column of the trace: its name and the sha256 of its
    bytes."""
    return [
        f"{name} {hashlib.sha256(getattr(trace, name).tobytes()).hexdigest()}"
        for name in ("t", "x", "u", "h", "hdot", "trigger", "event")
    ]


def test_full_horizon_compare_traces_match_their_digests(monkeypatch, capsys):
    runs, run = [], safehold.cli.run
    monkeypatch.setattr(safehold.cli, "run", lambda sc: runs.append((sc, run(sc))) or runs[-1][1])
    assert main(["compare", str(ROOT / "configs" / "ride-certified.yaml")]) == 0
    capsys.readouterr()
    lines = [
        f"{sc.schedule.mode} {line}" for sc, trace in runs for line in trace_digests(trace)
    ]
    expected = (GOLDEN / "compare-ride-certified-traces.sha256").read_text(encoding="utf-8")
    assert "\n".join(lines) + "\n" == expected
