"""Workload definitions and the output check shared by the benchmark scripts.

A workload is a list of steps; one job runs every step once, each step being
one ``safehold`` CLI process. The seed feeds the region sampler of the
certification box (``region.seed``), so it moves ``certify`` and ``compare``
and leaves ``sweep``, which never samples a region, unchanged.

The box is spelled out in full on the command line because ``parse_config``
drops a ``region`` section that sets only ``seed``: the config then keeps
``region = None`` and the preset box with seed 0.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# Presets from safehold.acc_benchmark.ride_region / approach_region.
RIDE_BOX = ((0.0, 16.5, 590.0), (500.0, 20.5, 740.0))
APPROACH_BOX = ((0.0, 1.0, 5.0), (2000.0, 30.0, 1200.0))

# Reference outputs exist for region seeds 0 .. REGION_SEEDS - 1; the
# workload seed maps onto them modulo this count.
REGION_SEEDS = 16

SWEEP_FREQUENCIES = ("0.5", "1", "2", "5", "10")

WORKLOADS = ("certify", "sweep", "compare")


def _vector(values) -> str:
    return "[" + ",".join(repr(v) for v in values) + "]"


def _region_args(box, region_seed: int) -> list[str]:
    lower, upper = box
    return [
        "--set", f"region.lower={_vector(lower)}",
        "--set", f"region.upper={_vector(upper)}",
        "--set", f"region.seed={region_seed}",
    ]


def region_seed(seed: int) -> int:
    return seed % REGION_SEEDS


def steps(workload: str, seed: int, root: Path) -> list[tuple[str, list[str]]]:
    """(label, CLI argv) for every step of one job, config paths absolute."""
    configs = root / "configs"
    rs = region_seed(seed)
    if workload == "certify":
        return [
            ("ride", ["constants", str(configs / "ride-certified.yaml"),
                      *_region_args(RIDE_BOX, rs)]),
            ("approach", ["constants", str(configs / "approach-boosted.yaml"),
                          *_region_args(APPROACH_BOX, rs)]),
        ]
    if workload == "sweep":
        return [
            ("sweep", ["sweep", str(configs / "approach-plain-sweep.yaml"),
                       *SWEEP_FREQUENCIES]),
        ]
    if workload == "compare":
        return [
            ("compare", ["compare", str(configs / "ride-certified.yaml"),
                         *_region_args(RIDE_BOX, rs)]),
        ]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def reference_key(workload: str, seed: int) -> str:
    # sweep does not depend on the seed, so it has a single reference.
    return "sweep" if workload == "sweep" else f"{workload}/region_seed={region_seed(seed)}"


_KEY_VALUE = re.compile(r"^([A-Za-z_][\w.]*)=(\S+)$")
_COMPARE_ROWS = ("samples", "miet", "min_h")


def checked_outputs(stdout: str) -> dict[str, str]:
    """The printed values the output check compares, as exact strings.

    ``key=value`` lines (``bounds.*``, both sampling times,
    ``smallest_safe_frequency_hz``), the sweep table rows per frequency and
    the ``compare`` table rows. Free-text lines such as the assumption and
    tuning check details are not compared.
    """
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        line = line.strip()
        m = _KEY_VALUE.match(line)
        if m:
            out[m.group(1)] = m.group(2)
            continue
        cols = line.split()
        if len(cols) == 3 and cols[0] in _COMPARE_ROWS:
            out[f"periodic.{cols[0]}"] = cols[1]
            out[f"event.{cols[0]}"] = cols[2]
        elif len(cols) == 4 and _is_number(cols[0]):
            freq = cols[0]
            out[f"sweep.{freq}.min_h"] = cols[1]
            out[f"sweep.{freq}.violation_time"] = cols[2]
            out[f"sweep.{freq}.num_events"] = cols[3]
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(expected: dict, returncode: int, stdout: str) -> list[str]:
    """Differences between one step's run and its reference entry."""
    problems = []
    if returncode != expected["returncode"]:
        problems.append(f"exit code {returncode}, expected {expected['returncode']}")
    got = checked_outputs(stdout)
    for key, want in expected["outputs"].items():
        have = got.get(key)
        if have != want:
            problems.append(f"{key}={have}, expected {want}")
    return problems
