"""Capture the reference outputs the benchmark checks every job against.

Run once, from the root of a checkout of the commit whose outputs are the
reference, and commit the resulting ``bench/reference.json``:

    python3 bench/record.py

It runs every step of every workload for each region seed in
``workloads.REGION_SEEDS`` (about 11 min of CPU on a 2-core Xeon, two
steps at a time) and stores each step's exit code and checked values.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


def _record(workload: str, seed: int, env) -> tuple[str, dict]:
    entry = {}
    for label, argv in workloads.steps(workload, seed, run.ROOT):
        res = run.run_process(run.cli_argv(argv), env)
        entry[label] = {
            "returncode": res["returncode"],
            "outputs": workloads.checked_outputs(res["stdout"]),
        }
        print(f"{workload} seed={seed} {label}: exit {res['returncode']} "
              f"in {res['wall_s']:.1f} s", file=sys.stderr)
    return workloads.reference_key(workload, seed), entry


def main() -> int:
    env = run._env()
    tasks = [("sweep", 0)] + [
        (w, s) for s in range(workloads.REGION_SEEDS) for w in ("certify", "compare")
    ]
    run.WORK_DIR.mkdir(exist_ok=True)
    try:
        # Subprocess-bound: two threads keep both cores busy.
        with ThreadPoolExecutor(max_workers=2) as pool:
            entries = dict(pool.map(lambda t: _record(*t, env), tasks))
    finally:
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
