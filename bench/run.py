"""safehold benchmark: drive the CLI on the shipped configs and report metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 0 --seconds 20 --trace 0

Load model: a closed loop with one client. One process runs one job at a
time, pinned to one CPU when measuring end to end; each step of a job is a fresh ``python3 -m safehold.cli`` process with
its working directory in a temp dir under ``.bench_work/``, so the configs'
relative ``out/`` paths never land in the tree. Every step's exit code and
printed values are checked against ``bench/reference.json``, captured from
the seed commit.

``--smoke`` runs one checked job per workload and exits 1 on a mismatch.
``--trace 0`` measures the end-to-end metrics: jobs repeat until
``--seconds`` have passed, and at least twice. ``--trace 1`` runs one
untraced job, the same job traced in process (``bench/trace_job.py``) and
the fixed-state probes (``bench/probes.py``), and reports the per-layer
metrics and the tracing overhead; it ignores ``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` over
``attempted`` is the error rate, also printed as ``error_rate=`` above it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (after the path insert above)
from layers import layer_metrics  # noqa: E402

ROOT = workloads.BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# Fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 4
# A job takes about 20 s on certify and compare, so a run of --seconds 20
# still gives its median two samples.
MIN_JOBS = 2


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_process(argv: list[str], env: dict[str, str]) -> dict:
    """Run one process in a fresh temp dir; wall time, rusage, stdout.

    ``os.wait4`` reaps the child so its own peak RSS and CPU time are read,
    not the running maximum over every child so far.
    """
    cwd = Path(tempfile.mkdtemp(prefix="job-", dir=WORK_DIR))
    try:
        with tempfile.TemporaryFile(dir=WORK_DIR) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err, text=True
            )
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        return {
            "returncode": proc.returncode,
            "stdout": stdout,
            "stderr": stderr,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "output_bytes": _bytes_under(cwd),
        }
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def cli_argv(step_argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "safehold.cli", *step_argv]


def run_job(workload: str, seed: int, env, reference: dict, runner=None) -> dict:
    """One job: every step of the workload in turn, each checked.

    ``runner`` replaces ``python3 -m safehold.cli`` as the command the
    step's CLI arguments are appended to.
    """
    expected = reference[workloads.reference_key(workload, seed)]
    job = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "output_bytes": 0, "problems": []}
    for label, argv in workloads.steps(workload, seed, ROOT):
        argv = runner + argv if runner else cli_argv(argv)
        res = run_process(argv, env)
        job["wall_s"] += res["wall_s"]
        job["cpu_s"] += res["cpu_s"]
        job["rss_mb"] = max(job["rss_mb"], res["rss_mb"])
        job["output_bytes"] += res["output_bytes"]
        problems = workloads.mismatches(expected[label], res["returncode"], res["stdout"])
        if problems and res["stderr"]:
            problems.append("stderr: " + res["stderr"].strip().splitlines()[-1])
        job["problems"] += [f"{label}: {p}" for p in problems]
    return job


def measure_setup(workload: str, seed: int, env) -> list[float]:
    """Wall time of fresh processes that import the CLI, load every step's
    config and build its scenario; the first, which may compile bytecode,
    is discarded."""
    argvs = json.dumps([argv for _, argv in workloads.steps(workload, seed, ROOT)])
    cmd = [sys.executable, str(workloads.BENCH_DIR / "setup_job.py"), argvs]
    times = []
    for i in range(SETUP_REPEATS + 1):
        res = run_process(cmd, env)
        if res["returncode"] != 0:
            raise RuntimeError(f"set-up probe failed: {res['stderr'].strip()}")
        if i:
            times.append(res["wall_s"])
    return times


def environment_record(env) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy, yaml; print(json.dumps({'numpy': numpy.__version__, "
         "'scipy': scipy.__version__, 'pyyaml': yaml.__version__}))"],
        env=env, capture_output=True, text=True, check=True,
    )
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **json.loads(probe.stdout),
        "load_generator": "closed loop, 1 client, 1 job at a time",
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _failed(workload: str, seed: int, jobs: list[dict]) -> int:
    """Print every mismatch; the number of jobs with at least one."""
    for j in jobs:
        for p in j["problems"]:
            print(f"MISMATCH {workload} seed={seed}: {p}")
    return sum(1 for j in jobs if j["problems"])


def untraced(workload: str, seed: int, seconds: float, env, reference) -> dict:
    # Pin this process, and so every job it starts, to one CPU. Unpinned,
    # the sweep pool's interpreter-lock hand-offs between two cores made
    # sweep's wall time swing by a third of its median from minute to
    # minute. The pool still starts its threads (os.cpu_count ignores
    # affinity); the traced run stays unpinned and shows their core use.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups = measure_setup(workload, seed, env)
    jobs = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        jobs.append(run_job(workload, seed, env, reference))
    walls = [j["wall_s"] for j in jobs]
    failed = _failed(workload, seed, jobs)
    print(f"jobs={len(jobs)} wall_s={walls} setup_s={setups}")
    print(f"error_rate={failed / len(jobs):.4g} ({failed}/{len(jobs)})")
    return {
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            "wall_s": _metric(statistics.median(walls), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(statistics.median(j["rss_mb"] for j in jobs), "MB"),
        },
    }


def traced(workload: str, seed: int, env, reference) -> dict:
    plain = run_job(workload, seed, env, reference)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer = [sys.executable, str(workloads.BENCH_DIR / "trace_job.py"), str(spans_path)]
    # Every step of the job appends its spans to the same file.
    spans_path.unlink(missing_ok=True)
    traced_job = run_job(workload, seed, env, reference, runner=tracer)
    probe = run_process(
        [sys.executable, str(workloads.BENCH_DIR / "probes.py"), str(seed)], env
    )
    if probe["returncode"] != 0:
        raise RuntimeError(f"probes failed: {probe['stderr'].strip()}")
    with open(spans_path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    metrics = layer_metrics(records, json.loads(probe["stdout"].splitlines()[-1]))
    metrics["cli.cpu_over_wall"] = _metric(plain["cpu_s"] / plain["wall_s"], "ratio")
    metrics["cli.output_bytes"] = _metric(plain["output_bytes"], "bytes")
    metrics["trace.overhead_s"] = _metric(traced_job["wall_s"] - plain["wall_s"], "s")
    failed = _failed(workload, seed, [plain, traced_job])
    print(f"untraced wall_s={plain['wall_s']:.4f} traced wall_s={traced_job['wall_s']:.4f} "
          f"spans={spans_path.relative_to(ROOT)}")
    return {"attempted": 2, "failed": failed, "metrics": metrics}


def smoke(selected: list[str], seed: int, env, reference) -> int:
    """One checked job per workload; exit code 1 on any mismatch."""
    failed = 0
    for workload in selected:
        job = run_job(workload, seed, env, reference)
        bad = _failed(workload, seed, [job])
        print(f"smoke {workload} seed={seed}: {'FAIL' if bad else 'ok'} "
              f"in {job['wall_s']:.2f} s")
        failed += bad
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run one checked job of --workload, or of every workload, and report pass/fail",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")

    missing = [p for p in ("src/safehold/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} missing under {ROOT}", file=sys.stderr)
        return 2

    env = _env()
    reference = workloads.load_reference()
    print("env " + json.dumps(environment_record(env)))
    WORK_DIR.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke([args.workload] if args.workload else list(workloads.WORKLOADS),
                         args.seed, env, reference)
        if args.trace:
            result = traced(args.workload, args.seed, env, reference)
        else:
            result = untraced(args.workload, args.seed, args.seconds, env, reference)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
