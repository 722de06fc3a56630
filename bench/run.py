"""Closed-loop benchmark of mathieuspec's CLI commands.

    python3 bench/run.py --workload expand --seed 1 --seconds 20 --trace 0

One client runs jobs back to back in this process, each a documented CLI
command called through ``mathieuspec.cli.main`` on seeded inputs (see
``workloads.py``), and checks every job's artifacts (see ``checks.py``).
Jobs run in whole rounds, as many as take about ``--seconds`` on the
reference machine (``workloads.n_rounds``).  With ``--trace 1`` the same
jobs run under the span tracer (``tracing.py``) and the per-layer metrics
are printed instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "_out"

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5
#: No new round starts once the jobs have taken this many times --seconds,
#: which bounds a run on a machine much slower than the reference one.
MAX_OVERRUN = 2.0


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing mathieuspec.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import mathieuspec.cli"],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
            text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"importing mathieuspec.cli failed:\n"
                               f"{proc.stderr}")
    return statistics.median(times)


def run_job(cli, job: workloads.Job, out: Path):
    """(wall seconds, problems) of one job; its stdout is discarded."""
    problems = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(job.argv(str(out)))
    except Exception:
        rc = None
        problems.append("uncaught exception:\n" + traceback.format_exc())
    dt = time.perf_counter() - t0
    if rc == 0:
        problems += checks.check(job, out)
    elif rc is not None:
        problems.append(f"exit code {rc}")
    return dt, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    setup_s = None if trace else measure_setup()
    from mathieuspec import cli

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        warm = workloads.warmup_job()
        _, problems = run_job(cli, warm, scratch / "warmup")
        if problems:
            raise RuntimeError(f"warm-up job failed: {problems}")
        tracer = tracing.Tracer().install() if trace else None
        times, failed, correct, skipped = [], 0, True, 0
        t_start = time.perf_counter()
        for r in range(workloads.n_rounds(workload, seconds)):
            if time.perf_counter() - t_start > MAX_OVERRUN * seconds:
                break
            for job in workloads.round_jobs(workload, seed, r):
                out = scratch / f"job{len(times)}"
                if tracer is not None:
                    tracer.job = len(times)
                dt, problems = run_job(cli, job, out)
                times.append(dt)
                if checks.is_known_fault(job, problems):
                    failed += 1
                elif problems:
                    correct = False
                    sys.stderr.write(f"FAILED {' '.join(job.argv(''))}\n  "
                                     + "\n  ".join(problems) + "\n")
                if tracer is not None and job.command == "expand" \
                        and not problems:
                    skipped += json.loads((out / "expansion.json").read_text(
                        encoding="utf-8"))["skipped_nodes"]
                shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.restore()
            tracer.write(OUT / f"spans-{workload}-{seed}.csv")
            metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in
                       tracing.layer_metrics(tracer.spans, len(times),
                                             skipped).items()}
            metrics["trace.job_s.p50"] = {
                "value": statistics.median(times),
                "unit": tracing.unit_of("trace.job_s.p50")}
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "jobs_per_min": {"value": 60.0 * len(times) / sum(times),
                                 "unit": "1/min"},
                "job_s.p50": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"correct": correct, "attempted": len(times), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
