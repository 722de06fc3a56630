"""Run bench/run.py over several seeds and print the README's figures.

    python3 bench/figures.py --seeds 1-10 --seconds 20 [--trace 1]

For each workload and end-to-end metric it prints the median over the
seeds and the spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  With ``--trace 1`` it prints the
per-layer metrics of every run instead.  Environment variables
(OPENBLAS_NUM_THREADS) pass through to the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("expand", "singularities", "classify", "spectrum")


def seeds_of(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=BENCH.parent, capture_output=True, text=True,
        timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    for workload in WORKLOADS:
        values = {}
        for seed in seeds_of(args.seeds):
            res = one_run(workload, seed, args.seconds, args.trace)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                if args.trace:
                    print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
        if args.trace:
            continue
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / med:.3f}"
            else:
                spread = "-"
            print(f"| {workload} | {name} | {med:.4g} | {spread} |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
