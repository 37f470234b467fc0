#!/usr/bin/env python3
"""Run the benchmark's workloads and record the results in BENCH_<label>.json.

Usage: python scripts/bench.py LABEL [--workload W ...] [--seed N] [--trace]

For each workload (default: figures, continuum, oracle) this runs

    python3 perfbench/run.py --workload W --seed N --trace 0|1

from the repository root, once, for perfbench's own run length, and appends
one run record to BENCH_<label>.json at the root: the result JSON (the last
line of perfbench's output), the lines printed before it (environment,
per-operation medians, failures), the git commit, nproc, the numpy and scipy
versions and the thread environment.  Running the script again appends, so alternating
invocations on two checkouts give paired runs of each.  The file's summary
holds, per workload, seed and trace mode, the median and quartiles of every
metric over the recorded runs.  Exits 1 when a perfbench run gives no result.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figures", "continuum", "oracle")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _commit() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+uncommitted" if dirty else "")


def run_one(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    started = datetime.datetime.now(datetime.timezone.utc)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench: {workload} exited {proc.returncode} without a result")
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "started": started.isoformat(timespec="seconds"),
        "commit": _commit(),
        "host": {"nproc": os.cpu_count(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__, "python": platform.python_version(),
                 "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES}},
        "report": lines[:-1],
        "result": json.loads(lines[-1]),
    }


def summarise(runs: list[dict]) -> dict:
    """Median and quartiles of every metric, per workload, seed and trace mode."""
    groups: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        key = f"{run['workload']}/seed{run['seed']}" + ("/trace" if run["trace"] else "")
        metrics = groups.setdefault(key, {})
        for name, metric in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    summary = {}
    for key, metrics in groups.items():
        summary[key] = {"runs": len(next(iter(metrics.values())))}
        for name, values in metrics.items():
            q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                              else [values[0]] * 3)
            summary[key][name] = {"median": median, "q1": q1, "q3": q3}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="the file written is BENCH_<label>.json")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for several; default: all three")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="per-layer metrics of a traced run")
    args = parser.parse_args(argv)

    path = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"label": args.label, "runs": []}
    for workload in args.workload or WORKLOADS:
        run = run_one(workload, args.seed, args.trace)
        doc["runs"].append(run)
        doc["summary"] = summarise(doc["runs"])
        path.write_text(json.dumps(doc, indent=1) + "\n")
        result = run["result"]
        values = ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()
                           if not args.trace or k.endswith("self_s"))
        print(f"{args.label} {workload} seed {args.seed}: correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}; {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
