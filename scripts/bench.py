#!/usr/bin/env python3
"""Run the benchmark's workloads and record the results in BENCH_<label>.json.

Usage: python scripts/bench.py LABEL [--workload W ...] [--seed N] [--trace]
       python scripts/bench.py --compare BASE CHANGE

For each workload (default: figures, continuum, oracle) this runs

    python3 perfbench/run.py --workload W --seed N --trace 0|1

from the repository root, once, for perfbench's own run length, and appends
one run record to BENCH_<label>.json at the root: the result JSON (the last
line of perfbench's output), the lines printed before it (environment,
per-operation medians, failures), the git commit, nproc, the numpy and scipy
versions and the thread environment.  Running the script again appends, so alternating
invocations on two checkouts give paired runs of each.  The file's summary
holds, per workload, seed and trace mode, the median and quartiles of every
metric over the recorded runs, and of each operation's normalised median
(``op.<name>``, read from the report's "  op <name>: ... s normalised" lines).
Exits 1 when a perfbench run gives no result.

With --compare it runs nothing: it pairs the i-th runs of each workload, seed
and trace mode in BENCH_<BASE>.json and BENCH_<CHANGE>.json and prints, for
every metric whose direction BENCHMARK.json gives and every op.<name> (lower
is better), both medians and quartiles, the pairs the change won (ties count
for neither side), and by how much the change's median is better or worse
and whether that gap exceeds the base's interquartile range.  A gain needs
both: at least nine pairs in ten won, and a gap beyond that spread.
"""

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figures", "continuum", "oracle")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# "  op fig2: median 0.0090 s raw, 0.0078 s normalised, over 68"
OP_LINE = re.compile(r"\s+op (\S+): .*?(\S+) s normalised")


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


def _groups(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    """Each metric's values and each operation's normalised median, in run
    order, per workload, seed and trace mode."""
    groups: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        key = f"{run['workload']}/seed{run['seed']}" + ("/trace" if run["trace"] else "")
        metrics = groups.setdefault(key, {})
        for name, metric in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        for line in run["report"]:
            op = OP_LINE.match(line)
            if op:
                metrics.setdefault(f"op.{op[1]}", []).append(float(op[2]))
    return groups


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summarise(runs: list[dict]) -> dict:
    """Median and quartiles of every metric and of each operation's normalised
    median, per workload, seed and trace mode."""
    summary = {}
    for key, metrics in _groups(runs).items():
        summary[key] = {"runs": len(next(iter(metrics.values())))}
        for name, values in metrics.items():
            q1, median, q3 = _quartiles(values)
            summary[key][name] = {"median": median, "q1": q1, "q3": q3}
    return summary


def compare(base: list[dict], change: list[dict], better: dict[str, str]) -> list[str]:
    """One line per group and metric of two files' paired runs (see --compare);
    better maps a metric name to "lower" or "higher"."""
    lines = []
    change_groups = _groups(change)
    for key, metrics in _groups(base).items():
        for name, b in metrics.items():
            c = change_groups.get(key, {}).get(name)
            direction = better.get(name, "lower" if name.startswith("op.") else None)
            if not c or direction is None:
                continue
            sign = 1.0 if direction == "lower" else -1.0
            pairs = list(zip(b, c))
            won = sum(sign * (x - y) > 0 for x, y in pairs)
            (b1, bm, b3), (c1, cm, c3) = _quartiles(b), _quartiles(c)
            gain = sign * (bm - cm)
            side = "better" if gain > 0 else "worse" if gain < 0 else "equal"
            beyond = "beyond" if abs(gain) > b3 - b1 else "within"
            lines.append(f"{key} {name} ({direction} is better): base {bm:.4g} [{b1:.4g}, "
                         f"{b3:.4g}], change {cm:.4g} [{c1:.4g}, {c3:.4g}]; change won "
                         f"{won}/{len(pairs)} pairs; change median {side} by {abs(gain):.3g}, "
                         f"{beyond} the base IQR {b3 - b1:.3g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", nargs="?", help="the file written is BENCH_<label>.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare the paired runs of two BENCH files and run nothing")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for several; default: all three")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="per-layer metrics of a traced run")
    args = parser.parse_args(argv)

    if args.compare:
        base, change = (json.loads((ROOT / f"BENCH_{label}.json").read_text())["runs"]
                        for label in args.compare)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
        print("\n".join(compare(base, change, better)))
        return 0
    if args.label is None:
        parser.error("give a LABEL to record runs, or --compare BASE CHANGE")
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
