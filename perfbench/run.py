"""Benchmark of fermi-lattice: one workload, timed end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

Workloads are ``figures``, ``continuum`` and ``oracle`` (see scenarios.py).
With ``--trace 0`` the result carries the end-to-end metrics (norm_wall_s,
setup_s, peak_rss_mb); with ``--trace 1`` it carries the per-layer metrics
of a traced run, including the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The run exits 1 without a result when the working
directory holds no fermi_lattice sources.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import bootstrap

# scenarios.WORKLOADS; not imported from there because scenarios loads
# numpy, which must wait until bootstrap.prepare has capped the BLAS pool
WORKLOADS = ("figures", "continuum", "oracle")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run; every run makes at least one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        settings = bootstrap.prepare(root)
        bootstrap.check_import(root)
    except bootstrap.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    import harness

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in harness.report_lines(record, settings):
        print(line)
    print(json.dumps(harness.result_json(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
