"""Write the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs every operation of every workload once for the default and the
held-out seed (gate.REFERENCE_SEEDS) and stores its outputs in
perfbench/reference/<workload>.npz.  The stored numbers are those of the
sources the script ran against; re-run it only when a change of the
program's outputs is intended and reviewed.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import bootstrap


def main() -> int:
    root = Path.cwd()
    bootstrap.prepare(root)
    bootstrap.check_import(root)
    import gate
    import harness
    import scenarios

    for workload in scenarios.WORKLOADS:
        reference = gate.Reference({})
        for seed in gate.REFERENCE_SEEDS:
            work = root / bootstrap.WORK_DIR / f"reference-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            ops = scenarios.generate(workload, seed, work)
            runner = harness.Runner(ops, reference, harness.Tally())
            for op in ops:
                _, code, raw = runner.execute(op)
                if code != 0:
                    print(f"{workload}/{op.name}: exit {code}", file=sys.stderr)
                    return 1
                outputs = runner.outputs(op, raw)
                verdict = gate.verdict(outputs, None)
                if not verdict.ok:
                    print(f"{workload}/{op.name}: {verdict.reason}", file=sys.stderr)
                    return 1
                reference.put(op.name, op.input_hash(), outputs)
        path = gate.REFERENCE_DIR / f"{workload}.npz"
        reference.save(path)
        print(f"wrote {path} ({len(reference.entries)} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
