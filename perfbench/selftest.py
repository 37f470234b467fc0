"""Self-test of the benchmark, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that
* the untraced and the traced run report every metric BENCHMARK.json
  names, each with its unit;
* the computed counts of two traced runs repeat exactly, so later changes
  can cite them;
* the gate counts a failure (fail_frac > 0) for a corrupted reference
  value, for a NaN injected into an output CSV, and for a scenario whose
  epsilon is NaN, which the CLI at the time of writing accepts with exit 0.

References for the tiny scenarios are made on the fly from the sources
under test, so the self-test checks the gate, not the numbers.  Exits 0
when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import bootstrap

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def main() -> int:
    root = Path.cwd()
    bootstrap.prepare(root)
    bootstrap.check_import(root)
    import gate
    import harness
    import scenarios
    import spans

    spec = json.loads((root / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    work = root / bootstrap.WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)

    def tiny_reference(workload: str) -> gate.Reference:
        ref = gate.Reference({})
        ops = scenarios.generate(workload, 0, work / f"ref-{workload}", tiny=True)
        runner = harness.Runner(ops, ref, harness.Tally())
        for op in ops:
            _, code, raw = runner.execute(op)
            expect(code == 0, f"{workload}/{op.name} exits 0")
            if code == 0:
                ref.put(op.name, op.input_hash(), runner.outputs(op, raw))
        return ref

    def run(workload, trace, ref):
        record = harness.run(workload, 0, 0.0, trace, root, tiny=True, reference=ref,
                             setup_samples=1)
        return record, harness.result_json(record, trace)

    for workload in scenarios.WORKLOADS:
        ref = tiny_reference(workload)
        record, result = run(workload, False, ref)
        expect(result["failed"] == 0 and result["correct"], f"{workload}: clean run passes")
        expect(record["tally"].referenced == len(ref.entries),
               f"{workload}: every operation compared with its reference")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want_e2e, f"{workload}: end-to-end metric names and units")
        expect(all(math.isfinite(v["value"]) and v["value"] > 0
                   for v in result["metrics"].values()), f"{workload}: end-to-end values > 0")

        counts = []
        for _ in range(2):
            record, result = run(workload, True, ref)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want_layer, f"{workload}: per-layer metric names and units")
            layers = record["layers"]
            self_total = sum(layers[name] for name in set(spans.SELF_METRIC.values()))
            expect(abs(self_total + layers["trace.unattributed_s"] - layers["trace.wall_s"])
                   < 1e-9, f"{workload}: self times + unattributed = traced wall time")
            expect(not record["missing"], f"{workload}: every wrapped name exists")
            counts.append({k: layers[k] for k in spans.COMPUTED_COUNTS})
        expect(counts[0] == counts[1], f"{workload}: computed counts repeat exactly")

        # a reference value off by one part in 1e9 must fail the gate
        bad = gate.Reference({key: dict(outputs) for key, outputs in ref.entries.items()})
        key = sorted(bad.entries)[0]
        name = sorted(bad.entries[key])[0]
        corrupted = bad.entries[key][name].copy()
        corrupted.flat[0] = corrupted.flat[0] * (1 + 1e-9) + 1e-9
        bad.entries[key][name] = corrupted
        _, result = run(workload, False, bad)
        expect(result["failed"] > 0 and not result["correct"],
               f"{workload}: corrupted reference value counted as failure")

    # a NaN written into an output CSV must fail the gate
    ops = scenarios.generate("figures", 0, work / "nan-csv", tiny=True)
    op = next(o for o in ops if o.is_cli)
    runner = harness.Runner([op], gate.Reference({}), harness.Tally())
    runner.execute(op)
    csv = op.out
    lines = csv.read_text().splitlines()
    fields = lines[1].split(",")
    fields[-1] = "nan"
    lines[1] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    expect(not gate.verdict(gate.cli_outputs(op.out), None).ok, "NaN in an output CSV fails")

    # a scenario with epsilon NaN: whatever the CLI does with it, it is a failure
    nan_dir = work / "nan-eps"
    (nan_dir / "inputs").mkdir(parents=True)
    scenario = nan_dir / "inputs" / "nan_eps.json"
    doc = json.loads((scenarios.FIGURES_DIR / "fig3.json").read_text())
    doc["scenario"]["epsilon"] = float("nan")
    scenario.write_text(json.dumps(doc))
    nan_op = scenarios.Op("nan_eps", "bare", scenario, nan_dir / "nan_eps.csv")
    tally = harness.Tally()
    harness.Runner([nan_op], gate.Reference({}), tally).run_pass()
    expect(tally.failed == 1 and tally.attempted == 1, "epsilon NaN scenario counted as failure")

    print(f"{len(FAILURES)} self-test check(s) failed" if FAILURES else "self-test passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
