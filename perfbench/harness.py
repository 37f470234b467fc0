"""Runs one workload: set-up probes, timed passes, the correctness gate and,
for traced runs, the per-layer metrics.

``bootstrap.prepare`` must have run before this module is imported.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from fermi_lattice import cli

import calib
import gate
import scenarios
import spans
from bootstrap import WORK_DIR

PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    referenced: int = 0
    reasons: list[str] = field(default_factory=list)
    op_seconds: dict[str, list[float]] = field(default_factory=dict)
    slopes: dict[str, float] = field(default_factory=dict)
    # host-speed calibrations, and each operation timed between two of
    # them: (name, seconds, index of the calibration before it)
    calibrations: list[float] = field(default_factory=list)
    timings: list[tuple[str, float, int]] = field(default_factory=list)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{what}: {why}")


def measure_setup(workload: str, seed: int, root: Path, work: Path, tiny: bool,
                  tally: Tally, samples: int = SETUP_SAMPLES) -> list[tuple[float, float]]:
    """Seconds from spawning a fresh interpreter until it has imported
    fermi_lattice and generated the workload's inputs, once per sample,
    raw and normalised to the reference host (see calib.py)."""
    times, cals = [], [calib.calibrate_import(PROBE_TIMEOUT_S)]
    for i in range(samples):
        argv = [sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed),
                "--work", str(work / f"probe{i}")] + (["--tiny"] if tiny else [])
        tally.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            tally.fail("setup probe", f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            times.append((elapsed, len(cals) - 1))
        cals.append(calib.calibrate_import(PROBE_TIMEOUT_S))
    scaled = calib.normalise(times, cals, calib.IMPORT_REF_S)
    return [(elapsed, norm) for (elapsed, _), norm in zip(times, scaled)]


class Runner:
    """Executes passes over a workload's operations and gates every output."""

    def __init__(self, ops: list[scenarios.Op], reference: gate.Reference, tally: Tally):
        self.ops = ops
        self.reference = reference
        self.tally = tally
        self.digests = {op.name: op.input_hash() for op in ops}

    def execute(self, op: scenarios.Op):
        """Run one operation; return (seconds, exit code or error, raw result)."""
        op.out.with_suffix(".manifest.json").unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            if op.is_cli:
                code, raw = cli.main(op.argv()), None
            else:
                call, _ = scenarios.LIBRARY_CALLS[op.command]
                code, raw = 0, call(json.loads(op.scenario.read_text()))
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            code, raw = repr(exc), None
        return time.perf_counter() - t0, code, raw

    @staticmethod
    def outputs(op: scenarios.Op, raw) -> dict[str, np.ndarray]:
        if op.is_cli:
            return gate.cli_outputs(op.out)
        _, reduce = scenarios.LIBRARY_CALLS[op.command]
        return reduce(raw)

    def run_pass(self) -> float:
        """Run every operation once, with a host-speed calibration after
        each, and gate its outputs; return the summed operation time."""
        wall = 0.0
        cals = self.tally.calibrations
        if not cals:
            cals.append(calib.calibrate())
        for op in self.ops:
            self.tally.attempted += 1
            elapsed, code, raw = self.execute(op)
            self.tally.timings.append((op.name, elapsed, len(cals) - 1))
            cals.append(calib.calibrate())
            wall += elapsed
            self.tally.op_seconds.setdefault(op.name, []).append(elapsed)
            if code != 0:
                self.tally.fail(op.name, f"exit {code}")
                continue
            try:
                outputs = self.outputs(op, raw)
            except (OSError, ValueError, KeyError) as exc:
                self.tally.fail(op.name, f"unreadable output: {exc!r}")
                continue
            verdict = gate.verdict(outputs, self.reference.get(op.name, self.digests[op.name]))
            self.tally.referenced += verdict.referenced
            if not verdict.ok:
                self.tally.fail(op.name, verdict.reason)
            if "summary.fitted_slope" in outputs:
                self.tally.slopes[op.name] = float(outputs["summary.fitted_slope"][0, 0])
        return wall


def _passes(runner: Runner, budget: float, each=None) -> list[float]:
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < budget:
        walls.append(runner.run_pass() if each is None else each())
    return walls


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        tiny: bool = False, reference: gate.Reference | None = None,
        setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload and return the result record (see run.py)."""
    work = root / WORK_DIR / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    setup = measure_setup(workload, seed, root, work / "setup", tiny, tally, setup_samples)
    if not setup:
        raise RuntimeError(f"every set-up probe failed: {tally.reasons}")
    ops = scenarios.generate(workload, seed, work / "run", tiny)
    if reference is None:
        reference = gate.Reference.load(gate.REFERENCE_DIR / f"{workload}.npz")
    runner = Runner(ops, reference, tally)

    record = {"tally": tally, "setup": setup, "layers": None, "missing": []}
    if not trace:
        record["walls"] = _passes(runner, seconds)
        record["untraced"] = tally.timings
    else:
        record["walls"] = _passes(runner, seconds / 2)
        record["untraced"] = list(tally.timings)
        tracer = spans.Tracer()
        traced = []

        def traced_pass() -> float:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                wall = runner.run_pass()
            traced.append((wall, tracer.take(), len(caught)))
            return wall

        untraced_ops = {name: list(times) for name, times in tally.op_seconds.items()}
        with spans.Installed(tracer) as installed:
            record["traced_walls"] = _passes(runner, seconds / 2, traced_pass)
            record["missing"] = installed.missing
        tally.op_seconds = untraced_ops
        # per-layer numbers come from one whole pass, the traced pass of
        # median wall time, so its self times add up to its wall time
        wall, pass_spans, n_warn = sorted(traced, key=lambda x: x[0])[(len(traced) - 1) // 2]
        layers = spans.layer_metrics(pass_spans, wall, n_warn)
        traced_timings = tally.timings[len(record["untraced"]):]
        layers["trace.overhead_s"] = (_norm_wall(tally, traced_timings)
                                      - _norm_wall(tally, record["untraced"]))
        record["layers"] = layers
        spans.dump(pass_spans, work / "spans.tsv")
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return record


def _median(pairs: list[tuple[float, float]], which: int) -> float:
    """Median of the raw (which=0) or normalised (which=1) set-up times."""
    return statistics.median(p[which] for p in pairs)


def _norm_by_op(tally: Tally, timings: list[tuple[str, float, int]]) -> dict[str, list[float]]:
    """Normalised seconds of each operation in timings, by operation name."""
    scaled = calib.normalise([(elapsed, i) for _, elapsed, i in timings], tally.calibrations)
    by_op: dict[str, list[float]] = {}
    for (name, _, _), seconds in zip(timings, scaled):
        by_op.setdefault(name, []).append(seconds)
    return by_op


def _norm_wall(tally: Tally, timings: list[tuple[str, float, int]]) -> float:
    """A pass made of each operation's median normalised time: steadier
    than the median pass, whose operations share one draw of host noise."""
    return sum(statistics.median(t) for t in _norm_by_op(tally, timings).values())


def result_json(record: dict, trace: bool) -> dict:
    """The final-line JSON object: correctness, counts and metrics."""
    tally = record["tally"]
    if trace:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
    else:
        values = {
            "norm_wall_s": _norm_wall(tally, record["untraced"]),
            "setup_s": _median(record["setup"], 1),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def report_lines(record: dict, settings: dict) -> list[str]:
    """Human-readable lines printed before the result: settings, medians
    with sample counts, failures and the measured oracle-check slope."""
    tally = record["tally"]
    lines = [
        f"environment: nproc={settings['nproc']} cli_fan_out={settings['cli_fan_out']} "
        f"blas_threads={settings['blas_threads']} numpy={np.__version__} "
        f"scipy={scipy.__version__} python={sys.version.split()[0]}",
    ]
    lines.append(f"setup_s: normalised median {_median(record['setup'], 1):.4f} s, "
                 f"raw median {_median(record['setup'], 0):.4f} s, "
                 f"over {len(record['setup'])} fresh interpreters")
    lines.append("norm_wall_s: sum of per-operation medians "
                 f"{_norm_wall(tally, record['untraced']):.4f} s")
    for label, key in (("untraced", "walls"), ("traced", "traced_walls")):
        if record.get(key):
            lines.append(f"{label} passes: raw wall time median "
                         f"{statistics.median(record[key]):.4f} s over {len(record[key])}")
    if tally.calibrations:
        lines.append(f"calibration: median {statistics.median(tally.calibrations) * 1e3:.2f} ms "
                     f"over {len(tally.calibrations)}, {calib.CAL_REF_S * 1e3:.2f} ms "
                     "on the reference host")
    norm_by_op = _norm_by_op(tally, record["untraced"])
    for name, times in tally.op_seconds.items():
        lines.append(f"  op {name}: median {statistics.median(times):.4f} s raw, "
                     f"{statistics.median(norm_by_op[name]):.4f} s normalised, "
                     f"over {len(times)}")
    for name, slope in tally.slopes.items():
        lines.append(f"{name} fitted_slope = {slope:.6f} (reported as measured, not gated)")
    lines.append(f"fail_frac: {tally.failed}/{tally.attempted} = "
                 f"{tally.failed / max(tally.attempted, 1):.6g}; "
                 f"{tally.referenced} operations compared with a reference")
    lines.extend(f"FAILED {reason}" for reason in tally.reasons)
    lines.extend(f"not traced (missing): {name}" for name in record["missing"])
    return lines
