"""Scenario-file-driven command line front end.

    fermi-lattice <command> --scenario <file.json> --out <file.csv> [--quiet]

Commands: causality, bare, dressed, ion2, cloud, oracle-check.  Scenario
files are single JSON documents with three sections:

    system:   {"kind": "chain"|"trap", "chain": {...} | "trap": {...}}
    scenario: sites, splittings, epsilon, opening profile(s), duration
    run:      command-specific options

Every command writes plot-ready CSV (header row, '.' decimal separator,
17 significant digits) plus a small .manifest.json next to it; identical
scenario files produce byte-identical CSV.  Exit codes: 0 success,
2 schema/usage error (NaN or Infinity in a scenario included), 3 numerical
failure (a non-finite result included).  FERMI_LATTICE_THREADS caps
sweep parallelism.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .amplitude import bare_amplitude, windowed_amplitude
from .causality import causality_trace, commutator, lightcone_estimate, nominal_causal_time
from .cloud import excitation_distribution, single_site_distributions
from .dressing import DressingScheme, dressed_amplitude, g_min, static_dressing_amplitude
from .errors import FermiLatticeError, NumericalFailureError, SchemaError
from .ion2 import PulseSpec, swap_probability, swap_probability_full, symplectic_temperature
from .modes import (
    BasisKind,
    ChainParams,
    ModeBasis,
    Scenario,
    TrapParams,
    build_harmonic_chain,
    build_ion_trap,
)
from .openings import OpeningFunction
from .oracle import residual_slope

_SCHEMES = {
    "sigma_x": DressingScheme.SIGMA_X,
    "sigma_plus": DressingScheme.SIGMA_PLUS,
    "bare": DressingScheme.BARE,
}


# ---------------------------------------------------------------------------
# scenario-file schema
# ---------------------------------------------------------------------------

def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _reject_constant(name: str):
    raise SchemaError(f"{name} is not a valid number in a scenario file")


def _want(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaError(f"missing key {key!r} in {where}")
    return mapping[key]


def _opening_from_dict(doc: dict, where: str) -> OpeningFunction:
    variant = _want(_object(doc, where), "variant", where)
    try:
        if variant == "constant":
            return OpeningFunction.constant()
        if variant == "sin_sq_window":
            return OpeningFunction.sin_sq_window(float(_want(doc, "window", where)))
        if variant == "cos_sq_window":
            return OpeningFunction.cos_sq_window(float(_want(doc, "window", where)))
        if variant == "exp_ramp":
            inner = _opening_from_dict(_want(doc, "inner", where), where + ".inner")
            return OpeningFunction.exp_ramp_then(float(_want(doc, "ramp_time", where)), inner)
    except FermiLatticeError as exc:
        raise SchemaError(f"bad opening in {where}: {exc}") from exc
    raise SchemaError(f"unknown opening variant {variant!r} in {where}")


def load_scenario_file(path: str | Path) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    if not isinstance(doc, dict) or "system" not in doc:
        raise SchemaError(f"{path}: scenario file must be an object with a 'system' section")
    for section in ("system", "scenario", "run"):
        if section in doc:
            _object(doc[section], section)
    return doc


def build_basis(doc: dict) -> ModeBasis:
    system = _want(doc, "system", "scenario file")
    kind = _want(system, "kind", "system")
    if kind == "chain":
        if "chain" not in system:
            raise SchemaError("system.kind is 'chain' but no system.chain section given")
        if "trap" in system:
            raise SchemaError("exactly one of system.chain / system.trap may be present")
        c = _object(system["chain"], "system.chain")
        try:
            params = ChainParams(
                n_sites=int(_want(c, "n_sites", "system.chain")),
                length=float(c.get("length", 1.0)),
                pinning=float(c.get("pinning", 1.0)),
                speed=float(c.get("speed", 1.0)),
            )
        except FermiLatticeError as exc:
            raise SchemaError(f"system.chain: {exc}") from exc
        return build_harmonic_chain(params)
    if kind == "trap":
        if "trap" not in system:
            raise SchemaError("system.kind is 'trap' but no system.trap section given")
        if "chain" in system:
            raise SchemaError("exactly one of system.chain / system.trap may be present")
        t = _object(system["trap"], "system.trap")
        try:
            params = TrapParams(
                n_ions=int(_want(t, "n_ions", "system.trap")),
                omega0=float(t.get("omega0", 1.0)),
            )
        except FermiLatticeError as exc:
            raise SchemaError(f"system.trap: {exc}") from exc
        return build_ion_trap(params)
    raise SchemaError(f"unknown system.kind {kind!r} (expected 'chain' or 'trap')")


def build_scenario(doc: dict, basis: ModeBasis) -> Scenario:
    sc = doc.get("scenario", {})
    if "opening" in sc:
        opening_a = opening_b = _opening_from_dict(sc["opening"], "scenario.opening")
    else:
        opening_a = (_opening_from_dict(sc["opening_a"], "scenario.opening_a")
                     if "opening_a" in sc else OpeningFunction.constant())
        opening_b = (_opening_from_dict(sc["opening_b"], "scenario.opening_b")
                     if "opening_b" in sc else OpeningFunction.constant())
    try:
        scenario = Scenario(
            site_a=int(sc.get("site_a", 0)),
            site_b=int(sc.get("site_b", 1)),
            omega_a=float(sc.get("omega_a", sc.get("omega", 1.0))),
            omega_b=float(sc.get("omega_b", sc.get("omega", 1.0))),
            epsilon=float(sc.get("epsilon", 1.0)),
            opening_a=opening_a,
            opening_b=opening_b,
            duration=float(sc.get("duration", 0.0)),
        )
        scenario.check_sites(basis.n_sites)
    except (FermiLatticeError, IndexError) as exc:
        raise SchemaError(f"scenario section: {exc}") from exc
    return scenario


def scenario_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return format(float(value), ".17g")


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write the rows as 17-digit CSV; a NaN or infinite cell is a numerical
    failure and leaves no file behind."""
    body = "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    # 'nan' and 'inf' are the only formatted values containing an 'n'
    if "n" in body:
        row = body.count("\n", 0, body.index("n")) + 1
        raise NumericalFailureError(f"{path.name}: non-finite value in data row {row}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n" + body)
    return path


def out_variant(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix + out.suffix)


def thread_count() -> int:
    env = os.environ.get("FERMI_LATTICE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise SchemaError(f"FERMI_LATTICE_THREADS must be an integer, got {env!r}") from exc
    return min(4, os.cpu_count() or 1)


def _sweep_map(fn, items):
    """Ordered map over sweep points, fanning out across threads."""
    workers = thread_count()
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


class Reporter:
    def __init__(self, quiet: bool):
        self.quiet = quiet
        self.summary: dict = {}

    def note(self, key: str, value):
        self.summary[key] = value
        if not self.quiet:
            print(f"{key} = {value}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_causality(doc: dict, out: Path, report: Reporter) -> list[Path]:
    basis = build_basis(doc)
    scenario = build_scenario(doc, basis)
    run = doc.get("run", {})
    mode = run.get("mode", "tau_scan")

    if mode == "r_scan":
        if basis.kind is not BasisKind.HARMONIC_CHAIN:
            raise SchemaError("r_scan mode needs a chain system")
        tau = float(_want(run, "tau", "run"))
        r_values = run.get("r_values", "all")
        if r_values == "all":
            r_values = list(range(1, basis.n_sites))
        r_values = [int(r) for r in r_values]
        for r in r_values:
            if r % basis.n_sites == 0:
                raise SchemaError(f"run.r_values: r = {r} puts site_b on site_a "
                                  f"(r must not be a multiple of n_sites = {basis.n_sites})")
        rows = []
        for r in r_values:
            f_c = commutator(basis, scenario.site_a, (scenario.site_a + r) % basis.n_sites, tau)
            rows.append((r, f_c))
        return [write_csv(out, ["r", "f_c"], rows)]

    if mode != "tau_scan":
        raise SchemaError(f"unknown causality run.mode {mode!r}")

    n_samples = int(run.get("n_samples", 2000))
    if n_samples < 2:
        raise SchemaError("run.n_samples must be >= 2 (empty tau grid)")

    def one(basis_and_sites):
        b, site_a, site_b, suffix = basis_and_sites
        tau_max = float(run.get("tau_max", 2.0 * nominal_causal_time(b, site_a, site_b)))
        taus = np.linspace(0.0, tau_max, n_samples)
        trace = causality_trace(b, site_a, site_b, taus)
        est = lightcone_estimate(b, site_a, site_b, tau_max, max(n_samples, 100))
        path = write_csv(out_variant(out, suffix) if suffix else out,
                         ["tau", "f_a", "f_c"],
                         zip(trace.taus, trace.f_a, trace.f_c))
        return path, est, suffix

    points = []
    if "n_values" in run:
        if basis.kind is not BasisKind.HARMONIC_CHAIN:
            raise SchemaError("run.n_values sweeps are for chain systems")
        frac = run.get("separation_fraction")
        for n in run["n_values"]:
            n = int(n)
            chain = ChainParams(n, basis.chain.length, basis.chain.pinning, basis.chain.speed)
            if frac is not None:
                site_a, site_b = 0, int(round(float(frac) * n)) % n
                if site_b == site_a:
                    raise SchemaError(f"run.separation_fraction = {frac} puts site_b on "
                                      f"site_a for n = {n}")
            else:
                site_a, site_b = scenario.site_a, scenario.site_b
            points.append((build_harmonic_chain(chain), site_a, site_b, f"_n{n}"))
    else:
        points.append((basis, scenario.site_a, scenario.site_b, ""))

    outputs = []
    for path, est, suffix in _sweep_map(one, points):
        outputs.append(path)
        tag = suffix.lstrip("_") or "lightcone"
        report.note(f"{tag}.rise_time", est.rise_time)
        report.note(f"{tag}.nominal_causal_time", est.nominal_causal_time)
        report.note(f"{tag}.sharpness", est.sharpness)
    return outputs


def cmd_bare(doc: dict, out: Path, report: Reporter) -> list[Path]:
    basis = build_basis(doc)
    scenario = build_scenario(doc, basis)
    run = doc.get("run", {})
    n_times = int(run.get("n_times", 201))
    if n_times < 1:
        raise SchemaError("run.n_times must be >= 1")

    if "t_max" in run:
        times = np.linspace(0.0, float(run["t_max"]), n_times)
        trace = bare_amplitude(basis, scenario, times)
    else:
        trace = windowed_amplitude(basis, scenario, n_times=n_times)

    report.note("ac_over_a0", trace.commutator_ratio())
    report.note("p_final", float(trace.probability[-1]))
    rows = zip(trace.times, trace.a0.real, trace.a0.imag,
               trace.ac.real, trace.ac.imag, trace.probability)
    return [write_csv(out, ["t", "re_a0", "im_a0", "re_ac", "im_ac", "probability"], rows)]


def cmd_dressed(doc: dict, out: Path, report: Reporter) -> list[Path]:
    basis = build_basis(doc)
    scenario = build_scenario(doc, basis)
    run = doc.get("run", {})
    mode = run.get("mode", "trace")

    if mode == "g_scan":
        r_values = run.get("r_values", "all")
        if r_values == "all":
            r_values = list(range(0, basis.n_sites // 2 + 1))
        omega = scenario.omega_a
        rows = [(int(r), static_dressing_amplitude(basis, omega, int(r))) for r in r_values]
        return [write_csv(out, ["r", "g"], rows)]

    if mode == "gmin_scan":
        n_values = [int(n) for n in _want(run, "n_values", "run")]
        chain = basis.chain
        if chain is None:
            raise SchemaError("gmin_scan needs a chain system")
        values = g_min(n_values, scenario.omega_a, chain.length, chain.pinning, chain.speed)
        return [write_csv(out, ["n", "g_min"], zip(n_values, values))]

    if mode != "trace":
        raise SchemaError(f"unknown dressed run.mode {mode!r}")

    names = run.get("schemes", ["sigma_x", "sigma_plus", "bare"])
    schemes = []
    for name in names:
        if name not in _SCHEMES:
            raise SchemaError(f"unknown dressing scheme {name!r} "
                              f"(expected one of {sorted(_SCHEMES)})")
        schemes.append(_SCHEMES[name])

    w_end = scenario.opening_a.post_ramp().window_end
    t_max = float(run["t_max"]) if "t_max" in run else w_end
    if not np.isfinite(t_max):
        raise SchemaError("run.t_max is required when the opening never closes")
    n_times = int(run.get("n_times", 201))
    times = np.linspace(0.0, t_max, n_times)

    traces = [dressed_amplitude(basis, scenario, s, times) for s in schemes]
    for name, trace in zip(names, traces):
        report.note(f"p_final.{name}", float(trace.probability[-1]))
    header = ["t"] + [f"p{i + 1}" for i in range(len(traces))]
    rows = zip(times, *[tr.probability for tr in traces])
    return [write_csv(out, header, rows)]


def cmd_ion2(doc: dict, out: Path, report: Reporter) -> list[Path]:
    basis = build_basis(doc)
    if basis.kind is not BasisKind.ION_TRAP or basis.n_sites != 2:
        raise SchemaError("ion2 needs system.kind 'trap' with n_ions = 2")
    run = doc.get("run", {})
    cutoff = int(run.get("schmidt_cutoff", 2))
    if cutoff < 2:
        raise SchemaError(f"run.schmidt_cutoff must be >= 2, got {cutoff}")

    w0, w1 = float(basis.frequencies[0]), float(basis.frequencies[1])
    thermal = symplectic_temperature(w0, w1)

    def prob(alpha: float) -> float:
        pulse = PulseSpec(alpha, alpha)
        if cutoff == 2:
            return swap_probability(pulse, thermal)[1]
        return swap_probability_full(pulse, thermal, cutoff)[1]

    alphas = np.linspace(float(run.get("alpha_start", 0.0)),
                         float(run.get("alpha_stop", 3.0)),
                         int(run.get("alpha_num", 301)))
    probs = _sweep_map(prob, list(alphas))
    scan = write_csv(out, ["alpha", "probability"], zip(alphas, probs))

    p1 = prob(1.0)
    report.note("lambda", thermal.lambda_symp)
    report.note("beta", thermal.beta)
    report.note("e_minus_beta", thermal.e_minus_beta)
    report.note("p_at_alpha_1", p1)
    summary = write_csv(out_variant(out, "_summary"),
                        ["lambda", "beta", "e_minus_beta", "p_at_alpha_1"],
                        [(thermal.lambda_symp, thermal.beta, thermal.e_minus_beta, p1)])
    return [scan, summary]


def cmd_cloud(doc: dict, out: Path, report: Reporter) -> list[Path]:
    basis = build_basis(doc)
    scenario = build_scenario(doc, basis)
    run = doc.get("run", {})
    scheme_name = run.get("scheme", "bare")
    if scheme_name not in _SCHEMES:
        raise SchemaError(f"unknown dressing scheme {scheme_name!r}")
    scheme = _SCHEMES[scheme_name]
    component = run.get("component", "total")
    if component not in ("total", "up", "down"):
        raise SchemaError(f"run.component must be total/up/down, got {component!r}")

    if "t_values" in run:
        t_values = [float(t) for t in run["t_values"]]
    else:
        w_end = scenario.opening_a.post_ramp().window_end
        t_max = float(run["t_max"]) if "t_max" in run else w_end
        if not np.isfinite(t_max):
            raise SchemaError("run.t_max is required when the opening never closes")
        t_values = list(np.linspace(0.0, t_max, int(run.get("n_times", 26))))

    rows = []
    for t in t_values:
        if component == "total":
            snap = excitation_distribution(basis, scenario, scheme, t)
        else:
            up, down = single_site_distributions(basis, scenario, scheme, t)
            snap = up if component == "up" else down
        rows.extend((t, n, snap.d[n]) for n in range(basis.n_sites))
    report.note("d_max", max(r[2] for r in rows))
    return [write_csv(out, ["t", "n", "d_n"], rows)]


def cmd_oracle_check(doc: dict, out: Path, report: Reporter) -> list[Path]:
    basis = build_basis(doc)
    scenario = build_scenario(doc, basis)
    run = doc.get("run", {})
    epsilons = [float(e) for e in run.get("epsilons", [1e-2, 5e-3, 2.5e-3])]
    if not all(e >= 0 for e in epsilons):
        raise SchemaError("run.epsilons must be >= 0")
    t_max = float(run.get("t_max", 1.5))
    n_times = int(run.get("n_times", 15))
    times = np.linspace(0.0, t_max, n_times + 1)[1:]
    method = run.get("method", "auto")
    cutoff = run.get("cutoff", "auto")
    if cutoff != "auto":
        cutoff = int(cutoff)
        if cutoff < 2:
            raise SchemaError(f"run.cutoff must be >= 2 or 'auto', got {cutoff}")

    residuals, slope = residual_slope(
        basis, scenario, epsilons, times, method=method,
        max_total_phonons=None if cutoff == "auto" else cutoff)
    report.note("fitted_slope", slope)
    return [write_csv(out, ["epsilon", "residual"], zip(epsilons, residuals))]


_COMMANDS = {
    "causality": cmd_causality,
    "bare": cmd_bare,
    "dressed": cmd_dressed,
    "ion2": cmd_ion2,
    "cloud": cmd_cloud,
    "oracle-check": cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fermi-lattice",
        description="Excitation-swap simulations on harmonic chains and ion traps",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--quiet", action="store_true", help="suppress summary output")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = Reporter(args.quiet)
    try:
        doc = load_scenario_file(args.scenario)
        outputs = _COMMANDS[args.command](doc, Path(args.out), report)
    except (NumericalFailureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FermiLatticeError, ValueError, TypeError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    manifest = {
        "tool_version": __version__,
        "command": args.command,
        "scenario_hash": scenario_hash(doc),
        "wall_time_s": round(time.perf_counter() - started, 6),
        "outputs": [p.name for p in outputs],
        "summary": report.summary,
    }
    manifest_path = Path(args.out).with_suffix(".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, default=float) + "\n")
    if not args.quiet:
        for p in outputs:
            print(f"wrote {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
