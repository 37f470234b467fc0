"""Traced runs: span wrappers around the public functions of each module,
self-time attribution and the per-layer counts.

Wrappers are installed under the names each consumer module looks up
(``fermi_lattice.cli.build_harmonic_chain``,
``fermi_lattice.amplitude.opening_nested_integral``,
``fermi_lattice.oracle.evolve``, ``FockSpace.build`` ...) and removed
again after the traced passes.  Spans stay in memory until the run ends.

Self time is wall-clock share: at every instant the innermost open spans
(spans with no open child, across threads) split the elapsed time
equally.  A worker thread's span with no parent on its own thread is a
child of the main thread's innermost span, which is blocked waiting for
the sweep.  So the self times of all spans plus an explicit "unattributed"
remainder add up to the traced wall time, also when sweep threads run
in parallel.  Counts marked computed below are derived from call
arguments, not measured.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts", "self_s",
                 "depth", "open_children", "active")

    def __init__(self, name: str, parent: "Span | None", start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.counts: dict | None = None
        self.self_s = 0.0
        self.depth = parent.depth + 1 if parent is not None else 0
        self.open_children = 0
        self.active = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent, time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def attribute_self_time(spans: list[Span]) -> None:
    """Fill span.self_s with each span's share of the wall time."""
    events = []
    for s in spans:
        s.self_s = 0.0
        s.open_children = 0
        s.active = False
        events.append((s.start, 1, s.depth, s))
        events.append((s.end, 0, -s.depth, s))
    # at equal times: ends before starts, children end before parents,
    # parents start before children
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    leaves: set[Span] = set()
    last = None
    for t, is_start, _, s in events:
        if leaves and last is not None and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                leaf.self_s += share
        last = t
        p = s.parent
        if is_start:
            if p is not None and p.active:
                if p.open_children == 0:
                    leaves.discard(p)
                p.open_children += 1
            s.active = True
            leaves.add(s)
        else:
            s.active = False
            leaves.discard(s)
            if p is not None and p.active:
                p.open_children -= 1
                if p.open_children == 0:
                    leaves.add(p)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _n_components(opening, method) -> int:
    comps = opening.exp_components() if method != "quad" else None
    return len(comps) if comps else 1


def _count_basis(args, kwargs, basis):
    return {"bases": 1, "coupling_bytes": basis.n_sites * basis.n_modes * 16}


def _count_phase(args, kwargs, result):
    opening, phi, t = _arg(args, kwargs, 0, "opening"), _arg(args, kwargs, 1, "phi"), \
        _arg(args, kwargs, 2, "t")
    method = _arg(args, kwargs, 3, "method", "auto")
    return {"calls": 1,
            "elements": np.size(t) * np.size(phi) * _n_components(opening, method)}


def _count_nested(args, kwargs, result):
    op1, phi1 = _arg(args, kwargs, 0, "opening_outer"), _arg(args, kwargs, 1, "phi_outer")
    op2, t = _arg(args, kwargs, 2, "opening_inner"), _arg(args, kwargs, 4, "t")
    method = _arg(args, kwargs, 5, "method", "auto")
    return {"calls": 1, "elements": np.size(t) * np.size(phi1)
            * _n_components(op1, method) * _n_components(op2, method)}


def _count_mode_sum(args, kwargs, result):
    basis, taus = _arg(args, kwargs, 0, "basis"), _arg(args, kwargs, 3, "taus")
    if taus is None:
        taus = kwargs.get("tau")
    return {"elements": np.size(taus) * basis.n_modes}


def _count_lightcone(args, kwargs, result):
    from fermi_lattice import causality

    basis, tau_max = _arg(args, kwargs, 0, "basis"), _arg(args, kwargs, 3, "tau_max")
    requested = _arg(args, kwargs, 4, "n_samples", causality.DEFAULT_SAMPLES)
    w_max = float(np.max(basis.frequencies))
    needed = int(np.ceil(tau_max * causality.SAMPLES_PER_PERIOD * w_max / (2.0 * np.pi))) + 1
    widened = max(requested, needed)
    return {"elements": widened * basis.n_modes,
            "samples_requested": requested, "samples_widened": widened}


def _count_expansion(args, kwargs, expansion):
    return {"expansion_terms": len(expansion.terms)}


def _count_fock(args, kwargs, fock):
    # args[0] is the class: FockSpace.build is a classmethod
    m, c = _arg(args, kwargs, 1, "n_modes"), _arg(args, kwargs, 2, "max_total_phonons")
    return {"fock_tuples": (c + 1) ** m, "fock_kept": len(fock.occupations)}


def _count_hamiltonian(args, kwargs, action):
    return {"hamiltonian_dim": action.dimension}


def _count_evolve(args, kwargs, result):
    counts = {"norm_drift": float(result.norm_drift)}
    dt = _arg(args, kwargs, 3, "dt")
    if dt is not None:
        times = np.asarray(_arg(args, kwargs, 2, "times"), dtype=float)
        counts["rk4_steps"] = sum(max(1, math.ceil((t1 - t0) / dt))
                                  for t0, t1 in zip(times[:-1], times[1:]))
    return counts


def _count_static(args, kwargs, result):
    return {"norm_drift": float(result.norm_drift)}


def _count_csv(args, kwargs, path):
    return {"csv_path": str(path)}


# (consumer module, attribute, span name, self-time metric, counter)
WRAPPED = [
    ("cli", "main", "cli.main", "cli.self_s", None),
    ("cli", "load_scenario_file", "cli.load_scenario_file", "cli.parse_s", None),
    ("cli", "build_scenario", "cli.build_scenario", "cli.parse_s", None),
    ("cli", "write_csv", "cli.write_csv", "cli.csv_write_s", _count_csv),
    ("cli", "build_harmonic_chain", "modes.build_harmonic_chain", "modes.build_s", _count_basis),
    ("cli", "build_ion_trap", "modes.build_ion_trap", "modes.build_s", _count_basis),
    ("dressing", "build_harmonic_chain", "modes.build_harmonic_chain", "modes.build_s",
     _count_basis),
    ("modes", "build_harmonic_chain", "modes.build_harmonic_chain", "modes.build_s",
     _count_basis),
    ("cli", "causality_trace", "causality.causality_trace", "causality.self_s",
     _count_mode_sum),
    ("cli", "commutator", "causality.commutator", "causality.self_s", _count_mode_sum),
    ("cli", "lightcone_estimate", "causality.lightcone_estimate", "causality.self_s",
     _count_lightcone),
    ("cli", "bare_amplitude", "amplitude.bare_amplitude", "amplitude.self_s", None),
    ("cli", "windowed_amplitude", "amplitude.windowed_amplitude", "amplitude.self_s", None),
    ("oracle", "bare_amplitude", "amplitude.bare_amplitude", "amplitude.self_s", None),
    ("cli", "excitation_distribution", "cloud.excitation_distribution", "cloud.self_s", None),
    ("cli", "single_site_distributions", "cloud.single_site_distributions", "cloud.self_s",
     None),
    ("cli", "symplectic_temperature", "ion2.symplectic_temperature", "ion2.self_s", None),
    ("cli", "swap_probability", "ion2.swap_probability", "ion2.self_s", None),
    ("cli", "swap_probability_full", "ion2.swap_probability_full", "ion2.self_s", None),
    ("cli", "dressed_amplitude", "dressing.dressed_amplitude", "dressing.self_s", None),
    ("cli", "static_dressing_amplitude", "dressing.static_dressing_amplitude",
     "dressing.self_s", None),
    ("cli", "g_min", "dressing.g_min", "dressing.self_s", None),
    ("dressing", "dressed_ground_state", "dressing.dressed_ground_state", "dressing.self_s",
     _count_expansion),
    ("oracle", "dressed_ground_state", "dressing.dressed_ground_state", "dressing.self_s",
     _count_expansion),
    ("amplitude", "opening_phase_integral", "quadrature.opening_phase_integral",
     "quadrature.self_s", _count_phase),
    ("amplitude", "opening_nested_integral", "quadrature.opening_nested_integral",
     "quadrature.self_s", _count_nested),
    ("dressing", "opening_phase_integral", "quadrature.opening_phase_integral",
     "quadrature.self_s", _count_phase),
    ("dressing", "opening_nested_integral", "quadrature.opening_nested_integral",
     "quadrature.self_s", _count_nested),
    ("cloud", "opening_phase_integral", "quadrature.opening_phase_integral",
     "quadrature.self_s", _count_phase),
    ("ion2", "opening_phase_integral", "quadrature.opening_phase_integral",
     "quadrature.self_s", _count_phase),
    ("cli", "residual_slope", "oracle.residual_slope", "oracle.self_s", None),
    ("oracle", "converged_swap_amplitude", "oracle.converged_swap_amplitude", "oracle.self_s",
     None),
    ("oracle", "exact_swap_amplitude", "oracle.exact_swap_amplitude", "oracle.self_s", None),
    ("oracle", "adiabatic_dressing_check", "oracle.adiabatic_dressing_check", "oracle.self_s",
     None),
    ("oracle", "FockSpace.build", "oracle.FockSpace.build", "oracle.fock_build_s", _count_fock),
    ("oracle", "build_hamiltonian", "oracle.build_hamiltonian", "oracle.hamiltonian_s",
     _count_hamiltonian),
    ("oracle", "evolve", "oracle.evolve", "oracle.rk4_s", _count_evolve),
    ("oracle", "evolve_static", "oracle.evolve_static", "oracle.eigh_s", _count_static),
]

SELF_METRIC = {name: metric for _, _, name, metric, _ in WRAPPED}


def _traced(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result
    return traced


class Installed:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self) -> "Installed":
        for module_name, attr, name, _, counter in WRAPPED:
            owner = importlib.import_module(f"fermi_lattice.{module_name}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(path[-1]) if isinstance(owner, type) else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(_traced(self.tracer, raw.__func__, name, counter))
                original = raw
            elif owner is not None and hasattr(owner, path[-1]):
                original = getattr(owner, path[-1])
                wrapped = _traced(self.tracer, original, name, counter)
            else:
                self.missing.append(f"fermi_lattice.{module_name}.{attr}")
                continue
            setattr(owner, path[-1], wrapped)
            self.restore.append((owner, path[-1], original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

# (metric, unit) in report order
LAYER_METRICS = [
    ("modes.build_s", "s"), ("modes.bases", "count"), ("modes.coupling_mb", "MB"),
    ("quadrature.self_s", "s"), ("quadrature.calls", "count"),
    ("quadrature.elements", "count"), ("quadrature.ns_per_element", "ns"),
    ("causality.self_s", "s"), ("causality.elements", "count"),
    ("causality.grid_widening", "ratio"),
    ("amplitude.self_s", "s"), ("cloud.self_s", "s"), ("ion2.self_s", "s"),
    ("dressing.self_s", "s"), ("dressing.expansion_terms", "count"),
    ("oracle.self_s", "s"), ("oracle.fock_build_s", "s"), ("oracle.fock_tuples", "count"),
    ("oracle.fock_yield", "ratio"), ("oracle.hamiltonian_s", "s"),
    ("oracle.hamiltonian_dim", "count"), ("oracle.rk4_s", "s"), ("oracle.rk4_steps", "count"),
    ("oracle.us_per_step", "us"), ("oracle.eigh_s", "s"), ("oracle.cutoff_attempts", "ratio"),
    ("oracle.norm_drift", "ratio"),
    ("cli.self_s", "s"), ("cli.parse_s", "s"), ("cli.csv_write_s", "s"),
    ("cli.csv_rows", "count"), ("cli.warnings", "count"),
    ("trace.wall_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
]

# counts derived from call arguments alone; they repeat exactly run to run
COMPUTED_COUNTS = (
    "modes.bases", "modes.coupling_mb", "quadrature.calls", "quadrature.elements",
    "causality.elements", "causality.grid_widening", "dressing.expansion_terms",
    "oracle.fock_tuples", "oracle.fock_yield", "oracle.hamiltonian_dim", "oracle.rk4_steps",
    "oracle.cutoff_attempts", "cli.csv_rows", "cli.warnings",
)


def _csv_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return max(0, sum(1 for _ in fh) - 1)


def layer_metrics(spans: list[Span], wall_s: float, n_warnings: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass of wall time wall_s."""
    attribute_self_time(spans)
    m = {name: 0.0 for name, _ in LAYER_METRICS}
    for s in spans:
        m[SELF_METRIC[s.name]] += s.self_s

    def total(key: str, prefix: str = "") -> float:
        return sum(s.counts[key] for s in spans
                   if s.counts and key in s.counts and s.name.startswith(prefix))

    m["modes.bases"] = total("bases")
    m["modes.coupling_mb"] = total("coupling_bytes") / 1e6
    m["quadrature.calls"] = total("calls")
    m["quadrature.elements"] = total("elements", "quadrature.")
    if m["quadrature.elements"]:
        m["quadrature.ns_per_element"] = m["quadrature.self_s"] / m["quadrature.elements"] * 1e9
    m["causality.elements"] = total("elements", "causality.")
    if total("samples_requested"):
        m["causality.grid_widening"] = total("samples_widened") / total("samples_requested")
    m["dressing.expansion_terms"] = total("expansion_terms")

    m["oracle.fock_tuples"] = total("fock_tuples")
    if m["oracle.fock_tuples"]:
        m["oracle.fock_yield"] = total("fock_kept") / m["oracle.fock_tuples"]
    m["oracle.hamiltonian_dim"] = max((s.counts["hamiltonian_dim"] for s in spans
                                       if s.name == "oracle.build_hamiltonian"), default=0)
    m["oracle.rk4_steps"] = total("rk4_steps")
    if m["oracle.rk4_steps"]:
        stepped = sum(s.self_s for s in spans if s.counts and "rk4_steps" in s.counts)
        m["oracle.us_per_step"] = stepped / m["oracle.rk4_steps"] * 1e6
    converged = sum(1 for s in spans if s.name == "oracle.converged_swap_amplitude")
    if converged:
        attempts = sum(1 for s in spans if s.name == "oracle.exact_swap_amplitude"
                       and s.parent is not None
                       and s.parent.name == "oracle.converged_swap_amplitude")
        m["oracle.cutoff_attempts"] = attempts / converged
    m["oracle.norm_drift"] = max((s.counts["norm_drift"] for s in spans
                                  if s.counts and "norm_drift" in s.counts), default=0.0)

    m["cli.csv_rows"] = sum(_csv_rows(s.counts["csv_path"]) for s in spans
                            if s.name == "cli.write_csv")
    m["cli.warnings"] = n_warnings
    m["trace.wall_s"] = wall_s
    attributed = sum(s.self_s for s in spans)
    m["trace.unattributed_s"] = wall_s - attributed
    return {k: float(v) for k, v in m.items()}


def dump(spans: list[Span], path: Path) -> None:
    """Write spans as tab-separated lines: name, parent, start, end, self_s."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart\tend\tself_s\n")
        for i, s in enumerate(spans):
            parent = index.get(id(s.parent), -1) if s.parent is not None else -1
            fh.write(f"{i}\t{parent}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.self_s:.9f}\n")
