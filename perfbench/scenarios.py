"""Seeded input generation and the operations of each workload.

Every workload is a closed loop with one client in one process: a pass
runs its operations one after another, each operation waiting for the
previous one.  The seed picks site pairs, separation fractions, the cloud
source site and epsilon values; it never changes the work size (mode
counts, grid sizes, phonon cutoffs, time steps).  The program only ever
sees the scenario files written here.

Why these workloads:

* ``figures`` -- the 12 committed figure configs, what users run to
  reproduce the paper.  At K = 100 modes the kernel data stays in cache
  and the quadrature kernels dominate.  The seed only permutes the order.
* ``continuum`` -- large-N chains toward the continuum limit the paper's
  light-cone argument points to: dense mode-basis builds, the causality
  mode sum on a widened grid, the kernel beyond cache, a 52k-row CSV and
  an O(K^2) dressed-state expansion.
* ``oracle`` -- the exact truncated-Fock path that referees the
  perturbative results, with no quadrature and no large bases: Fock
  enumeration, Hamiltonian assembly, fixed-step RK4 and the static
  eigendecomposition, so a gain for one propagator that costs the other
  shows up.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from fermi_lattice import dressing, modes, openings, oracle

WORKLOADS = ("figures", "continuum", "oracle")

FIGURES_DIR = Path(__file__).resolve().parent / "inputs" / "figures"

FIGURE_COMMANDS = {
    "fig1": "causality",
    "fig1_rscan": "causality",
    "fig2": "causality",
    "fig3": "bare",
    "fig4": "bare",
    "fig5": "dressed",
    "fig5_gmin": "dressed",
    "fig6": "dressed",
    "fig7": "dressed",
    "figB1": "cloud",
    "ion2": "ion2",
    "oracle_check": "oracle-check",
}

# The self-test runs these cheap configs in place of all twelve.
TINY_FIGURES = ("fig2", "fig3", "fig5_gmin", "ion2")


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command or a library call on one scenario file."""

    name: str
    command: str  # CLI sub-command, or a key of LIBRARY_CALLS
    scenario: Path
    out: Path

    @property
    def is_cli(self) -> bool:
        return self.command not in LIBRARY_CALLS

    def input_hash(self) -> str:
        return hashlib.sha256(self.scenario.read_bytes()).hexdigest()[:16]

    def argv(self) -> list[str]:
        return [self.command, "--scenario", str(self.scenario), "--out", str(self.out), "--quiet"]


def _chain(n: int) -> dict:
    return {"kind": "chain", "chain": {"n_sites": n, "length": 1.0, "pinning": 1.0, "speed": 1.0}}


def _pair(rng: random.Random, n: int) -> tuple[int, int]:
    a = rng.randrange(n)
    return a, (a + 1 + rng.randrange(n - 1)) % n


def _eps(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _figures(rng: random.Random, tiny: bool) -> list[tuple[str, str, dict]]:
    names = sorted(TINY_FIGURES if tiny else FIGURE_COMMANDS)
    rng.shuffle(names)
    return [(name, FIGURE_COMMANDS[name], json.loads((FIGURES_DIR / f"{name}.json").read_text()))
            for name in names]


def _continuum(rng: random.Random, tiny: bool) -> list[tuple[str, str, dict]]:
    sweep = [40, 60, 80] if tiny else [500, 1000, 2000]
    gmin_ns = list(range(10, 50, 10)) if tiny else list(range(100, 2001, 100))
    n_cloud, n_bare, n_dressed = (60, 50, 20) if tiny else (2000, 1000, 300)

    frac = round(rng.uniform(0.2, 0.4), 4)
    source = rng.randrange(n_cloud)
    bare_a = rng.randrange(n_bare)
    # separations keep the 0.1 window inside x/c, so no causality warning fires
    bare_b = (bare_a + rng.randrange(int(0.25 * n_bare), int(0.35 * n_bare) + 1)) % n_bare
    dressed_a, dressed_b = _pair(rng, n_dressed)
    window = {"variant": "sin_sq_window", "window": 0.1}
    return [
        ("causality_sweep", "causality", {
            "system": _chain(max(sweep)),
            "scenario": {"site_a": 0, "site_b": 1},
            "run": {"mode": "tau_scan", "n_values": sweep, "separation_fraction": frac,
                    "tau_max": 0.6, "n_samples": 200 if tiny else 2000},
        }),
        ("gmin_scan", "dressed", {
            "system": _chain(gmin_ns[0]),
            "scenario": {"site_a": 0, "site_b": 1, "omega": 2.0},
            "run": {"mode": "gmin_scan", "n_values": gmin_ns},
        }),
        ("sigma_x_cloud", "cloud", {
            "system": _chain(n_cloud),
            "scenario": {"site_a": source, "site_b": (source + n_cloud // 2) % n_cloud,
                         "omega": 2.0, "epsilon": _eps(rng, 0.5, 1.5),
                         "opening": window, "duration": 0.1},
            "run": {"scheme": "sigma_x", "component": "total", "n_times": 26},
        }),
        ("windowed_bare", "bare", {
            "system": _chain(n_bare),
            "scenario": {"site_a": bare_a, "site_b": bare_b, "omega": 2.0,
                         "epsilon": _eps(rng, 0.5, 1.5), "opening": window, "duration": 0.1},
            "run": {"n_times": 21 if tiny else 201},
        }),
        ("dressed_ground_state", "dressed_ground_state", {
            "system": _chain(n_dressed),
            "scenario": {"site_a": dressed_a, "site_b": dressed_b, "omega": 2.0,
                         "epsilon": _eps(rng, 0.5, 1.5)},
        }),
    ]


def _oracle(rng: random.Random, tiny: bool) -> list[tuple[str, str, dict]]:
    n_adiabatic, n_eigh, n_rk4, n_fock = (2, 3, 3, 4) if tiny else (3, 6, 4, 8)
    cutoff = 2 if tiny else 4
    a_adiabatic = _pair(rng, n_adiabatic)
    a_eigh = _pair(rng, n_eigh)
    a_rk4 = _pair(rng, n_rk4)
    a_fock = _pair(rng, n_fock)
    e_eigh = _eps(rng, 0.005, 0.02)
    e_rk4 = _eps(rng, 0.01, 0.04)
    return [
        ("adiabatic_dressing", "adiabatic_dressing_check", {
            "system": _chain(n_adiabatic),
            "scenario": {"site_a": a_adiabatic[0], "site_b": a_adiabatic[1], "omega": 2.0,
                         "epsilon": _eps(rng, 0.01, 0.1)},
            # a fixed dt keeps the RK4 step count independent of epsilon
            "run": {"ramp_tau": 1.0 if tiny else 5.0, "cutoff": cutoff, "dt": 0.0025},
        }),
        ("oracle_check_eigh", "oracle-check", {
            "system": _chain(n_eigh),
            "scenario": {"site_a": a_eigh[0], "site_b": a_eigh[1], "omega": 2.0,
                         "epsilon": e_eigh, "opening": {"variant": "constant"},
                         "duration": 1.5},
            "run": {"epsilons": [e_eigh, e_eigh / 2, e_eigh / 4], "t_max": 1.5,
                    "n_times": 15, "method": "auto", "cutoff": cutoff},
        }),
        ("oracle_check_rk4", "oracle-check", {
            "system": _chain(n_rk4),
            "scenario": {"site_a": a_rk4[0], "site_b": a_rk4[1], "omega": 2.0,
                         "epsilon": e_rk4,
                         "opening": {"variant": "sin_sq_window", "window": 1.0},
                         "duration": 1.0},
            "run": {"epsilons": [e_rk4, e_rk4 / 2, e_rk4 / 4], "t_max": 1.0,
                    "n_times": 15, "method": "auto", "cutoff": "auto"},
        }),
        ("fock_hamiltonian", "fock_hamiltonian", {
            "system": _chain(n_fock),
            "scenario": {"site_a": a_fock[0], "site_b": a_fock[1], "omega": 2.0,
                         "epsilon": _eps(rng, 0.01, 0.1)},
            "run": {"cutoff": 2 if tiny else 4},
        }),
    ]


_GENERATORS = {"figures": _figures, "continuum": _continuum, "oracle": _oracle}


def generate(workload: str, seed: int, work: Path, tiny: bool = False) -> list[Op]:
    """Write the scenario files of one workload under ``work`` and return
    its operations in pass order.  The same seed writes the same bytes."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
    rng = random.Random(f"fermi-lattice-bench/{workload}/{seed}")
    inputs, outputs = work / "inputs", work / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, command, doc in _GENERATORS[workload](rng, tiny):
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        ops.append(Op(name, command, path, outputs / f"{name}.csv"))
    return ops


# ---------------------------------------------------------------------------
# library operations: each reads its scenario file, calls the public API
# through the module attribute the traced run wraps, and returns the raw
# result; the matching reducer turns it into named float arrays afterwards,
# outside the timed region.
# ---------------------------------------------------------------------------

def _basis_and_scenario(doc: dict):
    basis = modes.build_harmonic_chain(modes.ChainParams(doc["system"]["chain"]["n_sites"]))
    sc = doc["scenario"]
    scenario = modes.Scenario.symmetric(
        sc["site_a"], sc["site_b"], sc["omega"], sc["epsilon"],
        openings.OpeningFunction.constant(), 1.0)
    return basis, scenario


def _dressed_ground_state(doc: dict):
    basis, scenario = _basis_and_scenario(doc)
    return dressing.dressed_ground_state(basis, scenario)


def _adiabatic_dressing_check(doc: dict):
    basis, scenario = _basis_and_scenario(doc)
    run = doc["run"]
    return oracle.adiabatic_dressing_check(basis, scenario, run["ramp_tau"], run["cutoff"],
                                           dt=run["dt"])


def _fock_hamiltonian(doc: dict):
    basis, scenario = _basis_and_scenario(doc)
    fock = oracle.FockSpace.build(basis.n_modes, doc["run"]["cutoff"])
    return oracle.build_hamiltonian(basis, scenario, fock)


def _reduce_expansion(expansion) -> dict[str, np.ndarray]:
    """Per (order, spins) group: term count, coefficient sum, squared norm
    and a sum weighted by a phase of each term's phonon content.  None of
    them depends on the order in which the terms are stored."""
    spins = {p: i for i, p in enumerate(dressing.SpinPattern)}
    groups: dict[tuple[int, int], list] = {}
    for term in expansion.terms:
        g = groups.setdefault((term.order, spins[term.spins]), [0, 0j, 0.0, 0j])
        g[0] += 1
        g[1] += term.coeff
        g[2] += abs(term.coeff) ** 2
        g[3] += term.coeff * cmath.exp(0.618j * sum((k + 1) * c for k, c in term.phonons))
    table = np.array([[o, s, n, c.real, c.imag, q, w.real, w.imag]
                      for (o, s), (n, c, q, w) in sorted(groups.items())])
    return {"groups": table}


def _reduce_adiabatic(report) -> dict[str, np.ndarray]:
    return {"report": np.array([[report.overlap, report.norm_drift]])}


def _reduce_hamiltonian(action) -> dict[str, np.ndarray]:
    """Quantities unchanged by a relabelling of the basis states: the
    sorted H0 diagonal, the sorted per-state coupling weights
    sum_j |W_ij|^2 H0_j, and tr(W_A^dagger W_B)."""
    h0 = np.asarray(action.h0_diag, dtype=float)
    w_a, w_b = sp.csr_matrix(action.w_a), sp.csr_matrix(action.w_b)

    def weights(w):
        return np.sort(np.asarray(abs(w).power(2) @ h0).ravel())[:, None]

    cross = complex(w_a.conj().multiply(w_b).sum())
    return {
        "h0": np.sort(h0)[:, None],
        "wa_weights": weights(w_a),
        "wb_weights": weights(w_b),
        "cross": np.array([[cross.real, cross.imag]]),
        "dims": np.array([[action.dimension, len(action.fock.occupations)]], dtype=float),
    }


LIBRARY_CALLS = {
    "dressed_ground_state": (_dressed_ground_state, _reduce_expansion),
    "adiabatic_dressing_check": (_adiabatic_dressing_check, _reduce_adiabatic),
    "fock_hamiltonian": (_fock_hamiltonian, _reduce_hamiltonian),
}
