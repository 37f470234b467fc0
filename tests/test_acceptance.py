"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured values.  Run with `pytest -s` to see every
line; failures carry the same detail in the assertion message.

Criterion 7 asserts the documented O(eps^3) remainder bound at the order
that phonon parity leaves.  The coupling enters this model only through
single-phonon vertices, so the phonon-parity operator P = (-1)^N maps
H(eps) to H(-eps); the initial and final swap states hold no phonons, so
the swap amplitude is even in epsilon and its eps^3 term vanishes.  The
remainder after the second-order amplitude is therefore O(eps^4), inside
the stated bound, and the test requires strictly decreasing residuals with
a fitted log-log slope in [3.7, 4.3].
"""

import json
import pathlib
import time

import numpy as np

from fermi_lattice import (
    ChainParams,
    DressingScheme,
    OpeningFunction,
    PulseSpec,
    Scenario,
    TrapParams,
    bare_amplitude,
    build_harmonic_chain,
    build_ion_trap,
    cli,
    commutator,
    dressed_amplitude,
    excitation_distribution,
    g_min,
    lightcone_estimate,
    residual_slope,
    single_site_distributions,
    static_dressing_amplitude,
    swap_probability,
    symplectic_temperature,
    windowed_amplitude,
)

from conftest import dense_couplings

_FIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "figures"
FIGURES = [(json.loads(p.read_text()), p.name)
           for p in sorted(_FIG_DIR.glob("*.json"))]


def report(number, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    line = (f"[{status}] criterion {number}: {name} -- {detail} "
            f"({elapsed:.2f}s, limit {limit:.0f}s)")
    print(line)
    assert ok and elapsed < limit, line


def timed():
    return time.perf_counter()


def test_criterion_01_two_ion_constants():
    t0 = timed()
    thermal = symplectic_temperature(1.0, np.sqrt(3.0))
    _, p1 = swap_probability(PulseSpec(1.0, 1.0), thermal)
    elapsed = timed() - t0
    ok = (abs(thermal.lambda_symp - 0.5190) <= 2e-4
          and abs(thermal.e_minus_beta - 0.1364) <= 2e-4
          and abs(p1 - 0.01008) <= 2e-4)
    report(1, "two-ion constants", ok,
           f"lambda={thermal.lambda_symp:.6f} e^-beta={thermal.e_minus_beta:.6f} "
           f"P(1)={p1:.7f}", elapsed, 1.0)


def test_criterion_02_two_ion_mode_ratio():
    t0 = timed()
    basis = build_ion_trap(TrapParams(2))
    ratio = basis.frequencies[1] / basis.frequencies[0]
    elapsed = timed() - t0
    ok = abs(ratio - np.sqrt(3.0)) <= 1e-10
    report(2, "two-ion mode ratio", ok,
           f"omega1/omega0 - sqrt(3) = {ratio - np.sqrt(3.0):.2e}", elapsed, 1.0)


def test_criterion_03_light_cone():
    t0 = timed()
    big = lightcone_estimate(build_harmonic_chain(ChainParams(1000)), 0, 300, 0.6)
    small = lightcone_estimate(build_harmonic_chain(ChainParams(100)), 0, 30, 0.6)
    elapsed = timed() - t0
    ok = 0.27 <= big.rise_time <= 0.33 and big.sharpness > small.sharpness
    report(3, "light cone", ok,
           f"rise={big.rise_time:.4f} sharpness(N=1000)={big.sharpness:.3g} "
           f"> sharpness(N=100)={small.sharpness:.3g}", elapsed, 10.0)


def test_criterion_04_equal_time_commutator():
    t0 = timed()
    worst = 0.0
    for n in (10, 100, 1000):
        basis = build_harmonic_chain(ChainParams(n))
        for r in range(1, n):
            worst = max(worst, abs(commutator(basis, 0, r, 0.0)))
    elapsed = timed() - t0
    report(4, "equal-time commutator", worst <= 1e-12,
           f"max |F_c(0, R)| = {worst:.2e}", elapsed, 10.0)


def test_criterion_05_canonical_normalization():
    t0 = timed()
    worst = 0.0
    for n in (4, 100, 1000):
        basis = build_harmonic_chain(ChainParams(n))
        norms = 2.0 * np.abs(dense_couplings(basis)) ** 2 @ basis.frequencies
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    for n in (2, 3, 5):
        basis = build_ion_trap(TrapParams(n))
        norms = 2.0 * np.abs(dense_couplings(basis)) ** 2 @ basis.frequencies
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    elapsed = timed() - t0
    report(5, "canonical normalization", worst <= 1e-10,
           f"max deviation = {worst:.2e}", elapsed, 5.0)


def test_criterion_06_outside_cone_suppression():
    t0 = timed()
    basis = build_harmonic_chain(ChainParams(100))
    scenario = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1)
    ratio = windowed_amplitude(basis, scenario).commutator_ratio()
    elapsed = timed() - t0
    report(6, "outside-cone suppression", ratio < 0.05,
           f"max|A_c|/max|A_0| = {ratio:.3e}", elapsed, 30.0)


def test_criterion_07_oracle_equivalence():
    t0 = timed()
    basis = build_harmonic_chain(ChainParams(3))
    scenario = Scenario.symmetric(0, 1, 2.0, 1e-2, OpeningFunction.constant(), 1.5)
    residuals, slope = residual_slope(
        basis, scenario, [1e-2, 5e-3, 2.5e-3], np.linspace(0.1, 1.5, 15))
    elapsed = timed() - t0
    decreasing = bool(np.all(np.diff(residuals) < 0))
    report(7, "oracle equivalence (O(eps^3) remainder bound, eps^3 term zero by "
           "phonon parity)", decreasing and 3.7 <= slope <= 4.3,
           f"fitted slope = {slope:.3f} (window [3.7, 4.3]), residuals = "
           + "/".join(f"{r:.2e}" for r in residuals)
           + f", strictly decreasing: {decreasing}",
           elapsed, 300.0)


def test_criterion_08_dressing_scheme_ordering():
    t0 = timed()
    basis = build_harmonic_chain(ChainParams(100))
    scenario = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.cos_sq_window(0.1), 0.1)
    times = np.linspace(0.0, 0.1, 101)
    p1 = dressed_amplitude(basis, scenario, DressingScheme.SIGMA_X, times).probability
    p2 = dressed_amplitude(basis, scenario, DressingScheme.SIGMA_PLUS, times).probability
    ratio = p1[-1] / p2[-1]
    flatness = float(p1.max() / p1.min())
    elapsed = timed() - t0
    ok = 100.0 / 3.0 <= ratio <= 100.0 * 3.0 and flatness <= 1.25
    report(8, "dressing-scheme ordering", ok,
           f"P1(T)/P2(T) = {ratio:.1f}, max/min P1 = {flatness:.4f}", elapsed, 60.0)


def test_criterion_09_bare_scheme_identity():
    t0 = timed()
    basis = build_harmonic_chain(ChainParams(100))
    scenario = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1)
    times = np.linspace(0.0, 0.1, 201)
    dressed = dressed_amplitude(basis, scenario, DressingScheme.BARE, times).total
    bare = bare_amplitude(basis, scenario, times).total
    worst = float(np.max(np.abs(dressed - bare)))
    elapsed = timed() - t0
    report(9, "bare-scheme identity", worst <= 1e-10,
           f"max |A_dressed(0,0) - A_bare| = {worst:.2e}", elapsed, 60.0)


def test_criterion_10_static_dressing():
    t0 = timed()
    chain = build_harmonic_chain(ChainParams(1000))
    g_values = np.array([static_dressing_amplitude(chain, 2.0, 0, r) for r in range(1, 501)])
    # the array form, one synthesis over the ring, as g_scan computes it
    g_array = static_dressing_amplitude(chain, 2.0, 0, np.arange(1, 501))
    g_monotone = bool(np.all(np.diff(g_values) < 0) and np.all(np.diff(g_array) < 0))
    ns = np.arange(10, 201, 2)
    gmin_values = g_min(ns, 2.0)
    gmin_monotone = bool(np.all(np.diff(gmin_values) < 0))
    elapsed = timed() - t0
    report(10, "static dressing", g_monotone and gmin_monotone,
           f"G decreasing on [1,500]: {g_monotone}, "
           f"G_min decreasing on even [10,200]: {gmin_monotone}", elapsed, 30.0)


def test_criterion_11_phonon_cloud():
    t0 = timed()
    basis = build_harmonic_chain(ChainParams(100))
    scenario = Scenario.symmetric(50, 0, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1)
    zero = excitation_distribution(basis, scenario, DressingScheme.BARE, 0.0)
    min_value = 0.0
    additivity = 0.0
    times = [0.0, 0.05, 0.1]
    for scheme in DressingScheme:
        total = excitation_distribution(basis, scenario, scheme, times)
        up, down = single_site_distributions(basis, scenario, scheme, times)
        min_value = min(min_value, float(total.min()))
        additivity = max(additivity, float(np.max(np.abs(up + down - total))))
    elapsed = timed() - t0
    ok = (np.max(np.abs(zero)) <= 1e-14 and min_value >= -1e-14 and additivity <= 1e-12)
    report(11, "phonon cloud", ok,
           f"max D(0) = {np.max(np.abs(zero)):.1e}, min D = {min_value:.1e}, "
           f"additivity gap = {additivity:.1e}", elapsed, 30.0)


def test_criterion_12_figure_determinism(tmp_path):
    t0 = timed()
    mismatches = []
    for doc, name in FIGURES:
        command = {"fig1": "causality", "fig2": "causality", "fig3": "bare",
                   "fig4": "bare", "fig5": "dressed", "fig6": "dressed",
                   "fig7": "dressed", "figB": "cloud", "ion2": "ion2",
                   "orac": "oracle-check"}[name[:4]]
        scen = tmp_path / name
        scen.write_text(json.dumps(doc))
        outs = []
        for tag in ("a", "b"):
            outdir = tmp_path / f"{name}.{tag}"
            outdir.mkdir()
            out = outdir / "out.csv"
            code = cli.main([command, "--scenario", str(scen), "--out", str(out), "--quiet"])
            assert code == 0, f"{name} exited {code}"
            outs.append(sorted(p for p in outdir.glob("*.csv")))
        for pa, pb in zip(*outs):
            if pa.read_bytes() != pb.read_bytes():
                mismatches.append(f"{name}:{pa.name}")
    elapsed = timed() - t0
    report(12, "figure-config determinism", not mismatches,
           f"{len(FIGURES)} configs run twice, mismatches: {mismatches or 'none'}",
           elapsed, 600.0)
