import concurrent.futures
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from fermi_lattice import causality
from fermi_lattice import (
    ChainParams,
    ModeBasis,
    NumericalFailureError,
    TrapParams,
    anticommutator,
    build_harmonic_chain,
    build_ion_trap,
    causality_trace,
    commutator,
    lightcone_estimate,
    nominal_causal_time,
)


def reduced_chain_sums(basis, separation, taus):
    """Independent oracle: the 1/N trigonometric reductions."""
    n = basis.n_sites
    w = basis.frequencies
    theta = 2 * np.pi * np.arange(n) / n
    arg = np.multiply.outer(taus, w) - (theta * separation)[None, :]
    f_a = np.sum(np.cos(arg) / w, axis=1) / n
    f_c = np.sum(np.sin(arg) / w, axis=1) / n
    return f_a, f_c


def test_chain_matches_reduced_sums(chain100):
    taus = np.linspace(0.0, 1.2, 301)
    trace = causality_trace(chain100, 0, 31, taus)
    f_a, f_c = reduced_chain_sums(chain100, 31, taus)
    np.testing.assert_allclose(trace.f_a, f_a, atol=1e-12)
    np.testing.assert_allclose(trace.f_c, f_c, atol=1e-12)


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_equal_time_commutator_vanishes(n):
    basis = build_harmonic_chain(ChainParams(n))
    for r in range(1, n):
        assert abs(commutator(basis, 0, r, 0.0)) <= 1e-12


def test_anticommutator_same_site_positive(chain100, trap2):
    for basis in (chain100, trap2):
        val = anticommutator(basis, 2 % basis.n_sites, 2 % basis.n_sites, 0.0)
        expect = float(np.sum(2 * np.abs(basis.row(2 % basis.n_sites)) ** 2))
        assert val == pytest.approx(expect, rel=1e-14)
        assert val > 0


def test_chain_parity(chain100):
    taus = np.linspace(-1.0, 1.0, 401)
    trace = causality_trace(chain100, 0, 31, taus)
    assert np.max(np.abs(trace.f_a - trace.f_a[::-1])) <= 1e-12
    assert np.max(np.abs(trace.f_c + trace.f_c[::-1])) <= 1e-12


def test_two_ion_closed_form(trap2):
    # F_c = [sin(w0 tau)/w0 - sin(w1 tau)/w1] / 2 straight from the two-ion
    # mode matrix; same closed form holds for F_a with cosines
    w0, w1 = trap2.frequencies
    taus = np.linspace(0.0, 4.0, 101)
    f_c = commutator(trap2, 0, 1, taus)
    f_a = anticommutator(trap2, 0, 1, taus)
    np.testing.assert_allclose(f_c, (np.sin(w0 * taus) / w0 - np.sin(w1 * taus) / w1) / 2,
                               atol=1e-14)
    np.testing.assert_allclose(f_a, (np.cos(w0 * taus) / w0 - np.cos(w1 * taus) / w1) / 2,
                               atol=1e-14)


def test_lightcone_rise_time(chain1000):
    est = lightcone_estimate(chain1000, 0, 300, 0.6)
    assert 0.27 <= est.rise_time <= 0.33
    assert est.nominal_causal_time == pytest.approx(0.3)
    # the rise is a forward difference, so it needs two taus
    for taus in ([], [0.3]):
        with pytest.raises(ValueError, match="at least two taus"):
            causality.rise_estimate(chain1000, causality_trace(chain1000, 0, 300, taus))


def test_lightcone_sharpens_with_system_size(chain1000, chain100):
    big = lightcone_estimate(chain1000, 0, 300, 0.6)
    small = lightcone_estimate(chain100, 0, 30, 0.6)
    assert big.sharpness > small.sharpness


def test_lightcone_grid_autowiden(chain1000):
    # 100 samples cannot resolve omega_max ~ 2000; the scan must widen itself
    est = lightcone_estimate(chain1000, 0, 300, 0.6, n_samples=100)
    assert 0.27 <= est.rise_time <= 0.33


def test_periodic_image_rise(chain1000):
    # propagation the other way around the ring: second rise near (N-R)/N
    taus = np.linspace(0.0, 0.9, 4000)
    f_c = commutator(chain1000, 0, 300, taus)
    slopes = np.diff(f_c) / np.diff(taus)
    second = taus[:-1] > 0.5
    t2 = taus[:-1][second][np.argmax(slopes[second])]
    assert abs(t2 - 0.7) <= 0.07


def test_outside_cone_suppression(chain1000):
    taus = np.linspace(0.0, 0.6, 4000)
    f_c = commutator(chain1000, 0, 300, taus)
    inside = np.max(np.abs(f_c[taus <= 0.24]))
    overall = np.max(np.abs(f_c))
    ratio = inside / overall
    assert ratio <= 0.05
    # regression pin: the suppression is in fact many orders deeper
    assert ratio <= 1e-10


def test_trap_lightcone(trap2):
    est = lightcone_estimate(trap2, 0, 1, 3.0)
    assert est.nominal_causal_time == pytest.approx(1.0 / trap2.frequencies[0])
    assert np.isfinite(est.rise_time)


def test_uncoupled_sites_raise():
    # two sites, each talking to its own mode: F_c identically zero
    freqs = np.array([1.0, 2.0])
    couplings = np.array([[1 / np.sqrt(2), 0], [0, 0.5]], dtype=complex)
    basis = ModeBasis(2, freqs, couplings)
    with pytest.raises(NumericalFailureError, match="no commutator rise"):
        lightcone_estimate(basis, 0, 1, 1.0)


def test_trace_validates_grid(chain100):
    with pytest.raises(ValueError):
        causality_trace(chain100, 0, 3, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(IndexError):
        commutator(chain100, 0, 100, 0.1)


def test_lightcone_parameter_validation(chain100):
    with pytest.raises(ValueError):
        lightcone_estimate(chain100, 0, 31, -1.0)
    with pytest.raises(ValueError):
        lightcone_estimate(chain100, 0, 31, 1.0, n_samples=10)


def mp_mode_sum(basis, site_a, site_b, taus):
    """sum_k mu_k e^{i w_k tau} of the double mu_k, w_k and taus in 30 digits,
    with mu summed per distinct frequency first (exactly, at that precision)."""
    mu = basis.row(site_a) * np.conj(basis.row(site_b))
    with mpmath.workdps(30):
        folded = [mpmath.mpc(0)] * basis.distinct_frequencies.size
        for d, value in zip(basis._index, mu):
            folded[d] += mpmath.mpc(value.real, value.imag)
        w = [mpmath.mpf(x) for x in basis.distinct_frequencies]
        return np.array([complex(mpmath.fsum(m * mpmath.expj(x * mpmath.mpf(t))
                                             for m, x in zip(folded, w))) for t in taus])


@pytest.mark.parametrize("kind, n, n_taus", [("chain", 2000, 1001), ("chain", 500, 1049),
                                             ("chain", 100, 5243), ("chain", 3, 10),
                                             ("trap", 5, 777), ("uneven", 300, 500)])
def test_mode_sum_is_within_32_ulp_of_mpmath(kind, n, n_taus):
    # the factored sum against the 30-digit one at 40 of the taus, in units of
    # u sum_k |mu_k|: 1.1-7.9 here, where exp(1j tau x w) @ mu reads 1.1-6.5
    if kind == "trap":
        basis, taus = build_ion_trap(TrapParams(n)), np.linspace(0.0, 4.0, n_taus)
    else:
        basis, taus = build_harmonic_chain(ChainParams(n)), np.linspace(0.0, 0.6, n_taus)
    if kind == "uneven":
        taus = np.sort(np.random.default_rng(1).uniform(0.0, 0.6, n_taus))
    m = causality._block_length(taus, basis.distinct_frequencies.size)
    # blocks of ceil(sqrt(n)) taus on a uniform grid, the last one partial;
    # one tau per row on an uneven grid
    assert m == (1 if kind == "uneven" else math.isqrt(n_taus - 1) + 1)
    assert kind == "uneven" or n_taus % m != 0
    site_b = n // 3 if kind != "trap" else 3
    got = causality._mode_sum(basis, 0, site_b, taus)
    pick = np.unique(np.linspace(0, n_taus - 1, 40).astype(int))
    scale = np.sum(np.abs(basis.row(0) * basis.row(site_b)))
    err = np.max(np.abs(got[pick] - mp_mode_sum(basis, 0, site_b, taus[pick])))
    assert err <= 32 * 2.0**-53 * scale


def test_million_site_trace_stays_under_a_gigabyte():
    tracemalloc.start()
    try:
        started = time.perf_counter()
        basis = build_harmonic_chain(ChainParams(10**6))
        trace = causality_trace(basis, 0, 300_000, np.linspace(0.0, 0.6, 16))
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"N = 10^6, 16 taus: {elapsed:.2f} s, traced peak {peak / 1e6:.0f} MB")
    assert peak < 1e9
    assert np.all(np.isfinite(trace.f_c))


@pytest.mark.parametrize("n", [2, 3, 7, 100, 1001])
def test_site_array_is_one_synthesize_matching_the_per_site_loop(n):
    basis = build_harmonic_chain(ChainParams(n))
    sites = np.arange(1, n)
    for fn in (commutator, anticommutator):
        loop = np.array([fn(basis, 0, int(b), 0.31) for b in sites])
        fast = fn(basis, 0, sites, 0.31)
        assert fast.shape == sites.shape
        # the synthesize tolerance of tests/test_modes.py
        assert np.max(np.abs(fast - loop)) <= 1e-13 * np.max(np.abs(loop))


def test_site_array_on_a_dense_basis_and_its_checks():
    basis = build_ion_trap(TrapParams(5))
    sites = np.array([1, 4, 2])
    loop = [commutator(basis, 3, int(b), 0.7) for b in sites]
    np.testing.assert_allclose(commutator(basis, 3, sites, 0.7), loop, rtol=1e-13, atol=0)
    with pytest.raises(ValueError, match="single tau"):
        commutator(basis, 3, sites, [0.1, 0.2])
    with pytest.raises(IndexError):
        commutator(basis, 3, np.array([1, 5]), 0.7)


@pytest.mark.parametrize("name", ["causality_trace", "bare_amplitude", "dressed_amplitude",
                                  "dressed_amplitude_schemes"])
def test_mode_sums_give_the_same_bytes_on_one_or_three_threads(chain1000, monkeypatch, name):
    from fermi_lattice import DressingScheme, OpeningFunction, Scenario
    from fermi_lattice.amplitude import bare_amplitude
    from fermi_lattice.dressing import dressed_amplitude

    sc = Scenario.symmetric(0, 300, 2.0, 1.0, OpeningFunction.cos_sq_window(0.1), 0.1)
    times = np.linspace(0.0, 0.1, 131)
    run = {
        "causality_trace": lambda: causality_trace(chain1000, 0, 300,
                                                   np.linspace(0.0, 0.6, 2001)).f_c,
        "bare_amplitude": lambda: bare_amplitude(chain1000, sc, times).total,
        "dressed_amplitude": lambda: dressed_amplitude(chain1000, sc, DressingScheme.SIGMA_X,
                                                       times).total,
        "dressed_amplitude_schemes": lambda: np.concatenate(
            [tr.total for tr in dressed_amplitude(chain1000, sc, list(DressingScheme), times)]),
    }[name]
    # 2 blocks of the trace, 3 of the bare amplitude and 4 of the sigma_x
    # ones, whatever the worker count: one worker sums the amplitudes'
    # blocks in the calling thread, three share them
    results = []
    for workers in (1, 3):
        monkeypatch.setattr(causality, "WORKERS", workers)
        results.append(run().tobytes())
    assert results[0] == results[1]


def test_mode_sum_runs_its_blocks_on_one_worker(chain1000, monkeypatch):
    # 2001 taus on 1000 sites: 45 base taus x 501 distinct frequencies in 2
    # blocks, summed in the calling thread whatever the worker count
    seen = []
    pool = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda **kwargs: seen.append(kwargs) or pool(**kwargs))
    taus = np.linspace(0.0, 0.6, 2001)
    results = []
    for workers in (1, 3):
        monkeypatch.setattr(causality, "WORKERS", workers)
        trace = causality_trace(chain1000, 0, 333, taus)
        results.append(trace.f_a.tobytes() + trace.f_c.tobytes())
    assert results[0] == results[1]
    assert seen == []
