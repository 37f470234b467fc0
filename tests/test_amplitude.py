import concurrent.futures
import hashlib
import tracemalloc

import numpy as np
import pytest

from fermi_lattice import causality, quadrature
from fermi_lattice import (
    ChainParams,
    DressingScheme,
    InvalidParametersError,
    OpeningFunction,
    Scenario,
    TrapParams,
    bare_amplitude,
    build_harmonic_chain,
    build_ion_trap,
    dressed_amplitude,
    exact_swap_amplitude,
    windowed_amplitude,
)
from fermi_lattice.quadrature import opening_nested_integral, opening_phase_integral
from test_quadrature import gl_nested_integral, gl_phase_integral


def reference_time_ordered_amplitude(basis, scenario, times):
    """The swap amplitude assembled directly from the two time orderings
    (emission-absorption plus absorption-emission), without the A0/Ac
    split: an independent composition to check bare_amplitude against."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    w = basis.frequencies
    mu = basis.row(scenario.site_a) * np.conj(basis.row(scenario.site_b))
    f_a = scenario.opening_a.post_ramp()
    f_b = scenario.opening_b.post_ramp()
    om_a, om_b = scenario.omega_a, scenario.omega_b

    _, _, n_plus = opening_nested_integral(f_a, -(om_a + w), f_b, +(om_b + w), times)
    _, _, m_minus = opening_nested_integral(f_b, +(om_b - w), f_a, -(om_a - w), times)
    return -scenario.epsilon**2 * np.sum(mu * n_plus + np.conj(mu) * m_minus, axis=-1)


def test_amplitude_zero_at_t0(chain100, fig4_scenario):
    trace = bare_amplitude(chain100, fig4_scenario, [0.0])
    assert trace.total[0] == 0
    assert trace.probability[0] == 0


def test_switched_off_drive_gives_zero(chain100):
    # f_A identically zero: every contribution dies
    sc = Scenario(0, 31, 2.0, 2.0, 1.0,
                  OpeningFunction.sin_sq_window(0.0),
                  OpeningFunction.sin_sq_window(0.1), 0.1)
    trace = bare_amplitude(chain100, sc, np.linspace(0.0, 0.2, 9))
    assert np.all(trace.total == 0)


def test_zero_window_trace(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.sin_sq_window(0.0), 0.0)
    trace = windowed_amplitude(chain100, sc)
    assert np.all(trace.total == 0)


def test_epsilon_scaling_exact(chain100):
    times = np.linspace(0.0, 0.1, 11)
    op = OpeningFunction.sin_sq_window(0.1)
    small = bare_amplitude(chain100, Scenario.symmetric(0, 31, 2.0, 0.5, op, 0.1), times)
    large = bare_amplitude(chain100, Scenario.symmetric(0, 31, 2.0, 1.0, op, 0.1), times)
    assert np.array_equal(large.total, 4.0 * small.total)


def test_decomposition_matches_time_ordered_form(chain100):
    # A0 + Ac against the direct emission-absorption composition
    times = np.linspace(0.0, 1.0, 21)
    for op in (OpeningFunction.constant(),
               OpeningFunction.sin_sq_window(0.1),
               OpeningFunction.cos_sq_window(0.35)):
        sc = Scenario.symmetric(0, 31, 2.0, 1.0, op, 1.0)
        trace = bare_amplitude(chain100, sc, times)
        direct = reference_time_ordered_amplitude(chain100, sc, times)
        assert np.max(np.abs(trace.total - direct)) <= 1e-10


def test_asymmetric_splittings_consistency(chain100):
    times = np.linspace(0.0, 0.4, 9)
    sc = Scenario(0, 31, 2.0, 3.0, 1.0, OpeningFunction.sin_sq_window(0.2),
                  OpeningFunction.cos_sq_window(0.3), 0.3)
    trace = bare_amplitude(chain100, sc, times)
    direct = reference_time_ordered_amplitude(chain100, sc, times)
    assert np.max(np.abs(trace.total - direct)) <= 1e-10


def test_site_swap_preserves_magnitude(chain100):
    times = np.linspace(0.0, 0.8, 17)
    op = OpeningFunction.constant()
    fwd = bare_amplitude(chain100, Scenario.symmetric(5, 40, 2.0, 1.0, op, 0.8), times)
    rev = bare_amplitude(chain100, Scenario.symmetric(40, 5, 2.0, 1.0, op, 0.8), times)
    np.testing.assert_allclose(np.abs(rev.total), np.abs(fwd.total), atol=1e-14)
    # on the translation-invariant chain the swap is an exact symmetry
    np.testing.assert_allclose(rev.total, fwd.total, atol=1e-14)


def test_probability_field(chain100, fig4_scenario):
    trace = windowed_amplitude(chain100, fig4_scenario)
    np.testing.assert_allclose(trace.probability, np.abs(trace.total) ** 2, rtol=0, atol=0)


def test_fig3_regression(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 2.0)
    trace = bare_amplitude(chain100, sc, np.array([0.5, 1.0, 2.0]))
    np.testing.assert_allclose(
        trace.probability,
        [1.1450129505418311e-06, 1.1447634554626269e-05, 5.542439954900698e-05],
        rtol=1e-12,
    )


def test_fig3_oracle_anchor():
    # the same engine against exact evolution at oracle-tractable size
    basis = build_harmonic_chain(ChainParams(3))
    sc = Scenario.symmetric(0, 1, 2.0, 1e-2, OpeningFunction.constant(), 1.5)
    times = np.linspace(0.1, 1.5, 8)
    pert = bare_amplitude(basis, sc, times).total
    exact = exact_swap_amplitude(basis, sc, times, 4)
    assert np.max(np.abs(pert - exact)) <= 1e-4 * np.max(np.abs(pert))


def test_fig4_commutator_negligible(chain100, fig4_scenario):
    trace = windowed_amplitude(chain100, fig4_scenario)
    ratio = trace.commutator_ratio()
    assert ratio < 0.05
    # regression pin: with T well inside the cone the ratio is round-off level
    assert ratio < 1e-12
    assert trace.probability[-1] == pytest.approx(1.1066597331206317e-10, rel=1e-12)


def test_windowed_amplitude_warns_outside_cone(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.sin_sq_window(0.5), 0.5)
    with pytest.warns(UserWarning, match="causal"):
        windowed_amplitude(chain100, sc)


def test_windowed_amplitude_needs_window(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 1.0)
    with pytest.raises(InvalidParametersError):
        windowed_amplitude(chain100, sc)


def test_negative_times_rejected(chain100, fig4_scenario):
    with pytest.raises(InvalidParametersError):
        bare_amplitude(chain100, fig4_scenario, [-0.1, 0.0])


# ------------------------------------------------- per-mode kernels

def test_dwi_constant_resonant_nested():
    # splitting 2 against mode frequency -2: phase 0
    op = OpeningFunction.constant()
    _, _, got = opening_nested_integral(op, -0.0, op, 0.0, 1.3)
    assert got == pytest.approx(1.3**2 / 2, rel=1e-14)


def test_dwi_independent_closed_form():
    op = OpeningFunction.constant()
    phi = 5.0
    t = 0.7
    got = opening_phase_integral(op, -phi, t) * opening_phase_integral(op, phi, t)
    one = (np.exp(-1j * phi * t) - 1.0) / (-1j * phi)
    assert got == pytest.approx(one * np.conj(one), rel=1e-12)


def test_dwi_quadrature_agrees_with_closed_form():
    # splitting 2 against mode frequency 17: phase 19
    op = OpeningFunction.sin_sq_window(0.1)
    phi = np.array([19.0])
    t = 0.1
    closed = opening_phase_integral(op, -phi, t) * opening_phase_integral(op, phi, t)
    quad = gl_phase_integral(op, -phi, t) * gl_phase_integral(op, phi, t)
    np.testing.assert_allclose(quad, closed, rtol=1e-9, atol=1e-12)
    _, _, closed = opening_nested_integral(op, -phi, op, phi, t)
    quad = gl_nested_integral(op, -phi, op, phi, t)
    np.testing.assert_allclose(quad, closed, rtol=1e-9, atol=1e-12)


def test_blocked_amplitude_equals_unblocked(chain1000, monkeypatch):
    # 131 times over 1000 modes: blocks of MODE_SUM_BLOCK // (8 * 1000) = 65
    # rows would leave one row over; the even split makes 3 blocks of 43-44
    sc = Scenario.symmetric(0, 300, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1)
    times = np.linspace(0.0, 0.1, 131)
    assert times.size % (causality.MODE_SUM_BLOCK // 8000) == 1
    assert len(causality.row_blocks(times.size, 1000, grids=8)) == 3
    blocked = bare_amplitude(chain1000, sc, times)
    monkeypatch.setattr(causality, "MODE_SUM_BLOCK", 10**9)
    assert len(causality.row_blocks(times.size, 1000, grids=8)) == 1
    whole = bare_amplitude(chain1000, sc, times)
    for name in ("a0", "ac", "total", "probability"):
        assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()


def test_windowed_amplitude_takes_one_exponential_per_mirrored_pair(chain1000, monkeypatch):
    # the continuum benchmark's windowed_bare config: equal splittings and a
    # shared sin^2 window, so per branch the inner singles mirror the 3 outer
    # rows and the 6 nonzero pair phases come in 3 +- pairs.  One exponential
    # per distinct phase row took 12 (time, frequency) grids per branch
    elements = []
    cis = quadrature.cis

    def counting(x):
        elements.append(np.size(x))
        return cis(x)

    monkeypatch.setattr(quadrature, "cis", counting)
    sc = Scenario.symmetric(0, 300, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1)
    trace = windowed_amplitude(chain1000, sc)
    grid = trace.times.size * chain1000.distinct_frequencies.size
    # no series element has |alpha s| >= 2, so the moments take no exponential
    assert sum(elements) == 2 * 6 * grid == (2 * 12 * grid) // 2


def test_windowed_amplitude_memory_is_bounded_by_the_block():
    # 201 times over 2000 modes: one full (time, mode) grid is 6.4 MB, and
    # the unblocked sums held about 15 of them at once (about 104 MB)
    basis = build_harmonic_chain(ChainParams(2000))
    sc = Scenario.symmetric(0, 600, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1)
    tracemalloc.start()
    try:
        trace = windowed_amplitude(basis, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.total.shape == (201,)
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"


def per_mode_bare_sums(basis, scenario, times):
    """(A_0, A_c) as the sums over modes of the per-mode expressions, each
    integral taken on every mode's frequency and each product formed left
    to right: the block of bare_amplitude before it took its products in
    place on the distinct frequencies."""
    w = basis.frequencies
    mu = basis.row(scenario.site_a) * np.conj(basis.row(scenario.site_b))
    eps2 = scenario.epsilon**2
    f_a, f_b = scenario.opening_a.post_ramp(), scenario.opening_b.post_ramp()
    om_a, om_b = scenario.omega_a, scenario.omega_b
    sa_p, sb_p, n_p = opening_nested_integral(f_a, -(om_a + w), f_b, +(om_b + w), times)
    sa_m, sb_m, n_m = opening_nested_integral(f_a, -(om_a - w), f_b, +(om_b - w), times)
    a0_modes = -0.5 * eps2 * (mu * sa_p * sb_p + np.conj(mu) * sa_m * sb_m)
    ac_modes = -0.5 * eps2 * (mu * (2.0 * n_p - sa_p * sb_p)
                              - np.conj(mu) * (2.0 * n_m - sa_m * sb_m))
    return np.sum(a0_modes, axis=-1), np.sum(ac_modes, axis=-1)


@pytest.fixture(scope="module")
def trap60():
    return build_ion_trap(TrapParams(60))


@pytest.mark.parametrize("system, scenario, times", [
    ("chain1000", Scenario.symmetric(0, 300, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1),
     np.linspace(0.0, 0.1, 131)),
    ("chain1000", Scenario.symmetric(7, 312, 2.0, 0.8, OpeningFunction.cos_sq_window(0.1), 0.1),
     np.linspace(0.0, 0.15, 97)),
    ("chain1000", Scenario.symmetric(0, 300, 2.0, 0.3, OpeningFunction.constant(), 0.2),
     np.linspace(0.0, 0.2, 77)),
    ("chain1000", Scenario.symmetric(3, 500, 1.5, 0.7, OpeningFunction.exp_ramp_then(
        0.5, OpeningFunction.sin_sq_window(0.2)), 0.2), np.linspace(0.0, 0.3, 150)),
    ("trap60", Scenario.symmetric(0, 59, 2.0, 1.0, OpeningFunction.sin_sq_window(2.0), 2.0),
     np.linspace(0.0, 3.0, 131)),
], ids=["sin_sq", "cos_sq", "constant", "exp_ramp", "trap60"])
def test_bare_amplitude_equals_the_per_mode_expression(request, system, scenario, times):
    basis = request.getfixturevalue(system)
    trace = bare_amplitude(basis, scenario, times)
    a0, ac = per_mode_bare_sums(basis, scenario, times)
    assert np.max(np.abs(a0)) > 0 and np.max(np.abs(ac)) > 0
    assert trace.a0.tobytes() == a0.tobytes()
    assert trace.ac.tobytes() == ac.tobytes()
    assert trace.total.tobytes() == (a0 + ac).tobytes()


def test_bare_amplitude_memory_is_bounded_by_the_block(chain1000, monkeypatch):
    # 2000 times over 1000 modes, one worker: 31 blocks of 64-65 rows, one
    # (time, mode) grid of a block 1.0 MB.  The products taken in place peak
    # at 7.3 MB traced; formed as new arrays on every mode they took 10.6 MB
    sc = Scenario.symmetric(0, 300, 2.0, 1.0, OpeningFunction.cos_sq_window(0.1), 0.1)
    monkeypatch.setattr(causality, "WORKERS", 1)
    tracemalloc.start()
    try:
        trace = bare_amplitude(chain1000, sc, np.linspace(0.0, 0.1, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.total.shape == (2000,)
    assert peak < 9e6, f"traced peak {peak / 1e6:.1f} MB"


# sha256 of bare's a0, ac and total, and of the three dressed totals, on a
# 60-ion trap, as the whole-array moments pass of the nested kernel gave them
SERIES_GRID_DIGESTS = {
    0.0025: ("a5749c93f7503d5627c4b3f8954d41269deb9d10c5d9f1d02f86fa335ebc2622",
             "6a24b448b846d40c8031fc7d469fa03c906a5a30f30b14fac9e1cb178d06bbe1"),
    0.1: ("e21e65a958ef4054593ec61d2b36c562fcf6d7d672447a0810e48dcfcc2d6df7",
          "7ec2704217ea1cab15a36030d56556db973b125ef9195bda17f6b5d2affba1c5"),
}


def test_nested_series_regime_keeps_its_bytes_within_the_block_budget(monkeypatch):
    # on [0, 0.0025] every (time, frequency) element of the sin^2 window's
    # nested integrals takes T's series; taking its moments on the whole
    # block at once traced 64.6 MB for bare and 27.4 MB for dressed
    basis = build_ion_trap(TrapParams(60))
    sc = Scenario.symmetric(10, 40, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1)
    series = np.linspace(0.0, 0.0025, 1000)
    monkeypatch.setattr(causality, "WORKERS", 1)
    for run, limit in ((lambda: bare_amplitude(basis, sc, series), 20e6),
                       (lambda: dressed_amplitude(basis, sc, list(DressingScheme), series), 8e6)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, f"traced peak {peak / 1e6:.1f} MB"
    for t_end, want in SERIES_GRID_DIGESTS.items():
        times = np.linspace(0.0, t_end, 1000)
        for workers in (1, 2, 3):
            monkeypatch.setattr(causality, "WORKERS", workers)
            bare = bare_amplitude(basis, sc, times)
            dressed = dressed_amplitude(basis, sc, list(DressingScheme), times)
            got = (hashlib.sha256(bare.a0.tobytes() + bare.ac.tobytes() + bare.total.tobytes()),
                   hashlib.sha256(b"".join(tr.total.tobytes() for tr in dressed)))
            assert tuple(h.hexdigest() for h in got) == want, (t_end, workers)


def test_a_sum_of_one_block_makes_no_worker_pool(chain100, monkeypatch):
    # fig3's bare and fig6's dressed sums at fig3's size: 401 times over 100
    # modes, and over 51 distinct frequencies, fit one block each (at most
    # 655 and 428 rows), so two workers make no pool
    made = []
    pool = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda **kwargs: made.append(kwargs) or pool(**kwargs))
    monkeypatch.setattr(causality, "WORKERS", 2)
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 2.0)
    times = np.linspace(0.0, 2.0, 401)
    assert len(causality.row_blocks(times.size, chain100.n_modes, grids=8)) == 1
    assert len(causality.row_blocks(times.size, chain100.distinct_frequencies.size,
                                    grids=24)) == 1
    bare_amplitude(chain100, sc, times)
    dressed_amplitude(chain100, sc, list(DressingScheme), times)
    assert made == []
    # a sum of more blocks shares them among the workers
    bare_amplitude(chain100, sc, np.linspace(0.0, 2.0, 700))
    assert made == [{"max_workers": 2}]


def windowed_bare_traces(request):
    # the continuum benchmark's windowed_bare size: 201 times on a 1000-site
    # chain, 4 blocks
    basis = request.getfixturevalue("chain1000")
    sc = Scenario.symmetric(0, 300, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1)
    return [bare_amplitude(basis, sc, np.linspace(0.0, 0.1, 201))]


def fig7_traces(request):
    # fig7's three dressed schemes, 201 times on a 100-site chain: one block
    return dressed_amplitude(request.getfixturevalue("chain100"),
                             request.getfixturevalue("fig7_scenario"),
                             [DressingScheme.SIGMA_X, DressingScheme.SIGMA_PLUS,
                              DressingScheme.BARE], np.linspace(0.0, 0.1, 201))


@pytest.mark.parametrize("traces", [windowed_bare_traces, fig7_traces],
                         ids=["windowed_bare", "fig7"])
def test_amplitude_bytes_do_not_depend_on_the_worker_count(request, monkeypatch, traces):
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(causality, "WORKERS", workers)
        results.append(b"".join(getattr(tr, name).tobytes() for tr in traces(request)
                                for name in ("a0", "ac", "total")
                                if getattr(tr, name) is not None))
    assert results[0] == results[1] == results[2]
