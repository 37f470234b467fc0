import tracemalloc

import numpy as np
import pytest

from fermi_lattice import causality, quadrature
from fermi_lattice import (
    ChainParams,
    InvalidParametersError,
    OpeningFunction,
    Scenario,
    bare_amplitude,
    build_harmonic_chain,
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
