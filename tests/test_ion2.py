import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln

from fermi_lattice import (
    InvalidParametersError,
    PulseSpec,
    anticommutator,
    commutator,
    swap_probability,
    swap_probability_full,
    symplectic_temperature,
)


def williamson_oracle(w0, w1):
    """Covariance-matrix route: 4x4 ground-state covariance in local
    coordinates, partial trace, symplectic eigenvalue of the 2x2 block."""
    d = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    ws = np.array([w0, w1])
    cov_q = d @ np.diag(1.0 / (2.0 * ws)) @ d.T
    cov_p = d @ np.diag(ws / 2.0) @ d.T
    lam = np.sqrt(cov_q[0, 0] * cov_p[0, 0])
    return lam, np.sqrt((lam - 0.5) / (lam + 0.5))


def displaced_number_overlap(m, n, alpha):
    """<m| D(i alpha) |n> for the displacement e^{i alpha (a + a^dagger)}."""
    if m < 0 or n < 0:
        raise InvalidParametersError("Fock indices must be >= 0")
    lo, hi = min(m, n), max(m, n)
    x = alpha * alpha
    log_ratio = 0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
    lag = eval_genlaguerre(lo, hi - lo, x)
    return math.exp(log_ratio - 0.5 * x) * (1j * alpha) ** (hi - lo) * lag


def schmidt_series(pulse, thermal, schmidt_cutoff):
    """Reference: the swap amplitude summed over the Schmidt pairs m, n below
    the cutoff, as (amplitude, probability); cutoff 2 is the truncated form."""
    if schmidt_cutoff < 2:
        raise InvalidParametersError("schmidt_cutoff must be >= 2")
    e_mb = thermal.e_minus_beta
    amp = 0.0
    for m in range(schmidt_cutoff):
        for n in range(schmidt_cutoff):
            if (m - n) % 2 == 0:
                continue
            weight = e_mb ** (m + n)
            if weight == 0.0:
                continue
            term = (displaced_number_overlap(m, n, pulse.alpha_a)
                    * displaced_number_overlap(m, n, pulse.alpha_b))
            amp += weight * term.real
    return amp, amp * amp


def mpmath_closed_form(pulse, thermal):
    """The closed form at 30 digits, from the same double inputs."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(pulse.alpha_a), mpmath.mpf(pulse.alpha_b)
        e_mb, lam = mpmath.mpf(thermal.e_minus_beta), mpmath.mpf(thermal.lambda_symp)
        z2 = 1 - e_mb * e_mb
        return -mpmath.exp(-lam * (a * a + b * b)) * mpmath.sinh(2 * a * b * e_mb / z2) / z2


def test_two_ion_reference_constants(trap2):
    w0, w1 = trap2.frequencies
    th = symplectic_temperature(w0, w1)
    assert th.lambda_symp == pytest.approx(0.5189774246510213, abs=1e-12)
    assert th.e_minus_beta == pytest.approx(0.1364697376616072, abs=1e-12)
    assert th.beta == pytest.approx(1.9916523910494368, abs=1e-10)
    amp, prob = swap_probability(PulseSpec(1.0, 1.0), th)
    assert prob == pytest.approx(0.0100819, abs=2e-7)
    assert amp < 0


def test_degenerate_modes_are_unentangled():
    th = symplectic_temperature(1.3, 1.3)
    assert th.lambda_symp == pytest.approx(0.5, abs=1e-15)
    assert th.e_minus_beta == 0.0
    assert np.isinf(th.beta)
    _, prob = swap_probability(PulseSpec(1.0, 1.0), th)
    assert prob == 0.0
    _, prob_full = swap_probability_full(PulseSpec(1.0, 1.0), th)
    assert prob_full == 0.0
    assert schmidt_series(PulseSpec(1.0, 1.0), th, 8)[1] == 0.0


@pytest.mark.parametrize("ratio", [1.1, np.sqrt(3.0), 5.0, 10.0])
def test_against_williamson_oracle(ratio):
    th = symplectic_temperature(1.0, ratio)
    lam, e_mb = williamson_oracle(1.0, ratio)
    assert th.lambda_symp == pytest.approx(lam, abs=1e-10)
    assert th.e_minus_beta == pytest.approx(e_mb, abs=1e-10)


def test_no_pulse_no_swap():
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    assert swap_probability(PulseSpec(0.0, 1.0), th) == (0.0, 0.0)
    assert swap_probability_full(PulseSpec(0.0, 1.0), th)[1] == 0.0
    assert swap_probability_full(PulseSpec(0.0, 0.0), th) == (0.0, 0.0)
    assert schmidt_series(PulseSpec(0.0, 1.0), th, 6)[1] == 0.0


@settings(deadline=None, max_examples=30)
@given(a=st.floats(0.05, 2.5), b=st.floats(0.05, 2.5))
def test_pulse_swap_symmetry(a, b):
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    assert swap_probability(PulseSpec(a, b), th) == swap_probability(PulseSpec(b, a), th)
    full_ab = swap_probability_full(PulseSpec(a, b), th)
    full_ba = swap_probability_full(PulseSpec(b, a), th)
    assert full_ab[0] == pytest.approx(full_ba[0], rel=1e-12)
    series_ab = schmidt_series(PulseSpec(a, b), th, 8)
    series_ba = schmidt_series(PulseSpec(b, a), th, 8)
    assert series_ab[0] == pytest.approx(series_ba[0], rel=1e-12)


def test_equal_pulse_maximum_at_unit_area():
    th = symplectic_temperature(1.0, np.sqrt(3.0))

    def prob(alpha):
        return swap_probability(PulseSpec(alpha, alpha), th)[1]

    grid = np.linspace(0.0, 3.0, 601)
    best = grid[np.argmax([prob(a) for a in grid])]
    # golden-section refinement around the grid winner
    lo, hi = best - 0.01, best + 0.01
    g = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        if prob(c) > prob(d):
            hi = d
        else:
            lo = c
    assert 0.5 * (lo + hi) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------- full overlap

def expm_displacement_oracle(m, n, alpha, dim=40):
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    u = scipy.linalg.expm(1j * alpha * (a + a.T))
    return u[m, n]


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
def test_displaced_overlap_vs_expm(alpha):
    for m in range(6):
        for n in range(6):
            got = displaced_number_overlap(m, n, alpha)
            want = expm_displacement_oracle(m, n, alpha)
            assert got == pytest.approx(want, abs=1e-10)


def test_full_reduces_to_truncated_at_cutoff_two():
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    for a, b in ((1.0, 1.0), (0.4, 1.3)):
        amp, prob = swap_probability(PulseSpec(a, b), th)
        amp_f, prob_f = schmidt_series(PulseSpec(a, b), th, 2)
        assert amp_f == pytest.approx(amp, rel=1e-13)
        assert prob_f == pytest.approx(prob, rel=1e-13)


def test_full_converges_and_correction_is_small():
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    pulse = PulseSpec(1.0, 1.0)
    trunc = swap_probability(pulse, th)[1]
    p10 = schmidt_series(pulse, th, 10)[1]
    p14 = schmidt_series(pulse, th, 14)[1]
    assert abs(p10 - trunc) / trunc <= 5e-2
    assert p14 == pytest.approx(p10, rel=1e-10)


def test_full_cutoff_validation():
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    with pytest.raises(InvalidParametersError):
        schmidt_series(PulseSpec(1.0, 1.0), th, 1)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.01, 0.01), (1e-8, 2e-8), (-1.0, 2.0),
                                  (0.4, 1.3), (2.0, 2.5)])
def test_closed_form_is_the_schmidt_series_limit(a, b):
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    pulse = PulseSpec(a, b)
    amp, prob = swap_probability_full(pulse, th)
    assert amp == pytest.approx(schmidt_series(pulse, th, 40)[0], rel=1e-14, abs=0)
    assert amp == pytest.approx(float(mpmath_closed_form(pulse, th)), rel=1e-14, abs=0)
    assert prob == amp * amp


def test_closed_form_where_the_series_has_not_converged():
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    pulse = PulseSpec(30.0, 30.0)
    amp = swap_probability_full(pulse, th)[0]
    want = float(mpmath_closed_form(pulse, th))
    assert abs(schmidt_series(pulse, th, 40)[0] - want) > 0.5 * abs(want)
    assert abs(amp - want) <= 1e-14
    # A = -e^{y - c} (1 - e^{-2y}) / (2 Z^2) with c = 934 and y - c = -684 here:
    # the exponential turns the rounding of c (up to c u = 1.0e-13) into a
    # relative error of A, so no double evaluation holds 1e-14 relative; the
    # measured distance is 1.6e-14
    c = th.lambda_symp * 2 * 30.0**2
    assert abs(amp - want) <= c * 2.0**-53 * abs(want)


def test_closed_form_does_not_overflow_at_large_areas():
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    for a, b in ((1e3, 1e3), (-1e3, 1e3), (1e3, 1.0)):
        amp, prob = swap_probability_full(PulseSpec(a, b), th)
        assert amp == 0.0
        assert prob == 0.0


@pytest.mark.parametrize("swap", [swap_probability, swap_probability_full])
@pytest.mark.parametrize("a, b", [(1e200, 1e200), (-1e200, 1e200), (1e200, 1.0), (1.0, 2e154)])
def test_both_forms_give_zero_where_the_area_squared_overflows(swap, a, b):
    # alpha^2 = inf: e^{-inf} alpha_A alpha_B read 0 * inf, and y - c inf - inf
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    assert swap(PulseSpec(a, b), th) == (0.0, 0.0)


# ---------------------------------------------------------------- drive & regime

def test_short_pulse_outside_lightcone(trap2):
    # the impulsive regime relies on F_c being small against F_a
    t_pulse = 0.1 / trap2.frequencies[0]
    ratio = abs(commutator(trap2, 0, 1, t_pulse)) / abs(anticommutator(trap2, 0, 1, t_pulse))
    assert ratio < 0.1
