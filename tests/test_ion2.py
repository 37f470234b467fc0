import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi_lattice import (
    InvalidParametersError,
    OpeningFunction,
    PulseSpec,
    Scenario,
    anticommutator,
    commutator,
    displaced_number_overlap,
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
    _, prob_full = swap_probability_full(PulseSpec(1.0, 1.0), th, 8)
    assert prob_full == 0.0


@pytest.mark.parametrize("ratio", [1.1, np.sqrt(3.0), 5.0, 10.0])
def test_against_williamson_oracle(ratio):
    th = symplectic_temperature(1.0, ratio)
    lam, e_mb = williamson_oracle(1.0, ratio)
    assert th.lambda_symp == pytest.approx(lam, abs=1e-10)
    assert th.e_minus_beta == pytest.approx(e_mb, abs=1e-10)


def test_no_pulse_no_swap():
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    assert swap_probability(PulseSpec(0.0, 1.0), th) == (0.0, 0.0)
    assert swap_probability_full(PulseSpec(0.0, 1.0), th, 6)[1] == 0.0


@settings(deadline=None, max_examples=30)
@given(a=st.floats(0.05, 2.5), b=st.floats(0.05, 2.5))
def test_pulse_swap_symmetry(a, b):
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    assert swap_probability(PulseSpec(a, b), th) == swap_probability(PulseSpec(b, a), th)
    full_ab = swap_probability_full(PulseSpec(a, b), th, 8)
    full_ba = swap_probability_full(PulseSpec(b, a), th, 8)
    assert full_ab[0] == pytest.approx(full_ba[0], rel=1e-12)


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
        amp_f, prob_f = swap_probability_full(PulseSpec(a, b), th, 2)
        assert amp_f == pytest.approx(amp, rel=1e-13)
        assert prob_f == pytest.approx(prob, rel=1e-13)


def test_full_converges_and_correction_is_small():
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    pulse = PulseSpec(1.0, 1.0)
    trunc = swap_probability(pulse, th)[1]
    p10 = swap_probability_full(pulse, th, 10)[1]
    p14 = swap_probability_full(pulse, th, 14)[1]
    assert abs(p10 - trunc) / trunc <= 5e-2
    assert p14 == pytest.approx(p10, rel=1e-10)


def test_full_cutoff_validation():
    th = symplectic_temperature(1.0, np.sqrt(3.0))
    with pytest.raises(InvalidParametersError):
        swap_probability_full(PulseSpec(1.0, 1.0), th, 1)


# ---------------------------------------------------------------- drive & regime

def test_pulse_from_drive():
    sc = Scenario.symmetric(0, 1, -0.5, 2.0, OpeningFunction.sin_sq_window(0.04), 0.04)
    pulse = PulseSpec.from_drive(2.0, 1.0, sc)
    want = -2.0 / np.sqrt(2.0) * 0.02  # integral of the sin^2 window is T/2
    assert pulse.alpha_a == pytest.approx(want, rel=1e-12)
    assert pulse.alpha_b == pytest.approx(want, rel=1e-12)


def test_short_pulse_outside_lightcone(trap2):
    # the impulsive regime relies on F_c being small against F_a
    t_pulse = 0.1 / trap2.frequencies[0]
    ratio = abs(commutator(trap2, 0, 1, t_pulse)) / abs(anticommutator(trap2, 0, 1, t_pulse))
    assert ratio < 0.1
