"""The integral primitives against high-precision and brute-force oracles."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi_lattice import OpeningFunction
from fermi_lattice.quadrature import (
    nested_phase_integral,
    opening_nested_integral,
    opening_phase_integral,
    phase_integral,
    phase_moment,
)

mpmath.mp.dps = 40


def _digit_loss(scale) -> int:
    """Extra working digits needed when a difference of size ~scale cancels."""
    if scale == 0.0:
        return 0
    return max(0, int(-mpmath.log10(abs(mpmath.mpf(scale)))) + 1)


def mp_phase_integral(phi, t):
    """Analytic antiderivative in adaptive-precision arithmetic."""
    if phi == 0.0:
        return complex(t)
    with mpmath.workdps(40 + _digit_loss(phi * t)):
        ph = mpmath.mpf(phi)
        return complex(mpmath.expm1(1j * ph * t) / (1j * ph))


def mp_moment(m, phi, t):
    if phi == 0.0:
        return complex(mpmath.mpf(t) ** (m + 1) / (m + 1))
    # the recurrence cancels ~|log10(phi t)| digits per step
    with mpmath.workdps(40 + (m + 1) * _digit_loss(phi * t)):
        ph = mpmath.mpf(phi)
        val = mpmath.expm1(1j * ph * t) / (1j * ph)
        e = mpmath.e ** (1j * ph * t)
        for j in range(1, m + 1):
            val = (mpmath.mpf(t) ** j * e - j * val) / (1j * ph)
        return complex(val)


def mp_nested(alpha, beta, t):
    if beta == 0.0:
        return mp_moment(1, alpha, t)
    with mpmath.workdps(40 + _digit_loss(beta * t) + _digit_loss(alpha * t)):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        ea = mpmath.expm1(1j * a * t) / (1j * a) if alpha != 0.0 else mpmath.mpf(t)
        ab = a + b
        eab = mpmath.expm1(1j * ab * t) / (1j * ab) if ab != 0.0 else mpmath.mpf(t)
        return complex((eab - ea) / (1j * b))


# ---------------------------------------------------------------- E and M

def test_phase_integral_zero_phase():
    assert phase_integral(0.0, 1.7) == pytest.approx(1.7)


@pytest.mark.parametrize("phi", [3.0, -250.0, 1e-7, 1e-5, 2e-6, 0.49, 1e3])
def test_phase_integral_vs_mpmath(phi):
    t = 0.83
    np.testing.assert_allclose(
        complex(phase_integral(phi, t)), mp_phase_integral(phi, t), rtol=1e-12, atol=1e-16)


def test_phase_integral_closed_form():
    # (e^{-i phi t} - 1) / (-i phi) with the sign conventions of the callers
    phi, t = 37.2, 0.4
    got = complex(phase_integral(-phi, t))
    want = (np.exp(-1j * phi * t) - 1.0) / (-1j * phi)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("m", [1, 2, 5, 7])
@pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, 1.9, 2.1, 40.0, -3.0])
def test_phase_moment_vs_mpmath(m, x):
    t = 0.9
    phi = x / t
    want = mp_moment(m, phi, t)
    np.testing.assert_allclose(complex(phase_moment(m, phi, t)), want, rtol=1e-10, atol=1e-18)


# ---------------------------------------------------------------- T

def test_nested_constant_integrand():
    assert complex(nested_phase_integral(0.0, 0.0, 1.3)) == pytest.approx(1.3**2 / 2)


@pytest.mark.parametrize("alpha,beta", [
    (5.0, 7.0), (5.0, 1e-6), (1e-7, 11.0), (1e-6, 1e-7), (200.0, -200.0),
    (-3.0, 2.9e-4), (0.31, -0.47),
])
def test_nested_vs_mpmath(alpha, beta):
    t = 0.77
    np.testing.assert_allclose(
        complex(nested_phase_integral(alpha, beta, t)), mp_nested(alpha, beta, t),
        rtol=1e-9, atol=1e-15)


@settings(deadline=None, max_examples=25)
@given(alpha=st.floats(-50, 50), beta=st.floats(-50, 50), t=st.floats(0.01, 2.0))
def test_nested_threshold_continuity(alpha, beta, t):
    got = complex(nested_phase_integral(alpha, beta, t))
    want = mp_nested(alpha, beta, t)
    assert abs(got - want) <= 1e-9 * max(1e-3, abs(want))


@pytest.mark.parametrize("alpha", [0.0, 1.3, -7.0])
@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("beta_t", [5e-5, 1e-4, 1.5e-4, 2.9e-2, 3e-2, 4e-2, -2e-4])
def test_nested_series_switch_keeps_ten_digits(alpha, beta_t, t):
    # both sides of the series/difference switch at |beta t| = 3e-2, and of
    # 1e-4, where the difference form would cancel 8 digits
    beta = beta_t / t
    want = mp_nested(alpha, beta, t)
    got = complex(nested_phase_integral(alpha, beta, t))
    assert abs(got - want) <= 1e-10 * abs(want)


# ---------------------------------------------------------------- profiles

def test_single_integral_closed_vs_quadrature():
    phis = np.array([-37.0, -2.0, 0.0, 0.013, 5.0, 180.0])
    for op in (OpeningFunction.constant(),
               OpeningFunction.sin_sq_window(0.1),
               OpeningFunction.cos_sq_window(0.1)):
        for t in (0.03, 0.1, 0.25):
            closed = opening_phase_integral(op, phis, t)
            quad = opening_phase_integral(op, phis, t, method="quad")
            np.testing.assert_allclose(quad, closed, rtol=1e-9, atol=1e-12)


def test_nested_integral_closed_vs_quadrature():
    phis = np.array([-37.0, -2.0, 0.0, 5.0, 180.0])
    for op in (OpeningFunction.constant(),
               OpeningFunction.sin_sq_window(0.1),
               OpeningFunction.cos_sq_window(0.1)):
        for t in (0.06, 0.1, 0.2):
            closed = opening_nested_integral(op, -phis, op, phis, t)
            quad = opening_nested_integral(op, -phis, op, phis, t, method="quad")
            np.testing.assert_allclose(quad, closed, rtol=1e-9, atol=1e-12)


def test_sin_sq_closed_form_vs_direct_quadrature():
    # exponential decomposition of the sin^2 window against brute quadrature
    op = OpeningFunction.sin_sq_window(0.2)
    phi = 23.0
    t = 0.2
    got = complex(opening_phase_integral(op, phi, t))
    want = complex(mpmath.quad(
        lambda u: mpmath.sin(mpmath.pi * u / 0.2) ** 2 * mpmath.e**(1j * phi * u), [0, t]))
    assert got == pytest.approx(want, rel=1e-9)


def test_windowed_integrals_freeze_after_window():
    op = OpeningFunction.sin_sq_window(0.1)
    phis = np.array([1.0, 40.0])
    at_window = opening_phase_integral(op, phis, 0.1)
    later = opening_phase_integral(op, phis, 5.0)
    np.testing.assert_allclose(later, at_window, rtol=0, atol=1e-16)
    n_window = opening_nested_integral(op, -phis, op, phis, 0.1)
    n_later = opening_nested_integral(op, -phis, op, phis, 5.0)
    np.testing.assert_allclose(n_later, n_window, rtol=0, atol=1e-16)


def test_broadcast_shapes():
    op = OpeningFunction.cos_sq_window(0.1)
    phis = np.linspace(-5, 5, 7)
    times = np.linspace(0, 0.2, 5)
    single = opening_phase_integral(op, phis, times)
    assert single.shape == (5, 7)
    nested = opening_nested_integral(op, phis, op, -phis, times)
    assert nested.shape == (5, 7)
    assert isinstance(opening_phase_integral(op, 1.0, 0.05), complex)
