"""The integral primitives against high-precision and brute-force oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermi_lattice import NumericalFailureError, OpeningFunction
from fermi_lattice import quadrature
from fermi_lattice.quadrature import (
    NESTED_ORDERS,
    NESTED_SERIES_BELOW,
    _nested_series,
    cis,
    opening_nested_integral,
    opening_phase_integral,
    phase_moments,
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
    # the products in mpmath: a subnormal beta * t must not underflow to 0
    with mpmath.workdps(40 + _digit_loss(mpmath.mpf(beta) * t)
                        + _digit_loss(mpmath.mpf(alpha) * t)):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        ea = mpmath.expm1(1j * a * t) / (1j * a) if alpha != 0.0 else mpmath.mpf(t)
        ab = a + b
        eab = mpmath.expm1(1j * ab * t) / (1j * ab) if ab != 0.0 else mpmath.mpf(t)
        return complex((eab - ea) / (1j * b))


# ---------------------------------------------------------------- E and M

def phase_integral(phi, t):
    """E(phi; t) = int_0^t e^{i phi u} du, elementwise over broadcast inputs:
    the reference that the grid kernel quadrature.phase_integral must match
    bit for bit."""
    phi = np.asarray(phi, dtype=float)
    t = np.asarray(t, dtype=float)
    x = phi * t
    small = np.abs(x) < 1e-4
    xs = np.where(small, x, 0.0)
    series = t * (1.0 + 1j * xs / 2.0 - xs**2 / 6.0 - 1j * xs**3 / 24.0 + xs**4 / 120.0)
    safe_phi = np.where(small, 1.0, phi)
    direct = (cis(x) - 1.0) / (1j * safe_phi)
    return np.where(small, series, direct)


def grid_phase_integral(phi, t):
    """The grid kernel at one (phi, t) element."""
    return complex(quadrature.phase_integral(np.array([phi], dtype=float),
                                             np.array([[t]], dtype=float))[0, 0])


def test_phase_integral_zero_phase():
    for e in (phase_integral, grid_phase_integral):
        assert e(0.0, 1.7) == pytest.approx(1.7)


@pytest.mark.parametrize("phi", [3.0, -250.0, 1e-7, 1e-5, 2e-6, 0.49, 1e3])
def test_phase_integral_vs_mpmath(phi):
    t = 0.83
    for e in (phase_integral, grid_phase_integral):
        np.testing.assert_allclose(
            complex(e(phi, t)), mp_phase_integral(phi, t), rtol=1e-12, atol=1e-16)


def test_phase_integral_closed_form():
    # (e^{-i phi t} - 1) / (-i phi) with the sign conventions of the callers
    phi, t = 37.2, 0.4
    want = (np.exp(-1j * phi * t) - 1.0) / (-1j * phi)
    for e in (phase_integral, grid_phase_integral):
        assert complex(e(-phi, t)) == pytest.approx(want, rel=1e-13)


def test_grid_phase_integral_equals_the_elementwise_reference_bitwise():
    # both sides of the series switch at |phi t| = 1e-4, zeros of either sign,
    # t = 0 and a 1 x 1 grid; a row of zero phases is the column t
    edge = np.array([1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0)])
    phis = np.concatenate([edge, -edge, [0.0, -0.0, 3e-9, 0.7, -41.0, 1e3]])
    times = np.array([0.0, 1.0, 0.5, 1e-7, 2.3])[:, None]
    for phi, t in ((phis, times), (phis[:1], times[1:2]), (np.zeros(4), times),
                   (np.array([-0.0]), times)):
        got = quadrature.phase_integral(phi, t)
        assert got.shape == (t.size, phi.size)
        assert got.tobytes() == np.broadcast_to(phase_integral(phi, t), got.shape).tobytes()


@pytest.mark.parametrize("m", [1, 2, 5, 7])
@pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, 1.9, 2.1, 40.0, -3.0])
def test_phase_moment_vs_mpmath(m, x):
    t = 0.9
    phi = x / t
    want = mp_moment(m, phi, t)
    got = complex(phase_moments(range(m, m + 1), phi, t)[0])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-18)


def loop_phase_moment(m, phi, t):
    """M_m one order at a time, as the definition reads: the 40-term series
    below |phi t| = 2, the upward recurrence from E above it."""
    x = phi * t
    small = np.abs(x) < 2.0
    ser = np.zeros(phi.size, dtype=complex)
    term = np.ones(phi.size, dtype=complex)
    for n in range(40):
        ser = ser + term / (m + n + 1)
        term = term * (1j * x) / (n + 1)
    rec = phase_integral(phi, t)
    for j in range(1, m + 1):
        rec = (t**j * cis(x) - j * rec) / (1j * phi)
    return np.where(small, ser * t ** (m + 1), rec)


def test_moment_rows_equal_the_one_order_moments_bitwise():
    # |phi t| = 2 exactly, the doubles on either side of it, 0 and t = 0
    two = np.array([2.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0)])
    x = np.concatenate([two, -two, [0.0, -0.0, 1e-9, 0.5, -1.7, 3.0, -45.0]])
    t = np.concatenate([np.full(x.size, 0.5), [0.0, 0.0]])
    phi = np.concatenate([x / 0.5, [3.0, 0.0]])
    assert np.array_equal(phi[:6] * t[:6], x[:6])
    rows = phase_moments(range(8), phi, t)
    assert rows.shape == (8, phi.size)
    for m in range(8):
        assert rows[m].tobytes() == phase_moments(range(m, m + 1), phi, t)[0].tobytes()
        with np.errstate(divide="ignore", invalid="ignore"):
            assert rows[m].tobytes() == loop_phase_moment(m, phi, t).tobytes(), m
        assert phase_moments(range(m, 8), phi, t)[0].tobytes() == rows[m].tobytes()
    for shape_in, shape_out in (((0,), (8, 0)), ((), (8,)), ((2, 3), (8, 2, 3))):
        assert phase_moments(range(8), np.full(shape_in, 1.0), 0.5).shape == shape_out
    assert phase_moments(range(3, 4), np.zeros(0), 0.5)[0].shape == (0,)


# ---------------------------------------------------------------- T

def nested_phase_integral(alpha, beta, t):
    """T(alpha, beta; t) = int_0^t e^{i alpha t'} int_0^t' e^{i beta t''} dt'' dt',
    elementwise over broadcast inputs: the reference that the grid kernel
    opening_nested_integral must match bit for bit."""
    alpha, beta, t = np.broadcast_arrays(
        np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float),
        np.asarray(t, dtype=float),
    )
    shape = alpha.shape
    alpha, beta, t = alpha.ravel(), beta.ravel(), t.ravel()
    small = np.abs(beta * t) < NESTED_SERIES_BELOW
    out = np.empty(alpha.size, dtype=complex)

    big = ~small
    if np.any(big):
        a, b, tb = alpha[big], beta[big], t[big]
        out[big] = (phase_integral(a + b, tb) - phase_integral(a, tb)) / (1j * b)

    if np.any(small):
        out[small] = _nested_series(phase_moments(NESTED_ORDERS, alpha[small], t[small]),
                                    beta[small])
    return out.reshape(shape)


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
@example(alpha=1.0, beta=5e-324, t=0.5)
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


# ---------------------------------------------------------------- Gauss-Legendre
# An engine independent of the exponential decomposition: composite
# Gauss-Legendre panels with >= 20 nodes per period of the fastest phase,
# doubled until |new - old| <= QUAD_ATOL + QUAD_RTOL |new|, or an error.

NODES_PER_PANEL = 16
NODES_PER_PERIOD = 20
QUAD_RTOL = 1e-10
QUAD_ATOL = 1e-13
MAX_DOUBLINGS = 12

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(NODES_PER_PANEL)


def _panel_count(t: float, fastest: float) -> int:
    periods = abs(t) * fastest / (2.0 * np.pi)
    return max(1, math.ceil(periods * NODES_PER_PERIOD / NODES_PER_PANEL))


def _fastest_frequency(opening, phi) -> float:
    own = 0.0
    if math.isfinite(opening.window_end):
        own = 2.0 * np.pi / opening.window_end
    return float(np.max(np.abs(phi))) + own if phi.size else own


def _gl_panel(a: float, b: float):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GL_NODES, half * _GL_WEIGHTS


def _gl_phase_once(f, phi, t: float, n_panels: int):
    bounds = np.linspace(0.0, t, n_panels + 1)
    total = np.zeros(phi.shape, dtype=complex)
    for i in range(n_panels):
        x, w = _gl_panel(bounds[i], bounds[i + 1])
        e = np.exp(1j * x[:, None] * phi[None, :])
        total = total + np.einsum("q,q,qk->k", w, f(x), e)
    return total


def _gl_nested_once(f1, phi1, f2, phi2, t: float, n_panels: int):
    bounds = np.linspace(0.0, t, n_panels + 1)
    inner_cum = np.zeros(phi2.shape, dtype=complex)
    total = np.zeros(phi1.shape, dtype=complex)
    for i in range(n_panels):
        a, b = bounds[i], bounds[i + 1]
        x_out, w_out = _gl_panel(a, b)
        # inner integral from a to every outer node, fresh GL nodes each time
        half = 0.5 * (x_out - a)
        pos = a + half[:, None] * (_GL_NODES[None, :] + 1.0)
        e2 = np.exp(1j * pos[..., None] * phi2)
        partial = np.einsum("q,mq,mqk->mk", _GL_WEIGHTS, f2(pos), e2) * half[:, None]
        u_at = inner_cum[None, :] + partial
        e1 = np.exp(1j * x_out[:, None] * phi1)
        total = total + np.einsum("m,m,mk,mk->k", w_out, f1(x_out), e1, u_at)
        x_in, w_in = _gl_panel(a, b)
        inner_cum = inner_cum + np.einsum(
            "q,q,qk->k", w_in, f2(x_in), np.exp(1j * x_in[:, None] * phi2)
        )
    return total


def _refine(evaluate, start_panels: int):
    prev = None
    cur = None
    n = start_panels
    for _ in range(MAX_DOUBLINGS + 1):
        cur = evaluate(n)
        if prev is not None:
            err = np.abs(cur - prev)
            tol = QUAD_ATOL + QUAD_RTOL * np.abs(cur)
            if np.all(err <= tol):
                return cur
        prev = cur
        n *= 2
    worst = int(np.argmax(np.abs(cur - prev)))
    raise NumericalFailureError(
        f"oscillatory quadrature did not converge after {MAX_DOUBLINGS} doublings "
        f"(worst mode index {worst}, last change {np.max(np.abs(cur - prev)):.3e})"
    )


def gl_phase_integral(opening, phi, t: float):
    """int_0^t f(u) e^{i phi u} du by Gauss-Legendre, for a 1-D phi."""
    return _refine(lambda n: _gl_phase_once(opening, phi, t, n),
                   _panel_count(t, _fastest_frequency(opening, phi)))


def gl_nested_integral(op1, phi1, op2, phi2, t: float):
    """The nested profile integral by Gauss-Legendre, for 1-D phases."""
    fastest = max(_fastest_frequency(op1, phi1), _fastest_frequency(op2, phi2))
    return _refine(lambda n: _gl_nested_once(op1, phi1, op2, phi2, t, n),
                   _panel_count(t, fastest))


# ---------------------------------------------------------------- profiles

def test_single_integral_closed_vs_quadrature():
    phis = np.array([-37.0, -19.0, -2.0, 0.0, 0.013, 5.0, 19.0, 180.0])
    for op in (OpeningFunction.constant(),
               OpeningFunction.sin_sq_window(0.1),
               OpeningFunction.cos_sq_window(0.1)):
        for t in (0.03, 0.1, 0.25):
            closed = opening_phase_integral(op, phis, t)
            quad = gl_phase_integral(op, phis, t)
            np.testing.assert_allclose(quad, closed, rtol=1e-9, atol=1e-12)


def test_nested_integral_closed_vs_quadrature():
    phis = np.array([-37.0, -2.0, 0.0, 5.0, 19.0, 180.0])
    for op in (OpeningFunction.constant(),
               OpeningFunction.sin_sq_window(0.1),
               OpeningFunction.cos_sq_window(0.1)):
        for t in (0.06, 0.1, 0.2):
            _, _, closed = opening_nested_integral(op, -phis, op, phis, t)
            quad = gl_nested_integral(op, -phis, op, phis, t)
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
    _, _, n_window = opening_nested_integral(op, -phis, op, phis, 0.1)
    _, _, n_later = opening_nested_integral(op, -phis, op, phis, 5.0)
    np.testing.assert_allclose(n_later, n_window, rtol=0, atol=1e-16)


def test_broadcast_shapes():
    op = OpeningFunction.cos_sq_window(0.1)
    phis = np.linspace(-5, 5, 7)
    times = np.linspace(0, 0.2, 5)
    single = opening_phase_integral(op, phis, times)
    assert single.shape == (5, 7)
    outer, inner, nested = opening_nested_integral(op, phis, op, -phis, times)
    assert outer.shape == inner.shape == nested.shape == (5, 7)
    assert isinstance(opening_phase_integral(op, 1.0, 0.05), complex)
    assert all(isinstance(v, complex) for v in opening_nested_integral(op, 1.0, op, -1.0, 0.05))


# ---------------------------------------------------------------- chain phases
# The profile kernels at the phases the amplitude and dressing sums use on an
# N = 1000 chain: phi = +-(Omega +- w_k) with Omega = 2, for the slowest and
# the fastest mode (|phi t| up to about 5e2, where rounding in the phase
# grows) and for the modes nearest to resonance with a window component
# 2 pi / T.  The reference composes the 40-digit helpers above over
# exp_components().

CHAIN_RTOL = 1e-10
CHAIN_ATOL = 1e-15
CHAIN_TIMES = (0.0, 0.05, 0.1, 0.25)  # start, mid-window, window end, beyond
CHAIN_PROFILES = (OpeningFunction.constant(), OpeningFunction.sin_sq_window(0.1),
                  OpeningFunction.cos_sq_window(0.1))


def _chain_modes(chain):
    w = chain.frequencies
    resonance = 2.0 * np.pi / 0.1
    picks = {int(np.argmin(w)), int(np.argmax(w)),
             int(np.argmin(np.abs(2.0 + w - resonance))),
             int(np.argmin(np.abs(w - 2.0 - resonance)))}
    return w[sorted(picks)]


def mp_profile_integral(opening, phi, t):
    t = min(t, opening.window_end)
    return sum(c * mp_phase_integral(mpmath.mpf(nu) + mpmath.mpf(phi), t)
               for c, nu in opening.exp_components())


def mp_profile_nested(op1, phi1, op2, phi2, t):
    w2 = op2.window_end
    cap = min(t, op1.window_end)
    s = min(cap, w2)
    total = 0.0
    for ca, nua in op1.exp_components():
        alpha = mpmath.mpf(nua) + mpmath.mpf(phi1)
        for cb, nub in op2.exp_components():
            beta = mpmath.mpf(nub) + mpmath.mpf(phi2)
            term = mp_nested(alpha, beta, s)
            if cap > s:  # the inner integral has saturated on (w2, cap]
                term += mp_phase_integral(beta, w2) * (
                    mp_phase_integral(alpha, cap) - mp_phase_integral(alpha, s))
            total += ca * cb * term
    return total


def _assert_matches(got, want_fn, phis, label):
    for i, t in enumerate(CHAIN_TIMES):
        for j, phi in enumerate(phis):
            want = want_fn(phi, t)
            assert abs(got[i, j] - want) <= CHAIN_RTOL * abs(want) + CHAIN_ATOL, (
                f"{label} phi={phi!r} t={t}: got {got[i, j]!r}, want {want!r}")


@pytest.mark.parametrize("opening", CHAIN_PROFILES, ids=lambda op: op.variant)
def test_single_integral_vs_mpmath_at_chain_phases(chain1000, opening):
    w = _chain_modes(chain1000)
    phis = np.concatenate([-(2.0 + w), 2.0 + w, 2.0 - w, -(2.0 - w)])
    got = opening_phase_integral(opening, phis, CHAIN_TIMES)
    _assert_matches(got, lambda phi, t: mp_profile_integral(opening, phi, t), phis, "E")


@pytest.mark.parametrize("opening", CHAIN_PROFILES, ids=lambda op: op.variant)
@pytest.mark.parametrize("omega_b", [2.0, 2.5], ids=["phi2=-phi1", "phi2!=-phi1"])
def test_nested_integral_vs_mpmath_at_chain_phases(chain1000, opening, omega_b):
    # omega_b = 2 gives phi1 + phi2 = 0 for every mode (a column per component
    # pair); 2.5 gives +-0.5, which differs between the two branches (a grid)
    w = _chain_modes(chain1000)
    phi1 = np.concatenate([-(2.0 + w), 2.0 - w])
    phi2 = np.concatenate([omega_b + w, -(omega_b - w)])
    _, _, got = opening_nested_integral(opening, phi1, opening, phi2, CHAIN_TIMES)
    pairs = dict(zip(phi1, phi2))
    _assert_matches(got, lambda phi, t: mp_profile_nested(opening, phi, opening, pairs[phi], t),
                    phi1, "T")


def test_nested_integral_vs_mpmath_past_the_inner_window(chain1000):
    # the inner window ends at 0.05, inside the outer one: from there on the
    # inner integral is constant
    outer, inner = OpeningFunction.sin_sq_window(0.1), OpeningFunction.cos_sq_window(0.05)
    w = _chain_modes(chain1000)
    phi1 = np.concatenate([-(2.0 + w), 2.0 - w])
    _, _, got = opening_nested_integral(outer, phi1, inner, -phi1, CHAIN_TIMES)
    _assert_matches(got, lambda phi, t: mp_profile_nested(outer, phi, inner, -phi, t),
                    phi1, "T tail")


# ---------------------------------------------------------------- grid kernels
# The profile kernels evaluate each distinct exponential once over the whole
# (time, mode) grid.  These loops compose the elementwise primitives as the
# definitions read; the kernels must equal them exactly (the sign of a zero
# aside), since the oracle's fitted slope resolves last-digit changes.

def loop_phase_integral(opening, phi, t):
    tt = np.minimum(t, opening.window_end)[:, None]
    out = np.zeros((t.size, phi.size), dtype=complex)
    for c, nu in opening.exp_components():
        out = out + c * phase_integral(nu + phi, tt)
    return out


def loop_nested_integral(op1, phi1, op2, phi2, t):
    w2 = op2.window_end
    cap = np.minimum(t, op1.window_end)[:, None]
    s = np.minimum(cap, w2)
    out = np.zeros((t.size, phi1.size), dtype=complex)
    for ca, nua in op1.exp_components():
        a = nua + phi1
        for cb, nub in op2.exp_components():
            b = nub + phi2
            term = nested_phase_integral(a, b, s)
            if math.isfinite(w2):
                term = term + phase_integral(b, w2) * (phase_integral(a, cap)
                                                       - phase_integral(a, s))
            out = out + ca * cb * term
    return out


@pytest.mark.parametrize("opening", CHAIN_PROFILES + (OpeningFunction.sin_sq_window(0.0),),
                         ids=lambda op: f"{op.variant}-{op.window}")
def test_grid_kernels_equal_the_elementwise_loops(chain1000, opening):
    w = _chain_modes(chain1000)
    # 1e-7 takes E's series; 2 pi / 0.1 cancels a sin^2 component exactly
    phis = np.concatenate([-(2.0 + w), 2.0 - w, [0.0, 1e-7, -3e-3, 2.0 * np.pi / 0.1]])
    times = np.array([0.0, 1e-6, 0.013, 0.05, 0.1, 0.25])
    np.testing.assert_array_equal(opening_phase_integral(opening, phis, times),
                                  loop_phase_integral(opening, phis, times))
    inner = OpeningFunction.cos_sq_window(0.05)  # ends inside the others' windows
    for op2, phi2 in ((opening, -phis), (opening, 0.5 - phis), (inner, -phis)):
        np.testing.assert_array_equal(opening_nested_integral(opening, phis, op2, phi2, times)[2],
                                      loop_nested_integral(opening, phis, op2, phi2, times))


SINGLE_CASES = pytest.mark.parametrize("outer, inner", [
    (OpeningFunction.sin_sq_window(0.1), OpeningFunction.sin_sq_window(0.1)),
    (OpeningFunction.sin_sq_window(0.1), OpeningFunction.cos_sq_window(0.05)),
    (OpeningFunction.cos_sq_window(0.05), OpeningFunction.sin_sq_window(0.1)),
    (OpeningFunction.constant(), OpeningFunction.constant()),
    (OpeningFunction.constant(), OpeningFunction.cos_sq_window(0.05)),
], ids=["equal_windows", "inner_shorter", "inner_longer", "constant", "constant_outer"])
SINGLE_PHASES = np.array([0.0, -0.0, 1e-7, -3e-3, 2.0 * np.pi / 0.1])
SINGLE_TIMES = np.array([0.0, 1e-6, 0.013, 0.05, 0.07, 0.1, 0.25])


@SINGLE_CASES
def test_nested_returns_the_outer_single_integral_bitwise(chain1000, outer, inner):
    # inner_shorter and constant_outer have rows past the inner window, where
    # the outer integral is not the one the component pairs share
    w = _chain_modes(chain1000)
    phis = np.concatenate([-(2.0 + w), 2.0 - w, SINGLE_PHASES])
    times = SINGLE_TIMES
    # a row of zero phases takes E's broadcast column t
    for phi1 in (phis, np.zeros(3)):
        want = opening_phase_integral(outer, phi1, times).view(np.int64)
        for phi2 in (-phi1, 0.5 - phi1):
            got, _, _ = opening_nested_integral(outer, phi1, inner, phi2, times)
            np.testing.assert_array_equal(got.view(np.int64), want)
    for t in (0.0, 0.07):
        got, _, _ = opening_nested_integral(outer, 1.5, inner, -1.5, t)
        assert np.array(got).tobytes() == np.array(opening_phase_integral(outer, 1.5, t)).tobytes()


@SINGLE_CASES
def test_nested_returns_the_inner_single_integral_bitwise(chain1000, outer, inner):
    # phi2 = -phi1 makes the inner rows the conjugates of outer ones wherever
    # the profiles' components mirror (all but inner_longer; a row holding a
    # zero phase mirrors only where the zeros' signs do too); 0.5 - phi1
    # mirrors none.  inner_longer has rows past the outer window, where the
    # inner integral does not share the pairs' grid
    w = _chain_modes(chain1000)
    chain_phis = np.concatenate([-(2.0 + w), 2.0 - w])
    for phi1 in (chain_phis, np.concatenate([chain_phis, SINGLE_PHASES]), np.zeros(3)):
        for phi2 in (-phi1, 0.5 - phi1):
            _, got, _ = opening_nested_integral(outer, phi1, inner, phi2, SINGLE_TIMES)
            np.testing.assert_array_equal(
                got.view(np.int64), opening_phase_integral(inner, phi2, SINGLE_TIMES).view(np.int64))
    for t in (0.0, 0.07):
        _, got, _ = opening_nested_integral(outer, 1.5, inner, -1.5, t)
        assert np.array(got).tobytes() == np.array(opening_phase_integral(inner, -1.5, t)).tobytes()
    # skipping the inner integral leaves the other two as they were
    both = opening_nested_integral(outer, chain_phis, inner, -chain_phis, SINGLE_TIMES)
    skipped = opening_nested_integral(outer, chain_phis, inner, -chain_phis, SINGLE_TIMES,
                                      inner=False)
    assert skipped[1] is None
    assert [g.tobytes() for g in skipped[::2]] == [g.tobytes() for g in both[::2]]


# The outer components take their moments in one pass, on the union of the
# inner components' series elements (|beta s| < NESTED_SERIES_BELOW).  Phases near
# -nu_b select the elements of one inner component only; tiny times select
# every component's.
SELECTION_INNER = OpeningFunction.sin_sq_window(0.1)
NU = 2.0 * np.pi / 0.1
SELECTION_CASES = {
    "disjoint": ([-NU + 1e-3, -NU - 0.3, 2e-3, -0.1, NU - 4e-3, 300.0], [0.0, 0.05, 0.1, 0.25]),
    "overlapping": ([-NU + 1e-3, -NU - 0.3, 2e-3, -0.1, NU - 4e-3, 300.0],
                    [0.0, 1e-6, 1e-4, 0.05, 0.25]),
    "empty": ([300.0, 301.0, -302.5, 400.0, -350.0, 333.3], [0.0, 0.05, 0.1, 0.25]),
}


def _series_selections(phi2, times):
    s = np.minimum(times, SELECTION_INNER.window_end)[:, None]
    return [(np.abs(nu + phi2) * s < NESTED_SERIES_BELOW) & (s > 0.0)
            for _, nu in SELECTION_INNER.exp_components()]


@pytest.mark.parametrize("outer", [OpeningFunction.sin_sq_window(0.1),
                                   OpeningFunction.exp_ramp_then(0.2,
                                                                 OpeningFunction.cos_sq_window(0.1))],
                         ids=["sin_sq", "exp_ramp_then_cos_sq"])
@pytest.mark.parametrize("case", list(SELECTION_CASES))
def test_grid_kernels_equal_the_loops_on_shared_series_selections(outer, case):
    phi2, times = (np.array(v) for v in SELECTION_CASES[case])
    phi1 = np.array([-2.5, 0.0, 3.1, -40.0, 1e3, 7.0])
    masks = _series_selections(phi2, times)
    overlaps = [np.any(p & q) for i, p in enumerate(masks) for q in masks[i + 1:]]
    if case == "disjoint":
        assert sum(np.any(mask) for mask in masks) == 3 and not any(overlaps)
    elif case == "overlapping":
        assert all(overlaps) and not np.all(masks[0] == masks[1])
    else:
        assert not any(np.any(mask) for mask in masks)
    np.testing.assert_array_equal(opening_nested_integral(outer, phi1, SELECTION_INNER, phi2,
                                                          times)[2],
                                  loop_nested_integral(outer, phi1, SELECTION_INNER, phi2, times))


@pytest.mark.parametrize("opening, outer_components", [
    (OpeningFunction.constant(), 1), (OpeningFunction.sin_sq_window(0.1), 3),
], ids=["constant", "sin_sq"])
def test_moments_are_taken_in_one_pass_per_nested_call(chain1000, monkeypatch, opening,
                                                       outer_components):
    # the series needs M_1 ... M_7 of every (outer, inner) pair: 7 moment
    # passes per pair when each pair takes its own, 63 for a sin^2 window,
    # and 3 when each outer component takes one; here every outer component
    # takes its moments on the same union of series elements, in one pass
    calls = []
    moments = quadrature.phase_moments

    def counting(orders, phi, t):
        calls.append(np.size(phi))
        return moments(orders, phi, t)

    monkeypatch.setattr(quadrature, "phase_moments", counting)
    w = _chain_modes(chain1000)
    phis = np.concatenate([-(2.0 + w), 2.0 - w, [0.0, 1e-7]])
    times = np.array([0.0, 1e-6, 0.013, 0.05, 0.1, 0.25])
    s = np.minimum(times, opening.window_end)[:, None]
    union = np.zeros((times.size, phis.size), dtype=bool)
    for _, nu in opening.exp_components():
        union |= (np.abs(nu - phis) * s < NESTED_SERIES_BELOW) & (s > 0.0)
    assert np.any(union)
    opening_nested_integral(opening, phis, opening, -phis, times)
    assert calls == [outer_components * np.count_nonzero(union)]


SIN_SQ = OpeningFunction.sin_sq_window(0.1)
COUNT_PHASES = -(2.0 + np.array([0.3, 1.1, 1.9, 5.0, 17.0]))


@pytest.mark.parametrize("outer, phi2, inner, grids", [
    # the 6 nonzero pair phases come in 3 +- pairs and the inner singles
    # mirror the outer rows: 3 + 3 of the 15 rows
    (SIN_SQ, -COUNT_PHASES, True, 6),
    # the dressed sums' call: the same rows without the mirrored singles
    (SIN_SQ, -COUNT_PHASES, False, 6),
    # unequal splittings: nothing mirrors, each of the 15 rows once
    (SIN_SQ, 0.5 - COUNT_PHASES, True, 15),
    # the outer window ends first: 3 outer rows, the 9 pair phases less the
    # zero one and one mirror ((nu_a + phi1) - phi1 rounds to nu_a = +-2 pi /
    # 0.05 on these phases), and opening_phase_integral's 3 inner singles
    (OpeningFunction.sin_sq_window(0.05), -COUNT_PHASES, True, 3 + 7 + 3),
], ids=["mirrored", "inner_false", "unequal_splittings", "outer_ends_first"])
def test_nested_call_takes_one_exponential_per_mirrored_pair(monkeypatch, outer, phi2, inner,
                                                            grids):
    # no element is in T's series regime, so every exponential is a whole
    # (time, phase) grid of E
    elements = []
    cis = quadrature.cis

    def counting(x):
        elements.append(np.size(x))
        return cis(x)

    monkeypatch.setattr(quadrature, "cis", counting)
    times = np.array([0.0, 0.02, 0.05, 0.08, 0.12])
    opening_nested_integral(outer, COUNT_PHASES, SIN_SQ, phi2, times, inner=inner)
    assert elements == [times.size * COUNT_PHASES.size] * grids


def test_cis_equals_the_complex_exponential_bytewise():
    rng = np.random.default_rng(7)
    magnitudes = np.logspace(-320, 15, 3000)
    inputs = [
        rng.uniform(-3000.0, 3000.0, 10**6),
        rng.uniform(-1e-3, 1e-3, 10**6),
        rng.normal(size=10**6) * 1e5,
        np.concatenate([magnitudes, -magnitudes]),
        np.array([0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e15, -1e15]),
    ]
    for x in inputs:
        assert cis(x).tobytes() == np.exp(1j * x).tobytes()
        # sin odd and cos even, bit for bit: the nested kernel takes the
        # exponential of a negated phase row as the conjugate
        assert cis(-x).tobytes() == np.conj(cis(x)).tobytes()
    assert cis(0.5).shape == () and cis(0.5).dtype == complex
    # the one exception: 1j * -0.0 is (-0, +0), whose exp has imaginary part +0
    minus_zero = np.array([-0.0])
    assert np.signbit(cis(minus_zero).imag) and not np.signbit(np.exp(1j * minus_zero).imag)
    assert cis(minus_zero).real == 1.0
