"""Oscillatory time integrals shared by the amplitude and cloud modules.

Two primitives cover every kernel in the package:

    E(phi; t)         = int_0^t e^{i phi u} du
    T(alpha, beta; t) = int_0^t dt' e^{i alpha t'} int_0^t' dt'' e^{i beta t''}

Profiles with an exponential decomposition (constant, sin^2 and cos^2
windows) are integrated in closed form through these primitives; any other
integrand falls back to composite Gauss-Legendre panels that are doubled
until successive refinements agree.

The profile-level helpers follow one broadcast contract: for phases of
shape ``P`` and upper limits of shape ``S`` the result has shape ``S + P``
(scalars stay scalar).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalFailureError
from .openings import OpeningFunction

# Gauss-Legendre fallback configuration: >= 20 nodes per period of the
# fastest phase, refined until |new - old| <= QUAD_ATOL + QUAD_RTOL |new|.
NODES_PER_PANEL = 16
NODES_PER_PERIOD = 20
QUAD_RTOL = 1e-10
QUAD_ATOL = 1e-13
MAX_DOUBLINGS = 12
# T takes its 7-term series below |beta t| = 3e-2, where it truncates below
# 1e-15; the difference form cancels -log10|beta t| digits, 8 of them at 1e-4
NESTED_SERIES_BELOW = 3e-2

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(NODES_PER_PANEL)


def phase_integral(phi, t):
    """E(phi; t) = int_0^t e^{i phi u} du, elementwise over broadcast inputs."""
    phi = np.asarray(phi, dtype=float)
    t = np.asarray(t, dtype=float)
    x = phi * t
    small = np.abs(x) < 1e-4
    xs = np.where(small, x, 0.0)
    series = t * (1.0 + 1j * xs / 2.0 - xs**2 / 6.0 - 1j * xs**3 / 24.0 + xs**4 / 120.0)
    safe_phi = np.where(small, 1.0, phi)
    direct = (np.exp(1j * x) - 1.0) / (1j * safe_phi)
    return np.where(small, series, direct)


def phase_moment(m: int, phi, t):
    """int_0^t u^m e^{i phi u} du."""
    phi, t = np.broadcast_arrays(np.asarray(phi, dtype=float), np.asarray(t, dtype=float))
    shape = phi.shape
    phi, t = phi.ravel(), t.ravel()
    x = phi * t
    small = np.abs(x) < 2.0
    out = np.empty(phi.size, dtype=complex)

    if np.any(small):
        # series sum_n (ix)^n / (n! (m+n+1)); 40 terms is plenty for |x| < 2
        ts = t[small]
        ix = 1j * x[small]
        ser = np.zeros(ts.size, dtype=complex)
        term = np.ones(ts.size, dtype=complex)
        for n_it in range(40):
            ser = ser + term / (m + n_it + 1)
            term = term * ix / (n_it + 1)
        out[small] = ser * ts ** (m + 1)

    big = ~small
    if np.any(big):
        # upward recurrence M_j = (t^j e^{ix} - j M_{j-1}) / (i phi), fine for |x| >= 2
        pb, tb = phi[big], t[big]
        rec = phase_integral(pb, tb)
        e = np.exp(1j * x[big])
        for j in range(1, m + 1):
            rec = (tb**j * e - j * rec) / (1j * pb)
        out[big] = rec
    return out.reshape(shape)


def nested_phase_integral(alpha, beta, t):
    """T(alpha, beta; t) = int_0^t e^{i alpha t'} int_0^t' e^{i beta t''} dt'' dt'."""
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
        # small-beta series: sum_q (i beta)^q / (q+1)! * M_{q+1}(alpha; t)
        a, b, ts = alpha[small], beta[small], t[small]
        ser = np.zeros(a.size, dtype=complex)
        power = np.ones(a.size, dtype=complex)
        fact = 1.0
        for q in range(7):
            fact *= q + 1
            ser = ser + power / fact * phase_moment(q + 1, a, ts)
            power = power * (1j * b)
        out[small] = ser
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# profile-aware integrals
# ---------------------------------------------------------------------------

def opening_phase_integral(opening: OpeningFunction, phi, t, method: str = "auto"):
    """int_0^t f(u) e^{i phi u} du for an opening profile.

    Result shape is t.shape + phi.shape.
    """
    comps = opening.exp_components() if method != "quad" else None
    phi_in, t_in = phi, t
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if comps is not None:
        tt = np.minimum(t, opening.window_end)[..., None]
        out = np.zeros(t.shape + phi.shape, dtype=complex)
        for c, nu in comps:
            out = out + c * phase_integral(nu + phi, tt)
    else:
        out = _gl_phase_integral(opening, phi.ravel(), t.ravel()).reshape(t.shape + phi.shape)
    return _restore_shape(out, t_in, phi_in)


def opening_nested_integral(opening_outer: OpeningFunction, phi_outer,
                            opening_inner: OpeningFunction, phi_inner,
                            t, method: str = "auto"):
    """int_0^t dt' f1(t') e^{i phi1 t'} int_0^t' dt'' f2(t'') e^{i phi2 t''}.

    phi_outer and phi_inner must have the same shape; the result has shape
    t.shape + phi.shape.
    """
    c1 = opening_outer.exp_components() if method != "quad" else None
    c2 = opening_inner.exp_components() if method != "quad" else None
    phi1_in, t_in = phi_outer, t
    phi1 = np.atleast_1d(np.asarray(phi_outer, dtype=float))
    phi2 = np.atleast_1d(np.asarray(phi_inner, dtype=float))
    if phi1.shape != phi2.shape:
        raise ValueError("phi_outer and phi_inner must have matching shapes")
    t = np.atleast_1d(np.asarray(t, dtype=float))

    if c1 is None or c2 is None:
        out = _gl_nested_integral(
            opening_outer, phi1.ravel(), opening_inner, phi2.ravel(), t.ravel()
        ).reshape(t.shape + phi1.shape)
        return _restore_shape(out, t_in, phi1_in)

    w1 = opening_outer.window_end
    w2 = opening_inner.window_end
    cap = np.minimum(t, w1)[..., None]
    s = np.minimum(cap, w2)
    out = np.zeros(t.shape + phi1.shape, dtype=complex)
    for ca, nua in c1:
        a = nua + phi1
        for cb, nub in c2:
            b = nub + phi2
            term = nested_phase_integral(a, b, s)
            if math.isfinite(w2):
                # region s < t' <= cap where the inner integral has saturated
                term = term + phase_integral(b, w2) * (
                    phase_integral(a, cap) - phase_integral(a, s)
                )
            out = out + ca * cb * term
    return _restore_shape(out, t_in, phi1_in)


def _restore_shape(out, t_in, phi_in):
    if np.ndim(t_in) == 0 and np.ndim(phi_in) == 0:
        return complex(out[0, 0])
    if np.ndim(t_in) == 0:
        return out[0]
    if np.ndim(phi_in) == 0:
        return out[..., 0]
    return out


# ---------------------------------------------------------------------------
# Gauss-Legendre fallback
# ---------------------------------------------------------------------------

def _panel_count(t: float, fastest: float) -> int:
    periods = abs(t) * fastest / (2.0 * np.pi)
    return max(1, math.ceil(periods * NODES_PER_PERIOD / NODES_PER_PANEL))


def _fastest_frequency(opening: OpeningFunction, phi) -> float:
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


def _gl_phase_integral(opening, phi, ts):
    fastest = _fastest_frequency(opening, phi)
    out = np.empty((ts.size, phi.size), dtype=complex)
    for i, tv in enumerate(ts):
        out[i] = _refine(
            lambda n: _gl_phase_once(opening, phi, float(tv), n),
            _panel_count(float(tv), fastest),
        )
    return out


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


def _gl_nested_integral(op1, phi1, op2, phi2, ts):
    fastest = max(_fastest_frequency(op1, phi1), _fastest_frequency(op2, phi2))
    out = np.empty((ts.size, phi1.size), dtype=complex)
    for i, tv in enumerate(ts):
        out[i] = _refine(
            lambda n: _gl_nested_once(op1, phi1, op2, phi2, float(tv), n),
            _panel_count(float(tv), fastest),
        )
    return out


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
