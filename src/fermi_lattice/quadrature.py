"""Oscillatory time integrals shared by the amplitude and cloud modules.

Two primitives cover every kernel in the package:

    E(phi; t)         = int_0^t e^{i phi u} du
    T(alpha, beta; t) = int_0^t dt' e^{i alpha t'} int_0^t' dt'' e^{i beta t''}

Every opening profile is a finite sum of exponentials on its support
(``OpeningFunction.exp_components``), so each profile integral is a linear
combination of these primitives, evaluated in closed form.

The profile-level helpers follow one broadcast contract: for phases of
shape ``P`` and upper limits of shape ``S`` the result has shape ``S + P``
(scalars stay scalar).
"""

from __future__ import annotations

import math

import numpy as np

from .openings import OpeningFunction

# T takes its 7-term series below |beta t| = 3e-2, where it truncates below
# 1e-15; the difference form cancels -log10|beta t| digits, 8 of them at 1e-4
NESTED_SERIES_BELOW = 3e-2


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

def opening_phase_integral(opening: OpeningFunction, phi, t):
    """int_0^t f(u) e^{i phi u} du for an opening profile.

    Result shape is t.shape + phi.shape.
    """
    phi_in, t_in = phi, t
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tt = np.minimum(t, opening.window_end)[..., None]
    out = np.zeros(t.shape + phi.shape, dtype=complex)
    for c, nu in opening.exp_components():
        out = out + c * phase_integral(nu + phi, tt)
    return _restore_shape(out, t_in, phi_in)


def opening_nested_integral(opening_outer: OpeningFunction, phi_outer,
                            opening_inner: OpeningFunction, phi_inner, t):
    """int_0^t dt' f1(t') e^{i phi1 t'} int_0^t' dt'' f2(t'') e^{i phi2 t''}.

    phi_outer and phi_inner must have the same shape; the result has shape
    t.shape + phi.shape.
    """
    c1 = opening_outer.exp_components()
    c2 = opening_inner.exp_components()
    phi1_in, t_in = phi_outer, t
    phi1 = np.atleast_1d(np.asarray(phi_outer, dtype=float))
    phi2 = np.atleast_1d(np.asarray(phi_inner, dtype=float))
    if phi1.shape != phi2.shape:
        raise ValueError("phi_outer and phi_inner must have matching shapes")
    t = np.atleast_1d(np.asarray(t, dtype=float))

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

