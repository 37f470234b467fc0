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
#
# Inside these, t is a (T, 1) column and the phases are (K,) rows.  Each
# distinct phase row gets one exponential over the grid, and no more: E of
# an outer component is shared by its three component pairs, E of a pair
# phase that is exactly 0 (nu_a = -nu_b with phi2 = -phi1, as in every
# amplitude kernel) is the column t, the saturated-tail term is evaluated
# only on rows past the inner window end, and the small-argument series run
# on the elements that need them.  Every element is computed by the same
# floating-point operations as phase_integral and nested_phase_integral, so
# results equal the elementwise primitives exactly (up to the sign of a zero
# at t = 0, where T's series is skipped).  That is deliberate:
# the oracle's residuals are O(eps^4) differences of O(eps^2) amplitudes,
# so a last-digit change in the kernels moves its fitted slope by ~1e-11.
# Factoring e^{i (nu + phi) t} into e^{i nu t} e^{i phi t} would save
# about four fifths of the exponentials but changes those last digits.

def _below(phase, t, limit: float, rows=True):
    """Grid indices (ti, ki) of |phase t| < limit among the rows selected by
    the mask rows; only rows where the smallest |phase| qualifies are searched."""
    rows = np.flatnonzero(rows & (np.abs(t[:, 0]) * np.min(np.abs(phase), initial=np.inf) < limit))
    ti, ki = np.nonzero(np.abs(phase) * np.abs(t[rows]) < limit)
    return rows[ti], ki


def _grid_phase_integral(phase, t):
    """phase_integral(phase, t) on the (T, K) grid, element for element."""
    if not np.any(phase):
        return np.broadcast_to(phase_integral(0.0, t), (t.size, phase.size))
    out = (np.exp(1j * (phase * t)) - 1.0) / (1j * np.where(phase == 0.0, 1.0, phase))
    ti, ki = _below(phase, t, 1e-4)
    if ti.size:
        out[ti, ki] = phase_integral(phase[ki], t[ti, 0])
    return out


def _flatten(phi, t):
    phi = np.asarray(phi, dtype=float).reshape(-1)
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    return phi, t


def _restore_shape(out, t_in, phi_in):
    if np.ndim(t_in) == 0 and np.ndim(phi_in) == 0:
        return complex(out[0, 0])
    return out.reshape(np.shape(t_in) + np.shape(phi_in))


def opening_phase_integral(opening: OpeningFunction, phi, t):
    """int_0^t f(u) e^{i phi u} du for an opening profile.

    Result shape is t.shape + phi.shape.
    """
    phi_row, t_col = _flatten(phi, t)
    tt = np.minimum(t_col, opening.window_end)
    out = np.zeros((tt.size, phi_row.size), dtype=complex)
    for c, nu in opening.exp_components():
        out = out + c * _grid_phase_integral(nu + phi_row, tt)
    return _restore_shape(out, t, phi)


def opening_nested_integral(opening_outer: OpeningFunction, phi_outer,
                            opening_inner: OpeningFunction, phi_inner, t):
    """int_0^t dt' f1(t') e^{i phi1 t'} int_0^t' dt'' f2(t'') e^{i phi2 t''}.

    phi_outer and phi_inner must have the same shape; the result has shape
    t.shape + phi.shape.  Over the component pairs, with alpha = nu_a + phi1
    and beta = nu_b + phi2, it is sum c_a c_b [T(alpha, beta; s) + E(beta; w2)
    (E(alpha; cap) - E(alpha; s))] for cap = min(t, w1) and s = min(cap, w2):
    past the inner window end w2 the inner integral has saturated.
    """
    if np.atleast_1d(phi_outer).shape != np.atleast_1d(phi_inner).shape:
        raise ValueError("phi_outer and phi_inner must have matching shapes")
    phi1, t_col = _flatten(phi_outer, t)
    phi2 = np.asarray(phi_inner, dtype=float).reshape(-1)
    w2 = opening_inner.window_end
    cap = np.minimum(t_col, opening_outer.window_end)
    s = np.minimum(cap, w2)
    past = np.flatnonzero(cap[:, 0] > s[:, 0])
    started = s[:, 0] != 0.0  # T(alpha, beta; 0) = 0 needs no series
    out = np.zeros((s.size, phi1.size), dtype=complex)
    for ca, nua in opening_outer.exp_components():
        a = nua + phi1
        e_a = _grid_phase_integral(a, s)
        for cb, nub in opening_inner.exp_components():
            b = nub + phi2
            # T's difference form, and its series where |beta s| is small
            term = (_grid_phase_integral(a + b, s) - e_a) / (1j * np.where(b == 0.0, 1.0, b))
            ti, ki = _below(b, s, NESTED_SERIES_BELOW, started)
            if ti.size:
                term[ti, ki] = nested_phase_integral(a[ki], b[ki], s[ti, 0])
            if past.size:
                term[past] += phase_integral(b, w2) * (
                    _grid_phase_integral(a, cap[past]) - e_a[past])
            out = out + ca * cb * term
    return _restore_shape(out, t, phi_outer)
