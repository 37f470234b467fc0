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
# the moments M_1 ... M_7 that series takes
NESTED_ORDERS = range(1, 8)


def cis(x) -> np.ndarray:
    """e^{ix} for real x: cos and sin written into one complex array.

    Byte for byte np.exp(1j * x), without its complex temporary and
    complex exponential, except at x = -0.0: there 1j * x is (-0, +0), so
    exp has imaginary part +0, where cis keeps sin(-0) = -0.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def phase_moments(orders: range, phi, t):
    """int_0^t u^m e^{i phi u} du for each m in a range of consecutive
    orders, stacked: the result has shape (len(orders),) + the broadcast
    shape of phi and t.

    The series terms and the recurrence do not depend on m, so each runs
    once for all orders; row m equals what one order alone would give."""
    phi, t = np.broadcast_arrays(np.asarray(phi, dtype=float), np.asarray(t, dtype=float))
    shape = phi.shape
    phi, t = phi.ravel(), t.ravel()
    x = phi * t
    small = np.abs(x) < 2.0
    out = np.empty((len(orders), phi.size), dtype=complex)

    if np.any(small):
        # series sum_n (ix)^n / (n! (m+n+1)); 40 terms is plenty for |x| < 2
        ts = t[small]
        ix = 1j * x[small]
        ser = np.zeros((len(orders), ts.size), dtype=complex)
        term = np.ones(ts.size, dtype=complex)
        m = np.array(orders)[:, None]
        for n_it in range(40):
            ser = ser + term / (m + n_it + 1)
            term = term * ix / (n_it + 1)
        for row, mi in enumerate(orders):
            out[row, small] = ser[row] * ts ** (mi + 1)

    big = ~small
    if np.any(big):
        # upward recurrence M_j = (t^j e^{ix} - j M_{j-1}) / (i phi) from M_0 = E, for |x| >= 2
        pb, tb = phi[big], t[big]
        e = cis(x[big])
        rec = (e - 1.0) / (1j * pb)
        for j in range(orders.stop):
            if j:
                rec = (tb**j * e - j * rec) / (1j * pb)
            if j >= orders.start:
                out[j - orders.start, big] = rec
    return out.reshape((len(orders),) + shape)


def _nested_series(moments, beta):
    """The small-beta series of T: sum_q (i beta)^q / (q+1)! M_{q+1}, for
    moments = phase_moments(NESTED_ORDERS, alpha, t)."""
    ser = np.zeros(beta.size, dtype=complex)
    power = np.ones(beta.size, dtype=complex)
    fact = 1.0
    for q in range(7):
        fact *= q + 1
        ser = ser + power / fact * moments[q]
        power = power * (1j * beta)
    return ser


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
# on the elements that need them.  T's series takes the moments M_1 ... M_7
# of the outer phase in one phase_moments pass per outer component, on the
# union of the inner components' series elements, and each component pair
# gathers its elements from that table (numpy's complex *, /, + and cos/sin
# give an element the same bytes wherever it sits in an array).  Every
# element is computed by the same floating-point operations as the
# elementwise E and T (kept in tests/test_quadrature.py as the references),
# so results equal the elementwise primitives exactly (up to the sign of a
# zero at t = 0, where T's series is skipped).  That is deliberate: the
# oracle's residuals are O(eps^4) differences of O(eps^2) amplitudes, so a
# last-digit change in the kernels moves its fitted slope by ~1e-11.
# Factoring e^{i (nu + phi) t} into e^{i nu t} e^{i phi t} would save about
# four fifths of the exponentials but changes those last digits.

def _below(phase, t, limit: float, rows=True):
    """Grid indices (ti, ki) of |phase t| < limit among the rows selected by
    the mask rows; only rows where the smallest |phase| qualifies are searched."""
    rows = np.flatnonzero(rows & (np.abs(t[:, 0]) * np.min(np.abs(phase), initial=np.inf) < limit))
    ti, ki = np.nonzero(np.abs(phase) * np.abs(t[rows]) < limit)
    return rows[ti], ki


def phase_integral(phase, t):
    """E(phase; t) on the (T, K) grid of a (K,) row of phases and a (T, 1)
    column of times: the closed form, and its 5-term series below
    |phase t| = 1e-4, where the closed form would cancel 4 digits or more."""
    if not np.any(phase):
        return np.broadcast_to(t * (1.0 + 0j), (t.size, phase.size))
    out = (cis(phase * t) - 1.0) / (1j * np.where(phase == 0.0, 1.0, phase))
    ti, ki = _below(phase, t, 1e-4)
    if ti.size:
        ts = t[ti, 0]
        x = phase[ki] * ts
        out[ti, ki] = ts * (1.0 + 1j * x / 2.0 - x**2 / 6.0 - 1j * x**3 / 24.0 + x**4 / 120.0)
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
        out = out + c * phase_integral(nu + phi_row, tt)
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
    inner = [(cb, nub + phi2) for cb, nub in opening_inner.exp_components()]
    # T's series elements, where |beta s| is small, of each inner component;
    # the moments of each outer component are taken once on their union
    below = [_below(b, s, NESTED_SERIES_BELOW, started) for _, b in inner]
    flat = [ti * phi1.size + ki for ti, ki in below]
    union = np.unique(np.concatenate(flat))
    gather = [np.searchsorted(union, f) for f in flat]
    tu, ku = np.divmod(union, phi1.size)
    for ca, nua in opening_outer.exp_components():
        a = nua + phi1
        e_a = phase_integral(a, s)
        if union.size:
            moments = phase_moments(NESTED_ORDERS, a[ku], s[tu, 0])
        for (cb, b), (ti, ki), idx in zip(inner, below, gather):
            # T's difference form, and its series where |beta s| is small
            term = (phase_integral(a + b, s) - e_a) / (1j * np.where(b == 0.0, 1.0, b))
            if ti.size:
                term[ti, ki] = _nested_series(moments[:, idx], b[ki])
            if past.size:
                term[past] += phase_integral(b, np.array([[w2]])) * (
                    phase_integral(a, cap[past]) - e_a[past])
            out = out + ca * cb * term
    return _restore_shape(out, t, phi_outer)
