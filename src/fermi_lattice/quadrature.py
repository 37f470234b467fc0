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
# (outer component, series element) pairs whose moments one pass takes, 450 B each
NESTED_SERIES_CHUNK = 2**12


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
# Inside these, t is a (T, 1) column and the phases are (K,) rows.  One
# exponential over the grid is taken per +- pair of distinct phase rows:
# E(-phi; s) is conj(E(phi; s)) bit for bit (numpy's sin is odd and its cos
# even, and its complex division by 1j phi is sign-symmetric), so a nested
# call takes a row that is the exact negation of one it has evaluated as
# that grid's conjugate.  With equal splittings and a shared opening the
# inner phases are the negatives of the outer ones: the pair phases (j, i)
# and (i*, j*) mirror each other (nu_i* = -nu_i), and so do the inner
# singles nu_j + phi2 and the outer rows nu_j* + phi1, which halves the
# exponentials; with unequal splittings nothing mirrors.  E of an outer
# component is shared by its three component pairs, E of a pair phase that
# is exactly 0 (nu_a = -nu_b with phi2 = -phi1, as in every amplitude
# kernel) is the column t, the saturated-tail term is evaluated only on rows
# past the inner window end, and the small-argument series run on the
# elements that need them.  T's series takes the moments M_1 ... M_7 of the
# outer components on the union of the inner components' series elements, in
# passes of at most NESTED_SERIES_CHUNK (component, element) pairs (one pass in
# every figure and benchmark block), and each pair gathers its elements from
# those tables (numpy's complex *, /, + and cos/sin give an element the
# same bytes wherever it sits in an array).  Every element is computed by the
# same floating-point operations as the elementwise E and T (kept in
# tests/test_quadrature.py as the references), so results equal the
# elementwise primitives exactly (up to the sign of a zero, which the
# zero-initialised sums drop).  That is deliberate: the oracle's residuals
# are O(eps^4) differences of O(eps^2) amplitudes, so a last-digit change in
# the kernels moves its fitted slope by ~1e-11.  Factoring e^{i (nu + phi) t}
# into e^{i nu t} e^{i phi t} would save about four fifths of the
# exponentials but changes those last digits.
#
# The nested integral also returns both single integrals, sum c E(phase;
# min(t, w)) of each profile, which the bare amplitude needs (the dressed
# sums need the outer one only, and skip the inner one).  The outer one, with cap = min(t, w1), is sum c_a
# E(alpha; cap): on the rows inside the inner window cap = s, so E(alpha;
# cap) is the e_a that the component pairs already use; on the rows past it
# E(alpha; cap) is taken once per outer component, and the pairs'
# saturated-tail terms share it.  The inner one is sum c_b E(beta; s) when
# min(t, w2) = s on every row, so its rows can mirror the outer ones.  Each
# is summed in opening_phase_integral's order from the same zeros, so the
# results are equal bit for bit.

def _pair_series(alphas, betas, flat, s):
    """values[j][i]: T(alpha_i, beta_j; s) by its series on the grid indices flat[j]
    (from _below), with the moments of each alpha_i on their union, in chunks."""
    union, n = np.unique(np.concatenate(flat)), alphas[0].size
    values = [[np.empty(f.size, dtype=complex) for _ in alphas] for f in flat]
    step = max(1, NESTED_SERIES_CHUNK // len(alphas))
    for part in (union[c:c + step] for c in range(0, union.size, step)):
        moments = phase_moments(NESTED_ORDERS, np.concatenate([a[part % n] for a in alphas]),
                                np.tile(s[part // n, 0], len(alphas)))
        for b, f, v in zip(betas, flat, values):
            lo, hi = np.searchsorted(f, [part[0], part[-1] + 1])
            at, b_at = np.searchsorted(part, f[lo:hi]), b[f[lo:hi] % n]
            for i, v_i in enumerate(v):
                v_i[lo:hi] = _nested_series(moments[:, i * part.size + at], b_at)
    return values


def _below(phase, t, limit: float, rows=True):
    """Sorted flat (time, phase) grid indices of |phase t| < limit in the rows of
    the mask rows, searching only rows where the smallest |phase| qualifies."""
    rows = np.flatnonzero(rows & (np.abs(t[:, 0]) * np.min(np.abs(phase), initial=np.inf) < limit))
    ti, ki = np.nonzero(np.abs(phase) * np.abs(t[rows]) < limit)
    return rows[ti] * phase.size + ki


def phase_integral(phase, t):
    """E(phase; t) on the (T, K) grid of a (K,) row of phases and a (T, 1)
    column of times: the closed form, and its 5-term series below
    |phase t| = 1e-4, where the closed form would cancel 4 digits or more."""
    if not np.any(phase):
        return np.broadcast_to(t * (1.0 + 0j), (t.size, phase.size))
    out = (cis(phase * t) - 1.0) / (1j * np.where(phase == 0.0, 1.0, phase))
    ti, ki = np.divmod(_below(phase, t, 1e-4), phase.size)
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


class _MirroredGrids:
    """E(phase; t) for a fixed sequence of (K,) phase rows, taken in order:
    a row that is the exact negation of a row evaluated before it is that
    grid's conjugate, and a grid is held only until its mirror takes it."""

    def __init__(self, phases, t):
        self.phases, self.t = phases, t
        self.source, self.held = {}, {}
        open_rows = {}
        for k, p in enumerate(phases):
            if not np.any(p):  # a zero row is the column t, no exponential
                continue
            m = open_rows.pop(np.negative(p).tobytes(), None)
            if m is None:
                open_rows.setdefault(p.tobytes(), k)
            else:
                self.source[k] = m
        self.hold = set(self.source.values())

    def take(self, k):
        if k in self.source:
            return np.conj(self.held.pop(self.source[k]))
        grid = phase_integral(self.phases[k], self.t)
        if k in self.hold:
            self.held[k] = grid
        return grid


def opening_nested_integral(opening_outer: OpeningFunction, phi_outer,
                            opening_inner: OpeningFunction, phi_inner, t, *, inner=True):
    """(outer, inner, nested): int_0^t f1(u) e^{i phi1 u} du and
    int_0^t f2(u) e^{i phi2 u} du, equal to opening_phase_integral of each
    profile and phase bit for bit, and
    int_0^t dt' f1(t') e^{i phi1 t'} int_0^t' dt'' f2(t'') e^{i phi2 t''}.
    With inner=False the inner single integral is not taken, and is None.

    phi_outer and phi_inner must have the same shape; each result has shape
    t.shape + phi.shape.  Over the component pairs, with alpha = nu_a + phi1
    and beta = nu_b + phi2, nested is sum c_a c_b [T(alpha, beta; s) + E(beta; w2)
    (E(alpha; cap) - E(alpha; s))] for cap = min(t, w1) and s = min(cap, w2):
    past the inner window end w2 the inner integral has saturated.  outer is
    sum c_a E(alpha; cap) and inner sum c_b E(beta; min(t, w2)).
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
    outer, out = (np.zeros((s.size, phi1.size), dtype=complex) for _ in range(2))
    single = np.zeros_like(outer) if inner else None
    alphas = [(ca, nua + phi1) for ca, nua in opening_outer.exp_components()]
    betas = [(cb, nub + phi2) for cb, nub in opening_inner.exp_components()]
    # T's series elements, where |beta s| is small, of each inner component, as
    # flat (time, phase) indices, and the series of every component pair there
    flat = [_below(b, s, NESTED_SERIES_BELOW, started) for _, b in betas]
    series = _pair_series([a for _, a in alphas], [b for _, b in betas], flat, s)
    # the inner single integral shares the grid s, and may mirror its rows,
    # unless the outer window ends first
    singles = inner and np.array_equal(np.minimum(t_col, w2), s)
    if inner and not singles:
        single = opening_phase_integral(opening_inner, phi2, t_col[:, 0])
    # the E(phase; s) rows in the order the sums take them: alpha_i, then each
    # pair phase alpha_i + beta_j, and the inner singles beta_j last
    order = [(i, j, a if j is None else a + betas[j][1])
             for i, (_, a) in enumerate(alphas) for j in (None, *range(len(betas)))]
    if singles:
        order += [(None, j, b) for j, (_, b) in enumerate(betas)]
    grids = _MirroredGrids([phase for _, _, phase in order], s)
    for k, (i, j, _) in enumerate(order):
        if i is None:
            single = single + betas[j][0] * grids.take(k)
            continue
        ca, a = alphas[i]
        if j is None:
            e_a = grids.take(k)
            e_cap = e_a
            if past.size:
                e_cap = np.array(e_a)
                e_cap[past] = phase_integral(a, cap[past])
            outer = outer + ca * e_cap
            continue
        # T's difference form, and its series where |beta s| is small
        cb, b = betas[j]
        term = (grids.take(k) - e_a) / (1j * np.where(b == 0.0, 1.0, b))
        np.put(term, flat[j], series[j][i])
        if past.size:
            term[past] += phase_integral(b, np.array([[w2]])) * (e_cap[past] - e_a[past])
        out = out + ca * cb * term
    single = None if single is None else _restore_shape(single, t, phi_outer)
    return _restore_shape(outer, t, phi_outer), single, _restore_shape(out, t, phi_outer)
