"""Perturbatively dressed states, the three selection schemes, and the
dressed transition amplitude.

An adiabatic switch-on leaves the system in the dressed ground state
|G> = |G0> + eps |G1> + eps^2 |G2| + O(eps^3); the excitation pulse on
site A then selects one of three initial states, labelled by constants
(d1, d2):

    sigma_x^A on |G>             (d1, d2) = (1, 0)
    sigma_+^A with post-selection (d1, d2) = (0, 1)
    bare |up_A down_B 0>          (d1, d2) = (0, 0)

The amplitude is linear in the constants, A/eps^2 = B + (d1 + d2) X + d1 Y.
With mode weights c_ba = conj(lam_Bk) lam_Ak and c_ab = conj(c_ba), B sums the
two nested integrals, X and Y one single integral each, and Y's static part
sum_k (c_ba + c_ab) / (2 Omega (Omega + w_k)) is the mutual dressing G(a, b)/eps^2
of static_dressing_amplitude, on any basis.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .amplitude import AmplitudeTrace
from .causality import map_row_blocks
from .errors import InvalidParametersError, UnsupportedConfigurationError
from .modes import ChainParams, ModeBasis, Scenario, build_harmonic_chain
from .openings import OpeningFunction
# opening_phase_integral is not called here (the nested integral returns the
# single ones); perfbench/spans.py traces the quadrature calls by this name
from .quadrature import opening_nested_integral, opening_phase_integral  # noqa: F401


class SpinPattern(enum.Enum):
    DOWN_DOWN = "dd"
    UP_DOWN = "ud"
    DOWN_UP = "du"
    UP_UP = "uu"


class DressingScheme(enum.Enum):
    SIGMA_X = (1, 0)
    SIGMA_PLUS = (0, 1)
    BARE = (0, 0)

    @property
    def d1(self) -> int:
        return self.value[0]

    @property
    def d2(self) -> int:
        return self.value[1]


# phonon content of a term: tuple of (mode index, count), sorted by mode
Occupation = tuple[tuple[int, int], ...]

# a term's spin code 2 s_A + s_B, also the oracle's Fock sector, indexes this tuple
SPIN_PATTERNS = (SpinPattern.DOWN_DOWN, SpinPattern.DOWN_UP, SpinPattern.UP_DOWN,
                 SpinPattern.UP_UP)
_DD, _DU, _UD, _UU = range(4)


@dataclass(frozen=True, slots=True)
class ExpansionTerm:
    order: int
    spins: SpinPattern
    phonons: Occupation
    coeff: complex


@dataclass(frozen=True, eq=False)
class StateExpansion:
    """A perturbative ket as a sum of configurations, graded by powers of
    epsilon; coefficients are stored without their epsilon^order factor.

    The terms are stored as read-only columns, one row per term: ``order``,
    ``spins`` (2 s_A + s_B, a code into SPIN_PATTERNS), ``modes``/``counts``
    (the term's (mode, count) pairs, padded with -1/0 to a common width) and
    ``coeff``.  ``terms`` gives the rows back as ExpansionTerm objects, built
    on first access."""

    epsilon: float
    order: np.ndarray
    spins: np.ndarray
    modes: np.ndarray
    counts: np.ndarray
    coeff: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "epsilon", float(self.epsilon))
        for name, dtype in (("order", np.int8), ("spins", np.int8), ("modes", np.int64),
                            ("counts", np.int64), ("coeff", complex)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        # a slot holds a (mode, count) pair >= 0, or the padding (-1, 0)
        pad = self.modes == -1
        if np.any(self.counts[pad] != 0) or np.any(self.modes[~pad] < 0) or np.any(self.counts < 0):
            raise InvalidParametersError("phonon modes and counts must be >= 0")
        zero = np.flatnonzero(self.order == 0)
        if zero.size != 1 or self.coeff[zero[0]] != 1.0 or np.any(self.modes[zero[0]] >= 0):
            raise InvalidParametersError(
                "expansion must have exactly one unit-coefficient zero-phonon order-0 term"
            )
        bad = np.flatnonzero(self.order % 2 != self.counts.sum(axis=1) % 2)
        if bad.size:
            raise InvalidParametersError(f"order/phonon parity mismatch in row {bad[0]}")

    @functools.cached_property
    def terms(self) -> tuple[ExpansionTerm, ...]:
        """Every row as an ExpansionTerm with Python numbers, in storage order
        (built once); equal (mode, count) pairs share one tuple."""
        filled = self.modes >= 0
        shared = {}
        pairs = [shared.setdefault(p, p) for p in zip(self.modes[filled].tolist(),
                                                       self.counts[filled].tolist())]
        ends = np.cumsum(filled.sum(axis=1)).tolist()
        return tuple(ExpansionTerm(order, SPIN_PATTERNS[spins], tuple(pairs[start:end]), coeff)
                     for order, spins, start, end, coeff in zip(
                         self.order.tolist(), self.spins.tolist(), [0] + ends[:-1], ends,
                         self.coeff.tolist()))


def _require_equal_splittings(scenario: Scenario) -> float:
    if scenario.omega_a != scenario.omega_b:
        raise UnsupportedConfigurationError(
            "dressing is implemented for equal splittings only, got scenario.omega_a = "
            f"{scenario.omega_a!r} and scenario.omega_b = {scenario.omega_b!r}"
        )
    # every energy denominator (Omega + w_k, 2 Omega, 2 Omega + w_k + w_l)
    # must stay positive
    if scenario.omega_a <= 0:
        raise UnsupportedConfigurationError(
            "dressing needs a positive level splitting, so that its energy denominators "
            f"Omega + w_k stay positive; got scenario.omega_a = {scenario.omega_a!r}"
        )
    return scenario.omega_a


def _shared_opening(scenario: Scenario) -> OpeningFunction:
    """The post-ramp opening profile f0 that both sites must share."""
    f0 = scenario.opening_a.post_ramp()
    if f0 != scenario.opening_b.post_ramp():
        raise UnsupportedConfigurationError(
            "dressing needs scenario.opening_a and scenario.opening_b to share one "
            "post-ramp opening profile"
        )
    return f0


def dressed_ground_state(basis: ModeBasis, scenario: Scenario) -> StateExpansion:
    """Dressed ground state through second order.

    Two-mode contributions are collected per unordered configuration: the
    coefficient of |1_k 1_l> (k < l) carries the symmetrized energy
    denominators 1/(Omega+w_k) + 1/(Omega+w_l).
    """
    scenario.check_sites(basis.n_sites)
    om = _require_equal_splittings(scenario)
    w = basis.frequencies
    la = np.conj(basis.row(scenario.site_a))
    lb = np.conj(basis.row(scenario.site_b))
    n_modes = basis.n_modes
    denom = om + w

    # order 2, one (k, l >= k) pair per entry in row-major order; k == l is |2_k>
    k, l = np.triu_indices(n_modes)
    diagonal = k == l
    sym = 1.0 / (om + w[k]) + 1.0 / (om + w[l])
    down_down = (la[k] * la[l] + lb[k] * lb[l]) * sym / (w[k] + w[l])
    up_up = (la[k] * lb[l] + la[l] * lb[k]) * sym / (2.0 * om + w[k] + w[l])
    down_down[diagonal] = (la**2 + lb**2) / (np.sqrt(2.0) * denom * w)
    up_up[diagonal] = np.sqrt(2.0) * la * lb / denom**2

    # rows: the order-0 term; per mode k, A then B up with |1_k>; the mutual
    # static term; per pair, down-down then up-up
    n_pairs = k.size
    order = np.concatenate(([0], np.ones(2 * n_modes), [2], np.full(2 * n_pairs, 2)))
    spins = np.concatenate(([_DD], np.tile([_UD, _DU], n_modes), [_UU],
                            np.tile([_DD, _UU], n_pairs)))
    first = np.concatenate(([-1], np.repeat(np.arange(n_modes), 2), [-1], np.repeat(k, 2)))
    second = np.concatenate((np.full(2 + 2 * n_modes, -1),
                             np.repeat(np.where(diagonal, -1, l), 2)))
    first_count = np.concatenate(([0], np.ones(2 * n_modes), [0],
                                  np.repeat(np.where(diagonal, 2, 1), 2)))
    coeff = np.concatenate((
        [1.0], np.column_stack((-la / denom, -lb / denom)).ravel(),
        [static_dressing_amplitude(basis, om, scenario.site_a, scenario.site_b)],
        np.column_stack((down_down, up_up)).ravel()))
    # a second mode, when there is one, holds one phonon
    return StateExpansion(
        scenario.epsilon, order, spins, np.column_stack((first, second)),
        np.column_stack((first_count, second >= 0)), coeff)


def dressed_amplitude(basis: ModeBasis, scenario: Scenario,
                      scheme: DressingScheme | Sequence[DressingScheme],
                      times) -> AmplitudeTrace | list[AmplitudeTrace]:
    """Swap amplitude A = eps^2 (B + (d1 + d2) X + d1 Y) from the scheme's
    initial state, to leading order.

    The opening profile must be the shared post-ramp profile f0 of both
    sites.  With (d1, d2) = (0, 0) this is bare_amplitude to within 1.4e-14
    of max|A| at fig4's and fig7's scale, the two summing in different
    orders.  A sequence of schemes gives a list of traces, from one set of
    sums; each equals the one-scheme call byte for byte.
    """
    schemes = (scheme,) if isinstance(scheme, DressingScheme) else tuple(scheme)
    if not schemes or not all(isinstance(s, DressingScheme) for s in schemes):
        raise InvalidParametersError("dressed_amplitude needs one or more of the schemes "
                                     f"{[s.name for s in DressingScheme]}, got {scheme!r}")
    scenario.check_sites(basis.n_sites)
    om = _require_equal_splittings(scenario)
    f0 = _shared_opening(scenario)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise InvalidParametersError("amplitude times must be >= 0")

    w = basis.distinct_frequencies
    lam_a, lam_b = basis.row(scenario.site_a), basis.row(scenario.site_b)
    c_ba, c_ab = basis.fold(np.conj(lam_b) * lam_a), basis.fold(np.conj(lam_a) * lam_b)
    need_x, need_y = any(s.d1 or s.d2 for s in schemes), any(s.d1 for s in schemes)
    wx, wy = 1j * c_ba / (om + w), 1j * c_ab / (om + w)
    static = static_dressing_amplitude(basis, om, scenario.site_a, scenario.site_b)

    def block(rows):
        t = times[rows]
        # X and Y sum the outer single integrals that the nested calls return
        outer, _, nested = opening_nested_integral(f0, -(om + w), f0, +(om + w), t, inner=False)
        x = np.sum(wx * outer, axis=-1) if need_x else None
        b = c_ba * nested
        del outer, nested  # before the second call makes its grids
        outer, _, nested = opening_nested_integral(f0, +(om - w), f0, -(om - w), t, inner=False)
        y = np.sum(wy * outer, axis=-1) + static if need_y else None
        b = -np.sum(b + c_ab * nested, axis=-1)
        return b, x, y

    # measured at N = 1000, 2000 times, one worker: a block peaks at 3.6 MB (5.3 at
    # grids=16, as a nested call holds each mirrored grid until its mirror takes it)
    sums = map_row_blocks(block, times.size, w.size, grids=24)
    b, x, y = (None if parts[0] is None else np.concatenate(parts) for parts in zip(*sums))

    def total(d1, d2):
        # a sum whose constant is 0 is left out, so that a trace is the same in any list
        with_x = b + (d1 + d2) * x if d1 or d2 else b
        return scenario.epsilon**2 * (with_x + d1 * y if d1 else with_x)

    traces = [AmplitudeTrace(times=times, a0=None, ac=None, total=total(*s.value))
              for s in schemes]
    return traces[0] if isinstance(scheme, DressingScheme) else traces


def static_dressing_amplitude(basis: ModeBasis, omega: float, site_a: int,
                              sites: int | np.ndarray) -> float | np.ndarray:
    """G(a, b)/eps^2 = Re sum_k lam[b, k] conj(lam[a, k]) / (Omega (Omega + w_k)),
    the static mutual dressing of site a with a site b or an array of them,
    on any basis.  Chain sites are reduced mod N (G is periodic bitwise);
    elsewhere a site outside [0, N) raises IndexError.

    One integer site of a chain gives the cosine sum over R = b - a, each
    angle 2 pi (k R mod N) / N reduced in integers so that its rounding does
    not grow with R; any other input is gathered from one synthesis of
    conj(lam[a]) / (Omega (Omega + w)).  Against an exactly added sum: 8e-16
    on chains (every R at N = 1001), 2.5e-15 from the middle of 201 ions."""
    n, w = basis.n_sites, basis.frequencies
    if basis.chain is not None:
        if not np.ndim(sites):
            turns = (np.arange(n) * ((sites - site_a) % n)) % n
            return float(np.sum(np.cos(2.0 * np.pi * turns / n)
                                / (2.0 * n * omega * w * (omega + w))))
        site_a, sites = site_a % n, np.asarray(sites) % n
    elif np.any((np.asarray(sites) < 0) | (np.asarray(sites) >= n)):
        raise IndexError(f"site index out of range for {n} sites")
    ring = basis.synthesize(np.conj(basis.row(site_a)) / (omega * (omega + w))).real
    return ring[sites] if np.ndim(sites) else float(ring[sites])


def g_min(n_values, omega: float, length: float = 1.0, pinning: float = 1.0,
          speed: float = 1.0) -> np.ndarray:
    """G_min(N)/eps^2 = G(N/2)/eps^2 for antipodal sites, one value per even N
    (k N/2 mod N is 0 or N/2, so each cosine is exactly (-1)^k: the sum
    alternates in sign)."""
    n_values = np.asarray(n_values, dtype=int)
    if np.any(n_values % 2 != 0):
        bad = int(n_values[n_values % 2 != 0][0])
        raise InvalidParametersError(f"g_min needs even N values (got {bad})")
    out = np.empty(n_values.size, dtype=float)
    for i, n in enumerate(n_values.tolist()):
        chain = build_harmonic_chain(ChainParams(n, length, pinning, speed))
        out[i] = static_dressing_amplitude(chain, omega, 0, n // 2)
    return out
