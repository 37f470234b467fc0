"""Perturbatively dressed states, the three selection schemes, and the
dressed transition amplitude.

An adiabatic switch-on leaves the system in the dressed ground state
|G> = |G0> + eps |G1> + eps^2 |G2| + O(eps^3); the excitation pulse on
site A then selects one of three initial states, labelled by constants
(d1, d2):

    sigma_x^A on |G>             (d1, d2) = (1, 0)
    sigma_+^A with post-selection (d1, d2) = (0, 1)
    bare |up_A down_B 0>          (d1, d2) = (0, 0)

The amplitude is A(t) = eps^2 sum_k [conj(lam_Bk) lam_Ak F1_k(t)
+ conj(lam_Ak) lam_Bk F2_k(t)] with per-mode kernels F1/F2 built from the
nested double integral, a single-integral cross term weighted by (d1+d2)
or d1, and the static term d1 / (2 Omega (Omega + w_k)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .amplitude import AmplitudeTrace
from .causality import row_blocks
from .errors import InvalidParametersError, UnsupportedConfigurationError
from .modes import BasisKind, ChainParams, ModeBasis, Scenario, build_harmonic_chain
from .quadrature import opening_nested_integral, opening_phase_integral


class SpinPattern(enum.Enum):
    DOWN_DOWN = "dd"
    UP_DOWN = "ud"
    DOWN_UP = "du"
    UP_UP = "uu"

    def flip_a(self) -> "SpinPattern":
        return _FLIP_A[self]

    @property
    def a_is_up(self) -> bool:
        return self in (SpinPattern.UP_DOWN, SpinPattern.UP_UP)


_FLIP_A = {
    SpinPattern.DOWN_DOWN: SpinPattern.UP_DOWN,
    SpinPattern.UP_DOWN: SpinPattern.DOWN_DOWN,
    SpinPattern.DOWN_UP: SpinPattern.UP_UP,
    SpinPattern.UP_UP: SpinPattern.DOWN_UP,
}


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


@dataclass(frozen=True)
class ExpansionTerm:
    order: int
    spins: SpinPattern
    phonons: Occupation
    coeff: complex

    @property
    def n_phonons(self) -> int:
        return sum(c for _, c in self.phonons)


@dataclass(frozen=True)
class StateExpansion:
    """A perturbative ket as a sum of configurations, graded by powers of
    epsilon; coefficients are stored without their epsilon^order factor."""

    terms: tuple[ExpansionTerm, ...]
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        zero_order = [t for t in self.terms if t.order == 0]
        if len(zero_order) != 1 or zero_order[0].coeff != 1.0 or zero_order[0].phonons:
            raise InvalidParametersError(
                "expansion must have exactly one unit-coefficient zero-phonon order-0 term"
            )
        for t in self.terms:
            if t.order % 2 != t.n_phonons % 2:
                raise InvalidParametersError(
                    f"order/phonon parity mismatch in term {t}"
                )

    def coefficient(self, spins: SpinPattern, phonons: Occupation) -> complex:
        """Total coefficient of one configuration, epsilon powers applied."""
        return sum(
            (self.epsilon**t.order) * t.coeff
            for t in self.terms
            if t.spins is spins and t.phonons == phonons
        )

    def order_terms(self, order: int) -> list[ExpansionTerm]:
        return [t for t in self.terms if t.order == order]

    def first_order_norm_sq(self) -> float:
        return float(sum(abs(t.coeff) ** 2 for t in self.order_terms(1)))


def _require_equal_splittings(scenario: Scenario) -> float:
    if scenario.omega_a != scenario.omega_b:
        raise UnsupportedConfigurationError(
            "dressing is implemented for Omega_A == Omega_B only"
        )
    # every energy denominator (Omega + w_k, 2 Omega, 2 Omega + w_k + w_l)
    # must stay positive
    if scenario.omega_a <= 0:
        raise UnsupportedConfigurationError(
            "dressing needs a positive level splitting Omega"
        )
    return scenario.omega_a


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

    terms = [ExpansionTerm(0, SpinPattern.DOWN_DOWN, (), 1.0 + 0.0j)]

    for k in range(n_modes):
        denom = om + w[k]
        terms.append(ExpansionTerm(1, SpinPattern.UP_DOWN, ((k, 1),), -la[k] / denom))
        terms.append(ExpansionTerm(1, SpinPattern.DOWN_UP, ((k, 1),), -lb[k] / denom))

    mutual_static = complex(np.sum((la * np.conj(lb) + lb * np.conj(la)) / (2.0 * om * (om + w))))
    terms.append(ExpansionTerm(2, SpinPattern.UP_UP, (), mutual_static))

    for k in range(n_modes):
        denom = om + w[k]
        terms.append(ExpansionTerm(
            2, SpinPattern.DOWN_DOWN, ((k, 2),),
            (la[k] ** 2 + lb[k] ** 2) / (np.sqrt(2.0) * denom * w[k]),
        ))
        terms.append(ExpansionTerm(
            2, SpinPattern.UP_UP, ((k, 2),),
            np.sqrt(2.0) * la[k] * lb[k] / denom**2,
        ))
        for l in range(k + 1, n_modes):
            sym = 1.0 / (om + w[k]) + 1.0 / (om + w[l])
            terms.append(ExpansionTerm(
                2, SpinPattern.DOWN_DOWN, ((k, 1), (l, 1)),
                (la[k] * la[l] + lb[k] * lb[l]) * sym / (w[k] + w[l]),
            ))
            terms.append(ExpansionTerm(
                2, SpinPattern.UP_UP, ((k, 1), (l, 1)),
                (la[k] * lb[l] + la[l] * lb[k]) * sym / (2.0 * om + w[k] + w[l]),
            ))
    return StateExpansion(tuple(terms), scenario.epsilon)


def initial_dressed_state(ground: StateExpansion, scheme: DressingScheme,
                          include_normalization: bool = False) -> StateExpansion:
    """Initial state after the impulsive excitation of site A.

    SIGMA_X flips A in every term; SIGMA_PLUS keeps only terms with A down
    and flips them (post-selected spin-up), dropping the mutual-dressing
    order-2 part; BARE discards the dressing entirely.  The order-2
    normalization counter-term -eps^2/2 |psi1|^2 |psi0> does not feed the
    computed amplitudes and is omitted unless requested.
    """
    if scheme is DressingScheme.BARE:
        return StateExpansion(
            (ExpansionTerm(0, SpinPattern.UP_DOWN, (), 1.0 + 0.0j),), ground.epsilon
        )
    terms = []
    for t in ground.terms:
        if scheme is DressingScheme.SIGMA_PLUS and t.spins.a_is_up:
            continue
        terms.append(ExpansionTerm(t.order, t.spins.flip_a(), t.phonons, t.coeff))
    out = StateExpansion(tuple(terms), ground.epsilon)
    if include_normalization:
        counter = ExpansionTerm(
            2, SpinPattern.UP_DOWN, (), -0.5 * out.first_order_norm_sq()
        )
        out = StateExpansion(out.terms + (counter,), out.epsilon)
    return out


def dressed_amplitude(basis: ModeBasis, scenario: Scenario, scheme: DressingScheme,
                      times) -> AmplitudeTrace:
    """Swap amplitude from the scheme's initial state, to leading order.

    The opening profile must be the shared post-ramp profile f0 of both
    sites.  With (d1, d2) = (0, 0) this reproduces bare_amplitude exactly.
    """
    scenario.check_sites(basis.n_sites)
    om = _require_equal_splittings(scenario)
    f0 = scenario.opening_a.post_ramp()
    if f0 != scenario.opening_b.post_ramp():
        raise UnsupportedConfigurationError(
            "dressed amplitude needs identical post-ramp openings on both sites"
        )
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise InvalidParametersError("amplitude times must be >= 0")

    w = basis.frequencies
    d1, d2 = scheme.d1, scheme.d2
    lam_a, lam_b = basis.row(scenario.site_a), basis.row(scenario.site_b)
    c_ba = np.conj(lam_b) * lam_a
    c_ab = np.conj(lam_a) * lam_b
    total = np.empty(times.size, dtype=complex)
    # a block holds about 8 (time, mode) arrays at once: the integrals,
    # F1/F2 and the kernels' temporaries
    for rows in row_blocks(times.size, basis.n_modes, grids=8):
        t = times[rows]
        f1 = -opening_nested_integral(f0, -(om + w), f0, +(om + w), t)
        f2 = -opening_nested_integral(f0, +(om - w), f0, -(om - w), t)
        if d1 or d2:
            f1 = f1 + (1j * (d1 + d2) / (om + w)) * opening_phase_integral(f0, -(om + w), t)
        if d1:
            f2 = f2 + (1j * d1 / (om + w)) * opening_phase_integral(f0, +(om - w), t)
            static = d1 / (2.0 * om * (om + w))
            f1 = f1 + static
            f2 = f2 + static
        total[rows] = scenario.epsilon**2 * np.sum(c_ba * f1 + c_ab * f2, axis=-1)
    return AmplitudeTrace(times=times, a0=None, ac=None, total=total,
                          probability=np.abs(total) ** 2)


def static_dressing_amplitude(basis: ModeBasis, omega: float, separation: int) -> float:
    """G(R)/eps^2 = sum_k cos(theta_k R) / (2 N Omega w_k (Omega + w_k)),
    the time-independent mutual-dressing amplitude of a chain."""
    if basis.kind is not BasisKind.HARMONIC_CHAIN:
        raise UnsupportedConfigurationError("static dressing amplitude is chain-only")
    n = basis.n_sites
    w = basis.frequencies
    theta = 2.0 * np.pi * np.arange(n) / n
    return float(np.sum(np.cos(theta * separation) / (2.0 * n * omega * w * (omega + w))))


def g_min(n_values, omega: float, length: float = 1.0, pinning: float = 1.0,
          speed: float = 1.0) -> np.ndarray:
    """G_min(N)/eps^2 for antipodal sites (R = N/2), one value per even N."""
    n_values = np.asarray(n_values, dtype=int)
    if np.any(n_values % 2 != 0):
        bad = int(n_values[n_values % 2 != 0][0])
        raise InvalidParametersError(f"g_min needs even N values (got {bad})")
    out = np.empty(n_values.size, dtype=float)
    for i, n in enumerate(n_values):
        basis = build_harmonic_chain(ChainParams(int(n), length, pinning, speed))
        w = basis.frequencies
        signs = (-1.0) ** np.arange(n)
        out[i] = np.sum(signs / (2.0 * n * omega * w * (omega + w)))
    return out
