"""Second-order transition amplitude |up_A down_B 0> -> |down_A up_B 0>.

The leading-order amplitude splits into a correlation part A0 (two
independent time integrations against the anticommutator) and a
commutator part A_c (ordered integrations); A = A0 + A_c carries the
epsilon^2 prefactor.  Per mode, with mu_k = lambda[A,k] conj(lambda[B,k])
and S/N the single/nested profile integrals, the quantity summed is

    -A/eps^2 = sum_k [ mu_k N_k(+) + conj(mu_k) (S_k(-) Sbar_k(-) - N_k(-)) ]

where (+/-) tags the phase pairs (Omega_A + w_k, Omega_B + w_k) and
(Omega_A - w_k, Omega_B - w_k).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .causality import nominal_causal_time
from .errors import InvalidParametersError
from .modes import ModeBasis, Scenario
from .openings import OpeningFunction
from .quadrature import opening_nested_integral, opening_phase_integral


@dataclass(frozen=True)
class AmplitudeTrace:
    """Time series of the swap amplitude and its decomposition.

    a0/ac are None for traces whose engine does not produce the
    anticommutator/commutator split (dressed schemes).
    """

    times: np.ndarray
    a0: np.ndarray | None
    ac: np.ndarray | None
    total: np.ndarray
    probability: np.ndarray
    per_mode: np.ndarray | None = None

    def commutator_ratio(self) -> float:
        """max |A_c| / max |A_0| over the trace."""
        if self.a0 is None or self.ac is None:
            raise ValueError("trace carries no A0/Ac decomposition")
        top = float(np.max(np.abs(self.ac)))
        bottom = float(np.max(np.abs(self.a0)))
        if bottom == 0.0:
            return 0.0 if top == 0.0 else np.inf
        return top / bottom


def _branch_integrals(basis, scenario, times):
    """Single and nested profile integrals for both phase branches."""
    w = basis.frequencies
    om_a, om_b = scenario.omega_a, scenario.omega_b
    f_a = scenario.opening_a.post_ramp()
    f_b = scenario.opening_b.post_ramp()
    out = {}
    for tag, pa, pb in (("p", om_a + w, om_b + w), ("m", om_a - w, om_b - w)):
        out["sa_" + tag] = opening_phase_integral(f_a, -pa, times)
        out["sb_" + tag] = opening_phase_integral(f_b, +pb, times)
        out["n_" + tag] = opening_nested_integral(f_a, -pa, f_b, +pb, times)
    return out


def bare_amplitude(basis: ModeBasis, scenario: Scenario, times,
                   per_mode: bool = False) -> AmplitudeTrace:
    """Amplitude trace for the bare initial state.

    ``times`` must be non-negative; the openings are evaluated from t = 0
    (an adiabatic ramp, if present, is stripped).
    """
    scenario.check_sites(basis.n_sites)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise InvalidParametersError("amplitude times must be >= 0")

    mu = basis.row(scenario.site_a) * np.conj(basis.row(scenario.site_b))
    eps2 = scenario.epsilon**2
    g = _branch_integrals(basis, scenario, times)

    a0_modes = -0.5 * eps2 * (mu * g["sa_p"] * g["sb_p"]
                              + np.conj(mu) * g["sa_m"] * g["sb_m"])
    ac_modes = -0.5 * eps2 * (mu * (2.0 * g["n_p"] - g["sa_p"] * g["sb_p"])
                              - np.conj(mu) * (2.0 * g["n_m"] - g["sa_m"] * g["sb_m"]))
    a0 = np.sum(a0_modes, axis=-1)
    ac = np.sum(ac_modes, axis=-1)
    total = a0 + ac
    return AmplitudeTrace(
        times=times, a0=a0, ac=ac, total=total,
        probability=np.abs(total) ** 2,
        per_mode=(a0_modes + ac_modes) if per_mode else None,
    )


def time_ordered_amplitude(basis: ModeBasis, scenario: Scenario, times) -> np.ndarray:
    """The same amplitude assembled directly from the two time orderings
    (emission-absorption plus absorption-emission), without the A0/Ac
    split.  Exists as an independent composition for consistency checks."""
    scenario.check_sites(basis.n_sites)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    w = basis.frequencies
    mu = basis.row(scenario.site_a) * np.conj(basis.row(scenario.site_b))
    f_a = scenario.opening_a.post_ramp()
    f_b = scenario.opening_b.post_ramp()
    om_a, om_b = scenario.omega_a, scenario.omega_b

    n_plus = opening_nested_integral(f_a, -(om_a + w), f_b, +(om_b + w), times)
    m_minus = opening_nested_integral(f_b, +(om_b - w), f_a, -(om_a - w), times)
    return -scenario.epsilon**2 * np.sum(mu * n_plus + np.conj(mu) * m_minus, axis=-1)


def windowed_amplitude(basis: ModeBasis, scenario: Scenario,
                       n_times: int = 201) -> AmplitudeTrace:
    """Trace over one interaction window [0, T] of a windowed scenario."""
    w_end = max(scenario.opening_a.post_ramp().window_end,
                scenario.opening_b.post_ramp().window_end)
    if not np.isfinite(w_end):
        raise InvalidParametersError("windowed_amplitude needs a windowed opening profile")
    causal = nominal_causal_time(basis, scenario.site_a, scenario.site_b)
    if w_end >= causal:
        warnings.warn(
            f"interaction window T = {w_end:.4g} is not inside the nominal causal "
            f"time x/c = {causal:.4g}; the commutator part need not be negligible",
            stacklevel=2,
        )
    times = np.linspace(0.0, w_end, n_times)
    return bare_amplitude(basis, scenario, times)


def double_window_integral(opening: OpeningFunction, splitting: float, mode_freq: float,
                           t: float, ordering: Literal["independent", "nested"] = "nested",
                           method: str = "auto") -> complex:
    """Per-mode kernel shared by A0 and A_c at phase phi = splitting + mode_freq.

    independent:  int_0^t f e^{-i phi t'} dt' * int_0^t f e^{+i phi t''} dt''
    nested:       int_0^t dt' f(t') e^{-i phi t'} int_0^t' dt'' f(t'') e^{+i phi t''}
    """
    if t < 0:
        raise InvalidParametersError("t must be >= 0")
    phi = splitting + mode_freq
    if ordering == "independent":
        left = opening_phase_integral(opening, -phi, t, method=method)
        right = opening_phase_integral(opening, +phi, t, method=method)
        return complex(left * right)
    if ordering == "nested":
        return complex(opening_nested_integral(opening, -phi, opening, +phi, t, method=method))
    raise ValueError(f"unknown ordering {ordering!r}")
