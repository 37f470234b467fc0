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

import numpy as np

from .causality import map_row_blocks, nominal_causal_time
from .errors import InvalidParametersError
from .modes import ModeBasis, Scenario
# opening_phase_integral is not called here (the nested integral returns both
# single ones); perfbench/spans.py traces the quadrature calls by this name
from .quadrature import opening_nested_integral, opening_phase_integral  # noqa: F401


@dataclass(frozen=True, eq=False)
class AmplitudeTrace:
    """Time series of the swap amplitude and its decomposition.

    a0/ac are None for traces whose engine does not produce the
    anticommutator/commutator split (dressed schemes).
    """

    times: np.ndarray
    a0: np.ndarray | None
    ac: np.ndarray | None
    total: np.ndarray

    @property
    def probability(self) -> np.ndarray:
        """|A|^2 at every time."""
        return np.abs(self.total) ** 2

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
    """Single and nested profile integrals for both phase branches, each
    evaluated on the distinct frequencies and expanded to every mode."""
    w = basis.distinct_frequencies
    om_a, om_b = scenario.omega_a, scenario.omega_b
    f_a = scenario.opening_a.post_ramp()
    f_b = scenario.opening_b.post_ramp()
    out = {}
    for tag, pa, pb in (("p", om_a + w, om_b + w), ("m", om_a - w, om_b - w)):
        # S_A and S_B are the nested call's single integrals; no name holds
        # the unexpanded grids
        out["sa_" + tag], out["sb_" + tag], out["n_" + tag] = map(
            basis.expand, opening_nested_integral(f_a, -pa, f_b, +pb, times))
    return out


def bare_amplitude(basis: ModeBasis, scenario: Scenario, times) -> AmplitudeTrace:
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

    def block(rows):
        g = _branch_integrals(basis, scenario, times[rows])
        a0_modes = -0.5 * eps2 * (mu * g["sa_p"] * g["sb_p"]
                                  + np.conj(mu) * g["sa_m"] * g["sb_m"])
        ac_modes = -0.5 * eps2 * (mu * (2.0 * g["n_p"] - g["sa_p"] * g["sb_p"])
                                  - np.conj(mu) * (2.0 * g["n_m"] - g["sa_m"] * g["sb_m"]))
        return np.sum(a0_modes, axis=-1), np.sum(ac_modes, axis=-1)

    # a block holds about 8 (time, mode) arrays at once: six integrals and
    # the kernels' temporaries
    sums = map_row_blocks(block, times.size, basis.n_modes, grids=8)
    a0 = np.concatenate([a for a, _ in sums])
    ac = np.concatenate([c for _, c in sums])
    return AmplitudeTrace(times=times, a0=a0, ac=ac, total=a0 + ac)


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

