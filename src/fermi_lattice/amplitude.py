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
    mu_bar = np.conj(mu)
    scale = -0.5 * scenario.epsilon**2
    om_a, om_b, w = scenario.omega_a, scenario.omega_b, basis.distinct_frequencies
    f_a, f_b = scenario.opening_a.post_ramp(), scenario.opening_b.post_ramp()

    def block(rows):
        # (S_A, S_B, N) of the (+) branch, then the (-) one, on the distinct
        # frequencies: S_A and S_B are the nested call's single integrals
        (sa_p, sb_p, n_p), (sa_m, sb_m, n_m) = [
            opening_nested_integral(f_a, -pa, f_b, +pb, times[rows])
            for pa, pb in ((om_a + w, om_b + w), (om_a - w, om_b - w))]
        # per mode, A_0 sums mu S_A S_B (+) + conj(mu) S_A S_B (-) and A_c
        # mu (2 N - S_A S_B) (+) - conj(mu) (2 N - S_A S_B) (-), each sum
        # scaled by -eps^2 / 2 last.  2 N - S_A S_B is elementwise, so it is
        # formed before the expansion.  The products keep their operand
        # order: a complex product may round differently with its operands
        # swapped
        for sa, sb, n in ((sa_p, sb_p, n_p), (sa_m, sb_m, n_m)):
            np.multiply(2.0, n, out=n)
            n -= sa * sb
        a0 = basis.expand(sa_p)
        np.multiply(mu, a0, out=a0)
        a0 *= basis.expand(sb_p)
        term = basis.expand(sa_m)
        np.multiply(mu_bar, term, out=term)
        term *= basis.expand(sb_m)
        a0 += term
        np.multiply(scale, a0, out=a0)
        a0_sum = np.sum(a0, axis=-1)
        del a0  # before the A_c products make their grids
        ac = basis.expand(n_p)
        np.multiply(mu, ac, out=ac)
        np.multiply(mu_bar, basis.expand(n_m), out=term)
        ac -= term
        np.multiply(scale, ac, out=ac)
        return a0_sum, np.sum(ac, axis=-1)

    # a block peaks at about 7 (time, mode) grids: the expanded products
    # hold three, the integrals on the distinct frequencies and the kernels'
    # temporaries the rest (7.3 MB traced at N = 1000, 2000 times, one worker)
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

