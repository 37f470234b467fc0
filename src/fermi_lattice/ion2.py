"""Non-perturbative two-ion swap under strong impulsive pulses.

The two-ion motional ground state, written in the local number basis, is a
two-mode-squeezed-like state |V> = Z sum_n e^{-beta n} |n_A n_B> whose
effective temperature follows from the symplectic eigenvalue of one ion's
reduced covariance matrix:

    lambda = (sqrt(w0/w1) + sqrt(w1/w0)) / 4,
    e^{-beta} = sqrt((lambda - 1/2) / (lambda + 1/2)).

During a pulse much shorter than 1/w0 the free evolution is neglected and
each ion is displaced conditionally on its spin; keeping the leading
Schmidt pair |00> + e^{-beta}|11> gives the swap amplitude

    A(alpha_A, alpha_B) = -2 e^{-(alpha_A^2 + alpha_B^2)/2}
                          alpha_A alpha_B e^{-beta},
    P = A^2.

swap_probability_full removes the Schmidt truncation by summing displaced
number-state overlaps up to a cutoff (same normalization convention, so
cutoff 2 reproduces the truncated result exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import eval_genlaguerre, gammaln

from .errors import InvalidParametersError
from .modes import Scenario
from .quadrature import opening_phase_integral


@dataclass(frozen=True)
class ThermalGroundState:
    """Reduced single-ion state of the two-ion motional ground state."""

    beta: float
    lambda_symp: float

    @property
    def e_minus_beta(self) -> float:
        return math.exp(-self.beta) if math.isfinite(self.beta) else 0.0


@dataclass(frozen=True)
class PulseSpec:
    """Dimensionless pulse areas alpha_n = -(eps / sqrt(2 w0)) int_0^T f_n dt."""

    alpha_a: float
    alpha_b: float

    @classmethod
    def from_drive(cls, epsilon: float, omega0: float, scenario: Scenario) -> "PulseSpec":
        if omega0 <= 0:
            raise InvalidParametersError("omega0 must be > 0")
        scale = -epsilon / math.sqrt(2.0 * omega0)
        t_end = scenario.duration
        area_a = opening_phase_integral(scenario.opening_a.post_ramp(), 0.0, t_end).real
        area_b = opening_phase_integral(scenario.opening_b.post_ramp(), 0.0, t_end).real
        return cls(scale * area_a, scale * area_b)


def symplectic_temperature(omega0: float, omega1: float) -> ThermalGroundState:
    """Thermal parameters of one ion's reduced motional state."""
    if omega0 <= 0 or omega1 <= 0:
        raise InvalidParametersError("mode frequencies must be > 0")
    ratio = omega1 / omega0
    lam = 0.25 * (math.sqrt(ratio) + 1.0 / math.sqrt(ratio))
    e_mb = math.sqrt((lam - 0.5) / (lam + 0.5))
    return ThermalGroundState(-math.log(e_mb) if e_mb > 0.0 else math.inf, lam)


def swap_probability(pulse: PulseSpec, thermal: ThermalGroundState):
    """(amplitude, probability) in the leading-Schmidt-pair approximation.

    P = |A|^2 = 4 e^{-(alpha_A^2 + alpha_B^2)} alpha_A^2 alpha_B^2 e^{-2 beta}.
    """
    a, b = pulse.alpha_a, pulse.alpha_b
    amp = -2.0 * math.exp(-0.5 * (a * a + b * b)) * (a * b) * thermal.e_minus_beta
    return amp, amp * amp


def displaced_number_overlap(m: int, n: int, alpha: float) -> complex:
    """<m| D(i alpha) |n> for the displacement e^{i alpha (a + a^dagger)}."""
    if m < 0 or n < 0:
        raise InvalidParametersError("Fock indices must be >= 0")
    lo, hi = min(m, n), max(m, n)
    x = alpha * alpha
    log_ratio = 0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
    lag = eval_genlaguerre(lo, hi - lo, x)
    return math.exp(log_ratio - 0.5 * x) * (1j * alpha) ** (hi - lo) * lag


def swap_probability_full(pulse: PulseSpec, thermal: ThermalGroundState,
                          schmidt_cutoff: int = 10):
    """(amplitude, probability) summing all Schmidt pairs below the cutoff.

    Convergent in the cutoff; the leading correction to the truncated
    result is of relative order e^{-2 beta}.
    """
    if schmidt_cutoff < 2:
        raise InvalidParametersError("schmidt_cutoff must be >= 2")
    e_mb = thermal.e_minus_beta
    amp = 0.0
    for m in range(schmidt_cutoff):
        for n in range(schmidt_cutoff):
            if (m - n) % 2 == 0:
                continue
            weight = e_mb ** (m + n)
            if weight == 0.0:
                continue
            term = (displaced_number_overlap(m, n, pulse.alpha_a)
                    * displaced_number_overlap(m, n, pulse.alpha_b))
            amp += weight * term.real
    return amp, amp * amp
