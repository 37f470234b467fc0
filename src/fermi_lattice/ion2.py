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

swap_probability_full keeps every Schmidt pair.  With Z^2 = 1 - e^{-2 beta},
the reduced state's lambda = coth(beta)/2 = (1 + e^{-2 beta}) / (2 Z^2), and
the Gaussian characteristic function of |V> gives the sum in closed form:

    A = -Z^{-2} e^{-lambda (alpha_A^2 + alpha_B^2)}
        sinh(2 alpha_A alpha_B e^{-beta} / Z^2),

normalized as the Schmidt sum whose leading pair gives the truncated A.
The ion2 command's run.schmidt_cutoff picks the form: 2 (the default) the
leading pair, any larger value all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParametersError
# opening_phase_integral is not called here (the pulse areas come in as
# numbers); perfbench/spans.py traces the quadrature calls by this name
from .quadrature import opening_phase_integral  # noqa: F401


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
    if not math.isfinite(a * a + b * b):  # e^{-inf} = 0 would meet alpha_A alpha_B = inf
        return 0.0, 0.0
    amp = -2.0 * math.exp(-0.5 * (a * a + b * b)) * (a * b) * thermal.e_minus_beta
    return amp, amp * amp


def swap_probability_full(pulse: PulseSpec, thermal: ThermalGroundState):
    """(amplitude, probability) with all Schmidt pairs, in closed form.

    The leading correction to the truncated result is of relative order
    e^{-2 beta}.  Since lambda >= e^{-beta}/Z^2, the exponent y - c below is
    <= 0, so no pulse area overflows the exponential.
    """
    a, b = pulse.alpha_a, pulse.alpha_b
    e_mb = thermal.e_minus_beta
    z2 = 1.0 - e_mb * e_mb
    c = thermal.lambda_symp * (a * a + b * b)
    if not math.isfinite(c):  # e^{y - c} is 0, where y - c could read inf - inf
        return 0.0, 0.0
    y = abs(2.0 * a * b * e_mb / z2)
    # sinh(y) e^{-c} = e^{y - c} (1 - e^{-2y}) / 2
    amp = -math.copysign(math.exp(y - c) * -math.expm1(-2.0 * y) / (2.0 * z2), a * b)
    return amp, amp * amp
