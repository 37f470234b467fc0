"""Site-resolved distribution of virtual field excitations D_n(t).

D_n is evaluated in the factorized form

    D_n = eps^2 ( |sum_l lam[n,l] c_Al e^{-i w_l t}|^2
                + |sum_l lam[n,l] c_Bl e^{-i w_l t}|^2 )

whose inner sums are one ``ModeBasis.synthesize`` each (an inverse FFT on
a chain) instead of the naive O(N K^2) double mode sum, and which is
manifestly nonnegative.  The c coefficients are the one-phonon amplitudes of the
evolved initial state; their static parts carry the scheme constants
(d1, d2).  D_n is built from q_n^+ q_n^-, a nonlocal diagnostic usable for
a qualitative picture only, not a measurable local phonon number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dressing import DressingScheme, _require_equal_splittings, _shared_opening
from .errors import InvalidParametersError
from .modes import ModeBasis, Scenario
from .quadrature import cis, opening_phase_integral


@dataclass(frozen=True)
class CloudSnapshot:
    time: float
    d: np.ndarray
    scheme: DressingScheme


def _dressing_coefficients(basis: ModeBasis, scenario: Scenario,
                           scheme: DressingScheme, t: float):
    """One-phonon coefficient vectors (c_Ak, c_Bk) at time t."""
    om = _require_equal_splittings(scenario)
    f0 = _shared_opening(scenario)
    w = basis.distinct_frequencies
    la = np.conj(basis.row(scenario.site_a))
    lb = np.conj(basis.row(scenario.site_b))
    c_a = la * basis.expand(scheme.d1 / (om + w)
                            + 1j * opening_phase_integral(f0, -(om - w), t))
    c_b = lb * basis.expand((scheme.d1 + scheme.d2) / (om + w)
                            + 1j * opening_phase_integral(f0, +(om + w), t))
    return c_a, c_b


def _site_cloud(basis: ModeBasis, coeffs: np.ndarray, eps: float, t: float) -> np.ndarray:
    u = basis.synthesize(coeffs * cis(-basis.frequencies * t))
    return eps**2 * np.abs(u) ** 2


def excitation_distribution(basis: ModeBasis, scenario: Scenario,
                            scheme: DressingScheme, t: float) -> CloudSnapshot:
    """Total excitation distribution over all sites at time t >= 0."""
    up, down = single_site_distributions(basis, scenario, scheme, t)
    return CloudSnapshot(time=t, d=up.d + down.d, scheme=scheme)


def single_site_distributions(basis: ModeBasis, scenario: Scenario,
                              scheme: DressingScheme, t: float):
    """(spin-up cloud of A, spin-down cloud of B); their sum is the total
    distribution at leading order."""
    if t < 0:
        raise InvalidParametersError("cloud time must be >= 0")
    scenario.check_sites(basis.n_sites)
    c_a, c_b = _dressing_coefficients(basis, scenario, scheme, t)
    up = CloudSnapshot(t, _site_cloud(basis, c_a, scenario.epsilon, t), scheme)
    down = CloudSnapshot(t, _site_cloud(basis, c_b, scenario.epsilon, t), scheme)
    return up, down
