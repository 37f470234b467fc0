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

Both functions take a grid of times and answer for all of them at once:
per site one opening integral over the (time, frequency) grid and one
synthesize over its rows, so they hold a few (times x modes) arrays.
"""

from __future__ import annotations

import numpy as np

from .dressing import DressingScheme, _require_equal_splittings, _shared_opening
from .errors import InvalidParametersError
from .modes import ModeBasis, Scenario
from .quadrature import cis, opening_phase_integral


def excitation_distribution(basis: ModeBasis, scenario: Scenario,
                            scheme: DressingScheme, times) -> np.ndarray:
    """Total excitation distribution D_n(t), of shape np.shape(times) + (n_sites,)."""
    up, down = single_site_distributions(basis, scenario, scheme, times)
    return up + down


def single_site_distributions(basis: ModeBasis, scenario: Scenario,
                              scheme: DressingScheme, times):
    """(spin-up cloud of A, spin-down cloud of B) at every time >= 0, each of
    shape np.shape(times) + (n_sites,); their sum is the total distribution
    at leading order."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise InvalidParametersError("cloud times must be >= 0")
    scenario.check_sites(basis.n_sites)
    om = _require_equal_splittings(scenario)
    f0 = _shared_opening(scenario)
    w = basis.distinct_frequencies
    phase = cis(-basis.frequencies * times[..., None])

    def site_cloud(site: int, static: float, phi: np.ndarray) -> np.ndarray:
        # c_k(t) = conj(lambda[site, k]) (static / (Omega + w_k) + i int_0^t f0 e^{i phi_k u} du)
        coeffs = np.conj(basis.row(site)) * basis.expand(
            static / (om + w) + 1j * opening_phase_integral(f0, phi, times))
        return scenario.epsilon**2 * np.abs(basis.synthesize(coeffs * phase)) ** 2

    return (site_cloud(scenario.site_a, scheme.d1, -(om - w)),
            site_cloud(scenario.site_b, scheme.d1 + scheme.d2, +(om + w)))
