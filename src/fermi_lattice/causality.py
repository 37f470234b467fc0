"""Vacuum anticommutator/commutator functions and the emergent light cone.

With mu_k = lambda[A, k] * conj(lambda[B, k]) the two causal-structure
functions of the delay tau = t'' - t' are

    F_a(tau) = 2 Re sum_k mu_k e^{i omega_k tau}     (anticommutator)
    F_c(tau) = 2 Im sum_k mu_k e^{i omega_k tau}     (i F_c = commutator)

F_a drives the excitation swap; F_c carries direct signalling and is what
rises at the effective causal time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .modes import BasisKind, ModeBasis

# grid resolution floor for lightcone scans: samples per period of omega_max
SAMPLES_PER_PERIOD = 20
DEFAULT_SAMPLES = 2000
# element budget of the (times x modes) arrays one block of a mode sum holds
MODE_SUM_BLOCK = 2**19


@dataclass(frozen=True)
class CausalityTrace:
    taus: np.ndarray
    f_a: np.ndarray
    f_c: np.ndarray
    sites: tuple[int, int]
    basis_kind: BasisKind


@dataclass(frozen=True)
class LightconeEstimate:
    rise_time: float
    nominal_causal_time: float
    sharpness: float


def row_blocks(n_rows: int, n_modes: int, grids: int = 1) -> list[slice]:
    """Even split of the rows of a mode sum into blocks whose `grids`
    (rows x modes) arrays, live at once, hold about MODE_SUM_BLOCK elements.

    No block is a single row unless the grid is: under a budget of at least
    3 rows, an even split leaves 2 or more in each.  numpy's matmul takes a
    plain dot product for one row, which rounds differently from the
    matrix-vector product, so a mode sum over the blocks equals the
    unblocked one bitwise.
    """
    n_blocks = max(1, -(-n_rows // max(3, MODE_SUM_BLOCK // (grids * n_modes))))
    edges = [n_rows * i // n_blocks for i in range(n_blocks + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _mode_sum(basis: ModeBasis, site_a: int, site_b: int, taus):
    mu = basis.row(site_a) * np.conj(basis.row(site_b))
    taus = np.asarray(taus, dtype=float)
    flat = taus.ravel()
    sums = [np.exp(1j * np.multiply.outer(flat[rows], basis.frequencies)) @ mu
            for rows in row_blocks(flat.size, basis.n_modes)]
    return np.concatenate(sums).reshape(taus.shape)


def anticommutator(basis: ModeBasis, site_a: int, site_b: int, tau):
    """F_a(tau); tau may be a scalar or an array."""
    out = 2.0 * np.real(_mode_sum(basis, site_a, site_b, tau))
    return float(out) if np.ndim(tau) == 0 else out


def commutator(basis: ModeBasis, site_a: int, site_b: int, tau):
    """F_c(tau), the real function with <0|[q_A(t'), q_B(t'')]|0> = i F_c."""
    out = 2.0 * np.imag(_mode_sum(basis, site_a, site_b, tau))
    return float(out) if np.ndim(tau) == 0 else out


def causality_trace(basis: ModeBasis, site_a: int, site_b: int, taus) -> CausalityTrace:
    """Both functions on a common tau grid."""
    taus = np.asarray(taus, dtype=float)
    if taus.size and np.any(np.diff(taus) <= 0):
        raise ValueError("tau grid must be strictly increasing")
    s = _mode_sum(basis, site_a, site_b, taus)
    return CausalityTrace(taus, 2.0 * np.real(s), 2.0 * np.imag(s),
                          (site_a, site_b), basis.kind)


def nominal_causal_time(basis: ModeBasis, site_a: int, site_b: int) -> float:
    """x/c for chains (x = ring distance along the propagation direction);
    the 1/omega_0 propagation scale for everything else."""
    if basis.kind is BasisKind.HARMONIC_CHAIN and basis.chain is not None:
        p = basis.chain
        separation = (site_b - site_a) % p.n_sites
        return p.length * separation / (p.speed * p.n_sites)
    return 1.0 / float(np.min(basis.frequencies))


def lightcone_samples(basis: ModeBasis, tau_max: float, n_samples: int = DEFAULT_SAMPLES) -> int:
    """n_samples, widened until the fastest mode is resolved on [0, tau_max]."""
    w_max = float(np.max(basis.frequencies))
    return max(n_samples, int(np.ceil(tau_max * SAMPLES_PER_PERIOD * w_max / (2.0 * np.pi))) + 1)


def rise_estimate(basis: ModeBasis, trace: CausalityTrace) -> LightconeEstimate:
    """Locate the commutator rise on the grid of a trace.

    The rise time is the grid location of the maximum forward difference of
    F_c; this is parameter-free, unlike a threshold crossing, and tolerates
    the soft rise of small systems.  Sharpness is the peak forward-difference
    slope of the size-scaled commutator n_sites * F_c, the quantity whose
    rise steepens as the system grows toward the continuum.
    """
    scale = np.max(np.abs(trace.f_c))
    if scale == 0.0 or not np.isfinite(scale):
        raise NumericalFailureError(
            f"no commutator rise detected between sites {trace.sites} (flat F_c)"
        )
    slopes = basis.n_sites * np.diff(trace.f_c) / np.diff(trace.taus)
    j = int(np.argmax(slopes))
    return LightconeEstimate(
        rise_time=float(trace.taus[j]),
        nominal_causal_time=nominal_causal_time(basis, *trace.sites),
        sharpness=float(slopes[j]),
    )


def lightcone_estimate(basis: ModeBasis, site_a: int, site_b: int,
                       tau_max: float, n_samples: int = DEFAULT_SAMPLES) -> LightconeEstimate:
    """The rise_estimate of F_c on a lightcone_samples grid on [0, tau_max]."""
    if tau_max <= 0:
        raise ValueError("tau_max must be > 0")
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    taus = np.linspace(0.0, tau_max, lightcone_samples(basis, tau_max, n_samples))
    return rise_estimate(basis, causality_trace(basis, site_a, site_b, taus))
