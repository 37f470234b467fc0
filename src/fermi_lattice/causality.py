"""Vacuum anticommutator/commutator functions and the emergent light cone.

With mu_k = lambda[A, k] * conj(lambda[B, k]) the two causal-structure
functions of the delay tau = t'' - t' are

    F_a(tau) = 2 Re sum_k mu_k e^{i omega_k tau}     (anticommutator)
    F_c(tau) = 2 Im sum_k mu_k e^{i omega_k tau}     (i F_c = commutator)

F_a drives the excitation swap; F_c carries direct signalling and is what
rises at the effective causal time.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .modes import ModeBasis, checked_times
from .quadrature import cis

# grid resolution floor for lightcone scans: samples per period of omega_max
SAMPLES_PER_PERIOD = 20
DEFAULT_SAMPLES = 2000
# element budget of the (times x modes) arrays one block of a mode sum holds
MODE_SUM_BLOCK = 2**19
# worker threads of the amplitude mode sums' row blocks
WORKERS = min(4, os.cpu_count() or 1)
# most (tau x distinct frequency) elements one causality run may sum.  With
# two threads on two cores an element took 20-25 ns at m = 1 (one tau per
# base row: chains of more than 2**19 sites, or uneven grids), which puts the
# limit at about 45 s, and 1-2.5 ns at the capped m of 10-52 (2e4 to 1e5 sites)
SWEEP_ELEMENT_LIMIT = 2**31


@dataclass(frozen=True, eq=False)
class CausalityTrace:
    taus: np.ndarray
    f_a: np.ndarray
    f_c: np.ndarray
    sites: tuple[int, int]


@dataclass(frozen=True)
class LightconeEstimate:
    rise_time: float
    nominal_causal_time: float
    sharpness: float


def row_blocks(n_rows: int, n_modes: int, grids: int = 1) -> list[slice]:
    """Even split of the rows of a mode sum into blocks whose `grids`
    (rows x modes) arrays, live at once, hold about MODE_SUM_BLOCK elements:
    the budget of one block, whichever thread sums it.

    No block is a single row unless the grid is: under a budget of at least
    3 rows, an even split leaves 2 or more in each.  numpy's matmul takes a
    plain dot product for one row, which rounds differently from the
    matrix-vector product, so a mode sum over the blocks equals the
    unblocked one bitwise.
    """
    n_blocks = max(1, -(-n_rows // max(3, MODE_SUM_BLOCK // (grids * n_modes))))
    edges = [n_rows * i // n_blocks for i in range(n_blocks + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def map_row_blocks(fn, n_rows: int, n_modes: int, grids: int = 1) -> list:
    """[fn(rows) for rows in row_blocks(n_rows, n_modes, grids)].  A sum of
    one block runs in the calling thread; the blocks of a larger one are
    shared among WORKERS threads, so up to WORKERS blocks, each within the
    whole MODE_SUM_BLOCK budget, are in flight at once.  The blocks do not
    depend on WORKERS, nor do the sums."""
    blocks = row_blocks(n_rows, n_modes, grids)
    if WORKERS == 1 or len(blocks) == 1:
        return [fn(rows) for rows in blocks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=WORKERS) as pool:
        return list(pool.map(fn, blocks))


def _mode_sum(basis: ModeBasis, site_a: int, site_b, taus):
    """sum_k mu_k e^{i w_k tau} on a tau grid, or for an array of sites b at
    one tau.  On a grid the sum runs over the distinct frequencies, with mu
    folded onto them."""
    if np.ndim(site_b):
        # sum_k lam[a,k] conj(lam[b,k]) x_k at every b is conj(synthesize(conj(lam[a] x)))
        sites = np.asarray(site_b)
        if np.ndim(taus):
            raise ValueError("an array of site_b needs a single tau")
        if sites.size and not (0 <= sites.min() and sites.max() < basis.n_sites):
            raise IndexError(f"site index out of range for {basis.n_sites} sites")
        x = basis.row(site_a) * cis(basis.frequencies * float(taus))
        return np.conj(basis.synthesize(np.conj(x)))[sites]
    mu = basis.fold(basis.row(site_a) * np.conj(basis.row(site_b)))
    taus = np.asarray(taus, dtype=float)
    flat = taus.ravel()
    w = basis.distinct_frequencies
    # tau_{bm+j} = tau_{bm} + delta_j with delta_j = tau_j - tau_0, so the sum
    # over d of mu_d e^{i w_d tau} is the product of a base table, one row per
    # m taus, and an offset table that carries mu
    m = _block_length(flat, w.size)
    offsets = cis(np.multiply.outer(flat[:m] - flat[:1], w)) * mu
    bases = flat[::m]

    def block(rows):
        return cis(np.multiply.outer(bases[rows], w)) @ offsets.T

    # a block of base rows covers rows x m taus, so it is budgeted in (tau x
    # frequency) elements.  The blocks run on one worker: with BLAS on one
    # thread on two cores, two workers were slower at every size the
    # benchmark reaches
    sums = [block(rows) for rows in row_blocks(bases.size, m * w.size)]
    return np.concatenate(sums).ravel()[:flat.size].reshape(taus.shape)


def _block_length(taus: np.ndarray, n_freqs: int) -> int:
    """Taus per row of a mode sum's base table: ceil(sqrt(n)), capped so
    that the (m x n_freqs) offset table holds at most MODE_SUM_BLOCK
    elements.  1 unless every tau_{bm+j} lies within 4 ulp of max|tau| of
    tau_{bm} + (tau_j - tau_0), i.e. unless the grid is uniform; with m = 1
    the sum is cis(tau x w) @ mu, one tau per row."""
    n = taus.size
    m = min(math.isqrt(max(n - 1, 0)) + 1, max(1, MODE_SUM_BLOCK // n_freqs))
    if m > 1:
        grid = np.add.outer(taus[::m], taus[:m] - taus[0]).ravel()[:n]
        drift = np.max(np.abs(grid - taus))
        if not drift <= 4.0 * np.finfo(float).eps * np.max(np.abs(taus)):
            return 1
    return m


def anticommutator(basis: ModeBasis, site_a: int, site_b, tau):
    """F_a(tau); tau may be a scalar or an array, or site_b an array of
    sites at a scalar tau."""
    out = 2.0 * np.real(_mode_sum(basis, site_a, site_b, tau))
    return float(out) if np.ndim(out) == 0 else out


def commutator(basis: ModeBasis, site_a: int, site_b, tau):
    """F_c(tau), the real function with <0|[q_A(t'), q_B(t'')]|0> = i F_c;
    tau may be a scalar or an array, or site_b an array of sites at a
    scalar tau (one synthesize for all of them)."""
    out = 2.0 * np.imag(_mode_sum(basis, site_a, site_b, tau))
    return float(out) if np.ndim(out) == 0 else out


def causality_trace(basis: ModeBasis, site_a: int, site_b: int, taus) -> CausalityTrace:
    """Both functions on a common tau grid."""
    taus = checked_times(taus, "tau grid", increasing=True)
    s = _mode_sum(basis, site_a, site_b, taus)
    return CausalityTrace(taus, 2.0 * np.real(s), 2.0 * np.imag(s), (site_a, site_b))


def nominal_causal_time(basis: ModeBasis, site_a: int, site_b: int) -> float:
    """x/c for chains (x = ring distance along the propagation direction);
    the 1/omega_0 propagation scale for everything else."""
    if basis.chain is not None:
        return basis.chain.causal_time(site_a, site_b)
    return 1.0 / float(np.min(basis.frequencies))


def resolved_samples(w_max: float, tau_max: float, n_samples: int) -> int:
    """n_samples, widened until a mode of frequency w_max is resolved on [0, tau_max]."""
    return max(n_samples, int(np.ceil(tau_max * SAMPLES_PER_PERIOD * w_max / (2.0 * np.pi))) + 1)


def rise_estimate(basis: ModeBasis, trace: CausalityTrace) -> LightconeEstimate:
    """Locate the commutator rise on the grid of a trace.

    The rise time is the grid location of the maximum forward difference of
    F_c; this is parameter-free, unlike a threshold crossing, and tolerates
    the soft rise of small systems.  Sharpness is the peak forward-difference
    slope of the size-scaled commutator n_sites * F_c, the quantity whose
    rise steepens as the system grows toward the continuum.
    """
    if trace.taus.size < 2:
        raise ValueError("a rise estimate needs a trace of at least two taus")
    scale = np.max(np.abs(trace.f_c))
    if scale == 0.0 or not np.isfinite(scale):
        raise NumericalFailureError(
            f"no commutator rise detected between sites {trace.sites} (flat F_c)"
        )
    slopes = basis.n_sites * np.diff(trace.f_c) / np.diff(trace.taus)
    j = int(np.argmax(slopes))
    if j == slopes.size - 1:  # F_c may still be rising past the window
        warnings.warn(f"F_c between sites {trace.sites} rises fastest on the last step up to "
                      f"tau_max = {trace.taus[-1]:.4g}; widen the window", stacklevel=2)
    return LightconeEstimate(
        rise_time=float(trace.taus[j]),
        nominal_causal_time=nominal_causal_time(basis, *trace.sites),
        sharpness=float(slopes[j]),
    )


def lightcone_estimate(basis: ModeBasis, site_a: int, site_b: int,
                       tau_max: float, n_samples: int = DEFAULT_SAMPLES) -> LightconeEstimate:
    """The rise_estimate of F_c on [0, tau_max], on n_samples points widened
    until the fastest mode is resolved."""
    if not 0 < tau_max < math.inf:
        raise ValueError("tau_max must be finite and > 0")
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    w_max = float(np.max(basis.frequencies))
    taus = np.linspace(0.0, tau_max, resolved_samples(w_max, tau_max, n_samples))
    return rise_estimate(basis, causality_trace(basis, site_a, site_b, taus))
