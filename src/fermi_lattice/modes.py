"""Mode decompositions (frequencies and site couplings) for the two systems.

Everything downstream consumes a :class:`ModeBasis`: the mode frequencies
``omega_k`` and the complex site couplings ``lambda[n, k]``, read one row
at a time or summed over modes, entering

    q_n = sum_k (lambda[n, k] a_k + conj(lambda[n, k]) a_k^dagger)

with the canonical normalization  sum_k 2 omega_k |lambda[n, k]|^2 = 1
for every site n (this encodes [q_n, p_n] = i).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParametersError, NumericalFailureError
from .openings import OpeningFunction

NORMALIZATION_TOL = 1e-10
# the trap equilibrium's Newton solve: iteration cap and force tolerance
EQUILIBRIUM_MAX_ITER = 200
EQUILIBRIUM_TOL = 1e-13


@dataclass(frozen=True)
class ChainParams:
    """Periodic pinned harmonic chain of n_sites masses.

    The dimensionless nearest-neighbour coupling is
    alpha = 1 - L^2 nu^2 / (2 N^2 c^2), which must lie in (0, 1);
    the mode energies are omega_k = E0 sqrt(1 - alpha cos theta_k) with
    E0 = nu / sqrt(1 - alpha) and theta_k = 2 pi k / N.
    """

    n_sites: int
    length: float = 1.0
    pinning: float = 1.0
    speed: float = 1.0

    def __post_init__(self):
        if self.n_sites < 2:
            raise InvalidParametersError("chain needs n_sites >= 2")
        for name in ("length", "pinning", "speed"):
            if getattr(self, name) <= 0:
                raise InvalidParametersError(f"chain parameter {name} must be > 0")
        a = self.alpha
        if a == 1.0:
            raise InvalidParametersError(
                "alpha = 1 - L^2 nu^2 / (2 N^2 c^2) rounds to 1 in double precision "
                f"(L*nu / (N*c) = {self.length * self.pinning / (self.n_sites * self.speed):.3g}"
                " is below about 1.05e-8); use fewer sites or a larger L*nu/c"
            )
        if not (0.0 < a < 1.0):
            raise InvalidParametersError(
                "alpha = 1 - L^2 nu^2 / (2 N^2 c^2) = "
                f"{a:.6g} violates 0 < alpha < 1 "
                f"(need L*nu < sqrt(2)*N*c, got L*nu = {self.length * self.pinning:.6g}, "
                f"sqrt(2)*N*c = {np.sqrt(2) * self.n_sites * self.speed:.6g})"
            )

    @property
    def alpha(self) -> float:
        r = self.length * self.pinning / (self.n_sites * self.speed)
        return 1.0 - 0.5 * r * r

    @property
    def base_energy(self) -> float:
        """E0 = nu / sqrt(1 - alpha)."""
        return self.pinning / np.sqrt(1.0 - self.alpha)


@dataclass(frozen=True)
class TrapParams:
    """Linear Paul trap holding n_ions identical ions.

    omega0 is the axial center-of-mass frequency; all other mode
    frequencies come out of the numerical normal-mode analysis as
    multiples of it.
    """

    n_ions: int
    omega0: float = 1.0

    def __post_init__(self):
        if self.n_ions < 2:
            raise InvalidParametersError("trap needs n_ions >= 2")
        if self.omega0 <= 0:
            raise InvalidParametersError("omega0 must be > 0")


@dataclass(frozen=True)
class Scenario:
    """One experiment: two marked sites, their level splittings Omega_A/B
    (hold -delta for trap scenarios), coupling strength and opening profiles.

    The interaction windows come from the openings.  ``duration`` is
    accepted and checked but read by no command; its one reader is
    ``PulseSpec.from_drive``."""

    site_a: int
    site_b: int
    omega_a: float
    omega_b: float
    epsilon: float
    opening_a: OpeningFunction
    opening_b: OpeningFunction
    duration: float

    def __post_init__(self):
        if self.site_a == self.site_b:
            raise InvalidParametersError("site_a and site_b must differ")
        # epsilon 0 is allowed so switched-off baselines stay expressible
        if not self.epsilon >= 0:
            raise InvalidParametersError("epsilon must be >= 0")
        if not self.duration >= 0:
            raise InvalidParametersError("duration must be >= 0")

    @classmethod
    def symmetric(cls, site_a, site_b, omega, epsilon, opening, duration) -> "Scenario":
        """Both sites share the splitting and the opening profile."""
        return cls(site_a, site_b, omega, omega, epsilon, opening, opening, duration)

    def check_sites(self, n_sites: int) -> None:
        for s in (self.site_a, self.site_b):
            if not (0 <= s < n_sites):
                raise IndexError(f"site index {s} out of range for {n_sites} sites")


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Frequencies omega_k and couplings lambda[n, k] of a quadratic system.

    A basis is a chain when it holds ``chain`` parameters and a trap when it
    holds ``trap`` parameters; a custom basis holds neither.  Consumers read
    lambda through :meth:`row` and :meth:`synthesize`.  Trap and custom
    bases hold lambda as a small dense matrix (``dense``).  The chain holds
    none (``dense`` is None): a row is evaluated from the plane waves
    lambda[n, k] = e^{i theta_k n} / sqrt(2 N omega_k) when it is read and
    the synthesis is an inverse FFT, so a chain holds only O(N) frequencies.

    A per-mode grid that depends on the mode only through omega_k is
    evaluated on :attr:`distinct_frequencies` and spread to every mode by
    :meth:`expand`; per-mode weights of a sum over modes are gathered onto
    them by :meth:`fold`.  A chain has about N/2 distinct frequencies, since
    omega_k == omega_{N-k} bitwise; a trap has no repeated one.
    """

    n_sites: int
    frequencies: np.ndarray
    dense: np.ndarray | None
    chain: ChainParams | None = None
    trap: TrapParams | None = None
    # the distinct values of omega_k, and per mode the index of its value among them
    distinct_frequencies: np.ndarray = field(default=None, init=False, repr=False)
    _index: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        if np.any(freqs <= 0):
            raise InvalidParametersError("all mode frequencies must be > 0")
        if self.trap is not None and np.any(np.diff(freqs) < 0):
            raise InvalidParametersError("trap frequencies must be ascending")
        freqs.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        distinct, index = np.unique(freqs, return_inverse=True)
        distinct.setflags(write=False)
        object.__setattr__(self, "distinct_frequencies", distinct)
        object.__setattr__(self, "_index", index)
        if self.dense is None:
            if self.chain is None or freqs.size != self.n_sites:
                raise InvalidParametersError(
                    "only a chain of n_sites modes may omit the dense coupling matrix"
                )
            return
        coup = np.asarray(self.dense, dtype=complex)
        if coup.shape != (self.n_sites, freqs.size):
            raise InvalidParametersError(
                f"couplings shape {coup.shape} does not match "
                f"(n_sites, n_modes) = ({self.n_sites}, {freqs.size})"
            )
        _check_canonical(coup, freqs)
        coup.setflags(write=False)
        object.__setattr__(self, "dense", coup)

    @property
    def n_modes(self) -> int:
        return self.frequencies.size

    def expand(self, grid: np.ndarray) -> np.ndarray:
        """A grid over distinct_frequencies (last axis) spread to every mode,
        as a C-contiguous array: equal, element for element, to the same grid
        evaluated on frequencies."""
        # a fancy index grid[..., index] would return an F-ordered array, over
        # which matmul and np.sum round differently
        return np.take(grid, self._index, axis=-1)

    def fold(self, weights: np.ndarray) -> np.ndarray:
        """Per-mode weights (last axis) summed per distinct frequency, in
        mode order: the adjoint of expand, fold(mu) @ grid equalling
        mu @ expand(grid) up to rounding."""
        weights = np.asarray(weights)
        out = np.zeros(weights.shape[:-1] + self.distinct_frequencies.shape, weights.dtype)
        np.add.at(out, (..., self._index), weights)
        return out

    def row(self, n: int) -> np.ndarray:
        """lambda[n, :], one complex entry per mode."""
        if not (0 <= n < self.n_sites):
            raise IndexError(f"site index {n} out of range for {self.n_sites} sites")
        if self.dense is not None:
            return self.dense[n]
        # plane wave e^{i theta_k n} with the angle reduced mod 2 pi, so rows are
        # exactly periodic in n; the self-paired k = N/2 mode is exactly +-1 and
        # k > N/2 mirrors k < N/2 by conjugation, so row[N-k] == conj(row[k]) bitwise;
        # each term 2 w_k |lambda_k|^2 is 1/N, so the row is canonical by construction
        size = self.n_sites
        half = np.exp(2j * np.pi * ((n * np.arange(size // 2 + 1)) % size) / size)
        if size % 2 == 0:
            half[-1] = 1.0 if n % 2 == 0 else -1.0
        lam = np.concatenate([half, np.conj(half[(size - 1) // 2:0:-1])])
        return lam / np.sqrt(2.0 * size * self.frequencies)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_k lambda[n, k] coeffs[..., k] for every site n, per row of coeffs
        (last axis = modes, result's last axis = sites)."""
        if self.dense is None:
            scale = np.sqrt(2.0 * self.n_sites * self.frequencies)
            return self.n_sites * np.fft.ifft(coeffs / scale)
        if coeffs.ndim == 1:
            return self.dense @ coeffs
        # one product for all rows: (dense @ coeffs.T).T on a matrix of rows
        return np.swapaxes(self.dense @ np.swapaxes(coeffs, -1, -2), -1, -2)


def _check_canonical(lam: np.ndarray, freqs: np.ndarray) -> None:
    """Raise unless every row of lam satisfies sum_k 2 w_k |lam_k|^2 = 1."""
    worst = np.max(np.abs(2.0 * np.abs(lam) ** 2 @ freqs - 1.0))
    if worst > NORMALIZATION_TOL:
        raise InvalidParametersError(
            f"canonical normalization violated: max |sum_k 2 w_k |lam|^2 - 1| = {worst:.3e}"
        )


def build_harmonic_chain(params: ChainParams) -> ModeBasis:
    """Mode basis of the periodic chain.

    lambda[n, k] = e^{i theta_k n} / sqrt(2 N omega_k), held in O(N) memory
    (see :class:`ModeBasis`).  Conjugate mode pairs (k, N-k) are
    mirror-exact: omega_k == omega_{N-k} and lambda[n, N-k] ==
    conj(lambda[n, k]) hold bitwise.
    """
    n = params.n_sites
    half = n // 2
    cos_theta = np.empty(n)
    cos_theta[: half + 1] = np.cos(2.0 * np.pi * np.arange(half + 1) / n)
    cos_theta[half + 1:] = cos_theta[(n - 1) // 2:0:-1]
    freqs = params.base_energy * np.sqrt(1.0 - params.alpha * cos_theta)
    return ModeBasis(n, freqs, None, chain=params)


def build_ion_trap(params: TrapParams) -> ModeBasis:
    """Axial mode basis of a linear trap: lambda[n, k] = D[n, k] / sqrt(2 omega_k).

    Equilibrium positions solve the dimensionless force balance
    u_n = sum_{m != n} sign(u_n - u_m) / (u_n - u_m)^2; the mode matrix D
    diagonalizes the Hessian of the potential at the equilibrium.
    Frequencies are returned ascending (omega_0 = center-of-mass = omega0)
    and each eigenvector has its first nonzero component positive.
    """
    n = params.n_ions
    u = equilibrium_positions(n)
    evals, evecs = np.linalg.eigh(_trap_hessian(u))  # ascending eigenvalues
    # negate each column whose first entry above 1e-12 in magnitude is negative
    big = np.abs(evecs) > 1e-12
    lead = evecs[np.argmax(big, axis=0), np.arange(n)]
    evecs *= np.where(lead < 0, -1.0, 1.0)

    freqs = params.omega0 * np.sqrt(evals)
    couplings = evecs.astype(complex) / np.sqrt(2.0 * freqs)[None, :]
    return ModeBasis(n, freqs, couplings, trap=params)


def equilibrium_positions(n_ions: int) -> np.ndarray:
    """Dimensionless equilibrium positions (ascending) via full Newton steps.

    The solve stops once the largest force is below EQUILIBRIUM_TOL, or at
    the first step that fails to lower it (the force sum's round-off floor,
    which grows with n_ions), returning the iterate before that step."""
    if n_ions < 2:
        raise InvalidParametersError("need n_ions >= 2")
    u = np.linspace(-(n_ions - 1) / 2.0, (n_ions - 1) / 2.0, n_ions) * (2.0 / n_ions**0.56)
    grad = _trap_gradient(u)
    resid = np.max(np.abs(grad))
    for _ in range(EQUILIBRIUM_MAX_ITER):
        if resid < EQUILIBRIUM_TOL:
            return u
        nxt = u + np.linalg.solve(_trap_hessian(u), -grad)
        nxt_grad = _trap_gradient(nxt)
        nxt_resid = np.max(np.abs(nxt_grad))
        if not nxt_resid < resid:
            return u
        u, grad, resid = nxt, nxt_grad, nxt_resid
    raise NumericalFailureError(
        f"ion equilibrium solver did not converge after {EQUILIBRIUM_MAX_ITER} iterations "
        f"(force residual {resid:.3e})"
    )


def _pair_distances(u: np.ndarray) -> np.ndarray:
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return d


def _trap_gradient(u: np.ndarray) -> np.ndarray:
    d = _pair_distances(u)
    return u - np.sum(np.sign(d) / d**2, axis=1)


def _trap_hessian(u: np.ndarray) -> np.ndarray:
    d = _pair_distances(u)
    off = 1.0 / np.abs(d) ** 3
    hess = -2.0 * off
    np.fill_diagonal(hess, 1.0 + 2.0 * np.sum(off, axis=1))
    return hess
