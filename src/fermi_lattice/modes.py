"""Mode decompositions (frequencies and site couplings) for the two systems.

Everything downstream consumes a :class:`ModeBasis`: the mode frequencies
``omega_k`` and the complex site couplings ``lambda[n, k]``, read one row
at a time or summed over modes, entering

    q_n = sum_k (lambda[n, k] a_k + conj(lambda[n, k]) a_k^dagger)

with the canonical normalization  sum_k 2 omega_k |lambda[n, k]|^2 = 1
for every site n (this encodes [q_n, p_n] = i).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParametersError, NumericalFailureError, UnsupportedConfigurationError
from .openings import OpeningFunction

NORMALIZATION_TOL = 1e-10
# largest n_sites x n_modes matrix the dense ``couplings`` accessor builds (1 GiB)
DENSE_MAX_ELEMENTS = 2**26


class BasisKind(enum.Enum):
    HARMONIC_CHAIN = "harmonic_chain"
    ION_TRAP = "ion_trap"
    CUSTOM = "custom"


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
    (hold -delta for trap scenarios), coupling strength, opening profiles
    and the interaction window T."""

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


@dataclass(frozen=True)
class ModeBasis:
    """Frequencies omega_k and couplings lambda[n, k] of a quadratic system.

    Consumers read lambda through :meth:`row` and :meth:`synthesize`.  Trap
    and custom bases hold lambda as a small dense matrix (``dense``).  The
    chain holds none (``dense`` is None): its plane-wave rows are gathered
    from one length-N table of roots of unity and its synthesis is an
    inverse FFT, so a chain basis takes O(N) memory.
    """

    n_sites: int
    frequencies: np.ndarray
    dense: np.ndarray | None
    kind: BasisKind
    chain: ChainParams | None = field(default=None, compare=False)
    trap: TrapParams | None = field(default=None, compare=False)
    # chain only: e^{2 pi i j / N} for j < N, and sqrt(2 N omega_k)
    _roots: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _scale: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        if np.any(freqs <= 0):
            raise InvalidParametersError("all mode frequencies must be > 0")
        if self.kind is BasisKind.ION_TRAP and np.any(np.diff(freqs) < 0):
            raise InvalidParametersError("trap frequencies must be ascending")
        freqs.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        if self.dense is None:
            if self.kind is not BasisKind.HARMONIC_CHAIN or freqs.size != self.n_sites:
                raise InvalidParametersError(
                    "only a chain of n_sites modes may omit the dense coupling matrix"
                )
            roots = np.exp(2j * np.pi * np.arange(self.n_sites) / self.n_sites)
            object.__setattr__(self, "_roots", roots)
            object.__setattr__(self, "_scale", np.sqrt(2.0 * self.n_sites * freqs))
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

    def row(self, n: int) -> np.ndarray:
        """lambda[n, :], one complex entry per mode."""
        if not (0 <= n < self.n_sites):
            raise IndexError(f"site index {n} out of range for {self.n_sites} sites")
        if self.dense is not None:
            return self.dense[n]
        # plane wave e^{i theta_k n} with the angle reduced mod 2 pi, so rows are
        # exactly periodic in n; the self-paired k = N/2 mode is exactly +-1 and
        # k > N/2 mirrors k < N/2 by conjugation, so row[N-k] == conj(row[k]) bitwise
        size = self.n_sites
        half = self._roots[(n * np.arange(size // 2 + 1)) % size]
        if size % 2 == 0:
            half[-1] = 1.0 if n % 2 == 0 else -1.0
        lam = np.concatenate([half, np.conj(half[(size - 1) // 2:0:-1])]) / self._scale
        _check_canonical(lam, self.frequencies)
        return lam

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_k lambda[n, k] coeffs[k] for every site n."""
        if self.dense is not None:
            return self.dense @ coeffs
        return self.n_sites * np.fft.ifft(coeffs / self._scale)

    @property
    def couplings(self) -> np.ndarray:
        """The dense lambda matrix, read-only.  A chain builds it row by row
        on every access, so it is meant for small systems."""
        if self.dense is not None:
            return self.dense
        if self.n_sites * self.n_modes > DENSE_MAX_ELEMENTS:
            raise UnsupportedConfigurationError(
                f"a dense {self.n_sites} x {self.n_modes} coupling matrix exceeds "
                f"{DENSE_MAX_ELEMENTS} elements; use row() or synthesize()"
            )
        lam = np.stack([self.row(n) for n in range(self.n_sites)])
        lam.setflags(write=False)
        return lam


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
    return ModeBasis(n, freqs, None, BasisKind.HARMONIC_CHAIN, chain=params)


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
    for k in range(n):
        col = evecs[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            evecs[:, k] = -col

    freqs = params.omega0 * np.sqrt(evals)
    couplings = evecs.astype(complex) / np.sqrt(2.0 * freqs)[None, :]
    return ModeBasis(n, freqs, couplings, BasisKind.ION_TRAP, trap=params)


def equilibrium_positions(n_ions: int, max_iter: int = 200, tol: float = 1e-13) -> np.ndarray:
    """Dimensionless equilibrium positions (ascending) via damped Newton steps."""
    if n_ions < 2:
        raise InvalidParametersError("need n_ions >= 2")
    u = np.linspace(-(n_ions - 1) / 2.0, (n_ions - 1) / 2.0, n_ions) * (2.0 / n_ions**0.56)
    for _ in range(max_iter):
        grad = _trap_gradient(u)
        resid = np.max(np.abs(grad))
        if resid < tol:
            return u
        step = np.linalg.solve(_trap_hessian(u), -grad)
        if resid < 1e-6:
            # Newton region: quadratic convergence, potential comparisons are
            # round-off noise here
            u = u + step
            continue
        v0 = _trap_potential(u)
        lam = 1.0
        while lam > 1e-8:
            cand = u + lam * step
            if np.all(np.diff(cand) > 0) and _trap_potential(cand) < v0:
                break
            lam *= 0.5
        u = u + lam * step
    raise NumericalFailureError(
        f"ion equilibrium solver did not converge after {max_iter} iterations "
        f"(force residual {np.max(np.abs(_trap_gradient(u))):.3e})"
    )


def _pair_distances(u: np.ndarray) -> np.ndarray:
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return d


def _trap_potential(u: np.ndarray) -> float:
    iu, ju = np.triu_indices(u.size, 1)
    return 0.5 * float(np.sum(u**2)) + float(np.sum(1.0 / np.abs(u[ju] - u[iu])))


def _trap_gradient(u: np.ndarray) -> np.ndarray:
    d = _pair_distances(u)
    return u - np.sum(np.sign(d) / d**2, axis=1)


def _trap_hessian(u: np.ndarray) -> np.ndarray:
    d = _pair_distances(u)
    off = 1.0 / np.abs(d) ** 3
    hess = -2.0 * off
    np.fill_diagonal(hess, 1.0 + 2.0 * np.sum(off, axis=1))
    return hess
