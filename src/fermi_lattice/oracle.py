"""Exact evolution of the full spin-boson Hamiltonian in a truncated Fock
space.  Ground truth for every perturbative claim, practical for small
mode counts only.

State (spin_A, spin_B, occ), spin down = 0 / up = 1, sits at index
(2 spin_A + spin_B) * n_occ + rank(occ).  ``FockSpace.occupations`` is one
read-only (n_occ, n_modes) int table of all occupations with total <= the
cutoff in lexicographic order; ``FockSpace.rank`` inverts it through the
combinatorial number system.  H(t) = H0 + eps [f_A(t) W_A + f_B(t) W_B]
with H0 diagonal and W_n the CSR matrix of the q_n sigma_x^n coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .amplitude import bare_amplitude
from .dressing import SpinPattern, StateExpansion, dressed_ground_state
from .errors import InvalidParametersError, NumericalFailureError
from .modes import ModeBasis, Scenario
from .openings import CONSTANT, OpeningFunction

DIMENSION_LIMIT = 2_000_000
NORM_DRIFT_LIMIT = 1e-6
NORM_DRIFT_TARGET = 1e-9
DENSE_DIMENSION = 512  # below this, dense coupling matrices beat CSR matvecs

_SPIN_INDEX = {
    SpinPattern.DOWN_DOWN: (0, 0),
    SpinPattern.UP_DOWN: (1, 0),
    SpinPattern.DOWN_UP: (0, 1),
    SpinPattern.UP_UP: (1, 1),
}


@dataclass(frozen=True, eq=False)
class FockSpace:
    n_modes: int
    max_total_phonons: int
    occupations: np.ndarray
    dimension: int

    @classmethod
    def build(cls, n_modes: int, max_total_phonons: int) -> "FockSpace":
        if max_total_phonons < 1:
            raise InvalidParametersError("phonon cutoff must be >= 1")
        n_occ = math.comb(n_modes + max_total_phonons, max_total_phonons)
        dim = 4 * n_occ
        if dim > DIMENSION_LIMIT:
            raise InvalidParametersError(
                f"Fock dimension {dim} exceeds {DIMENSION_LIMIT}; "
                f"reduce the cutoff (currently {max_total_phonons}) or the mode count"
            )
        # prepend one mode at a time: value v in front of every (sorted) tail
        # that leaves room for it, v ascending, keeps the table lexicographic
        occs = np.zeros((1, 0), dtype=np.int64)
        for _ in range(n_modes):
            total = occs.sum(axis=1)
            tails = [occs[total <= max_total_phonons - v] for v in range(max_total_phonons + 1)]
            occs = np.concatenate([np.column_stack((np.full(len(t), v), t))
                                   for v, t in enumerate(tails)])
        occs.setflags(write=False)
        return cls(n_modes, max_total_phonons, occs, dim)

    def __post_init__(self):
        # counts[l, s] = C(l + s, l): occupation vectors of l modes with total <= s
        counts = np.ones((self.n_modes + 1, self.max_total_phonons + 1), dtype=np.int64)
        for s in range(1, self.max_total_phonons + 1):
            counts[:, s] = np.cumsum(counts[:, s - 1])
        object.__setattr__(self, "_counts", counts)

    def rank(self, occ) -> np.ndarray:
        """Row of each occupation vector (last axis = modes) in ``occupations``:
        with r_i the budget left before mode i, the rows sharing occ[:i] with a
        smaller entry i number counts[m-i, r_i] - counts[m-i, r_i - occ_i]."""
        occ = np.asarray(occ, dtype=np.int64)
        cutoff = self.max_total_phonons
        if occ.shape[-1:] != (self.n_modes,) or np.any(occ < 0) or np.any(occ.sum(-1) > cutoff):
            raise InvalidParametersError(
                f"occupations need {self.n_modes} entries >= 0 with total <= {cutoff}")
        budget = cutoff - (np.cumsum(occ, axis=-1) - occ)
        left = np.arange(self.n_modes, 0, -1)
        return np.sum(self._counts[left, budget] - self._counts[left, budget - occ], axis=-1)

    def state_index(self, spin_a: int, spin_b: int, occ: tuple[int, ...]) -> int:
        return (spin_a * 2 + spin_b) * len(self.occupations) + int(self.rank(occ))

    def basis_state(self, spin_a: int, spin_b: int, occ: tuple[int, ...] | None = None) -> np.ndarray:
        occ = occ if occ is not None else (0,) * self.n_modes
        psi = np.zeros(self.dimension, dtype=complex)
        psi[self.state_index(spin_a, spin_b, occ)] = 1.0
        return psi


def _dense(w: sp.csr_matrix) -> np.ndarray:
    return w.toarray()


@dataclass(frozen=True)
class HamiltonianAction:
    """H(t) = diag(h0_diag) + eps [f_A(t) w_a + f_B(t) w_b], dense only on demand."""

    fock: FockSpace
    h0_diag: np.ndarray
    w_a: sp.csr_matrix
    w_b: sp.csr_matrix
    scenario: Scenario
    basis: ModeBasis

    @property
    def dimension(self) -> int:
        return self.fock.dimension

    def matrix(self, t: float) -> np.ndarray:
        eps = self.scenario.epsilon
        m = np.diag(self.h0_diag.astype(complex))
        m += (eps * float(self.scenario.opening_a(t))) * _dense(self.w_a)
        m += (eps * float(self.scenario.opening_b(t))) * _dense(self.w_b)
        return m

    def spectral_norm_bound(self) -> float:
        # induced 1-norm (largest column sum of |W|) without importing scipy.sparse.linalg
        one_norms = sum(float(abs(w).sum(axis=0).max()) for w in (self.w_a, self.w_b))
        return float(np.max(np.abs(self.h0_diag)) + self.scenario.epsilon * one_norms)


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    state: np.ndarray
    projections: dict[str, np.ndarray]
    norm_drift: float
    states: np.ndarray | None = None


class _Recorder:
    """Projections, optional state snapshots and the norm drift on the record grid."""

    def __init__(self, times, dimension, projections, record_states):
        self.times, self.vectors = times, projections or {}
        self.projections = {name: np.empty(times.size, dtype=complex) for name in self.vectors}
        self.states = np.empty((times.size, dimension), dtype=complex) if record_states else None
        self.norm_error = np.empty(times.size)

    def __call__(self, j: int, psi: np.ndarray) -> None:
        for name, vec in self.vectors.items():
            self.projections[name][j] = np.vdot(vec, psi)
        if self.states is not None:
            self.states[j] = psi
        self.norm_error[j] = abs(np.linalg.norm(psi) - 1.0)

    def result(self, psi: np.ndarray) -> EvolutionResult:
        drift = float(np.max(self.norm_error, initial=0.0))
        return EvolutionResult(self.times, psi, self.projections, drift, self.states)


def build_hamiltonian(basis: ModeBasis, scenario: Scenario, fock: FockSpace) -> HamiltonianAction:
    """Assemble H0 and the two coupling operators on the truncated space."""
    scenario.check_sites(basis.n_sites)
    if fock.n_modes != basis.n_modes:
        raise InvalidParametersError("Fock space mode count must match the basis")
    occ = fock.occupations
    n_occ = len(occ)
    # one dot per state: a matrix product sums in another order and rounds differently
    phonon_e = np.array([np.dot(basis.frequencies, o) for o in occ])
    h0 = np.concatenate([scenario.omega_a * (sa - 0.5) + scenario.omega_b * (sb - 0.5)
                         + phonon_e for sa in (0, 1) for sb in (0, 1)])

    # ladder moves within one spin sector: a_k lowers rows with occ_k >= 1,
    # a_k^dagger raises rows below the cutoff
    total = occ.sum(axis=1)
    moves = []  # (source row, target row, mode, sqrt(n), raising) per mode and direction
    for k in range(fock.n_modes):
        for raising in (False, True):
            rows = np.flatnonzero(total < fock.max_total_phonons if raising else occ[:, k] > 0)
            moved = occ[rows]
            moved[:, k] += 1 if raising else -1
            n = moved[:, k] if raising else occ[rows, k]
            moves.append((rows, fock.rank(moved), np.full(rows.size, k), np.sqrt(n),
                          np.full(rows.size, raising)))
    src, dst, mode, amp, raising = (np.concatenate(a) for a in zip(*moves))
    sectors = np.arange(4)

    def coupling(site: int, flip: int) -> sp.csr_matrix:
        lam = basis.couplings[site][mode]
        vals = np.where(raising, np.conj(lam), lam) * amp
        rows = ((sectors ^ flip)[:, None] * n_occ + dst).ravel()
        cols = (sectors[:, None] * n_occ + src).ravel()
        mat = sp.csr_matrix((np.tile(vals, 4), (rows, cols)),
                            shape=(fock.dimension, fock.dimension))
        mat.sort_indices()
        return mat

    # sector index 2 spin_A + spin_B: sigma_x^A flips bit 2, sigma_x^B bit 1
    return HamiltonianAction(
        fock=fock, h0_diag=h0,
        w_a=coupling(scenario.site_a, 2),
        w_b=coupling(scenario.site_b, 1),
        scenario=scenario, basis=basis,
    )


def recommended_dt(action: HamiltonianAction) -> float:
    """dt <= 1 / (50 (omega_max + Omega_max + eps * coupling scale))."""
    scen = action.scenario
    w_max = float(np.max(action.basis.frequencies))
    coupl = 2.0 * math.sqrt(action.fock.max_total_phonons + 1.0) * float(
        np.max(np.sum(np.abs(action.basis.couplings), axis=1))
    )
    return 1.0 / (50.0 * (w_max + max(abs(scen.omega_a), abs(scen.omega_b))
                          + scen.epsilon * coupl))


def _auto_dt(action: HamiltonianAction, t_span: float) -> float:
    lam_max = max(action.spectral_norm_bound(), 1e-12)
    # keep the accumulated RK4 norm loss (~ n_steps (lam dt)^6 / 144) at target
    drift_bound = (144.0 * NORM_DRIFT_TARGET / (max(t_span, 1e-12) * lam_max**6)) ** 0.2
    return min(recommended_dt(action), drift_bound)


def evolve(action: HamiltonianAction, initial: np.ndarray, times,
           dt: float | None = None, projections: dict[str, np.ndarray] | None = None,
           record_states: bool = False) -> EvolutionResult:
    """Fixed-step RK4 integration of i dpsi/dt = H(t) psi.

    ``times`` is the record grid; evolution starts at times[0] in state
    ``initial``.  Norm renormalization is off: the drift is the accuracy
    report, and drift beyond 1e-6 raises.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 1 or np.any(np.diff(times) <= 0):
        raise InvalidParametersError("record times must be strictly increasing")
    span = float(times[-1] - times[0]) if times.size > 1 else 0.0
    step = dt if dt is not None else _auto_dt(action, max(span, 1e-12))

    psi = np.array(initial, dtype=complex)
    record = _Recorder(times, psi.size, projections, record_states)
    eps = action.scenario.epsilon
    # small spaces run faster on dense couplings: densify once, up front
    dense = action.dimension <= DENSE_DIMENSION
    mih0 = -1j * action.h0_diag
    miwa, miwb = (-1j * (_dense(w) if dense else w) for w in (action.w_a, action.w_b))

    def rhs(ca, cb, v):
        return mih0 * v + ca * (miwa @ v) + cb * (miwb @ v)

    record(0, psi)
    for j in range(1, times.size):
        t0, t1 = times[j - 1], times[j]
        n_sub = max(1, math.ceil((t1 - t0) / step))
        h = (t1 - t0) / n_sub
        # opening values on the half-step grid, evaluated in one shot
        grid = t0 + 0.5 * h * np.arange(2 * n_sub + 1)
        fa = eps * np.asarray(action.scenario.opening_a(grid), dtype=float)
        fb = eps * np.asarray(action.scenario.opening_b(grid), dtype=float)
        for i in range(n_sub):
            a0, a1, a2 = fa[2 * i], fa[2 * i + 1], fa[2 * i + 2]
            b0, b1, b2 = fb[2 * i], fb[2 * i + 1], fb[2 * i + 2]
            k1 = rhs(a0, b0, psi)
            k2 = rhs(a1, b1, psi + (0.5 * h) * k1)
            k3 = rhs(a1, b1, psi + (0.5 * h) * k2)
            k4 = rhs(a2, b2, psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record(j, psi)

    result = record.result(psi)
    if not result.norm_drift <= NORM_DRIFT_LIMIT:
        raise NumericalFailureError(f"norm drift {result.norm_drift:.3e} exceeds "
                                    f"{NORM_DRIFT_LIMIT:.0e}; reduce the step size")
    return result


def evolve_static(action: HamiltonianAction, initial: np.ndarray, times,
                  projections: dict[str, np.ndarray] | None = None,
                  record_states: bool = False) -> EvolutionResult:
    """Exact propagation by eigendecomposition; requires constant openings."""
    scen = action.scenario
    if scen.opening_a.variant != CONSTANT or scen.opening_b.variant != CONSTANT:
        raise InvalidParametersError("static evolution needs constant opening profiles")
    times = np.asarray(times, dtype=float)
    evals, evecs = np.linalg.eigh(action.matrix(0.0))
    coeff = evecs.conj().T @ np.asarray(initial, dtype=complex)
    record = _Recorder(times, coeff.size, projections, record_states)
    psi = None
    for j, t in enumerate(times):
        psi = evecs @ (np.exp(-1j * evals * (t - times[0])) * coeff)
        record(j, psi)
    return record.result(psi)


def exact_swap_amplitude(basis: ModeBasis, scenario: Scenario, times,
                         max_total_phonons: int, method: str = "auto",
                         dt: float | None = None) -> np.ndarray:
    """Interaction-picture amplitude <down_A up_B 0| psi(t)> from exact
    evolution (phase-corrected so it compares directly with the
    perturbative traces)."""
    fock = FockSpace.build(basis.n_modes, max_total_phonons)
    action = build_hamiltonian(basis, scenario, fock)
    psi0 = fock.basis_state(1, 0)
    target = {"swap": fock.basis_state(0, 1)}
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(times < 0):
        raise InvalidParametersError("amplitude times must be >= 0")
    # the amplitude is defined from t = 0, so the evolution must start there
    prepend = times[0] > 0.0
    grid = np.concatenate(([0.0], times)) if prepend else times

    if method == "auto":
        static_ok = scenario.opening_a.variant == scenario.opening_b.variant == CONSTANT
        method = "static" if static_ok else "rk4"
    if method == "static":
        result = evolve_static(action, psi0, grid, projections=target)
    elif method == "rk4":
        result = evolve(action, psi0, grid, dt=dt, projections=target)
    else:
        raise ValueError(f"unknown method {method!r}")

    swap = result.projections["swap"][1:] if prepend else result.projections["swap"]
    e_final = 0.5 * (scenario.omega_b - scenario.omega_a)
    return np.exp(1j * e_final * times) * swap


def converged_swap_amplitude(basis: ModeBasis, scenario: Scenario, times,
                             start_cutoff: int = 2, rel_tol: float = 1e-8,
                             max_cutoff: int = 8, method: str = "auto"):
    """Raise the phonon cutoff until the projected amplitude stops moving."""
    prev = None
    for cutoff in range(start_cutoff, max_cutoff + 1):
        amps = exact_swap_amplitude(basis, scenario, times, cutoff, method=method)
        if prev is not None:
            scale = max(float(np.max(np.abs(amps))), 1e-300)
            if float(np.max(np.abs(amps - prev))) <= rel_tol * scale:
                return amps, cutoff
        prev = amps
    raise NumericalFailureError(
        f"swap amplitude not converged in the phonon cutoff by cutoff {max_cutoff}")


def residual_slope(basis: ModeBasis, scenario: Scenario, epsilons, times,
                   method: str = "auto", rel_tol: float = 1e-8,
                   max_total_phonons: int | None = None):
    """Max-over-time residual |A_pert - A_exact| per epsilon and the fitted
    log-log slope.  The phonon cutoff auto-converges unless pinned."""
    epsilons = np.asarray(epsilons, dtype=float)
    residuals = np.empty(epsilons.size)
    for i, eps in enumerate(epsilons):
        if eps == 0.0:
            residuals[i] = 0.0
            continue
        scen = replace(scenario, epsilon=float(eps))
        pert = bare_amplitude(basis, scen, times).total
        if max_total_phonons is None:
            exact, _ = converged_swap_amplitude(basis, scen, times,
                                                rel_tol=rel_tol, method=method)
        else:
            exact = exact_swap_amplitude(basis, scen, times, max_total_phonons,
                                         method=method)
        residuals[i] = float(np.max(np.abs(pert - exact)))
    mask = residuals > 0
    if np.count_nonzero(mask) < 2:
        return residuals, float("nan")
    return residuals, float(np.polyfit(np.log(epsilons[mask]), np.log(residuals[mask]), 1)[0])


@dataclass(frozen=True)
class AdiabaticReport:
    overlap: float
    ramp_tau: float
    epsilon: float
    norm_drift: float


def adiabatic_dressing_check(basis: ModeBasis, scenario: Scenario, ramp_tau: float,
                             max_total_phonons: int, span: float = 10.0,
                             dt: float | None = None) -> AdiabaticReport:
    """Switch the coupling on as e^{t/tau} from t = -span*tau to 0 and report
    the normalized overlap of the evolved state with the analytic dressed
    ground state.  Approaches 1 as tau grows."""
    if basis.n_modes > 3:
        raise InvalidParametersError("adiabatic check is for small systems (<= 3 modes)")
    fock = FockSpace.build(basis.n_modes, max_total_phonons)
    # the ramp itself is all that matters on t < 0
    ramped = replace(
        scenario,
        opening_a=OpeningFunction.exp_ramp_then(ramp_tau, scenario.opening_a.post_ramp()),
        opening_b=OpeningFunction.exp_ramp_then(ramp_tau, scenario.opening_b.post_ramp()),
    )
    action = build_hamiltonian(basis, ramped, fock)
    psi0 = fock.basis_state(0, 0)
    if dt is None:
        # over the long ramp the state stays in the low-energy sector, so
        # the generic drift-based step control is needlessly conservative
        dt = recommended_dt(action)
    result = evolve(action, psi0, np.array([-span * ramp_tau, 0.0]), dt=dt)

    analytic = expansion_to_vector(dressed_ground_state(basis, ramped), fock)
    norms = np.linalg.norm(analytic) * np.linalg.norm(result.state)
    overlap = abs(np.vdot(analytic, result.state)) / norms
    return AdiabaticReport(float(overlap), ramp_tau, scenario.epsilon, result.norm_drift)


def expansion_to_vector(expansion: StateExpansion, fock: FockSpace) -> np.ndarray:
    """Embed a perturbative StateExpansion in the truncated Fock space."""
    psi = np.zeros(fock.dimension, dtype=complex)
    for term in expansion.terms:
        occ = [0] * fock.n_modes
        for mode, count in term.phonons:
            occ[mode] += count
        if sum(occ) > fock.max_total_phonons:
            raise InvalidParametersError(f"expansion term with {sum(occ)} phonons exceeds "
                                         "the Fock cutoff")
        sa, sb = _SPIN_INDEX[term.spins]
        psi[fock.state_index(sa, sb, occ)] += expansion.epsilon**term.order * term.coeff
    return psi
