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
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .amplitude import bare_amplitude
from .causality import row_blocks
from .dressing import StateExpansion, dressed_ground_state
from .errors import InvalidParametersError, NumericalFailureError
from .modes import ModeBasis, Scenario, checked_times
from .openings import CONSTANT, OpeningFunction
from .quadrature import cis

DIMENSION_LIMIT = 2_000_000
NORM_DRIFT_LIMIT = 1e-6
NORM_DRIFT_TARGET = 1e-9
# evolve densifies its couplings up to this dimension.  On one BLAS thread dense
# products beat CSR only up to about d = 100 (2.1 against 4.4 us at d = 60, 188
# against 9.8 us at d = 504), but CSR rounds rows differently: RK4 bytes move
DENSE_DIMENSION = 512
# the static path holds about DENSE_BUFFERS dense complex d x d matrices at
# once (H(0), eigh's eigenvectors and workspace), 16 d^2 bytes each
DENSE_BUFFERS = 5
DENSE_BYTES_LIMIT = 2**30
# the phonon-cutoff loop of converged_swap_amplitude: first and last cutoff,
# and the relative change in the amplitude that counts as converged
CUTOFF_START = 2
CUTOFF_MAX = 8
CUTOFF_REL_TOL = 1e-8
# the adiabatic check switches the coupling on from t = -RAMP_SPAN * tau
RAMP_SPAN = 10.0


@lru_cache(maxsize=16)
def _tail_counts(n_modes: int, cutoff: int) -> np.ndarray:
    """counts[l, s] = C(l + s, l): occupation vectors of l modes with total <= s."""
    counts = np.ones((n_modes + 1, cutoff + 1), dtype=np.int64)
    for s in range(1, cutoff + 1):
        counts[:, s] = np.cumsum(counts[:, s - 1])
    counts.setflags(write=False)
    return counts


@dataclass(frozen=True, eq=False)
class FockSpace:
    max_total_phonons: int
    occupations: np.ndarray

    @classmethod
    def build(cls, n_modes: int, max_total_phonons: int) -> "FockSpace":
        dim = _fock_dimension(n_modes, max_total_phonons)
        n_occ = dim // 4
        # unrank every row, one mode per pass: with l modes after mode i and
        # budget b, the rows before value v number sum_{u<v} counts[l, b - u]
        # = counts[l+1, b] - counts[l+1, b - v] (hockey stick), so the budget
        # left after mode i is the first s with counts[l+1, s] >= counts[l+1, b] - rank
        counts = _tail_counts(n_modes, max_total_phonons)
        occs = np.empty((n_occ, n_modes), dtype=np.int64)
        rank = np.arange(n_occ)
        budget = np.full(n_occ, max_total_phonons)
        for i in range(n_modes):
            c = counts[n_modes - i]
            before = c[budget] - rank
            left = np.searchsorted(c, before)
            occs[:, i] = budget - left
            rank = c[left] - before
            budget = left
        occs.setflags(write=False)
        return cls(max_total_phonons, occs)

    @property
    def n_modes(self) -> int:
        return self.occupations.shape[1]

    @property
    def dimension(self) -> int:
        return 4 * len(self.occupations)  # four spin sectors

    @cached_property
    def parity(self) -> np.ndarray:
        """(phonons + s_A + s_B) mod 2 of every state: each coupling moves one
        phonon and flips one spin, so H(t) never joins the two classes."""
        phonons = self.occupations.sum(axis=1) % 2
        spins = np.array([0, 1, 1, 0])  # (s_A + s_B) mod 2 of sector 2 s_A + s_B
        parity = (spins[:, None] ^ phonons).ravel().astype(np.int8)
        parity.setflags(write=False)
        return parity

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
        counts = _tail_counts(self.n_modes, cutoff)
        return np.sum(counts[left, budget] - counts[left, budget - occ], axis=-1)

    def state_index(self, spin_a: int, spin_b: int, occ: tuple[int, ...]) -> int:
        return (spin_a * 2 + spin_b) * len(self.occupations) + int(self.rank(occ))

    def basis_state(self, spin_a: int, spin_b: int, occ: tuple[int, ...] | None = None) -> np.ndarray:
        occ = occ if occ is not None else (0,) * self.n_modes
        psi = np.zeros(self.dimension, dtype=complex)
        psi[self.state_index(spin_a, spin_b, occ)] = 1.0
        return psi


def _fock_dimension(n_modes: int, max_total_phonons: int) -> int:
    """4 C(n_modes + cutoff, cutoff), checked against DIMENSION_LIMIT as it is
    counted: C(m + i, i) = C(m + i - 1, i - 1) (m + i) / i grows with i, so the
    count stops at the first i that passes the limit."""
    if max_total_phonons < 1:
        raise InvalidParametersError("phonon cutoff must be >= 1")
    count = 1
    for i in range(1, max_total_phonons + 1):
        count = count * (n_modes + i) // i
        if 4 * count > DIMENSION_LIMIT:
            raise InvalidParametersError(
                f"Fock dimension over {DIMENSION_LIMIT} for {n_modes} modes at phonon "
                f"cutoff {max_total_phonons}; reduce the cutoff or the mode count"
            )
    return 4 * count


def _check_dense_memory(dimension: int, max_total_phonons: int) -> None:
    """Refuse a static solve whose dense matrices would pass DENSE_BYTES_LIMIT."""
    need = DENSE_BUFFERS * 16 * dimension**2
    if need > DENSE_BYTES_LIMIT:
        raise InvalidParametersError(
            f"the static path needs about {need / 1e9:.3g} GB of dense matrices for Fock "
            f"dimension {dimension} at phonon cutoff {max_total_phonons} "
            f"(limit {DENSE_BYTES_LIMIT / 1e9:.3g} GB); reduce the cutoff"
        )


def check_fock_size(n_modes: int, scenario: Scenario, max_total_phonons: int) -> None:
    """Refuse, from the sizes alone, a Fock space over DIMENSION_LIMIT and, when both
    openings are constant, a static solve over DENSE_BYTES_LIMIT."""
    dimension = _fock_dimension(n_modes, max_total_phonons)
    if scenario.opening_a.variant == scenario.opening_b.variant == CONSTANT:
        _check_dense_memory(dimension, max_total_phonons)


@dataclass(frozen=True, eq=False)
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
        m += (eps * float(self.scenario.opening_a(t))) * self.w_a.toarray()
        m += (eps * float(self.scenario.opening_b(t))) * self.w_b.toarray()
        return m


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    state: np.ndarray
    projections: dict[str, np.ndarray]
    norm_drift: float


class _Recorder:
    """The record grid and a complex copy of the initial state, validated, then
    the projections and the norm drift on that grid."""

    def __init__(self, action: HamiltonianAction, initial: np.ndarray, times, projections):
        self.psi = np.array(initial, dtype=complex)
        if self.psi.shape != (action.dimension,):
            raise InvalidParametersError(f"initial state needs shape ({action.dimension},), "
                                         f"got {self.psi.shape}")
        self.times = checked_times(times, "record times", increasing=True)
        if self.times.size == 0:
            raise InvalidParametersError("record times must not be empty")
        self.vectors = projections or {}
        self.projections = {name: np.empty(self.times.size, dtype=complex)
                            for name in self.vectors}
        self.norm_error = np.empty(self.times.size)

    def __call__(self, j: int, psi: np.ndarray) -> None:
        for name, vec in self.vectors.items():
            self.projections[name][j] = np.vdot(vec, psi)
        self.norm_error[j] = abs(np.linalg.norm(psi) - 1.0)

    def result(self, psi: np.ndarray) -> EvolutionResult:
        drift = float(np.max(self.norm_error, initial=0.0))
        return EvolutionResult(psi, self.projections, drift)


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

    # a_k's moves within one spin sector: from each row src with occ_k >= 1
    # to the row dst of its occupations lowered at mode k, by sqrt(occ_k)
    src, mode = np.nonzero(occ)
    lowered = occ[src]
    lowered[np.arange(src.size), mode] -= 1
    dst, amp = fock.rank(lowered), np.sqrt(occ[src, mode])
    sectors = np.arange(4)

    def coupling(site: int, flip: int) -> sp.csr_matrix:
        # W = L + L^dagger: the halves move the phonon total by -1 and +1, so share
        # no entry; conj(lam * amp) would turn a real lam's +0 imaginary part to -0
        lam = basis.row(site)[mode]
        rows = ((sectors ^ flip)[:, None] * n_occ + dst).ravel()
        cols = (sectors[:, None] * n_occ + src).ravel()
        vals = np.r_[np.tile(lam * amp, 4), np.tile(np.conj(lam) * amp, 4)]
        mat = sp.csr_matrix((vals, (np.r_[rows, cols], np.r_[cols, rows])),
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
    basis = action.basis
    coupl = 2.0 * math.sqrt(action.fock.max_total_phonons + 1.0) * max(
        float(np.sum(np.abs(basis.row(n)))) for n in range(basis.n_sites)
    )
    return 1.0 / (50.0 * (w_max + max(abs(scen.omega_a), abs(scen.omega_b))
                          + scen.epsilon * coupl))


def _auto_dt(action: HamiltonianAction, t_span: float) -> float:
    # ||H|| bounded by its induced 1-norm (largest column sum of |W|), without
    # importing scipy.sparse.linalg
    one_norms = sum(float(abs(w).sum(axis=0).max()) for w in (action.w_a, action.w_b))
    bound = float(np.max(np.abs(action.h0_diag)) + action.scenario.epsilon * one_norms)
    lam_max = max(bound, 1e-12)
    # keep the accumulated RK4 norm loss (~ n_steps (lam dt)^6 / 144) at target
    drift_bound = (144.0 * NORM_DRIFT_TARGET / (max(t_span, 1e-12) * lam_max**6)) ** 0.2
    return min(recommended_dt(action), drift_bound)


def evolve(action: HamiltonianAction, initial: np.ndarray, times,
           dt: float | None = None,
           projections: dict[str, np.ndarray] | None = None) -> EvolutionResult:
    """Fixed-step RK4 integration of i dpsi/dt = H(t) psi.

    ``times`` is the record grid; evolution starts at times[0] in state
    ``initial``.  Norm renormalization is off: the drift is the accuracy
    report, and drift beyond 1e-6 raises.

    H(t) keeps the parity class of every state (``FockSpace.parity``), so
    the rows of the classes ``initial`` leaves empty stay zero and are never
    computed.  A live row is still taken against every column: its dot
    product then sums the same terms in the same order as on the full space,
    and every output keeps its bytes.
    """
    record = _Recorder(action, initial, times, projections)
    times, psi = record.times, record.psi
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise InvalidParametersError(f"dt must be finite and > 0, got {dt}")
    span = float(times[-1] - times[0]) if times.size > 1 else 0.0
    step = dt if dt is not None else _auto_dt(action, max(span, 1e-12))

    eps = action.scenario.epsilon
    parity = action.fock.parity
    rows = np.flatnonzero(np.isin(parity, parity[psi != 0]))
    r = rows.size
    # [-i W_A; -i W_B] on the live rows, one product per stage, densified once
    # up front on spaces of at most DENSE_DIMENSION states
    stacked = sp.vstack([action.w_a[rows], action.w_b[rows]], format="csr")
    op = -1j * (stacked.toarray() if action.dimension <= DENSE_DIMENSION else stacked)
    mih0 = -1j * action.h0_diag[rows]
    full = np.zeros(action.dimension, dtype=complex)  # a stage state, zero off the live rows
    live = psi[rows]
    k1, k2, k3, k4, stage, tmp = (np.empty(r, dtype=complex) for _ in range(6))

    def rhs(ca, cb, v, out):
        # ((-i H0 v + a W_A v) + b W_B v), in place: a + b and a * b commute
        # bit for bit, so every element keeps the bits of the allocating form
        full[rows] = v
        wv = op @ full
        np.multiply(mih0, v, out=out)
        np.multiply(ca, wv[:r], out=tmp)
        out += tmp
        np.multiply(cb, wv[r:], out=tmp)
        out += tmp

    record(0, psi)
    for j in range(1, times.size):
        t0, t1 = times[j - 1], times[j]
        n_sub = max(1, math.ceil((t1 - t0) / step))
        h = (t1 - t0) / n_sub
        half, sixth = 0.5 * h, h / 6.0
        # opening values on the half-step grid, evaluated in one shot
        grid = t0 + half * np.arange(2 * n_sub + 1)
        fa = eps * np.asarray(action.scenario.opening_a(grid), dtype=float)
        fb = eps * np.asarray(action.scenario.opening_b(grid), dtype=float)
        for i in range(n_sub):
            a0, a1, a2 = fa[2 * i], fa[2 * i + 1], fa[2 * i + 2]
            b0, b1, b2 = fb[2 * i], fb[2 * i + 1], fb[2 * i + 2]
            rhs(a0, b0, live, k1)
            np.multiply(half, k1, out=stage)
            stage += live
            rhs(a1, b1, stage, k2)
            np.multiply(half, k2, out=stage)
            stage += live
            rhs(a1, b1, stage, k3)
            np.multiply(h, k3, out=stage)
            stage += live
            rhs(a2, b2, stage, k4)
            # psi + (h/6)(((k1 + 2 k2) + 2 k3) + k4), accumulated in k2
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= sixth
            live += k2
        psi[rows] = live
        record(j, psi)

    result = record.result(psi)
    if not result.norm_drift <= NORM_DRIFT_LIMIT:
        raise NumericalFailureError(f"norm drift {result.norm_drift:.3e} exceeds "
                                    f"{NORM_DRIFT_LIMIT:.0e}; reduce the step size")
    return result


def evolve_static(action: HamiltonianAction, initial: np.ndarray, times,
                  projections: dict[str, np.ndarray] | None = None) -> EvolutionResult:
    """Exact propagation by eigendecomposition; requires constant openings."""
    scen = action.scenario
    if scen.opening_a.variant != CONSTANT or scen.opening_b.variant != CONSTANT:
        raise InvalidParametersError("static evolution needs constant opening profiles")
    record = _Recorder(action, initial, times, projections)
    _check_dense_memory(action.dimension, action.fock.max_total_phonons)
    evals, evecs = np.linalg.eigh(action.matrix(0.0))
    coeff = evecs.conj().T @ record.psi
    for j, t in enumerate(record.times):
        psi = evecs @ (cis(-evals * (t - record.times[0])) * coeff)
        record(j, psi)
    return record.result(psi)


def exact_swap_amplitude(basis: ModeBasis, scenario: Scenario, times,
                         max_total_phonons: int, *, builds: dict | None = None) -> np.ndarray:
    """Interaction-picture amplitude <down_A up_B 0| psi(t)> from exact
    evolution (phase-corrected so it compares directly with the
    perturbative traces): by eigendecomposition when both openings are
    constant, by RK4 otherwise.  Times and the static path's memory are
    checked before the Fock space is built.

    ``builds`` keeps, per cutoff, the Fock space's Hamiltonian and its two
    swap states for later calls on the same basis and scenario up to
    epsilon: none of them depends on epsilon, which each call sets with
    its own scenario."""
    times = checked_times(times, "amplitude times")
    if times.size == 0:
        raise InvalidParametersError("amplitude times must not be empty")
    static = scenario.opening_a.variant == scenario.opening_b.variant == CONSTANT
    # the amplitude is defined from t = 0, so the evolution must start there
    prepend = times[0] > 0.0
    grid = checked_times(np.concatenate(([0.0], times)) if prepend else times,
                         "record times", increasing=True)
    builds = {} if builds is None else builds
    if max_total_phonons not in builds:
        check_fock_size(basis.n_modes, scenario, max_total_phonons)
        fock = FockSpace.build(basis.n_modes, max_total_phonons)
        builds[max_total_phonons] = (build_hamiltonian(basis, scenario, fock),
                                     fock.basis_state(1, 0), fock.basis_state(0, 1))
    action, psi0, swap_state = builds[max_total_phonons]
    action = replace(action, scenario=scenario)
    result = (evolve_static if static else evolve)(action, psi0, grid,
                                                  projections={"swap": swap_state})

    swap = result.projections["swap"][1:] if prepend else result.projections["swap"]
    e_final = 0.5 * (scenario.omega_b - scenario.omega_a)
    return cis(e_final * times) * swap


def converged_swap_amplitude(basis: ModeBasis, scenario: Scenario, times, *,
                             builds: dict | None = None):
    """Raise the phonon cutoff from CUTOFF_START until the projected
    amplitude moves by at most CUTOFF_REL_TOL of its size.  ``builds`` is
    exact_swap_amplitude's."""
    prev = None
    for cutoff in range(CUTOFF_START, CUTOFF_MAX + 1):
        amps = exact_swap_amplitude(basis, scenario, times, cutoff, builds=builds)
        if prev is not None:
            scale = max(float(np.max(np.abs(amps))), 1e-300)
            if float(np.max(np.abs(amps - prev))) <= CUTOFF_REL_TOL * scale:
                return amps, cutoff
        prev = amps
    raise NumericalFailureError(
        f"swap amplitude not converged in the phonon cutoff by cutoff {CUTOFF_MAX}")


def residual_slope(basis: ModeBasis, scenario: Scenario, epsilons, times,
                   max_total_phonons: int | None = None):
    """Max-over-time residual |A_pert - A_exact| per epsilon and the fitted
    log-log slope.  The phonon cutoff auto-converges unless pinned; each
    cutoff's Fock space and Hamiltonian are built once for all epsilons.

    A_pert is the second-order amplitude, so the residual is the remainder
    of the perturbation series.  Each vertex moves one phonon and both swap
    endpoints hold none, so phonon parity makes the swap amplitude even in
    epsilon: the eps^3 term vanishes, the residual is O(eps^4) and the
    fitted slope is expected near 4.  A zero epsilon gives a zero residual,
    which the fit skips; with fewer than two nonzero residuals the slope is
    NaN."""
    epsilons = np.asarray(epsilons, dtype=float)
    residuals = np.empty(epsilons.size)
    builds = {}
    for i, eps in enumerate(epsilons):
        if eps == 0.0:
            residuals[i] = 0.0
            continue
        scen = replace(scenario, epsilon=float(eps))
        # the exact amplitude first: it refuses an oversized Fock space before any sum
        if max_total_phonons is None:
            exact, _ = converged_swap_amplitude(basis, scen, times, builds=builds)
        else:
            exact = exact_swap_amplitude(basis, scen, times, max_total_phonons, builds=builds)
        pert = bare_amplitude(basis, scen, times).total
        residuals[i] = float(np.max(np.abs(pert - exact)))
    mask = residuals > 0
    if np.count_nonzero(mask) < 2:
        return residuals, float("nan")
    return residuals, float(np.polyfit(np.log(epsilons[mask]), np.log(residuals[mask]), 1)[0])


@dataclass(frozen=True)
class AdiabaticReport:
    overlap: float
    norm_drift: float


def adiabatic_dressing_check(basis: ModeBasis, scenario: Scenario, ramp_tau: float,
                             max_total_phonons: int,
                             dt: float | None = None) -> AdiabaticReport:
    """Switch the coupling on as e^{t/tau} from t = -RAMP_SPAN*tau to 0 and report
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
    result = evolve(action, psi0, np.array([-RAMP_SPAN * ramp_tau, 0.0]), dt=dt)

    analytic = expansion_to_vector(dressed_ground_state(basis, ramped), fock)
    norms = np.linalg.norm(analytic) * np.linalg.norm(result.state)
    overlap = abs(np.vdot(analytic, result.state)) / norms
    return AdiabaticReport(float(overlap), result.norm_drift)


def expansion_to_vector(expansion: StateExpansion, fock: FockSpace) -> np.ndarray:
    """Embed a perturbative StateExpansion in the truncated Fock space;
    terms in the same configuration add up, in storage order."""
    total = expansion.counts.sum(axis=1)
    over = total[total > fock.max_total_phonons]
    if over.size:
        raise InvalidParametersError(f"expansion term with {over[0]} phonons exceeds "
                                     "the Fock cutoff")
    # occupation tables of (terms x modes), ranked a block of terms at a
    # time: rank holds about 4 such arrays at once
    rank = np.empty(total.size, dtype=np.int64)
    for block in row_blocks(total.size, fock.n_modes, grids=4):
        modes, counts = expansion.modes[block], expansion.counts[block]
        rows, slots = np.nonzero(modes >= 0)
        occ = np.zeros((modes.shape[0], fock.n_modes), dtype=np.int64)
        np.add.at(occ, (rows, modes[rows, slots]), counts[rows, slots])
        rank[block] = fock.rank(occ)
    psi = np.zeros(fock.dimension, dtype=complex)
    # a term's spin code is its Fock sector 2 spin_A + spin_B
    np.add.at(psi, expansion.spins * len(fock.occupations) + rank,
              expansion.epsilon ** expansion.order * expansion.coeff)
    return psi
