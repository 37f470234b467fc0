import dataclasses
import itertools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fermi_lattice import (
    ChainParams,
    FockSpace,
    InvalidParametersError,
    NumericalFailureError,
    OpeningFunction,
    Scenario,
    TrapParams,
    adiabatic_dressing_check,
    bare_amplitude,
    build_hamiltonian,
    build_harmonic_chain,
    build_ion_trap,
    converged_swap_amplitude,
    evolve,
    evolve_static,
    exact_swap_amplitude,
    residual_slope,
)
from fermi_lattice import cli, oracle
from fermi_lattice.oracle import DENSE_DIMENSION, _auto_dt

FIGURES_DIR = pathlib.Path(__file__).resolve().parent.parent / "figures"


def make(n_sites=3, epsilon=1e-2, opening=None, duration=1.5):
    basis = build_harmonic_chain(ChainParams(n_sites))
    opening = opening or OpeningFunction.constant()
    scenario = Scenario.symmetric(0, 1, 2.0, epsilon, opening, duration)
    return basis, scenario


# ---------------------------------------------------------------- space & H

def test_fock_dimension_count():
    fock = FockSpace.build(2, 1)
    assert fock.dimension == 12  # 4 spin sectors x 3 occupation vectors


def test_fock_dimension_guard():
    with pytest.raises(InvalidParametersError, match="reduce the cutoff"):
        FockSpace.build(8, 16)


def test_fock_dimension_guard_counts_no_further_than_the_limit():
    # 4 C(2 * 10**4, 10**4) has over 6000 digits, past Python's int-to-text limit
    with pytest.raises(InvalidParametersError, match="reduce the cutoff"):
        FockSpace.build(10**4, 10**4)


def prepend_occupations(n_modes, cutoff):
    """The occupation table built by prepending one mode at a time: value v
    in front of every (sorted) tail that leaves room for it, v ascending."""
    occs = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_modes):
        total = occs.sum(axis=1)
        tails = [occs[total <= cutoff - v] for v in range(cutoff + 1)]
        occs = np.concatenate([np.column_stack((np.full(len(t), v), t))
                               for v, t in enumerate(tails)])
    return occs


@pytest.mark.parametrize("m", [0, 1, 2, 3, 6, 8])
@pytest.mark.parametrize("c", [1, 2, 4, 7])
def test_unranked_occupations_equal_the_prepend_build(m, c):
    want = prepend_occupations(m, c)
    got = FockSpace.build(m, c).occupations
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_occupation_table_is_built_in_place():
    tracemalloc.start()
    try:
        fock = FockSpace.build(60, 3)  # 39 711 rows, a 19 MB table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * fock.occupations.nbytes


@pytest.mark.parametrize("m, c", [(1, 3), (2, 1), (3, 4), (5, 3), (8, 4), (20, 2), (30, 2)])
def test_occupation_table_is_lexicographic_and_ranked(m, c):
    fock = FockSpace.build(m, c)
    occ = fock.occupations
    assert occ.shape == (math.comb(m + c, c), m)
    assert not occ.flags.writeable
    assert np.all(occ >= 0) and np.all(occ.sum(axis=1) <= c)
    assert len(np.unique(occ, axis=0)) == len(occ)
    # lexsort takes its last key as the primary one: mode 0 must lead
    np.testing.assert_array_equal(np.lexsort(occ.T[::-1]), np.arange(len(occ)))
    np.testing.assert_array_equal(fock.rank(occ), np.arange(len(occ)))


def test_state_index_accepts_tuples_and_rejects_foreign_vectors():
    fock = FockSpace.build(3, 2)
    n_occ = len(fock.occupations)
    assert fock.state_index(0, 0, (0, 0, 0)) == 0
    assert fock.state_index(1, 0, (0, 1, 1)) == 2 * n_occ + 4
    assert fock.state_index(1, 1, [2, 0, 0]) == 4 * n_occ - 1
    for bad in [(1, 1, 1), (0, -1, 0), (0, 0)]:
        with pytest.raises(InvalidParametersError):
            fock.state_index(0, 0, bad)


def reference_hamiltonian(basis, scenario, cutoff):
    """Per-state assembly by product-and-filter enumeration and a dict index."""
    occs = [o for o in itertools.product(range(cutoff + 1), repeat=basis.n_modes)
            if sum(o) <= cutoff]
    index = {o: i for i, o in enumerate(occs)}
    n_occ = len(occs)
    dim = 4 * n_occ
    w = basis.frequencies
    h0 = np.empty(dim)
    for sa in (0, 1):
        for sb in (0, 1):
            spin_e = scenario.omega_a * (sa - 0.5) + scenario.omega_b * (sb - 0.5)
            block = slice((sa * 2 + sb) * n_occ, (sa * 2 + sb + 1) * n_occ)
            h0[block] = [spin_e + float(np.dot(w, occ)) for occ in occs]

    def coupling(site, flip_a):
        lam = basis.row(site)
        rows, cols, vals = [], [], []
        for sa in (0, 1):
            for sb in (0, 1):
                sa2, sb2 = (1 - sa, sb) if flip_a else (sa, 1 - sb)
                for occ in occs:
                    i = (sa * 2 + sb) * n_occ + index[occ]
                    for k in range(basis.n_modes):
                        if occ[k] >= 1:
                            occ2 = occ[:k] + (occ[k] - 1,) + occ[k + 1:]
                            rows.append((sa2 * 2 + sb2) * n_occ + index[occ2])
                            cols.append(i)
                            vals.append(lam[k] * math.sqrt(occ[k]))
                        if sum(occ) < cutoff:
                            occ2 = occ[:k] + (occ[k] + 1,) + occ[k + 1:]
                            rows.append((sa2 * 2 + sb2) * n_occ + index[occ2])
                            cols.append(i)
                            vals.append(np.conj(lam[k]) * math.sqrt(occ[k] + 1))
        return sp.csr_matrix((np.asarray(vals, dtype=complex), (rows, cols)),
                             shape=(dim, dim)).toarray()

    return np.array(occs), h0, coupling(scenario.site_a, True), coupling(scenario.site_b, False)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("system, m, c", [
    ("chain", 2, 1), ("chain", 3, 4), ("chain", 4, 4), ("chain", 6, 4), ("chain", 8, 4),
    ("trap", 3, 3),
])
def test_hamiltonian_matches_per_state_reference_bitwise(system, m, c):
    basis = (build_harmonic_chain(ChainParams(m)) if system == "chain"
             else build_ion_trap(TrapParams(m)))
    scenario = Scenario(0, m - 1, 2.0, 1.3, 0.05, OpeningFunction.constant(),
                        OpeningFunction.constant(), 1.0)
    action = build_hamiltonian(basis, scenario, FockSpace.build(m, c))
    occs, h0, w_a, w_b = reference_hamiltonian(basis, scenario, c)
    np.testing.assert_array_equal(action.fock.occupations, occs)
    assert_bitwise(action.h0_diag, h0)
    for w, want in ((action.w_a, w_a), (action.w_b, w_b)):
        assert isinstance(w, sp.csr_matrix) and w.has_canonical_format
        assert_bitwise(w.toarray(), want)


def test_uncoupled_spectrum():
    basis, scenario = make(epsilon=0.0)
    fock = FockSpace.build(3, 2)
    action = build_hamiltonian(basis, scenario, fock)
    got = np.sort(np.linalg.eigvalsh(action.matrix(0.0)))
    want = []
    w = basis.frequencies
    for sa in (-0.5, 0.5):
        for sb in (-0.5, 0.5):
            for occ in fock.occupations:
                want.append(2.0 * (sa + sb) + np.dot(w, occ))
    np.testing.assert_allclose(got, np.sort(want), atol=1e-10)


def test_hamiltonian_hermitian_exactly():
    basis, scenario = make(opening=OpeningFunction.sin_sq_window(0.4), duration=0.4)
    fock = FockSpace.build(3, 2)
    action = build_hamiltonian(basis, scenario, fock)
    for t in (0.0, 0.17, 0.4):
        h = action.matrix(t)
        assert np.max(np.abs(h - h.conj().T)) == 0.0


@pytest.mark.parametrize("system, m, c", [("chain", 3, 4), ("chain", 6, 4), ("trap", 3, 3)])
def test_hamiltonian_ranks_only_the_lowered_occupations(monkeypatch, system, m, c):
    basis = (build_harmonic_chain(ChainParams(m)) if system == "chain"
             else build_ion_trap(TrapParams(m)))
    scenario = Scenario(0, m - 1, 2.0, 1.3, 0.05, OpeningFunction.constant(),
                        OpeningFunction.constant(), 1.0)
    fock = FockSpace.build(m, c)
    ranked = []
    rank = FockSpace.rank
    monkeypatch.setattr(FockSpace, "rank",
                        lambda self, occ: ranked.append(len(occ)) or rank(self, occ))
    action = build_hamiltonian(basis, scenario, fock)
    # each coupling is L + L^dagger from its lowering half L, so only the
    # occupations a_k lowers are ranked: one per (state, mode) with occ_k >= 1
    lowered = np.count_nonzero(fock.occupations)
    assert len(ranked) == 1 and ranked[0] == lowered
    # L and L^dagger hold one entry per lowering in each of the four spin sectors
    assert action.w_a.nnz == action.w_b.nnz == 8 * lowered


def test_mode_count_must_match():
    basis, scenario = make()
    with pytest.raises(InvalidParametersError):
        build_hamiltonian(basis, scenario, FockSpace.build(2, 2))


def per_state_parity(fock):
    """(phonons + s_A + s_B) mod 2, state by state in index order."""
    return np.array([(sum(occ) + sa + sb) % 2 for sa in (0, 1) for sb in (0, 1)
                     for occ in fock.occupations.tolist()], dtype=np.int8)


@pytest.mark.parametrize("m, c", [(1, 1), (2, 3), (3, 4), (4, 6), (8, 2)])
def test_parity_matches_a_per_state_loop(m, c):
    fock = FockSpace.build(m, c)
    assert_bitwise(fock.parity, per_state_parity(fock))
    assert not fock.parity.flags.writeable
    assert fock.parity is fock.parity  # computed once


@pytest.mark.parametrize("system, m, c", [("chain", 3, 4), ("chain", 4, 6), ("trap", 3, 3)])
def test_couplings_never_join_two_parity_classes(system, m, c):
    basis = (build_harmonic_chain(ChainParams(m)) if system == "chain"
             else build_ion_trap(TrapParams(m)))
    scenario = Scenario(0, m - 1, 2.0, 1.3, 0.05, OpeningFunction.constant(),
                        OpeningFunction.constant(), 1.0)
    action = build_hamiltonian(basis, scenario, FockSpace.build(m, c))
    parity = action.fock.parity
    assert set(parity.tolist()) == {0, 1}
    for w in (action.w_a, action.w_b):
        rows, cols = w.nonzero()
        assert rows.size > 0
        np.testing.assert_array_equal(parity[rows], parity[cols])


# ---------------------------------------------------------------- evolution

def reference_evolve(action, initial, times, dt=None, projections=None):
    """The full-space RK4 loop: every row of psi in every stage, allocating
    each intermediate.  Returns (projections, final state, norm drift)."""
    times = np.asarray(times, dtype=float)
    span = float(times[-1] - times[0]) if times.size > 1 else 0.0
    step = dt if dt is not None else _auto_dt(action, max(span, 1e-12))
    psi = np.array(initial, dtype=complex)
    eps = action.scenario.epsilon
    dense = action.dimension <= DENSE_DIMENSION
    mih0 = -1j * action.h0_diag
    miwa, miwb = (-1j * (w.toarray() if dense else w) for w in (action.w_a, action.w_b))

    def rhs(ca, cb, v):
        return mih0 * v + ca * (miwa @ v) + cb * (miwb @ v)

    states = [psi]
    for j in range(1, times.size):
        t0, t1 = times[j - 1], times[j]
        n_sub = max(1, math.ceil((t1 - t0) / step))
        h = (t1 - t0) / n_sub
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
        states.append(psi)
    states = np.array(states)
    projected = {name: np.array([np.vdot(vec, s) for s in states], dtype=complex)
                 for name, vec in (projections or {}).items()}
    drift = float(max(abs(np.linalg.norm(s) - 1.0) for s in states))
    return projected, psi, drift


def _swap_start(fock):
    return fock.basis_state(1, 0)


def _mixed_start(fock):
    # up-down with no phonons and with one in mode 0: both parity classes
    psi = 0.6 * fock.basis_state(1, 0)
    psi[fock.state_index(1, 0, (1,) + (0,) * (fock.n_modes - 1))] = 0.8j
    return psi


@pytest.mark.parametrize("system, m, c, opening, times, dt, start, dimension", [
    ("chain", 4, 3, OpeningFunction.sin_sq_window(0.4), np.linspace(0.0, 0.4, 5), None,
     _swap_start, 140),
    ("chain", 3, 3, OpeningFunction.exp_ramp_then(2.0, OpeningFunction.constant()),
     np.array([-6.0, -2.5, 0.0]), 0.01, _swap_start, 80),
    ("chain", 4, 6, OpeningFunction.sin_sq_window(0.4), np.linspace(0.0, 0.4, 3), 0.04,
     _swap_start, 840),
    ("trap", 3, 3, OpeningFunction.sin_sq_window(0.4), np.linspace(0.0, 0.4, 5), None,
     _swap_start, 80),
    ("chain", 4, 3, OpeningFunction.sin_sq_window(0.4), np.linspace(0.0, 0.4, 5), None,
     _mixed_start, 140),
], ids=["dense-sin2", "exp-ramp", "csr", "trap", "both-classes"])
def test_evolve_matches_the_full_space_loop_bitwise(system, m, c, opening, times, dt, start,
                                                    dimension):
    basis = (build_harmonic_chain(ChainParams(m)) if system == "chain"
             else build_ion_trap(TrapParams(m)))
    scenario = Scenario.symmetric(0, m - 1, 2.0, 0.08, opening, 0.4)
    fock = FockSpace.build(m, c)
    action = build_hamiltonian(basis, scenario, fock)
    assert action.dimension == dimension
    assert (dimension > DENSE_DIMENSION) == (c == 6)  # the CSR case is the only large one
    psi0 = start(fock)
    targets = {"swap": fock.basis_state(0, 1), "start": psi0}
    got = evolve(action, psi0, times, dt=dt, projections=targets)
    projected, state, drift = reference_evolve(action, psi0, times, dt, targets)
    for name in targets:
        assert_bitwise(got.projections[name], projected[name])
    assert_bitwise(got.state, state)
    assert got.norm_drift == drift and drift > 0
    # the state left the start, and a one-class start leaves the other class empty
    assert np.max(np.abs(got.projections["start"] - got.projections["start"][0])) > 1e-6
    touched = np.unique(fock.parity[np.flatnonzero(got.state)])
    assert touched.tolist() == ([0, 1] if start is _mixed_start else [1])


def test_evolve_refuses_a_state_of_the_wrong_shape():
    basis, scenario = make()
    fock = FockSpace.build(3, 2)
    action = build_hamiltonian(basis, scenario, fock)
    psi0 = fock.basis_state(1, 0)
    for bad in (psi0[:-1], psi0[:, None], np.stack([psi0, psi0]), np.complex128(1.0)):
        with pytest.raises(InvalidParametersError, match="initial state"):
            evolve(action, bad, np.linspace(0.0, 0.1, 2))


BAD_STEPS = [0.0, -0.1, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("dt", BAD_STEPS)
def test_evolve_refuses_a_step_that_is_not_finite_and_positive(dt):
    basis, scenario = make()
    fock = FockSpace.build(3, 2)
    action = build_hamiltonian(basis, scenario, fock)
    with pytest.raises(InvalidParametersError, match="dt"):
        evolve(action, fock.basis_state(1, 0), np.linspace(0.0, 0.1, 2), dt=dt)


@pytest.mark.parametrize("dt", BAD_STEPS)
def test_adiabatic_check_refuses_a_bad_step(dt):
    basis, _ = make(n_sites=2)
    scenario = Scenario.symmetric(0, 1, 2.0, 1e-2, OpeningFunction.constant(), 1.0)
    with pytest.raises(InvalidParametersError, match="dt"):
        adiabatic_dressing_check(basis, scenario, 2.0, 2, dt=dt)



def test_decoupled_sectors_stay_empty():
    basis, scenario = make(epsilon=0.0)
    amps = exact_swap_amplitude(basis, scenario, np.linspace(0.3, 1.5, 5), 2)
    assert np.all(amps == 0)


def test_norm_and_energy_conservation_rk4():
    basis, scenario = make(epsilon=5e-2)
    fock = FockSpace.build(3, 2)
    action = build_hamiltonian(basis, scenario, fock)
    psi0 = fock.basis_state(1, 0)
    times = np.linspace(0.0, 2.0, 9)
    results = [evolve(action, psi0, times[:j + 1]) for j in range(times.size)]
    assert max(r.norm_drift for r in results) < 1e-8
    h = action.matrix(0.0)
    energies = [np.real(np.vdot(r.state, h @ r.state)) for r in results]
    scale = max(1.0, abs(energies[0]))
    assert np.max(np.abs(np.diff(energies))) / scale < 1e-8


def test_selection_rules_hold_exactly():
    # allowed sectors: even phonons with {up down, down up}, odd phonons with
    # {down down, up up}; everything else must never be populated
    basis, scenario = make(epsilon=0.1)
    fock = FockSpace.build(3, 3)
    action = build_hamiltonian(basis, scenario, fock)
    psi0 = fock.basis_state(1, 0)
    times = np.linspace(0.0, 1.0, 3)
    states = np.array([evolve(action, psi0, times[:j + 1]).state for j in range(times.size)])
    forbidden = []
    n_occ = len(fock.occupations)
    for sa in (0, 1):
        for sb in (0, 1):
            for i, occ in enumerate(fock.occupations):
                even = sum(occ) % 2 == 0
                swap_sector = sa != sb
                if even != swap_sector:
                    forbidden.append((sa * 2 + sb) * n_occ + i)
    assert np.max(np.abs(states[:, forbidden])) < 1e-12


def test_rk4_agrees_with_eigendecomposition():
    basis, scenario = make(epsilon=2e-2)
    fock = FockSpace.build(3, 3)
    action = build_hamiltonian(basis, scenario, fock)
    psi0 = fock.basis_state(1, 0)
    target = {"swap": fock.basis_state(0, 1)}
    times = np.concatenate(([0.0], np.linspace(0.2, 1.2, 5)))
    rk4 = evolve(action, psi0, times, projections=target).projections["swap"]
    static = evolve_static(action, psi0, times, projections=target).projections["swap"]
    assert np.max(np.abs(rk4 - static)) < 1e-11


@pytest.fixture
def no_hamiltonian(monkeypatch):
    """Count build_hamiltonian calls, and refuse them."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("build_hamiltonian was called")

    monkeypatch.setattr(oracle, "build_hamiltonian", refuse)
    return calls


@pytest.mark.parametrize("times, match", [
    ([-1.0], ">= 0"),
    ([0.2, 0.1], "strictly increasing"),
], ids=["negative-time", "decreasing-times"])
def test_swap_amplitude_checks_its_inputs_before_the_build(no_hamiltonian, times, match):
    basis, scenario = make()
    with pytest.raises(InvalidParametersError, match=match):
        exact_swap_amplitude(basis, scenario, times, 2)
    assert no_hamiltonian == []


def test_static_path_checks_its_memory_before_the_build(no_hamiltonian):
    # 3 modes at cutoff 30: Fock dimension 21 824, 7.6 GB per dense matrix
    basis, scenario = make()
    with pytest.raises(InvalidParametersError, match="phonon cutoff 30 .*reduce the cutoff"):
        exact_swap_amplitude(basis, scenario, [0.2], 30)
    assert no_hamiltonian == []
    # the benchmark's largest static solve, dimension 840 (6 modes at cutoff 4), passes
    oracle._check_dense_memory(840, 4)


@pytest.mark.parametrize("state, times", [
    (lambda psi: psi[:-1], [0.0, 0.1]),
    (lambda psi: np.stack([psi, psi], axis=1), [0.0, 0.1]),
    (lambda psi: psi, [0.1, 0.1]),
], ids=["one-entry-short", "two-columns", "repeated-time"])
def test_static_evolution_checks_its_inputs_before_eigh(monkeypatch, state, times):
    basis, scenario = make()
    fock = FockSpace.build(3, 2)
    action = build_hamiltonian(basis, scenario, fock)
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args))
    with pytest.raises(InvalidParametersError):
        evolve_static(action, state(fock.basis_state(1, 0)), times)
    assert calls == []


def test_static_path_needs_constant_opening():
    basis, scenario = make(opening=OpeningFunction.sin_sq_window(0.4), duration=0.4)
    fock = FockSpace.build(3, 2)
    action = build_hamiltonian(basis, scenario, fock)
    with pytest.raises(InvalidParametersError, match="constant opening"):
        evolve_static(action, fock.basis_state(1, 0), [0.0, 0.2])


def test_step_size_failure_raises():
    basis, scenario = make(epsilon=5e-2)
    fock = FockSpace.build(3, 2)
    action = build_hamiltonian(basis, scenario, fock)
    psi0 = fock.basis_state(1, 0)
    with pytest.raises(NumericalFailureError, match="norm drift"):
        evolve(action, psi0, np.linspace(0.0, 3.0, 4), dt=0.25)


def test_non_finite_state_fails_closed():
    basis, scenario = make(epsilon=5e-2)
    fock = FockSpace.build(3, 2)
    action = build_hamiltonian(basis, scenario, fock)
    psi0 = fock.basis_state(1, 0)
    psi0[3] = np.nan
    with pytest.raises(NumericalFailureError, match="norm drift"):
        evolve(action, psi0, np.linspace(0.0, 0.1, 2))


def test_cutoff_convergence():
    basis, scenario = make(epsilon=1e-2)
    times = np.linspace(0.3, 1.5, 5)
    a2 = exact_swap_amplitude(basis, scenario, times, 2)
    a3 = exact_swap_amplitude(basis, scenario, times, 3)
    a4 = exact_swap_amplitude(basis, scenario, times, 4)
    assert np.max(np.abs(a3 - a2)) < 1e-8
    assert np.max(np.abs(a4 - a3)) < 1e-8
    amps, cutoff = converged_swap_amplitude(basis, scenario, times)
    assert cutoff <= 4
    np.testing.assert_allclose(amps, a4, atol=1e-8)


# ---------------------------------------------------------------- residual order

def test_windowed_residual_order():
    # the amplitude series carries even powers of the coupling only (each
    # vertex moves one phonon), so halving epsilon shrinks the remainder
    # beyond the eps^2 term by 2^4
    basis, _ = make()
    times = np.linspace(0.05, 0.3, 6)
    resids = []
    for eps in (1e-2, 5e-3):
        scenario = Scenario.symmetric(0, 1, 2.0, eps, OpeningFunction.sin_sq_window(0.3), 0.3)
        pert = bare_amplitude(basis, scenario, times).total
        exact, _ = converged_swap_amplitude(basis, scenario, times)
        resids.append(np.max(np.abs(pert - exact)))
    factor = resids[0] / resids[1]
    assert factor == pytest.approx(16.0, rel=0.15)


def test_constant_drive_residual_slope_is_four():
    basis, scenario = make()
    residuals, slope = residual_slope(
        basis, scenario, [1e-2, 5e-3, 2.5e-3], np.linspace(0.1, 1.5, 15))
    assert np.all(np.diff(residuals) < 0)
    assert slope == pytest.approx(4.0, abs=0.3)


@pytest.mark.parametrize("cutoff, refusal", [(200, "Fock dimension"), (30, "static path")])
def test_residual_slope_refuses_the_cutoff_before_any_sum(monkeypatch, cutoff, refusal):
    def refuse(*args):
        raise AssertionError("bare_amplitude was called")

    monkeypatch.setattr(oracle, "bare_amplitude", refuse)
    basis, scenario = make()
    with pytest.raises(InvalidParametersError, match=refusal):
        residual_slope(basis, scenario, [1e-2, 5e-3], np.linspace(0.1, 1.5, 15), cutoff)


@pytest.mark.parametrize("opening, duration, propagate", [
    (OpeningFunction.constant(), 1.5, evolve_static),
    (OpeningFunction.sin_sq_window(0.4), 0.4, evolve),
], ids=["static", "rk4"])
def test_swap_amplitude_is_even_in_coupling(opening, duration, propagate):
    # P = (-1)^N anticommutes with every phonon coordinate, so P H(eps) P =
    # H(-eps); both swap endpoints hold no phonons, hence A(-eps) = A(eps)
    # and the residual beyond the eps^2 term starts at eps^4
    basis, scenario = make(epsilon=0.1, opening=opening, duration=duration)
    fock = FockSpace.build(basis.n_modes, 4)
    action = build_hamiltonian(basis, scenario, fock)
    flipped = dataclasses.replace(action, w_a=-action.w_a, w_b=-action.w_b)
    psi0 = fock.basis_state(1, 0)
    target = {"swap": fock.basis_state(0, 1)}
    times = np.linspace(0.0, duration, 9)
    swap = propagate(action, psi0, times, projections=target).projections["swap"]
    swap_flipped = propagate(flipped, psi0, times, projections=target).projections["swap"]
    assert np.max(np.abs(swap)) > 1e-6
    assert np.max(np.abs(swap - swap_flipped)) <= 1e-13 * np.max(np.abs(swap))


def unshared_residual_slope(basis, scenario, epsilons, times, cutoff):
    """residual_slope's residuals and slope with a Fock space and
    Hamiltonian built afresh for every epsilon and cutoff."""
    epsilons = np.asarray(epsilons, dtype=float)
    residuals = np.zeros(epsilons.size)
    for i, eps in enumerate(epsilons):
        if eps == 0.0:
            continue
        scen = dataclasses.replace(scenario, epsilon=float(eps))
        exact = (converged_swap_amplitude(basis, scen, times)[0] if cutoff is None
                 else exact_swap_amplitude(basis, scen, times, cutoff))
        residuals[i] = np.max(np.abs(bare_amplitude(basis, scen, times).total - exact))
    mask = residuals > 0
    return residuals, np.polyfit(np.log(epsilons[mask]), np.log(residuals[mask]), 1)[0]


def oracle_check_figure():
    doc = cli.apply_schema(json.loads((FIGURES_DIR / "oracle_check.json").read_text()),
                           "oracle-check")
    run = doc["run"]
    times = np.linspace(0.0, run["t_max"], run["n_times"] + 1)[1:]
    return cli.build_basis(doc), cli.build_scenario(doc), run["epsilons"], times, None


def six_mode_chain():
    basis = build_harmonic_chain(ChainParams(6))
    scenario = Scenario.symmetric(0, 3, 2.0, 0.02, OpeningFunction.sin_sq_window(0.4), 0.4)
    return basis, scenario, [0.04, 0.0, 0.02], np.linspace(0.1, 0.4, 3), 4


@pytest.mark.parametrize("case", [oracle_check_figure, six_mode_chain],
                         ids=["oracle_check", "chain6_cutoff4"])
def test_residual_slope_builds_each_cutoff_once(monkeypatch, case):
    basis, scenario, epsilons, times, cutoff = case()
    want_residuals, want_slope = unshared_residual_slope(basis, scenario, epsilons, times,
                                                         cutoff)
    built = []
    build = FockSpace.build
    monkeypatch.setattr(oracle.FockSpace, "build", classmethod(
        lambda cls, n_modes, max_total_phonons: built.append(max_total_phonons)
        or build(n_modes, max_total_phonons)))
    residuals, slope = residual_slope(basis, scenario, epsilons, times, cutoff)
    assert residuals.tobytes() == want_residuals.tobytes()
    assert np.float64(slope).tobytes() == np.float64(want_slope).tobytes()
    assert built == ([cutoff] if cutoff else list(range(oracle.CUTOFF_START, max(built) + 1)))


def test_zero_epsilon_residual_is_zero():
    basis, scenario = make()
    residuals, _ = residual_slope(basis, scenario, [0.0, 1e-2], np.linspace(0.1, 1.0, 4))
    assert residuals[0] == 0.0


# ---------------------------------------------------------------- adiabatic ramp

def test_adiabatic_no_coupling_is_trivial():
    basis, _ = make(n_sites=2)
    scenario = Scenario.symmetric(0, 1, 2.0, 0.0, OpeningFunction.constant(), 1.0)
    report = adiabatic_dressing_check(basis, scenario, 5.0, 2)
    assert report.overlap == pytest.approx(1.0, abs=1e-12)


def test_adiabatic_error_decreases_with_ramp_time():
    basis, _ = make(n_sites=2)
    scenario = Scenario.symmetric(0, 1, 2.0, 1e-2, OpeningFunction.constant(), 1.0)
    deficits = []
    for tau in (2.0, 4.0, 8.0):
        report = adiabatic_dressing_check(basis, scenario, tau, 2)
        deficits.append(1.0 - report.overlap)
    assert deficits[0] > deficits[1] > deficits[2] > 0


def test_adiabatic_long_ramp_reaches_dressed_state():
    basis, _ = make(n_sites=2)
    scenario = Scenario.symmetric(0, 1, 2.0, 1e-2, OpeningFunction.constant(), 1.0)
    report = adiabatic_dressing_check(basis, scenario, 25.0, 2)
    assert report.overlap >= 0.999
    # regression pin from the first run of this configuration
    assert 1.0 - report.overlap == pytest.approx(5.05e-10, rel=0.05)
    assert report.norm_drift < 1e-8
