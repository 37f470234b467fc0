import itertools
import math

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
from fermi_lattice.oracle import _dense


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
        lam = basis.couplings[site]
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
        assert_bitwise(_dense(w), want)


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


def test_mode_count_must_match():
    basis, scenario = make()
    with pytest.raises(InvalidParametersError):
        build_hamiltonian(basis, scenario, FockSpace.build(2, 2))


# ---------------------------------------------------------------- evolution

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
    result = evolve(action, psi0, times, record_states=True)
    assert result.norm_drift < 1e-8
    h = action.matrix(0.0)
    energies = [np.real(np.vdot(s, h @ s)) for s in result.states]
    scale = max(1.0, abs(energies[0]))
    assert np.max(np.abs(np.diff(energies))) / scale < 1e-8


def test_selection_rules_hold_exactly():
    # allowed sectors: even phonons with {up down, down up}, odd phonons with
    # {down down, up up}; everything else must never be populated
    basis, scenario = make(epsilon=0.1)
    fock = FockSpace.build(3, 3)
    action = build_hamiltonian(basis, scenario, fock)
    psi0 = fock.basis_state(1, 0)
    result = evolve(action, psi0, np.linspace(0.0, 1.0, 3), record_states=True)
    forbidden = []
    n_occ = len(fock.occupations)
    for sa in (0, 1):
        for sb in (0, 1):
            for i, occ in enumerate(fock.occupations):
                even = sum(occ) % 2 == 0
                swap_sector = sa != sb
                if even != swap_sector:
                    forbidden.append((sa * 2 + sb) * n_occ + i)
    assert np.max(np.abs(result.states[:, forbidden])) < 1e-12


def test_rk4_agrees_with_eigendecomposition():
    basis, scenario = make(epsilon=2e-2)
    times = np.linspace(0.2, 1.2, 5)
    rk4 = exact_swap_amplitude(basis, scenario, times, 3, method="rk4")
    static = exact_swap_amplitude(basis, scenario, times, 3, method="static")
    assert np.max(np.abs(rk4 - static)) < 1e-11


def test_static_path_needs_constant_opening():
    basis, scenario = make(opening=OpeningFunction.sin_sq_window(0.4), duration=0.4)
    with pytest.raises(InvalidParametersError):
        exact_swap_amplitude(basis, scenario, [0.2], 2, method="static")


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
        exact, _ = converged_swap_amplitude(basis, scenario, times, method="rk4")
        resids.append(np.max(np.abs(pert - exact)))
    factor = resids[0] / resids[1]
    assert factor == pytest.approx(16.0, rel=0.15)


def test_constant_drive_residual_slope_is_four():
    basis, scenario = make()
    residuals, slope = residual_slope(
        basis, scenario, [1e-2, 5e-3, 2.5e-3], np.linspace(0.1, 1.5, 15))
    assert np.all(np.diff(residuals) < 0)
    assert slope == pytest.approx(4.0, abs=0.3)


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
