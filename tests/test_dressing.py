import numpy as np
import pytest

from fermi_lattice import causality
from fermi_lattice import (
    ChainParams,
    DressingScheme,
    FockSpace,
    InvalidParametersError,
    OpeningFunction,
    Scenario,
    SpinPattern,
    UnsupportedConfigurationError,
    bare_amplitude,
    build_harmonic_chain,
    build_hamiltonian,
    build_ion_trap,
    TrapParams,
    dressed_amplitude,
    dressed_ground_state,
    expansion_to_vector,
    g_min,
    initial_dressed_state,
    static_dressing_amplitude,
)
from fermi_lattice.oracle import _dense


def small_scenario(epsilon=1.0):
    return Scenario.symmetric(0, 1, 2.0, epsilon, OpeningFunction.constant(), 1.0)


def matrix_rayleigh_schroedinger(basis, scenario, cutoff=2):
    """Independent oracle: textbook second-order perturbation theory on the
    explicit truncated-Fock matrices."""
    fock = FockSpace.build(basis.n_modes, cutoff)
    action = build_hamiltonian(basis, scenario, fock)
    v = _dense(action.w_a) + _dense(action.w_b)
    h0 = action.h0_diag
    g0 = fock.state_index(0, 0, (0,) * basis.n_modes)
    e0 = h0[g0]
    denom = e0 - h0
    denom[g0] = np.inf
    psi1 = v[:, g0] / denom
    psi2 = (v @ psi1) / denom
    psi2[g0] = 0.0
    return fock, psi1, psi2


@pytest.mark.parametrize("n", [3, 4])
def test_ground_state_matches_matrix_perturbation_theory(n):
    basis = build_harmonic_chain(ChainParams(n))
    scenario = small_scenario()
    ground = dressed_ground_state(basis, scenario)
    fock, psi1, psi2 = matrix_rayleigh_schroedinger(basis, scenario)

    order1 = expansion_to_vector(
        type(ground)(tuple(t for t in ground.terms if t.order <= 1), 1.0), fock)
    g0 = fock.state_index(0, 0, (0,) * n)
    order1[g0] = 0.0
    assert np.max(np.abs(order1 - psi1)) <= 1e-8

    full = expansion_to_vector(ground, fock)
    order2 = full.copy()
    order2 -= order1
    order2[g0] = 0.0
    assert np.max(np.abs(order2 - psi2)) <= 1e-8


def test_first_order_coefficients(chain100):
    sc = Scenario.symmetric(3, 40, 2.0, 1.0, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(chain100, sc)
    w = chain100.frequencies
    for k in (0, 7, 50):
        got = ground.coefficient(SpinPattern.UP_DOWN, ((k, 1),))
        want = -np.conj(chain100.couplings[3, k]) / (2.0 + w[k])
        assert got == pytest.approx(want, rel=1e-14)


def test_mutual_static_coefficient(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(chain100, sc)
    w = chain100.frequencies
    la = np.conj(chain100.couplings[0])
    lb = np.conj(chain100.couplings[31])
    want = np.sum((la * np.conj(lb) + lb * np.conj(la)) / (2 * 2.0 * (2.0 + w)))
    got = ground.coefficient(SpinPattern.UP_UP, ())
    assert got == pytest.approx(complex(want), rel=1e-14)
    # equals the static dressing amplitude by construction
    assert got.real == pytest.approx(static_dressing_amplitude(chain100, 2.0, 31), rel=1e-12)


def test_ground_state_requires_equal_splittings(chain100):
    sc = Scenario(0, 31, 2.0, 2.5, 1.0, OpeningFunction.constant(),
                  OpeningFunction.constant(), 1.0)
    with pytest.raises(UnsupportedConfigurationError):
        dressed_ground_state(chain100, sc)


def test_dressing_requires_positive_splitting(chain100):
    # negative Omega (the trap's -delta mapping) breaks the energy
    # denominators of the dressed expansion
    sc = Scenario.symmetric(0, 31, -0.5, 1.0, OpeningFunction.constant(), 1.0)
    with pytest.raises(UnsupportedConfigurationError):
        dressed_ground_state(chain100, sc)
    with pytest.raises(UnsupportedConfigurationError):
        dressed_amplitude(chain100, sc, DressingScheme.SIGMA_X, [0.0])


def test_parity_structure(chain3):
    ground = dressed_ground_state(chain3, small_scenario())
    for term in ground.terms:
        assert term.order % 2 == term.n_phonons % 2


# ---------------------------------------------------------------- schemes

def test_sigma_x_initial_state(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(chain100, sc)
    init = initial_dressed_state(ground, DressingScheme.SIGMA_X)
    zero = [t for t in init.terms if t.order == 0][0]
    assert zero.spins is SpinPattern.UP_DOWN
    got = init.coefficient(SpinPattern.DOWN_UP, ())
    assert got == pytest.approx(ground.coefficient(SpinPattern.UP_UP, ()), rel=1e-15)


def test_sigma_plus_drops_mutual_dressing(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(chain100, sc)
    init = initial_dressed_state(ground, DressingScheme.SIGMA_PLUS)
    assert init.coefficient(SpinPattern.DOWN_UP, ()) == 0
    assert not any(t.spins is SpinPattern.DOWN_UP for t in init.terms)


def test_bare_scheme_initial_state(chain100):
    ground = dressed_ground_state(chain100, small_scenario())
    init = initial_dressed_state(ground, DressingScheme.BARE)
    assert len(init.terms) == 1
    assert init.terms[0].spins is SpinPattern.UP_DOWN


def test_normalization_counter_term(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(chain100, sc)
    init = initial_dressed_state(ground, DressingScheme.SIGMA_X, include_normalization=True)
    order2_ud = sum(t.coeff for t in init.terms
                    if t.order == 2 and t.spins is SpinPattern.UP_DOWN and not t.phonons)
    assert order2_ud == pytest.approx(-0.5 * init.first_order_norm_sq(), rel=1e-14)


# ---------------------------------------------------------------- amplitudes

def test_bare_scheme_reproduces_bare_amplitude(chain100, fig4_scenario):
    times = np.linspace(0.0, 0.1, 101)
    dressed = dressed_amplitude(chain100, fig4_scenario, DressingScheme.BARE, times)
    bare = bare_amplitude(chain100, fig4_scenario, times)
    assert np.max(np.abs(dressed.total - bare.total)) <= 1e-10


def test_scheme_algebra_at_t0(chain100, fig7_scenario):
    t0 = np.array([0.0])
    a_x = dressed_amplitude(chain100, fig7_scenario, DressingScheme.SIGMA_X, t0).total[0]
    a_p = dressed_amplitude(chain100, fig7_scenario, DressingScheme.SIGMA_PLUS, t0).total[0]
    g = static_dressing_amplitude(chain100, 2.0, 31)
    assert abs((a_x - a_p) - g) <= 1e-10


def test_fig7_scheme_hierarchy(chain100, fig7_scenario):
    times = np.linspace(0.0, 0.1, 101)
    p1 = dressed_amplitude(chain100, fig7_scenario, DressingScheme.SIGMA_X, times).probability
    p2 = dressed_amplitude(chain100, fig7_scenario, DressingScheme.SIGMA_PLUS, times).probability
    ratio = p1[-1] / p2[-1]
    assert 100.0 / 3.0 <= ratio <= 300.0
    assert ratio == pytest.approx(102.53714830421424, rel=1e-9)
    flatness = p1.max() / p1.min()
    assert flatness <= 1.25
    assert flatness == pytest.approx(1.0212143530434497, rel=1e-9)


def test_dressed_amplitude_strips_ramp(chain100, fig7_scenario):
    from dataclasses import replace
    times = np.linspace(0.0, 0.1, 11)
    plain = dressed_amplitude(chain100, fig7_scenario, DressingScheme.SIGMA_X, times)
    ramped_opening = OpeningFunction.exp_ramp_then(30.0, fig7_scenario.opening_a)
    ramped = replace(fig7_scenario, opening_a=ramped_opening, opening_b=ramped_opening)
    via_ramp = dressed_amplitude(chain100, ramped, DressingScheme.SIGMA_X, times)
    assert np.array_equal(plain.total, via_ramp.total)


def test_dressed_amplitude_rejects_mixed_openings(chain100):
    sc = Scenario(0, 31, 2.0, 2.0, 1.0, OpeningFunction.cos_sq_window(0.1),
                  OpeningFunction.sin_sq_window(0.1), 0.1)
    with pytest.raises(UnsupportedConfigurationError):
        dressed_amplitude(chain100, sc, DressingScheme.SIGMA_X, [0.0, 0.1])


# ---------------------------------------------------------------- static G

def test_g_decreasing(chain1000):
    values = [static_dressing_amplitude(chain1000, 2.0, r) for r in range(0, 501)]
    assert np.all(np.diff(values[1:]) < 0)
    assert values[0] == max(values)


def test_g_r0_is_maximal(chain100):
    w = chain100.frequencies
    want = np.sum(1.0 / (2 * 100 * 2.0 * w * (2.0 + w)))
    assert static_dressing_amplitude(chain100, 2.0, 0) == pytest.approx(want, rel=1e-14)


def test_g_needs_chain():
    trap = build_ion_trap(TrapParams(2))
    with pytest.raises(UnsupportedConfigurationError):
        static_dressing_amplitude(trap, 2.0, 1)


def test_gmin_equals_antipodal_g():
    for n in (10, 50, 200):
        basis = build_harmonic_chain(ChainParams(n))
        direct = static_dressing_amplitude(basis, 2.0, n // 2)
        assert g_min([n], 2.0)[0] == pytest.approx(direct, rel=1e-13)


def test_gmin_two_site_chain_positive():
    assert g_min([2], 2.0)[0] > 0


def test_gmin_decreasing_in_n():
    ns = np.arange(10, 201, 2)
    values = g_min(ns, 2.0)
    assert np.all(np.diff(values) < 0)
    assert g_min([1000], 2.0)[0] < g_min([100], 2.0)[0]


def test_gmin_rejects_odd_n():
    with pytest.raises(InvalidParametersError):
        g_min([10, 11], 2.0)


@pytest.mark.parametrize("scheme", list(DressingScheme))
def test_blocked_dressed_amplitude_equals_unblocked(chain1000, monkeypatch, scheme):
    sc = Scenario.symmetric(0, 300, 2.0, 1.0, OpeningFunction.cos_sq_window(0.1), 0.1)
    times = np.linspace(0.0, 0.1, 131)
    assert len(causality.row_blocks(times.size, 1000, grids=8)) == 3
    blocked = dressed_amplitude(chain1000, sc, scheme, times)
    monkeypatch.setattr(causality, "MODE_SUM_BLOCK", 10**9)
    whole = dressed_amplitude(chain1000, sc, scheme, times)
    assert blocked.total.tobytes() == whole.total.tobytes()
