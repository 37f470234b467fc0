import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from fermi_lattice import causality
from fermi_lattice import (
    ChainParams,
    DressingScheme,
    ExpansionTerm,
    FockSpace,
    InvalidParametersError,
    ModeBasis,
    OpeningFunction,
    Scenario,
    SpinPattern,
    StateExpansion,
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
    static_dressing_amplitude,
)
from fermi_lattice.dressing import SPIN_PATTERNS
from fermi_lattice.quadrature import opening_nested_integral, opening_phase_integral


def small_scenario(epsilon=1.0):
    return Scenario.symmetric(0, 1, 2.0, epsilon, OpeningFunction.constant(), 1.0)


def expansion(terms, epsilon):
    """The StateExpansion of a term list: its columns, one row per term."""
    width = max((len(t.phonons) for t in terms), default=0)
    pairs = np.array([t.phonons + ((-1, 0),) * (width - len(t.phonons)) for t in terms],
                     dtype=np.int64).reshape(len(terms), width, 2)
    return StateExpansion(epsilon, [t.order for t in terms],
                          [SPIN_PATTERNS.index(t.spins) for t in terms],
                          pairs[..., 0], pairs[..., 1], [t.coeff for t in terms])


def coefficient(state, spins, phonons):
    """Total coefficient of one configuration, epsilon powers applied."""
    return sum(state.epsilon ** t.order * t.coeff for t in state.terms
               if t.spins is spins and t.phonons == phonons)


def initial_state(ground, scheme, include_normalization=False):
    """The scheme's initial state, from the term loop below."""
    return expansion(loop_initial_state(ground.terms, scheme, include_normalization),
                     ground.epsilon)


def matrix_rayleigh_schroedinger(basis, scenario, cutoff=2):
    """Independent oracle: textbook second-order perturbation theory on the
    explicit truncated-Fock matrices."""
    fock = FockSpace.build(basis.n_modes, cutoff)
    action = build_hamiltonian(basis, scenario, fock)
    v = action.w_a.toarray() + action.w_b.toarray()
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

    order1 = expansion_to_vector(expansion([t for t in ground.terms if t.order <= 1], 1.0), fock)
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
        got = coefficient(ground, SpinPattern.UP_DOWN, ((k, 1),))
        want = -np.conj(chain100.row(3)[k]) / (2.0 + w[k])
        assert got == pytest.approx(want, rel=1e-14)


def test_mutual_static_coefficient(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(chain100, sc)
    w = chain100.frequencies
    la = np.conj(chain100.row(0))
    lb = np.conj(chain100.row(31))
    want = np.sum((la * np.conj(lb) + lb * np.conj(la)) / (2 * 2.0 * (2.0 + w)))
    got = coefficient(ground, SpinPattern.UP_UP, ())
    assert got == pytest.approx(complex(want), rel=1e-14)
    # equals the static dressing amplitude by construction
    assert got.real == pytest.approx(static_dressing_amplitude(chain100, 2.0, 0, 31), rel=1e-12)


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
        assert term.order % 2 == sum(c for _, c in term.phonons) % 2


# ---------------------------------------------------------------- schemes

def test_sigma_x_initial_state(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(chain100, sc)
    init = initial_state(ground, DressingScheme.SIGMA_X)
    zero = [t for t in init.terms if t.order == 0][0]
    assert zero.spins is SpinPattern.UP_DOWN
    got = coefficient(init, SpinPattern.DOWN_UP, ())
    assert got == pytest.approx(coefficient(ground, SpinPattern.UP_UP, ()), rel=1e-15)


def test_sigma_plus_drops_mutual_dressing(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(chain100, sc)
    init = initial_state(ground, DressingScheme.SIGMA_PLUS)
    assert coefficient(init, SpinPattern.DOWN_UP, ()) == 0
    assert not any(t.spins is SpinPattern.DOWN_UP for t in init.terms)


def test_bare_scheme_initial_state(chain100):
    ground = dressed_ground_state(chain100, small_scenario())
    init = initial_state(ground, DressingScheme.BARE)
    assert len(init.terms) == 1
    assert init.terms[0].spins is SpinPattern.UP_DOWN


def test_normalization_counter_term(chain100):
    sc = Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(chain100, sc)
    init = initial_state(ground, DressingScheme.SIGMA_X, include_normalization=True)
    order2_ud = sum(t.coeff for t in init.terms
                    if t.order == 2 and t.spins is SpinPattern.UP_DOWN and not t.phonons)
    first_order_norm_sq = np.sum(np.abs(ground.coeff[ground.order == 1]) ** 2)
    assert order2_ud == pytest.approx(-0.5 * first_order_norm_sq, rel=1e-14)


# ---------------------------------------------------------------- amplitudes

def test_bare_scheme_reproduces_bare_amplitude(chain100, fig4_scenario, fig7_scenario):
    # the two engines sum in different orders: 1.3e-14 of max|A| apart on
    # either window
    times = np.linspace(0.0, 0.1, 101)
    for scenario in (fig4_scenario, fig7_scenario):
        dressed = dressed_amplitude(chain100, scenario, DressingScheme.BARE, times)
        bare = bare_amplitude(chain100, scenario, times)
        assert np.max(np.abs(dressed.total - bare.total)) <= 1e-13 * np.max(np.abs(bare.total))


def test_scheme_algebra_at_t0(chain100, fig7_scenario):
    t0 = np.array([0.0])
    a_x = dressed_amplitude(chain100, fig7_scenario, DressingScheme.SIGMA_X, t0).total[0]
    a_p = dressed_amplitude(chain100, fig7_scenario, DressingScheme.SIGMA_PLUS, t0).total[0]
    g = static_dressing_amplitude(chain100, 2.0, 0, 31)
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
    scalar = [static_dressing_amplitude(chain1000, 2.0, 0, r) for r in range(0, 501)]
    array = static_dressing_amplitude(chain1000, 2.0, 0, np.arange(501))
    for values in (scalar, array):
        assert np.all(np.diff(values[1:]) < 0)
        assert values[0] == max(values)


def test_g_r0_is_maximal(chain100):
    w = chain100.frequencies
    want = np.sum(1.0 / (2 * 100 * 2.0 * w * (2.0 + w)))
    assert static_dressing_amplitude(chain100, 2.0, 0, 0) == pytest.approx(want, rel=1e-14)


def test_g_is_periodic_in_r(chain100):
    # R is reduced mod N before cos(theta_k R): G(R + m N) == G(R) bitwise
    for r in (0, 1, 31, 99):
        g = static_dressing_amplitude(chain100, 2.0, 0, r)
        for m in (1, -1, 7, 10**14, -(10**30)):
            assert static_dressing_amplitude(chain100, 2.0, 0, r + m * 100) == g
    assert static_dressing_amplitude(chain100, 2.0, 0, 10**16 + 1) == \
        static_dressing_amplitude(chain100, 2.0, 0, 1)
    # the array form gathers R mod N from one synthesis
    rs = np.array([0, 1, 31, 99])
    g = static_dressing_amplitude(chain100, 2.0, 0, rs)
    for m in (1, -1, 7, 10**14, -(10**14)):
        assert np.array_equal(static_dressing_amplitude(chain100, 2.0, 0, rs + m * 100), g)


def _g_reference(basis, omega, r):
    """G(R)/eps^2 with k R reduced mod N in integers before the cosine, and
    the terms summed exactly by math.fsum (within 1.1e-16 relative of a
    30-digit mpmath sum at N <= 1001)."""
    n, w = basis.n_sites, basis.frequencies
    phase = (np.arange(n) * (r % n)) % n
    return math.fsum((np.cos(2.0 * np.pi * phase / n)
                      / (2.0 * n * omega * w * (omega + w))).tolist())


@pytest.mark.parametrize("n", [2, 3, 7, 100, 1001, 10**5])
def test_g_array_form_matches_an_exactly_summed_reference(n):
    basis = build_harmonic_chain(ChainParams(n))
    base = [0, 1, n // 7, n // 4, n // 2]
    rs = base + [r + 3 * n for r in base] + [-r for r in base] + [2**53 - 1, -(2**53 - 1)]
    want = np.array([_g_reference(basis, 2.0, r) for r in rs])
    got = static_dressing_amplitude(basis, 2.0, 0, np.array(rs))
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))
    if n <= 1001:
        # no further from the reference than the per-offset sum, to one unit in
        # the last place: the sum of 3 or 7 terms can be exact where the
        # transform is 1 or 2 units off
        scalar = np.array([static_dressing_amplitude(basis, 2.0, 0, r) for r in rs])
        ulp = np.spacing(np.abs(want))
        assert np.max(np.abs(got - want) / ulp) <= np.max(np.abs(scalar - want) / ulp) + 1


def test_g_integer_form_matches_an_exactly_summed_reference():
    # k R is reduced mod N in integers before the angle, so the error does not
    # grow with R: 7.1e-16 at most over every R, where floating angles gave 3.8e-14
    n = 1001
    basis = build_harmonic_chain(ChainParams(n))
    for r in range(n):
        want = _g_reference(basis, 2.0, r)
        assert abs(static_dressing_amplitude(basis, 2.0, 0, r) - want) <= 2e-15 * abs(want), r


def test_g_from_any_site_of_a_chain_is_g_of_the_offset():
    # G(a, b) == G(0, b - a) on a ring: the cosine sum of one site and the
    # synthesis from site a of an array of them, each within 2e-15
    n, site_a = 1001, 137
    basis = build_harmonic_chain(ChainParams(n))
    sites = np.arange(n)
    want = np.array([_g_reference(basis, 2.0, b - site_a) for b in sites.tolist()])
    scalar = np.array([static_dressing_amplitude(basis, 2.0, site_a, b) for b in sites.tolist()])
    array = static_dressing_amplitude(basis, 2.0, site_a, sites)
    for got in (scalar, array):
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))
    # a chain site is reduced mod N, site_a included
    assert np.array_equal(static_dressing_amplitude(basis, 2.0, site_a + n, sites - 3 * n), array)


def test_g_on_a_trap_matches_an_exactly_summed_pair_sum():
    n, site_a = 201, 100
    trap = build_ion_trap(TrapParams(n))
    w = trap.frequencies
    got = static_dressing_amplitude(trap, 2.0, site_a, np.arange(n))
    for b in range(n):
        terms = (trap.row(b) * np.conj(trap.row(site_a))).real / (2.0 * (2.0 + w))
        want = math.fsum(terms.tolist())
        assert abs(got[b] - want) <= 1e-14 * abs(want), b
        # one site is the array's element, from the same synthesis
        assert static_dressing_amplitude(trap, 2.0, site_a, b) == got[b]
    # the dressing falls off across the crystal
    assert got[site_a] > got[site_a + 1] > got[-1] > 0
    for bad in (n, -1, np.array([0, n])):
        with pytest.raises(IndexError):
            static_dressing_amplitude(trap, 2.0, site_a, bad)


def test_gmin_equals_antipodal_g():
    for n in (10, 50, 200):
        basis = build_harmonic_chain(ChainParams(n))
        direct = static_dressing_amplitude(basis, 2.0, 0, n // 2)
        assert g_min([n], 2.0)[0] == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("length, pinning, speed", [(1.0, 1.0, 1.0), (2.5, 0.7, 1.3)])
def test_gmin_is_the_antipodal_g_bitwise(length, pinning, speed):
    # cos(theta_k N/2) rounds to exactly (-1)^k, so G(N/2) is the alternating sum
    ns = np.arange(10, 2001, 2)
    values = g_min(ns, 2.0, length, pinning, speed)
    for n, value in zip(ns.tolist(), values):
        basis = build_harmonic_chain(ChainParams(n, length, pinning, speed))
        w = basis.frequencies
        alternating = np.sum((-1.0) ** np.arange(n) / (2.0 * n * 2.0 * w * (2.0 + w)))
        assert value == static_dressing_amplitude(basis, 2.0, 0, n // 2) == alternating


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


@pytest.mark.parametrize("scheme", list(DressingScheme)
                         + [pytest.param(list(DressingScheme), id="all_schemes")])
def test_blocked_dressed_amplitude_equals_unblocked(chain1000, monkeypatch, scheme):
    sc = Scenario.symmetric(0, 300, 2.0, 1.0, OpeningFunction.cos_sq_window(0.1), 0.1)
    times = np.linspace(0.0, 0.1, 131)
    assert len(causality.row_blocks(times.size, 1000, grids=8)) == 3
    blocked = dressed_amplitude(chain1000, sc, scheme, times)
    monkeypatch.setattr(causality, "MODE_SUM_BLOCK", 10**9)
    whole = dressed_amplitude(chain1000, sc, scheme, times)
    if isinstance(scheme, DressingScheme):
        blocked, whole = [blocked], [whole]
    assert [tr.total.tobytes() for tr in blocked] == [tr.total.tobytes() for tr in whole]


# ---------------------------------------------------------------- several schemes in one call

SCHEME_CASES = {
    # fig6: constant opening; fig7: cos^2 window (both on chain100)
    "fig6": (lambda: build_harmonic_chain(ChainParams(100)),
             Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.constant(), 2.0),
             np.linspace(0.0, 2.0, 401), list(DressingScheme)),
    "fig7": (lambda: build_harmonic_chain(ChainParams(100)),
             Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.cos_sq_window(0.1), 0.1),
             np.linspace(0.0, 0.1, 201), list(DressingScheme)),
    "trap3": (lambda: build_ion_trap(TrapParams(3)),
              Scenario.symmetric(0, 2, 2.0, 0.3, OpeningFunction.sin_sq_window(1.5), 1.5),
              np.linspace(0.0, 1.5, 61), list(DressingScheme)),
    "repeated": (lambda: build_harmonic_chain(ChainParams(100)),
                 Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.cos_sq_window(0.1), 0.1),
                 np.linspace(0.0, 0.1, 51),
                 [DressingScheme.BARE, DressingScheme.SIGMA_X, DressingScheme.BARE,
                  DressingScheme.SIGMA_PLUS, DressingScheme.SIGMA_X]),
}


@pytest.mark.parametrize("case", list(SCHEME_CASES))
def test_scheme_list_equals_one_call_per_scheme(case):
    make_basis, sc, times, schemes = SCHEME_CASES[case]
    basis = make_basis()
    together = dressed_amplitude(basis, sc, schemes, times)
    assert isinstance(together, list) and len(together) == len(schemes)
    for scheme, trace in zip(schemes, together):
        alone = dressed_amplitude(basis, sc, scheme, times)
        assert trace.total.tobytes() == alone.total.tobytes()
        assert trace.probability.tobytes() == alone.probability.tobytes()
        assert trace.times.tobytes() == alone.times.tobytes()


# the last column counts the single-integral sums X and Y that the schemes use
@pytest.mark.parametrize("schemes, nested, sums", [
    (list(DressingScheme), 2, 2),
    ([DressingScheme.BARE], 2, 0),
    ([DressingScheme.SIGMA_PLUS], 2, 1),
    (DressingScheme.SIGMA_X, 2, 2),
])
def test_schemes_share_the_integrals(chain100, fig7_scenario, monkeypatch, schemes, nested,
                                     sums):
    # X and Y sum the outer single integrals of the two nested calls, so no
    # scheme takes a single integral of its own
    from fermi_lattice import dressing

    calls = {"nested": 0, "phase": 0}
    blocks = []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recording(fn, *args, **kwargs):
        blocks.extend(causality.map_row_blocks(fn, *args, **kwargs))
        return blocks

    monkeypatch.setattr(dressing, "opening_nested_integral",
                        counting("nested", dressing.opening_nested_integral))
    monkeypatch.setattr(dressing, "opening_phase_integral",
                        counting("phase", dressing.opening_phase_integral))
    monkeypatch.setattr(dressing, "map_row_blocks", recording)
    monkeypatch.setattr(causality, "MODE_SUM_BLOCK", 10**9)
    dressed_amplitude(chain100, fig7_scenario, schemes, np.linspace(0.0, 0.1, 41))
    assert calls == {"nested": nested, "phase": 0}
    assert len(blocks) == 1 and sum(part is not None for part in blocks[0][1:]) == sums


@pytest.mark.parametrize("schemes", [
    list(DressingScheme),
    [DressingScheme.BARE, DressingScheme.SIGMA_PLUS],
    SCHEME_CASES["repeated"][3],
    [DressingScheme.BARE],
    DressingScheme.SIGMA_X,
], ids=["all", "bare_and_sigma_plus", "repeated", "bare", "sigma_x"])
def test_schemes_weigh_each_unmodified_grid_once(chain100, fig7_scenario, monkeypatch, schemes):
    # the two mode weights are folded onto the distinct frequencies once, and
    # no (time, frequency) grid is spread back to every mode
    calls = {"expand": 0, "fold": 0}

    def counting(name):
        method = getattr(ModeBasis, name)

        def wrapper(self, grid):
            calls[name] += 1
            return method(self, grid)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ModeBasis, name, counting(name))
    monkeypatch.setattr(causality, "MODE_SUM_BLOCK", 10**9)
    dressed_amplitude(chain100, fig7_scenario, schemes, np.linspace(0.0, 0.1, 41))
    assert calls == {"expand": 0, "fold": 2}


def scheme_terms(basis, sc, times, scheme):
    """The (time, term) table of eps^2 (B + (d1 + d2) X + d1 Y): per mode each
    product of a weight and an integral, in double, with no folding."""
    om, f0, w = sc.omega_a, sc.opening_a.post_ramp(), basis.frequencies
    lam_a, lam_b = basis.row(sc.site_a), basis.row(sc.site_b)
    c_ba, c_ab = np.conj(lam_b) * lam_a, np.conj(lam_a) * lam_b
    terms = [-c_ba * opening_nested_integral(f0, -(om + w), f0, om + w, times)[2],
             -c_ab * opening_nested_integral(f0, om - w, f0, -(om - w), times)[2]]
    if scheme.d1 or scheme.d2:
        terms.append((1j * c_ba / (om + w)) * opening_phase_integral(f0, -(om + w), times))
    if scheme.d1:
        terms.append((1j * c_ab / (om + w)) * opening_phase_integral(f0, om - w, times))
        static = (c_ba + c_ab) / (2.0 * om * (om + w))
        terms.append(np.broadcast_to(static, (times.size, w.size)))
    return sc.epsilon**2 * np.concatenate(terms, axis=-1)


@pytest.mark.parametrize("case", ["fig6", "fig7", "trap3"])
def test_dressed_traces_are_within_32_ulp_of_mpmath(case):
    # each trace against the 30-digit sum of its terms, in units of
    # u sum_k |term_k|: 0.4-3.1 here.  Rows whose terms are all 0 (sigma_+ and
    # bare at t = 0) are skipped
    make_basis, sc, times, schemes = SCHEME_CASES[case]
    basis = make_basis()
    times = times[np.unique(np.linspace(0, times.size - 1, 25).astype(int))]
    for scheme, trace in zip(schemes, dressed_amplitude(basis, sc, schemes, times)):
        terms = scheme_terms(basis, sc, times, scheme)
        scale = np.sum(np.abs(terms), axis=-1)
        rows = np.flatnonzero(scale > 0)
        assert rows.size >= times.size - 1
        with mpmath.workdps(30):
            exact = np.array([complex(mpmath.fsum(mpmath.mpc(z.real, z.imag) for z in terms[r]))
                              for r in rows])
        err = np.abs(trace.total[rows] - exact)
        assert np.all(err <= 32 * 2.0**-53 * scale[rows]), (scheme, np.max(err / scale[rows]))


def test_dressed_amplitude_memory_is_bounded_by_the_block(chain1000, monkeypatch):
    # 2000 times over 1000 modes, all three schemes, one worker: the blocked
    # sums peak at 4.0 MB traced; in one block they held about 97 MB
    sc = Scenario.symmetric(0, 300, 2.0, 1.0, OpeningFunction.cos_sq_window(0.1), 0.1)
    monkeypatch.setattr(causality, "WORKERS", 1)
    tracemalloc.start()
    try:
        traces = dressed_amplitude(chain1000, sc, list(DressingScheme), np.linspace(0.0, 0.1, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [tr.total.shape for tr in traces] == [(2000,)] * 3
    assert peak < 4.5e6, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("schemes", [[], (), ["sigma_x"], "SIGMA_X"])
def test_scheme_sequence_must_hold_schemes(chain100, fig7_scenario, schemes):
    with pytest.raises(InvalidParametersError, match="SIGMA_X.*SIGMA_PLUS.*BARE"):
        dressed_amplitude(chain100, fig7_scenario, schemes, [0.0, 0.05])


# ---------------------------------------------------------------- array-backed expansion
# The per-term loops below are the reference for the column code of
# dressed_ground_state and expansion_to_vector; loop_initial_state gives the
# schemes' initial states.

# sigma_x on site A, and the spin patterns with A up
FLIP_A = {SpinPattern.DOWN_DOWN: SpinPattern.UP_DOWN, SpinPattern.DOWN_UP: SpinPattern.UP_UP,
          SpinPattern.UP_DOWN: SpinPattern.DOWN_DOWN, SpinPattern.UP_UP: SpinPattern.DOWN_UP}
A_UP = (SpinPattern.UP_DOWN, SpinPattern.UP_UP)

def loop_ground_state(basis, scenario):
    """Term list of the dressed ground state, one ExpansionTerm per configuration."""
    om = scenario.omega_a
    w = basis.frequencies
    la = np.conj(basis.row(scenario.site_a))
    lb = np.conj(basis.row(scenario.site_b))
    n_modes = basis.n_modes

    terms = [ExpansionTerm(0, SpinPattern.DOWN_DOWN, (), 1.0 + 0.0j)]
    for k in range(n_modes):
        denom = om + w[k]
        terms.append(ExpansionTerm(1, SpinPattern.UP_DOWN, ((k, 1),), -la[k] / denom))
        terms.append(ExpansionTerm(1, SpinPattern.DOWN_UP, ((k, 1),), -lb[k] / denom))

    mutual_static = complex(np.sum((la * np.conj(lb) + lb * np.conj(la)) / (2.0 * om * (om + w))))
    terms.append(ExpansionTerm(2, SpinPattern.UP_UP, (), mutual_static))

    for k in range(n_modes):
        denom = om + w[k]
        terms.append(ExpansionTerm(
            2, SpinPattern.DOWN_DOWN, ((k, 2),),
            (la[k] ** 2 + lb[k] ** 2) / (np.sqrt(2.0) * denom * w[k]),
        ))
        terms.append(ExpansionTerm(
            2, SpinPattern.UP_UP, ((k, 2),),
            np.sqrt(2.0) * la[k] * lb[k] / denom**2,
        ))
        for l in range(k + 1, n_modes):
            sym = 1.0 / (om + w[k]) + 1.0 / (om + w[l])
            terms.append(ExpansionTerm(
                2, SpinPattern.DOWN_DOWN, ((k, 1), (l, 1)),
                (la[k] * la[l] + lb[k] * lb[l]) * sym / (w[k] + w[l]),
            ))
            terms.append(ExpansionTerm(
                2, SpinPattern.UP_UP, ((k, 1), (l, 1)),
                (la[k] * lb[l] + la[l] * lb[k]) * sym / (2.0 * om + w[k] + w[l]),
            ))
    return terms


def loop_initial_state(ground_terms, scheme, include_normalization):
    """Initial state after the impulsive excitation of site A: SIGMA_X flips
    A in every term; SIGMA_PLUS keeps only the terms with A down and flips
    them; BARE discards the dressing.  The order-2 normalization
    counter-term -eps^2/2 |psi1|^2 |psi0> is added on request."""
    if scheme is DressingScheme.BARE:
        return [ExpansionTerm(0, SpinPattern.UP_DOWN, (), 1.0 + 0.0j)]
    terms = [ExpansionTerm(t.order, FLIP_A[t.spins], t.phonons, t.coeff) for t in ground_terms
             if not (scheme is DressingScheme.SIGMA_PLUS and t.spins in A_UP)]
    if include_normalization:
        norm_sq = float(sum(abs(t.coeff) ** 2 for t in terms if t.order == 1))
        terms.append(ExpansionTerm(2, SpinPattern.UP_DOWN, (), -0.5 * norm_sq))
    return terms


def loop_expansion_to_vector(expansion, fock):
    psi = np.zeros(fock.dimension, dtype=complex)
    for term in expansion.terms:
        occ = [0] * fock.n_modes
        for mode, count in term.phonons:
            occ[mode] += count
        sa, sb = int(term.spins in A_UP), int(term.spins in (SpinPattern.DOWN_UP,
                                                              SpinPattern.UP_UP))
        psi[fock.state_index(sa, sb, occ)] += expansion.epsilon**term.order * term.coeff
    return psi


def assert_same_terms(state, reference):
    """Columns and ``terms`` view against a reference term list: the same
    configurations in the same order, coefficients within 1e-15."""
    view = state.terms
    assert view is state.terms
    assert [(t.order, t.spins, t.phonons) for t in view] == \
        [(t.order, t.spins, t.phonons) for t in reference]
    assert {type(t.order) for t in view} == {int} and {type(t.coeff) for t in view} == {complex}
    assert {type(x) for t in view for p in t.phonons for x in p} <= {int}
    # the reference's columns, which round-trip through the view
    columns = expansion(reference, state.epsilon)
    for name in ("order", "spins", "modes", "counts"):
        assert np.array_equal(getattr(state, name), getattr(columns, name)), name
    want = np.array([t.coeff for t in reference], dtype=complex)
    assert np.max(np.abs(state.coeff - want)) <= 1e-15
    assert np.max(np.abs(np.array([t.coeff for t in view]) - want)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 7, 100, 300])
def test_array_ground_state_matches_the_term_loop(n):
    basis = build_harmonic_chain(ChainParams(n))
    scenario = Scenario.symmetric(0, n // 2, 2.0, 0.7, OpeningFunction.constant(), 1.0)
    ground = dressed_ground_state(basis, scenario)
    reference = loop_ground_state(basis, scenario)
    assert len(reference) == 2 + 2 * n + n * (n + 1)
    assert_same_terms(ground, reference)


@pytest.mark.parametrize("n", [3, 4])
def test_expansion_to_vector_equals_the_term_loop_bitwise(n, monkeypatch):
    basis = build_harmonic_chain(ChainParams(n))
    ground = dressed_ground_state(basis, small_scenario(epsilon=0.3))
    fock = FockSpace.build(n, 2)
    states = [ground] + [initial_state(ground, scheme, include_normalization=norm)
                         for scheme in DressingScheme for norm in (False, True)]
    for state in states:
        want = loop_expansion_to_vector(state, fock).tobytes()
        assert expansion_to_vector(state, fock).tobytes() == want
        # ranked in blocks of 5 terms or fewer
        monkeypatch.setattr(causality, "MODE_SUM_BLOCK", 64)
        assert expansion_to_vector(state, fock).tobytes() == want
        monkeypatch.undo()
    # repeated configurations add up: the same term twice doubles its amplitude
    twice = expansion(ground.terms[:2] + ground.terms[1:2], ground.epsilon)
    once = expansion(ground.terms[:2], ground.epsilon)
    g0 = fock.state_index(0, 0, (0,) * n)
    diff = expansion_to_vector(twice, fock) - expansion_to_vector(once, fock)
    diff[g0] = 0.0
    assert np.allclose(diff, expansion_to_vector(once, fock) - fock.basis_state(0, 0))
    with pytest.raises(InvalidParametersError, match="exceeds the Fock cutoff"):
        expansion_to_vector(ground, FockSpace.build(n, 1))


def test_hand_built_expansion_round_trips_and_is_read_only():
    terms = (ExpansionTerm(0, SpinPattern.DOWN_UP, (), 1.0 + 0j),
             ExpansionTerm(1, SpinPattern.UP_UP, ((4, 1),), 0.25 - 0.5j),
             ExpansionTerm(2, SpinPattern.DOWN_DOWN, ((0, 1), (2, 2), (5, 1)), -1.5 + 0j))
    state = expansion(terms, 0.5)
    assert state.terms == terms
    assert state.modes.shape == (3, 3)
    assert coefficient(state, SpinPattern.UP_UP, ((4, 1),)) == 0.5 * (0.25 - 0.5j)
    assert coefficient(state, SpinPattern.UP_UP, ((4, 1), (5, 1))) == 0
    with pytest.raises(AttributeError):
        state.terms = ()
    with pytest.raises(ValueError):
        state.coeff[0] = 2.0


@pytest.mark.parametrize("terms", [
    [ExpansionTerm(1, SpinPattern.UP_DOWN, ((0, 1),), 0.5)],
    [ExpansionTerm(0, SpinPattern.DOWN_DOWN, (), 1.0), ExpansionTerm(0, SpinPattern.UP_DOWN, (), 1.0)],
    [ExpansionTerm(0, SpinPattern.DOWN_DOWN, (), 0.5)],
    [ExpansionTerm(0, SpinPattern.DOWN_DOWN, ((0, 2),), 1.0)],
    [ExpansionTerm(0, SpinPattern.DOWN_DOWN, (), 1.0),
     ExpansionTerm(1, SpinPattern.UP_DOWN, ((0, 2),), 0.3)],
    [ExpansionTerm(0, SpinPattern.DOWN_DOWN, (), 1.0),
     ExpansionTerm(1, SpinPattern.UP_DOWN, ((-1, 1),), 0.3)],
    [ExpansionTerm(0, SpinPattern.DOWN_DOWN, (), 1.0),
     ExpansionTerm(1, SpinPattern.UP_DOWN, ((0, -1),), 0.3)],
], ids=["no-order-0", "two-order-0", "order-0-coefficient", "order-0-phonons",
        "parity", "negative-mode", "negative-count"])
def test_expansion_invariants_are_enforced(terms):
    with pytest.raises(InvalidParametersError):
        expansion(terms, 0.1)


def test_parity_error_names_the_row():
    state = dressed_ground_state(build_harmonic_chain(ChainParams(3)), small_scenario())
    counts = state.counts.copy()
    counts[5, 0] = 2
    with pytest.raises(InvalidParametersError, match="parity mismatch in row 5$"):
        StateExpansion(state.epsilon, state.order, state.spins, state.modes, counts, state.coeff)


def test_dressed_ground_state_deficit_against_the_exact_ground_state(chain3):
    """ROADMAP item 9's static referee: 1 - |<a|g>|^2/<a|a> is O(eps^6) for
    the second-order state a against the eigh ground state g."""
    epsilons = np.array([0.2, 0.1, 0.05, 0.025])
    fock = FockSpace.build(chain3.n_modes, 4)
    deficits = []
    for eps in epsilons:
        scenario = small_scenario(epsilon=eps)
        _, vecs = np.linalg.eigh(build_hamiltonian(chain3, scenario, fock).matrix(0.0))
        a = expansion_to_vector(dressed_ground_state(chain3, scenario), fock)
        deficits.append(1.0 - abs(np.vdot(a, vecs[:, 0])) ** 2 / np.vdot(a, a).real)
    deficits = np.array(deficits)
    assert np.all(np.diff(deficits) < 0) and deficits[-1] > 0
    slope = np.polyfit(np.log(epsilons), np.log(deficits), 1)[0]
    assert 5.7 <= slope <= 6.3
