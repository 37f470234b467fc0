import numpy as np
import pytest

from fermi_lattice import (
    ChainParams,
    DressingScheme,
    InvalidParametersError,
    OpeningFunction,
    Scenario,
    TrapParams,
    build_harmonic_chain,
    build_ion_trap,
    cloud,
    excitation_distribution,
    single_site_distributions,
)
from fermi_lattice.quadrature import cis, opening_phase_integral

TIMES = np.array([0.0, 0.03, 0.05, 0.1, 0.2])


def fig_b1_scenario(epsilon=1.0):
    return Scenario.symmetric(50, 0, 2.0, epsilon, OpeningFunction.sin_sq_window(0.1), 0.1)


def reference_cloud(basis, scenario, scheme, t):
    """(up, down) D_n at one time t, one opening integral and one synthesize
    of a coefficient vector per site: the per-time form of the cloud."""
    om = scenario.omega_a
    f0 = scenario.opening_a.post_ramp()
    w = basis.distinct_frequencies
    evolve = cis(-basis.frequencies * t)
    clouds = []
    for site, static, phi in ((scenario.site_a, scheme.d1, -(om - w)),
                              (scenario.site_b, scheme.d1 + scheme.d2, +(om + w))):
        coeffs = np.conj(basis.row(site)) * basis.expand(
            static / (om + w) + 1j * opening_phase_integral(f0, phi, t))
        clouds.append(scenario.epsilon**2 * np.abs(basis.synthesize(coeffs * evolve)) ** 2)
    return tuple(clouds)


def test_bare_cloud_zero_at_t0(chain100):
    d = excitation_distribution(chain100, fig_b1_scenario(), DressingScheme.BARE, 0.0)
    assert np.all(d == 0)


def test_bare_cloud_grows(chain100):
    d = excitation_distribution(chain100, fig_b1_scenario(), DressingScheme.BARE, 0.02)
    assert d.max() > 0


def test_dressed_cloud_nonzero_at_t0(chain100):
    d = excitation_distribution(chain100, fig_b1_scenario(), DressingScheme.SIGMA_X, 0.0)
    assert d.max() > 0


def test_nonnegative_everywhere(chain100):
    for scheme in DressingScheme:
        d = excitation_distribution(chain100, fig_b1_scenario(), scheme, [0.0, 0.03, 0.1, 0.2])
        assert np.all(d >= -1e-14)


def test_single_site_additivity(chain100):
    times = [0.0, 0.05, 0.1]
    up, down = single_site_distributions(chain100, fig_b1_scenario(),
                                         DressingScheme.SIGMA_X, times)
    total = excitation_distribution(chain100, fig_b1_scenario(), DressingScheme.SIGMA_X, times)
    assert np.max(np.abs(up + down - total)) <= 1e-12


@pytest.mark.parametrize("scheme", list(DressingScheme))
def test_total_cloud_is_the_sum_of_the_site_clouds_bitwise(chain100, scheme):
    times = [0.0, 0.03, 0.1]
    up, down = single_site_distributions(chain100, fig_b1_scenario(), scheme, times)
    total = excitation_distribution(chain100, fig_b1_scenario(), scheme, times)
    assert total.tobytes() == (up + down).tobytes()


@pytest.mark.parametrize("n", [100, 2000, 2001])
@pytest.mark.parametrize("scheme", list(DressingScheme))
def test_grid_cloud_equals_the_per_time_cloud_bitwise(n, scheme):
    basis = build_harmonic_chain(ChainParams(n))
    scenario = Scenario.symmetric(n // 2, 0, 2.0, 0.7, OpeningFunction.sin_sq_window(0.1), 0.1)
    up, down = single_site_distributions(basis, scenario, scheme, TIMES)
    total = excitation_distribution(basis, scenario, scheme, TIMES)
    assert up.shape == down.shape == total.shape == (TIMES.size, n)
    for i, t in enumerate(TIMES):
        ref_up, ref_down = reference_cloud(basis, scenario, scheme, t)
        assert up[i].tobytes() == ref_up.tobytes()
        assert down[i].tobytes() == ref_down.tobytes()
        assert total[i].tobytes() == (ref_up + ref_down).tobytes()


@pytest.mark.parametrize("scheme", list(DressingScheme))
def test_grid_cloud_on_a_trap_matches_the_per_time_cloud(scheme):
    basis = build_ion_trap(TrapParams(7))
    scenario = Scenario.symmetric(1, 5, 2.0, 0.7, OpeningFunction.sin_sq_window(0.5), 0.5)
    times = np.linspace(0.0, 0.8, 9)
    up, down = single_site_distributions(basis, scenario, scheme, times)
    total = excitation_distribution(basis, scenario, scheme, times)
    for i, t in enumerate(times):
        ref_up, ref_down = reference_cloud(basis, scenario, scheme, t)
        for got, want in ((up[i], ref_up), (down[i], ref_down), (total[i], ref_up + ref_down)):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_scalar_time_gives_its_row_of_the_grid(chain100):
    scheme = DressingScheme.SIGMA_X
    grid = excitation_distribution(chain100, fig_b1_scenario(), scheme, TIMES)
    for i, t in enumerate(TIMES):
        one = excitation_distribution(chain100, fig_b1_scenario(), scheme, t)
        assert one.shape == (chain100.n_sites,)
        assert one.tobytes() == grid[i].tobytes()


def test_time_grid_keeps_its_shape(chain100):
    times = TIMES[1:].reshape(2, 2)
    up, down = single_site_distributions(chain100, fig_b1_scenario(), DressingScheme.BARE, times)
    flat, _ = single_site_distributions(chain100, fig_b1_scenario(), DressingScheme.BARE,
                                        times.ravel())
    assert up.shape == down.shape == (2, 2, chain100.n_sites)
    assert up.tobytes() == flat.tobytes()


def test_negative_time_in_grid_rejected_before_any_integral(chain100, monkeypatch):
    def no_integral(*args, **kwargs):
        raise AssertionError("opening integral evaluated for a rejected grid")

    monkeypatch.setattr(cloud, "opening_phase_integral", no_integral)
    for fn in (excitation_distribution, single_site_distributions):
        with pytest.raises(InvalidParametersError):
            fn(chain100, fig_b1_scenario(), DressingScheme.BARE, [0.0, 0.05, -0.01])


def test_epsilon_scaling_exact(chain100):
    half = excitation_distribution(chain100, fig_b1_scenario(0.5), DressingScheme.BARE, 0.07)
    full = excitation_distribution(chain100, fig_b1_scenario(1.0), DressingScheme.BARE, 0.07)
    assert np.array_equal(full, 4.0 * half)


def test_cloud_symmetric_about_source(chain100):
    up, _ = single_site_distributions(chain100, fig_b1_scenario(), DressingScheme.BARE, 0.1)
    for d in range(1, 50):
        assert up[(50 + d) % 100] == pytest.approx(up[(50 - d) % 100], rel=1e-10)


def test_translational_covariance():
    basis = build_harmonic_chain(ChainParams(60))
    op = OpeningFunction.sin_sq_window(0.1)
    base = excitation_distribution(
        basis, Scenario.symmetric(10, 25, 2.0, 1.0, op, 0.1), DressingScheme.SIGMA_X, 0.08)
    shifted = excitation_distribution(
        basis, Scenario.symmetric(17, 32, 2.0, 1.0, op, 0.1), DressingScheme.SIGMA_X, 0.08)
    np.testing.assert_allclose(np.roll(base, 7), shifted, rtol=1e-11, atol=1e-20)


def test_schemes_share_down_cloud(chain100):
    # c_B carries d1 + d2 = 1 in both dressed schemes
    _, down_x = single_site_distributions(chain100, fig_b1_scenario(),
                                          DressingScheme.SIGMA_X, 0.05)
    _, down_p = single_site_distributions(chain100, fig_b1_scenario(),
                                          DressingScheme.SIGMA_PLUS, 0.05)
    assert np.array_equal(down_x, down_p)


def test_sigma_plus_up_cloud_matches_bare(chain100):
    # c_A carries d1 only, so sigma_plus and bare agree on the up cloud
    up_p, _ = single_site_distributions(chain100, fig_b1_scenario(),
                                        DressingScheme.SIGMA_PLUS, 0.05)
    up_b, _ = single_site_distributions(chain100, fig_b1_scenario(),
                                        DressingScheme.BARE, 0.05)
    assert np.array_equal(up_p, up_b)


def test_fig_b1_regression(chain100):
    up, _ = single_site_distributions(chain100, fig_b1_scenario(), DressingScheme.BARE, 0.1)
    np.testing.assert_allclose(
        [up[50], up[55], up[60], up[0]],
        [1.3569625749483176e-07, 1.4871751812201234e-07,
         9.153492204233142e-08, 3.8573446686486886e-08],
        rtol=1e-12,
    )
