import numpy as np
import pytest

from fermi_lattice import (
    ChainParams,
    DressingScheme,
    OpeningFunction,
    Scenario,
    build_harmonic_chain,
    excitation_distribution,
    single_site_distributions,
)


def fig_b1_scenario(epsilon=1.0):
    return Scenario.symmetric(50, 0, 2.0, epsilon, OpeningFunction.sin_sq_window(0.1), 0.1)


def test_bare_cloud_zero_at_t0(chain100):
    snap = excitation_distribution(chain100, fig_b1_scenario(), DressingScheme.BARE, 0.0)
    assert np.all(snap.d == 0)


def test_bare_cloud_grows(chain100):
    snap = excitation_distribution(chain100, fig_b1_scenario(), DressingScheme.BARE, 0.02)
    assert snap.d.max() > 0


def test_dressed_cloud_nonzero_at_t0(chain100):
    snap = excitation_distribution(chain100, fig_b1_scenario(), DressingScheme.SIGMA_X, 0.0)
    assert snap.d.max() > 0


def test_nonnegative_everywhere(chain100):
    for t in (0.0, 0.03, 0.1, 0.2):
        for scheme in DressingScheme:
            snap = excitation_distribution(chain100, fig_b1_scenario(), scheme, t)
            assert np.all(snap.d >= -1e-14)


def test_single_site_additivity(chain100):
    for t in (0.0, 0.05, 0.1):
        up, down = single_site_distributions(chain100, fig_b1_scenario(),
                                             DressingScheme.SIGMA_X, t)
        total = excitation_distribution(chain100, fig_b1_scenario(),
                                        DressingScheme.SIGMA_X, t)
        assert np.max(np.abs(up.d + down.d - total.d)) <= 1e-12


@pytest.mark.parametrize("scheme", list(DressingScheme))
def test_total_cloud_is_the_sum_of_the_site_clouds_bitwise(chain100, scheme):
    for t in (0.0, 0.03, 0.1):
        up, down = single_site_distributions(chain100, fig_b1_scenario(), scheme, t)
        total = excitation_distribution(chain100, fig_b1_scenario(), scheme, t)
        assert total.d.tobytes() == (up.d + down.d).tobytes()
        assert (total.time, total.scheme) == (t, scheme)


def test_epsilon_scaling_exact(chain100):
    half = excitation_distribution(chain100, fig_b1_scenario(0.5), DressingScheme.BARE, 0.07)
    full = excitation_distribution(chain100, fig_b1_scenario(1.0), DressingScheme.BARE, 0.07)
    assert np.array_equal(full.d, 4.0 * half.d)


def test_cloud_symmetric_about_source(chain100):
    up, _ = single_site_distributions(chain100, fig_b1_scenario(), DressingScheme.BARE, 0.1)
    for d in range(1, 50):
        assert up.d[(50 + d) % 100] == pytest.approx(up.d[(50 - d) % 100], rel=1e-10)


def test_translational_covariance():
    basis = build_harmonic_chain(ChainParams(60))
    op = OpeningFunction.sin_sq_window(0.1)
    base = excitation_distribution(
        basis, Scenario.symmetric(10, 25, 2.0, 1.0, op, 0.1), DressingScheme.SIGMA_X, 0.08)
    shifted = excitation_distribution(
        basis, Scenario.symmetric(17, 32, 2.0, 1.0, op, 0.1), DressingScheme.SIGMA_X, 0.08)
    np.testing.assert_allclose(np.roll(base.d, 7), shifted.d, rtol=1e-11, atol=1e-20)


def test_schemes_share_down_cloud(chain100):
    # c_B carries d1 + d2 = 1 in both dressed schemes
    _, down_x = single_site_distributions(chain100, fig_b1_scenario(),
                                          DressingScheme.SIGMA_X, 0.05)
    _, down_p = single_site_distributions(chain100, fig_b1_scenario(),
                                          DressingScheme.SIGMA_PLUS, 0.05)
    assert np.array_equal(down_x.d, down_p.d)


def test_sigma_plus_up_cloud_matches_bare(chain100):
    # c_A carries d1 only, so sigma_plus and bare agree on the up cloud
    up_p, _ = single_site_distributions(chain100, fig_b1_scenario(),
                                        DressingScheme.SIGMA_PLUS, 0.05)
    up_b, _ = single_site_distributions(chain100, fig_b1_scenario(),
                                        DressingScheme.BARE, 0.05)
    assert np.array_equal(up_p.d, up_b.d)


def test_fig_b1_regression(chain100):
    up, _ = single_site_distributions(chain100, fig_b1_scenario(), DressingScheme.BARE, 0.1)
    np.testing.assert_allclose(
        [up.d[50], up.d[55], up.d[60], up.d[0]],
        [1.3569625749483176e-07, 1.4871751812201234e-07,
         9.153492204233142e-08, 3.8573446686486886e-08],
        rtol=1e-12,
    )
