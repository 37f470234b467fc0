import numpy as np
import pytest

from fermi_lattice import (
    ChainParams,
    OpeningFunction,
    Scenario,
    build_harmonic_chain,
    build_ion_trap,
    TrapParams,
)


@pytest.fixture(scope="session")
def chain100():
    return build_harmonic_chain(ChainParams(100))


@pytest.fixture(scope="session")
def chain1000():
    return build_harmonic_chain(ChainParams(1000))


@pytest.fixture(scope="session")
def chain3():
    return build_harmonic_chain(ChainParams(3))


@pytest.fixture(scope="session")
def trap2():
    return build_ion_trap(TrapParams(2))


@pytest.fixture
def fig4_scenario():
    return Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1)


@pytest.fixture
def fig7_scenario():
    return Scenario.symmetric(0, 31, 2.0, 1.0, OpeningFunction.cos_sq_window(0.1), 0.1)


def dense_couplings(basis):
    """lambda[n, k] as one (n_sites, n_modes) matrix, stacked from the rows."""
    return np.stack([basis.row(n) for n in range(basis.n_sites)])


def assert_allclose(actual, desired, **kw):
    np.testing.assert_allclose(actual, desired, **kw)
