import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi_lattice import (
    ChainParams,
    InvalidParametersError,
    ModeBasis,
    OpeningFunction,
    Scenario,
    TrapParams,
    build_harmonic_chain,
    build_ion_trap,
    bare_amplitude,
    causality_trace,
    equilibrium_positions,
)
from fermi_lattice.causality import lightcone_estimate
from fermi_lattice.modes import _trap_hessian

from conftest import dense_couplings


def canonical_norms(basis):
    return 2.0 * np.abs(dense_couplings(basis)) ** 2 @ basis.frequencies


def reference_chain_couplings(params):
    """The dense N x N chain coupling matrix, built one mode column at a time
    as the chain basis did before it stored O(N) data."""
    n = params.n_sites
    half = n // 2
    cos_theta = np.empty(n)
    cos_theta[: half + 1] = np.cos(2.0 * np.pi * np.arange(half + 1) / n)
    for k in range(1, (n - 1) // 2 + 1):
        cos_theta[n - k] = cos_theta[k]
    freqs = params.base_energy * np.sqrt(1.0 - params.alpha * cos_theta)
    sites = np.arange(n)
    phases = np.empty((n, n), dtype=complex)
    for k in range(half + 1):
        reduced = (sites * k) % n
        if 2 * k == n:
            phases[:, k] = np.where(reduced == 0, 1.0, -1.0)
        else:
            phases[:, k] = np.exp(2j * np.pi * reduced / n)
    for k in range(1, (n - 1) // 2 + 1):
        phases[:, n - k] = np.conj(phases[:, k])
    return freqs, phases / np.sqrt(2.0 * n * freqs)[None, :]


# ---------------------------------------------------------------- chain

def test_chain_alpha_printed_formula():
    p = ChainParams(100, length=1.0, pinning=1.0, speed=1.0)
    assert p.alpha == 1.0 - 1.0 / (2 * 100**2)
    assert p.alpha == 0.99995


def test_chain_mode_zero_is_pinning_frequency():
    for params in (ChainParams(10), ChainParams(57, 2.0, 0.3, 1.7), ChainParams(4, 1, 3, 9)):
        basis = build_harmonic_chain(params)
        assert basis.frequencies[0] == pytest.approx(params.pinning, abs=1e-14)


def test_chain_first_mode_near_continuum_value():
    # omega_1 ~ 2 pi c / L to within 1.5% already at k=1 (fast convergence of
    # 2 pi k / sqrt(1 + 4 pi^2 k^2) to 1)
    basis = build_harmonic_chain(ChainParams(100))
    w1 = basis.frequencies[1]
    assert abs(w1 - 2 * np.pi) / w1 <= 0.015
    assert w1 == pytest.approx(np.sqrt(4 * np.pi**2 + 1), rel=5e-4)


def test_chain_alpha_out_of_range_names_inequality():
    with pytest.raises(InvalidParametersError, match="0 < alpha < 1"):
        ChainParams(2, length=10.0, pinning=1.0, speed=1.0)


def test_chain_alpha_rounding_to_one_is_named():
    # at N >= 94 906 266 (L = nu = c = 1) alpha = 1 - 1/(2 N^2) rounds to 1,
    # though L*nu < sqrt(2) N c holds
    ChainParams(94_906_265)
    with pytest.raises(InvalidParametersError, match="rounds to 1 in double precision"):
        ChainParams(94_906_266)


def test_chain_mode_symmetry_is_exact():
    for n in (4, 99, 100, 1000):
        basis = build_harmonic_chain(ChainParams(n))
        w, lam = basis.frequencies, dense_couplings(basis)
        for k in range(1, n):
            assert w[k] == w[n - k]
        assert np.array_equal(lam[:, 1:], np.conj(lam[:, :0:-1]))


def test_chain_parameters_give_the_largest_and_the_distinct_frequencies():
    # a causality sweep plans each chain from its parameters, before building it
    for n in [*range(2, 2001), 10**6]:
        params = ChainParams(n)
        basis = build_harmonic_chain(params)
        assert params.max_frequency == np.max(basis.frequencies)
        if n <= 2000:
            assert basis.distinct_frequencies.size == n // 2 + 1
    assert basis.distinct_frequencies.size == 10**6 // 2 + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 100, 101, 1000])
def test_chain_rows_match_dense_reference_bitwise(n):
    params = ChainParams(n)
    freqs, lam = reference_chain_couplings(params)
    basis = build_harmonic_chain(params)
    assert basis.frequencies.tobytes() == freqs.tobytes()
    for site in range(n):
        assert basis.row(site).tobytes() == lam[site].tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 100, 101, 1000])
def test_chain_synthesis_matches_dense_product(n):
    _, lam = reference_chain_couplings(ChainParams(n))
    rng = np.random.default_rng(n)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    want = lam @ coeffs
    got = build_harmonic_chain(ChainParams(n)).synthesize(coeffs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dense_synthesis_is_matrix_product(trap2):
    coeffs = np.array([0.3 - 1j, 2.0 + 0.5j])
    np.testing.assert_array_equal(trap2.synthesize(coeffs), dense_couplings(trap2) @ coeffs)


def test_dense_synthesis_of_rows_is_one_matrix_product(trap2):
    rows = np.array([[0.3 - 1j, 2.0 + 0.5j], [-1.5 + 0.25j, 0.0], [1j, 1.0]])
    want = (dense_couplings(trap2) @ rows.T).T
    assert trap2.synthesize(rows).tobytes() == want.tobytes()
    stacked = trap2.synthesize(np.stack([rows, rows[::-1]]))
    assert stacked.shape == (2, 3, 2)
    assert stacked[0].tobytes() == want.tobytes()


def test_array_holding_results_compare_by_identity():
    scenario = Scenario.symmetric(0, 1, 2.0, 1.0, OpeningFunction.sin_sq_window(0.1), 0.1)
    pairs = [
        (build_harmonic_chain(ChainParams(4)), build_harmonic_chain(ChainParams(4))),
        (build_ion_trap(TrapParams(3)), build_ion_trap(TrapParams(3))),
    ]
    chain = pairs[0][0]
    pairs += [
        tuple(bare_amplitude(chain, scenario, [0.0, 0.05]) for _ in range(2)),
        tuple(causality_trace(chain, 0, 1, [0.0, 0.5]) for _ in range(2)),
    ]
    for a, b in pairs:
        assert a == a and a != b and not (a == b)
        assert hash(a) != hash(b)


def test_chain_row_checks_canonical_normalization():
    with pytest.raises(InvalidParametersError, match="canonical normalization"):
        ModeBasis(2, np.array([1.0, 2.0]), np.eye(2, dtype=complex))
    with pytest.raises(InvalidParametersError, match="canonical normalization"):
        ModeBasis(2, np.array([1.0, 2.0]), np.full((2, 2), np.nan, dtype=complex))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidParametersError, match="finite and > 0"):
            ModeBasis(2, np.array([1.0, bad]), np.eye(2, dtype=complex))


def table_gather_row(basis, n):
    """lambda[n, :] gathered from a length-N table of roots of unity and
    divided by a stored sqrt(2 N omega_k): the reference for chain rows."""
    size = basis.n_sites
    roots = np.exp(2j * np.pi * np.arange(size) / size)
    scale = np.sqrt(2.0 * size * basis.frequencies)
    half = roots[(n * np.arange(size // 2 + 1)) % size]
    if size % 2 == 0:
        half[-1] = 1.0 if n % 2 == 0 else -1.0
    return np.concatenate([half, np.conj(half[(size - 1) // 2:0:-1])]) / scale


def test_chain_rows_equal_the_root_table_gather_bitwise():
    for size in [*range(2, 300), 1000, 1001, 4096, 100_003, 10**6]:
        basis = build_harmonic_chain(ChainParams(size))
        for n in sorted({0, 1 % size, 2 % size, size // 3, size // 2, size - 1}):
            assert basis.row(n).tobytes() == table_gather_row(basis, n).tobytes(), (size, n)


# above about 3e4 sites the rounding of the N-term dot product alone passes 1e-14
@pytest.mark.parametrize("size", [2, 3, 16, 999, 1000, 4096, 10_000])
def test_chain_rows_are_canonical(size):
    basis = build_harmonic_chain(ChainParams(size, length=1.5))
    for n in (0, 1, size // 3, size - 1):
        assert abs(2.0 * np.abs(basis.row(n)) ** 2 @ basis.frequencies - 1.0) <= 1e-14


def test_only_a_chain_omits_the_dense_matrix():
    with pytest.raises(InvalidParametersError, match="dense coupling matrix"):
        ModeBasis(2, np.array([1.0, 2.0]), None)


def test_chain_coupling_value():
    basis = build_harmonic_chain(ChainParams(4))
    row = basis.row(0)
    np.testing.assert_allclose(row, 1.0 / np.sqrt(2 * 4 * basis.frequencies), rtol=1e-15)


def test_chain_coupling_magnitude_site_independent():
    basis = build_harmonic_chain(ChainParams(12))
    mags = np.abs(dense_couplings(basis))
    assert np.max(np.abs(mags - mags[0])) <= 1e-14


def test_chain_determinism():
    a = build_harmonic_chain(ChainParams(64))
    b = build_harmonic_chain(ChainParams(64))
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(dense_couplings(a), dense_couplings(b))


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(3, 400),
    length=st.floats(0.1, 10),
    pinning=st.floats(0.1, 5),
    speed=st.floats(0.5, 5),
)
def test_chain_canonical_normalization_property(n, length, pinning, speed):
    if length * pinning >= np.sqrt(2) * n * speed:
        with pytest.raises(InvalidParametersError):
            ChainParams(n, length, pinning, speed)
        return
    basis = build_harmonic_chain(ChainParams(n, length, pinning, speed))
    assert np.max(np.abs(canonical_norms(basis) - 1)) < 1e-10


# ---------------------------------------------------------------- trap

def test_trap_two_ions():
    basis = build_ion_trap(TrapParams(2))
    assert basis.frequencies[0] == pytest.approx(1.0, abs=1e-12)
    assert basis.frequencies[1] / basis.frequencies[0] == pytest.approx(np.sqrt(3), abs=1e-12)
    d = dense_couplings(basis).real * np.sqrt(2 * basis.frequencies)[None, :]
    np.testing.assert_allclose(
        d, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


def test_trap_three_ions_against_brute_force():
    basis = build_ion_trap(TrapParams(3))
    np.testing.assert_allclose(basis.frequencies**2, [1.0, 3.0, 29.0 / 5.0], atol=1e-10)

    # independent oracle: finite-difference Hessian at the solved equilibrium
    u = equilibrium_positions(3)
    assert u[2] == pytest.approx((5.0 / 4.0) ** (1.0 / 3.0), abs=1e-10)

    def grad(x):
        d = x[:, None] - x[None, :]
        np.fill_diagonal(d, np.inf)
        return x - np.sum(np.sign(d) / d**2, axis=1)

    h = 1e-6
    hess = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        hess[:, j] = (grad(u + e) - grad(u - e)) / (2 * h)
    evals = np.linalg.eigvalsh(0.5 * (hess + hess.T))
    np.testing.assert_allclose(basis.frequencies**2, evals, atol=1e-6)


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_trap_orthonormal_modes(n):
    basis = build_ion_trap(TrapParams(n))
    d = dense_couplings(basis).real * np.sqrt(2 * basis.frequencies)[None, :]
    assert np.max(np.abs(d.T @ d - np.eye(n))) <= 1e-10
    assert np.all(np.diff(basis.frequencies) > 0)
    assert np.max(np.abs(canonical_norms(basis) - 1)) < 1e-10
    # sign convention
    for k in range(n):
        col = d[:, k]
        assert col[np.flatnonzero(np.abs(col) > 1e-12)[0]] > 0


def test_trap_coupling_row_value(trap2):
    row = trap2.row(0)
    w = trap2.frequencies
    np.testing.assert_allclose(row, [1 / np.sqrt(2 * w[0] * 2), 1 / np.sqrt(2 * w[1] * 2)],
                               atol=1e-12)


def test_trap_determinism():
    a = build_ion_trap(TrapParams(5))
    b = build_ion_trap(TrapParams(5))
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(dense_couplings(a), dense_couplings(b))


def test_trap_needs_two_ions():
    with pytest.raises(InvalidParametersError):
        TrapParams(1)


def test_trap_modes_diagonalize_hessian():
    omega0 = 1.7
    for n in (2, 3, 6, 9):
        basis = build_ion_trap(TrapParams(n, omega0))
        d = dense_couplings(basis) * np.sqrt(2.0 * basis.frequencies)[None, :]
        assert np.all(d.imag == 0)
        d = d.real
        hess = _trap_hessian(equilibrium_positions(n))
        recon = d @ np.diag((basis.frequencies / omega0) ** 2) @ d.T
        np.testing.assert_allclose(recon, hess, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d.T @ d, np.eye(n), rtol=0, atol=1e-12)
        assert np.all(np.diff(basis.frequencies) > 0)
        for col in d.T:
            assert col[np.flatnonzero(np.abs(col) > 1e-12)[0]] > 0


@pytest.mark.parametrize("n", [57, 74, 200])
def test_large_traps_build(n):
    basis = build_ion_trap(TrapParams(n))
    assert basis.n_modes == n
    assert np.all(np.diff(basis.frequencies) > 0)
    assert np.max(np.abs(canonical_norms(basis) - 1)) < 1e-10


@pytest.mark.parametrize("n", [57, 200, 500])
def test_lowest_trap_modes_are_com_and_breathing(n):
    # the centre-of-mass mode at omega0 and the breathing mode at sqrt(3) omega0
    # hold for any ion number (James, Appl. Phys. B 66, 181 (1998))
    omega0 = 1.7
    w = build_ion_trap(TrapParams(n, omega0)).frequencies
    assert w[0] == pytest.approx(omega0, rel=1e-12)
    assert w[1] == pytest.approx(np.sqrt(3.0) * omega0, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 10, 57, 74, 200, 500])
def test_equilibrium_is_ascending_and_mirror_symmetric(n):
    u = equilibrium_positions(n)
    assert np.all(np.diff(u) > 0)
    np.testing.assert_allclose(u, -u[::-1], rtol=0, atol=1e-12)


def test_equilibrium_solver_reports_a_solve_cut_short(monkeypatch):
    from fermi_lattice import NumericalFailureError, modes

    monkeypatch.setattr(modes, "EQUILIBRIUM_MAX_ITER", 2)
    with pytest.raises(NumericalFailureError, match="did not converge after 2 iterations"):
        equilibrium_positions(57)


# ---------------------------------------------------------------- scenario/openings

def test_site_coupling_row_range(chain100):
    with pytest.raises(IndexError):
        chain100.row(100)
    with pytest.raises(IndexError):
        chain100.row(-1)


def test_scenario_validation():
    op = OpeningFunction.constant()
    with pytest.raises(InvalidParametersError):
        Scenario(3, 3, 1.0, 1.0, 1.0, op, op, 1.0)
    with pytest.raises(InvalidParametersError):
        Scenario(0, 1, 1.0, 1.0, -0.5, op, op, 1.0)
    # epsilon 0 stays legal: the switched-off baseline
    Scenario(0, 1, 1.0, 1.0, 0.0, op, op, 1.0)
    sc = Scenario.symmetric(0, 5, 2.0, 1.0, op, 1.0)
    with pytest.raises(IndexError):
        sc.check_sites(4)


def test_scenario_and_opening_reject_nan():
    # NaN fails every comparison and an infinity passes a one-sided bound, so
    # each check must be two-sided; a negative splitting stays legal (traps)
    op = OpeningFunction.constant()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidParametersError, match="epsilon"):
            Scenario(0, 1, 1.0, 1.0, bad, op, op, 1.0)
        with pytest.raises(InvalidParametersError, match="duration"):
            Scenario(0, 1, 1.0, 1.0, 1.0, op, op, bad)
        with pytest.raises(InvalidParametersError, match="omega_a and omega_b"):
            Scenario(0, 1, bad, 1.0, 1.0, op, op, 1.0)
        with pytest.raises(InvalidParametersError, match="omega_a and omega_b"):
            Scenario(0, 1, 1.0, bad, 1.0, op, op, 1.0)
        with pytest.raises(InvalidParametersError, match="window"):
            OpeningFunction.sin_sq_window(bad)
        with pytest.raises(InvalidParametersError, match="window"):
            OpeningFunction.cos_sq_window(bad)
        with pytest.raises(InvalidParametersError, match="ramp_time"):
            OpeningFunction.exp_ramp_then(bad, op)
        for name in ("length", "pinning", "speed"):
            with pytest.raises(InvalidParametersError, match=name):
                ChainParams(10, **{name: bad})
        with pytest.raises(InvalidParametersError, match="omega0"):
            TrapParams(2, bad)
        with pytest.raises(ValueError, match="tau_max"):
            lightcone_estimate(build_harmonic_chain(ChainParams(10)), 0, 3, bad)
    assert Scenario(0, 1, -1.0, -2.0, 1.0, op, op, 1.0).omega_b == -2.0


def test_opening_values_and_support():
    t = np.linspace(-0.5, 0.5, 401)
    for op in (OpeningFunction.constant(),
               OpeningFunction.sin_sq_window(0.2),
               OpeningFunction.cos_sq_window(0.2),
               OpeningFunction.exp_ramp_then(0.3, OpeningFunction.cos_sq_window(0.2))):
        vals = op(t)
        assert np.all(vals >= 0) and np.all(vals <= 1)
    win = OpeningFunction.sin_sq_window(0.2)
    assert np.all(win(t[t < 0]) == 0)
    assert np.all(win(t[t > 0.2]) == 0)
    assert win(0.1) == pytest.approx(1.0)
    cos = OpeningFunction.cos_sq_window(0.2)
    assert cos(0.0) == pytest.approx(1.0)
    assert cos(0.2) == pytest.approx(0.0, abs=1e-30)


def test_opening_exp_components_reconstruct():
    # every profile has a decomposition: the closed-form kernels are the only engine
    inners = (OpeningFunction.constant(),
              OpeningFunction.sin_sq_window(0.2), OpeningFunction.cos_sq_window(0.2),
              OpeningFunction.sin_sq_window(0.0), OpeningFunction.cos_sq_window(0.0))
    for op in (*inners, *(OpeningFunction.exp_ramp_then(0.3, inner) for inner in inners)):
        comps = op.exp_components()
        assert isinstance(comps, list)
        t = np.linspace(0, min(op.window_end, 0.2), 101)
        rebuilt = sum(c * np.exp(1j * nu * t) for c, nu in comps)
        np.testing.assert_allclose(rebuilt.imag, 0, atol=1e-15)
        np.testing.assert_allclose(rebuilt.real, op.post_ramp()(t), atol=1e-14)


def test_opening_ramp_evaluation():
    op = OpeningFunction.exp_ramp_then(2.0, OpeningFunction.cos_sq_window(0.4))
    assert op(-2.0) == pytest.approx(np.exp(-1.0))
    assert op(0.0) == pytest.approx(1.0)
    assert op(0.4) == pytest.approx(0.0, abs=1e-30)
    assert op.post_ramp() == OpeningFunction.cos_sq_window(0.4)


def test_zero_window_is_switched_off():
    op = OpeningFunction.sin_sq_window(0.0)
    assert np.all(op(np.linspace(-1, 1, 11)) == 0)
    assert op.window_end == 0.0


def _basis(kind, n):
    if kind == "chain":
        return build_harmonic_chain(ChainParams(n))
    if kind == "trap":
        return build_ion_trap(TrapParams(n))
    # repeated values that are not mirror pairs k, N-k; (1, 2, 2, 2, 2) reads
    # the same backwards after omega_0, as a chain's spectrum does
    freqs = np.array([1.0, 2.0, 1.0, 3.0, 3.0] if kind == "custom"
                     else [1.0, 2.0, 2.0, 2.0, 2.0])
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(5, 5)))
    return ModeBasis(5, freqs, q.astype(complex) / np.sqrt(2.0 * freqs))


@pytest.mark.parametrize("kind, n", [*(("chain", n) for n in (2, 3, 4, 5, 7, 100, 101, 1000)),
                                     ("trap", 5), ("custom", 5),
                                     ("palindrome", 5)])
def test_grids_on_distinct_frequencies_expand_to_the_full_grids_bitwise(kind, n):
    from fermi_lattice.quadrature import opening_nested_integral, opening_phase_integral

    basis = _basis(kind, n)
    w, distinct = basis.frequencies, basis.distinct_frequencies
    # the same pair as np.unique's: distinct values, and a map back onto w
    assert distinct.tobytes() == np.unique(w).tobytes()
    assert basis.expand(distinct).tobytes() == w.tobytes()
    if basis.chain is not None:
        assert distinct.size == basis.n_sites // 2 + 1
    times = np.array([0.0, 1e-6, 0.013, 0.05, 0.1, 0.25])
    op = OpeningFunction.sin_sq_window(0.1)
    grids = [
        lambda v: np.exp(1j * np.multiply.outer(times, v)),
        lambda v: opening_phase_integral(op, -(2.0 + v), times),
        lambda v: opening_nested_integral(op, -(2.0 + v), op, 2.0 + v, times)[2],
        lambda v: opening_nested_integral(op, 2.0 - v, op, -(2.0 - v), times)[2],
    ]
    for grid in grids:
        expanded = basis.expand(grid(distinct))
        assert expanded.flags.c_contiguous
        assert expanded.tobytes() == grid(w).tobytes()


@pytest.mark.parametrize("kind, n", [("chain", 2), ("chain", 7), ("chain", 100), ("trap", 5),
                                     ("custom", 5), ("palindrome", 5)])
def test_fold_sums_weights_per_distinct_frequency(kind, n):
    basis = _basis(kind, n)
    rng = np.random.default_rng(3)
    mu = rng.normal(size=basis.n_modes) + 1j * rng.normal(size=basis.n_modes)
    folded = basis.fold(mu)
    assert folded.shape == basis.distinct_frequencies.shape and folded.dtype == mu.dtype
    # each distinct frequency's modes, summed in mode order
    for d, value in enumerate(basis.distinct_frequencies):
        want = 0j
        for k in np.flatnonzero(basis.frequencies == value):
            want += mu[k]
        assert folded[d] == want
    # the adjoint of expand, on the leading axes too
    grid = rng.normal(size=(3, basis.distinct_frequencies.size))
    np.testing.assert_allclose(grid @ folded, basis.expand(grid) @ mu, rtol=1e-13)
    np.testing.assert_array_equal(basis.fold(np.stack([mu, 2 * mu]))[1], 2 * folded)
