"""Pair partitions, channel contractions, and the exact reservoir kernel."""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

import multinoise as mn
from multinoise import panels, wick
from multinoise.checks import random_coefficients
from multinoise.config import DEFAULT_WORD_SMEARS
from multinoise.dispersion import (branch_inverse, clip_domain, measure_weight,
                                   monotone_branches)
from multinoise.errors import QuadratureFailure, ZeroGamma
from conftest import random_test_function
from oracles import complex_quad


def brute_force_matchings(signs):
    """Independent enumeration: filter all perfect matchings of the indices."""
    idx = list(range(len(signs)))
    if len(idx) % 2:
        return set()

    def all_matchings(rest):
        if not rest:
            yield ()
            return
        first, *others = rest
        for i, partner in enumerate(others):
            for sub in all_matchings(others[:i] + others[i + 1:]):
                yield ((first, partner),) + sub

    out = set()
    for matching in all_matchings(idx):
        if all(signs[j] == -1 and signs[k] == +1 for j, k in matching):
            out.add(frozenset(matching))
    return out


def test_matching_examples():
    assert mn.enumerate_matchings([-1, +1]) == [((0, 1),)]
    got = {frozenset(m) for m in mn.enumerate_matchings([-1, -1, +1, +1])}
    assert got == {frozenset({(0, 2), (1, 3)}), frozenset({(0, 3), (1, 2)})}
    assert mn.enumerate_matchings([+1, -1]) == []
    assert mn.enumerate_matchings([-1, +1, -1]) == []
    assert mn.enumerate_matchings([-1, -1, +1]) == []


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_block_pattern_counts_factorial(m):
    signs = [-1] * m + [+1] * m
    assert len(mn.enumerate_matchings(signs)) == math.factorial(m)


def test_matchings_against_brute_force(rng):
    for length in (2, 4, 6, 8):
        for _ in range(6):
            signs = [int(s) for s in rng.choice([-1, +1], size=length)]
            got = {frozenset(m) for m in mn.enumerate_matchings(signs)}
            assert got == brute_force_matchings(signs)


def test_word_length_cap():
    with pytest.raises(ValueError):
        mn.enumerate_matchings([-1, +1] * 7)


def test_noise_pair_examples(rng):
    """Two-letter noise correlations: one pair contraction each."""
    f = random_test_function(rng, n_atoms=1)
    h = random_test_function(rng, n_atoms=1)

    def two_point(n, gamma, f_minus, f_plus):
        word = [mn.Letter(-1, f_minus, n), mn.Letter(+1, f_plus, n)]
        return mn.correlation(word, {n: gamma})

    gamma0 = 1.7
    assert_allclose(two_point(0, gamma0, f, h), gamma0 * mn.l2_inner(f, h),
                    rtol=1e-10)
    phi = mn.gaussian()
    assert abs(two_point(1, 1.0, phi, phi)) < 1e-12
    with pytest.raises(ZeroGamma):
        two_point(1, 0.0, f, h)


def test_reservoir_pair_equal_smears_nonnegative(quadratic_catalog):
    disp, g = quadratic_catalog
    f = mn.gaussian(width=2.0, modulation=-0.3)
    val = mn.reservoir_pair(disp, g, 0.7, f, f)
    assert abs(val.imag) < 1e-10
    assert val.real >= 0


def _time_domain_oracle(disp, g, lam, f_minus, f_plus):
    """Tensor-product quadrature of the two-time kernel at coupling lam.

    Entirely independent of the production route: integrates over (t, tau)
    with the momentum kernel spline-sampled on a dense uniform grid.
    """
    from scipy.interpolate import CubicSpline

    k_lo, k_hi = g.envelope_interval(1e-9)
    kx, kw = leggauss(16)
    k_panels = np.linspace(k_lo, k_hi, 200 + 1)
    mids, halves = 0.5 * (k_panels[:-1] + k_panels[1:]), 0.5 * np.diff(k_panels)
    k_nodes = (mids[:, None] + halves[:, None] * kx[None, :]).ravel()
    k_weights = (halves[:, None] * kw[None, :]).ravel()
    dens = k_weights * np.abs(g(k_nodes)) ** 2
    omega = np.asarray(disp.omega(k_nodes))

    t_lo, t_hi = f_minus.envelope_interval(1e-12)
    s_lo, s_hi = f_plus.envelope_interval(1e-12)
    lo, hi = min(t_lo, s_lo), max(t_hi, s_hi)
    s_max = (hi - lo) / lam ** 2
    s_grid = np.linspace(-s_max, s_max, 8001)
    kernel_vals = np.exp(1j * np.outer(s_grid, omega)) @ dens
    kernel = CubicSpline(s_grid, kernel_vals)

    tx, tw = leggauss(24)
    panels = np.linspace(lo, hi, 24 + 1)
    mids, halves = 0.5 * (panels[:-1] + panels[1:]), 0.5 * np.diff(panels)
    t_nodes = (mids[:, None] + halves[:, None] * tx[None, :]).ravel()
    t_weights = (halves[:, None] * tw[None, :]).ravel()

    fm = np.conj(f_minus(t_nodes))
    fp = f_plus(t_nodes)
    smat = (t_nodes[None, :] - t_nodes[:, None]) / lam ** 2  # tau - t
    kern = kernel(smat)
    return (t_weights * fm) @ kern @ (t_weights * fp) / lam ** 2


def test_reservoir_pair_against_time_domain_oracle(quadratic_catalog):
    disp, g = quadratic_catalog
    f_minus = mn.gaussian(width=2.5)
    f_plus = mn.gaussian(width=2.5, modulation=-0.4)
    fast = mn.reservoir_pair(disp, g, 1.0, f_minus, f_plus)
    slow = _time_domain_oracle(disp, g, 1.0, f_minus, f_plus)
    assert abs(fast - slow) <= 1e-6 * (1 + abs(fast))


def _u_substituted_oracle(disp, g, lam, f_minus, f_plus):
    """Adaptive quadrature of the kernel in u = omega(k)/lambda^2, per branch.

    Independent of the production panel rule: it integrates in u with the
    1/|omega'| Jacobian, over the union of the smears' spectral envelopes,
    with QUADPACK choosing the nodes.
    """
    lo, hi = clip_domain(disp, *g.envelope_interval(panels.MOMENTUM_TOL))
    fm_hat, fp_hat = f_minus.fourier(), f_plus.fourier()
    m_lo, m_hi = fm_hat.envelope_interval(1e-12)
    p_lo, p_hi = fp_hat.envelope_interval(1e-12)
    lam2 = lam * lam
    total = 0j
    for a, b in monotone_branches(disp, lo, hi):
        ua, ub = float(disp.omega(a)) / lam2, float(disp.omega(b)) / lam2
        u_lo = max(min(ua, ub), min(m_lo, p_lo))
        u_hi = min(max(ua, ub), max(m_hi, p_hi))
        if u_hi <= u_lo:
            continue

        def integrand(u, a=a, b=b):
            k = branch_inverse(disp, a, b, lam2 * u)
            dens = measure_weight(disp, k) * abs(g(k)) ** 2 / abs(disp.domega(k))
            return dens * np.conj(fm_hat(u)) * fp_hat(u)

        points = [0.0] if u_lo < 0.0 < u_hi else None
        total += complex_quad(integrand, u_lo, u_hi, epsabs=1e-12,
                              epsrel=1e-10, limit=400, points=points)
    return 2.0 * math.pi * total


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.15, 0.05])
@pytest.mark.parametrize("catalog", ["linear_catalog", "quadratic_catalog",
                                     "radial_catalog"])
def test_reservoir_pair_against_adaptive_oracle(request, catalog, lam):
    disp, g = request.getfixturevalue(catalog)
    for f_minus, f_plus in itertools.product(DEFAULT_WORD_SMEARS, repeat=2):
        fast = mn.reservoir_pair(disp, g, lam, f_minus, f_plus)
        oracle = _u_substituted_oracle(disp, g, lam, f_minus, f_plus)
        assert abs(fast - oracle) <= 1e-9 * max(1.0, abs(oracle))


@pytest.mark.parametrize("offset, center, lam, expected", [
    (0.0, 0.0, 1.0, 5.7142311920694535),
    (0.0, 0.0, 0.3, 54.50905520928797),
    (0.0, 0.0, 0.1, 206.95029928549164),
    (0.05, 0.3, 1.0, 5.495944740017922),
    (0.05, 0.3, 0.85, 7.490236104546808),
    (0.05, 0.3, 0.3, 22.67397223328982),
    (0.05, 0.3, 0.1, 25.41660862408946),
])
def test_reservoir_pair_branch_ending_at_stationary_point(offset, center, lam,
                                                          expected):
    """Form factors reaching k = 0, where omega' vanishes at a branch end.

    In u the integrand has an integrable 1/sqrt singularity there; in k it is
    smooth.  The expected values come from adaptive quadrature in u.  At
    lambda = 0.85, lambda^2 (omega(0) / lambda^2) rounds above omega(0), so
    inverting omega at that end would cut about 4e-9 off the window.
    """
    disp = mn.QuadraticDispersion(offset=offset)
    val = mn.reservoir_pair(disp, mn.gaussian(center, 0.35), lam,
                            *DEFAULT_WORD_SMEARS[:2])
    assert abs(val - expected) <= 1e-11 * abs(expected)


def test_reservoir_pair_finds_narrow_spectral_overlap():
    """A narrow f_plus spectrum inside a wide f_minus one.

    The integrand lives within 0.13 of k = -0.777, a 0.26-wide band of the
    38-wide momentum window that the union of the two spectra would leave;
    adaptive quadrature over that union returns about 4e-16, and a panel
    sum over it about 8e-51.  Checked against a dense trapezoid sum over the
    band, for the linear dispersion at lambda = 1 where u = k.
    """
    g = mn.gaussian(width=3.0)
    f_minus = mn.gaussian(width=0.05)
    f_plus = mn.gaussian(width=60.0, modulation=0.777)
    k = np.linspace(-0.977, -0.577, 40001)
    integrand = (np.abs(g(k)) ** 2 * np.conj(f_minus.fourier()(k))
                 * f_plus.fourier()(k))
    dense = 2.0 * math.pi * np.trapezoid(integrand, k)
    val = mn.reservoir_pair(mn.LinearDispersion(), g, 1.0, f_minus, f_plus)
    assert abs(val - dense) <= 1e-9 * abs(dense)


def test_panel_sum_reports_nonconvergence():
    with pytest.raises(QuadratureFailure):
        panels.panel_sum(lambda t: np.sin(1.0 / t) + 0j, 1e-9, 1.0,
                        epsabs=1e-12, epsrel=1e-10)


def test_reservoir_pair_repeats_bitwise(quadratic_catalog):
    disp, g = quadratic_catalog
    smears = DEFAULT_WORD_SMEARS[1], DEFAULT_WORD_SMEARS[2]
    panels.envelope.cache_clear()
    cold = mn.reservoir_pair(disp, g, 0.3, *smears)
    assert mn.reservoir_pair(disp, g, 0.3, *smears) == cold
    assert wick.wick_sum((-1, +1), lambda j, k: mn.reservoir_pair(
        disp, g, 0.3, smears[j], smears[k])) == cold


def test_reservoir_pair_small_lambda_approaches_white_noise(quadratic_catalog):
    disp, g = quadratic_catalog
    gammas = mn.gamma_table(disp, g, range(3)).gammas()
    f_minus = mn.gaussian(width=2.5)
    f_plus = mn.gaussian(width=2.5, modulation=-0.4)
    lam = 0.1
    val = mn.reservoir_pair(disp, g, lam, f_minus, f_plus)
    white = gammas[0] * mn.l2_inner(f_minus, f_plus)
    budget = 1.5 * sum(lam ** (2 * n) * abs(mn.indefinite_inner(
        n, gammas[n], f_minus, f_plus)) for n in (1, 2))
    assert abs(val - white) <= budget


def test_reservoir_pair_radial_reduction_matches_its_gamma():
    """d = 3 channel approaches its own white-noise limit at small lambda."""
    disp = mn.QuadraticDispersion(mass=1.0, offset=2.0, dimension=3)
    g = mn.gaussian(center=2.0, width=0.35)
    gammas = mn.gamma_table(disp, g, range(2)).gammas()
    f = mn.gaussian(width=2.5)
    h = mn.gaussian(width=2.5, modulation=-0.4)
    val = mn.reservoir_pair(disp, g, 0.1, f, h)
    white = gammas[0] * mn.l2_inner(f, h)
    assert abs(val - white) <= 0.05 * abs(white)


def test_wick_sum_four_letters_by_hand():
    values = {(0, 2): 1.5 - 0.5j, (1, 3): 0.25 + 2j, (0, 3): -0.75 + 1j,
              (1, 2): 3 - 1.25j}
    calls = []

    def pair(j, k):
        calls.append((j, k))
        return values[(j, k)]

    total = wick.wick_sum((-1, -1, +1, +1), pair)
    by_hand = values[(0, 2)] * values[(1, 3)] + values[(0, 3)] * values[(1, 2)]
    assert total == by_hand
    assert sorted(calls) == sorted(values)


def test_wick_sum_evaluates_each_pair_once():
    signs = (-1, -1, -1, +1, +1, +1)
    calls = []

    def pair(j, k):
        calls.append((j, k))
        return complex(j + 1, k)

    wick.wick_sum(signs, pair)
    used = {jk for m in mn.enumerate_matchings(signs) for jk in m}
    assert len(calls) == len(set(calls)) and set(calls) == used


def test_wick_sum_stops_a_matching_at_a_zero_factor():
    calls = []

    def pair(j, k):
        calls.append((j, k))
        return 0j if (j, k) == (0, 2) else 1.0 + 0j

    assert wick.wick_sum((-1, -1, +1, +1), pair) == 1
    assert (1, 3) not in calls  # only partner of (0, 2)


def test_correlation_odd_word_vanishes(rng):
    f = random_test_function(rng, n_atoms=1)
    word = [mn.Letter(-1, f, 0), mn.Letter(+1, f, 0), mn.Letter(+1, f, 0)]
    assert mn.correlation(word, {0: 1.0}) == 0


def test_correlation_two_point_word_is_kernel(rng):
    f = random_test_function(rng, n_atoms=1)
    h = random_test_function(rng, n_atoms=1)
    word = [mn.Letter(-1, f, 1), mn.Letter(+1, h, 1)]
    val = mn.correlation(word, {1: 0.8})
    assert_allclose(val, mn.indefinite_inner(1, 0.8, f, h), rtol=1e-12)


def test_correlation_cross_channel_is_exact_zero(rng):
    f = random_test_function(rng, n_atoms=1)
    h = random_test_function(rng, n_atoms=1)
    word = [mn.Letter(-1, f, 1), mn.Letter(+1, h, 2)]
    assert mn.correlation(word, {1: 1.0, 2: 1.0}) == 0


def test_four_letter_word_against_fock_oracle(small_sectors, rng):
    gammas = {n: s.gamma for n, s in small_sectors.items()}
    orders = [1, 0, 0, 1]
    signs = [-1, -1, +1, +1]
    coeffs = [random_coefficients(rng, 4) for _ in orders]
    smears = [mn.linear_combination(c, small_sectors[n].basis)
              for c, n in zip(coeffs, orders)]
    word = [mn.Letter(s, f, n) for s, f, n in zip(signs, smears, orders)]
    wick_val = mn.correlation(word, gammas)
    fock_val = mn.vacuum_expectation(list(zip(signs, orders, coeffs)),
                                     small_sectors)
    assert abs(wick_val - fock_val) <= 1e-8 * (1 + abs(wick_val))


def test_reservoir_word_positivity(quadratic_catalog):
    """The squared norm of a two-particle reservoir state is nonnegative."""
    disp, g = quadratic_catalog
    f = mn.gaussian(width=1.8, modulation=0.2)
    val = wick.wick_sum((-1, -1, +1, +1),
                        lambda j, k: mn.reservoir_pair(disp, g, 0.8, f, f))
    assert abs(val.imag) < 1e-10
    assert val.real >= 0


def test_letter_validation(rng):
    f = random_test_function(rng, n_atoms=1)
    with pytest.raises(ValueError):
        mn.Letter(0, f, 1)
    with pytest.raises(ValueError):
        mn.Letter(-1, mn.zero(), 1)


@pytest.mark.parametrize("lam", [0.0, -0.5])
def test_reservoir_pair_rejects_nonpositive_lambda(lam):
    f = mn.gaussian()
    with pytest.raises(ValueError, match="lambda must be positive"):
        mn.reservoir_pair(mn.LinearDispersion(), f, lam, f, f)

