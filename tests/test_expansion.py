"""Truncated expansions, error curves, and rate fitting."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import multinoise as mn
from multinoise import expansion
from multinoise.errors import BelowFloor
from multinoise.wick import wick_sum
from conftest import random_test_function

LAMBDA_GRID = (0.5, 0.35, 0.25, 0.15)


@pytest.fixture(scope="module")
def quadratic_study(quadratic_catalog):
    disp, g = quadratic_catalog
    gammas = mn.gamma_table(disp, g, range(4)).gammas()
    f_minus = mn.gaussian(width=2.5)
    f_plus = mn.gaussian(width=2.5, modulation=-0.4)
    return disp, g, gammas, f_minus, f_plus


def _point(lam, order, err):
    return mn.ExpansionPoint(lam, order, complex(err), 0j)


def _kernel_study(orders, lams, disp, g, gammas, f_minus, f_plus):
    """The expansion study on the two-letter word, i.e. the kernel check."""
    return mn.correlation_error((-1, +1), [f_minus, f_plus], orders, lams,
                                disp, g, gammas)


def _noise_side(signs, smears, N, lam, catalog, gammas):
    by_order = mn.correlation_error(signs, smears, [N], [lam], *catalog, gammas)
    return by_order[N][0].rhs


def _graded_pair(n, lam, gammas, f_minus, f_plus):
    return lam ** (2 * n) * mn.indefinite_inner(n, gammas[n], f_minus, f_plus)


def _truncated_pair_by_hand(N, lam, f_minus, f_plus, gammas):
    """Graded partial sum over orders 0..N, skipping vanishing coefficients."""
    total = 0j
    for n in range(N + 1):
        if gammas[n] != 0:
            total += _graded_pair(n, lam, gammas, f_minus, f_plus)
    return total


def test_truncated_pair_order_zero(rng, linear_catalog):
    """The two-letter noise side at N = 0 is gamma_0 times the L2 pairing."""
    f = random_test_function(rng, n_atoms=1)
    h = random_test_function(rng, n_atoms=1)
    gammas = {0: 1.9}
    assert_allclose(_noise_side((-1, +1), [f, h], 0, 0.4, linear_catalog,
                                gammas),
                    1.9 * mn.l2_inner(f, h), rtol=1e-10)


def test_truncated_pair_skips_vanishing_coefficients(rng, linear_catalog,
                                                     monkeypatch):
    f = random_test_function(rng, n_atoms=1)
    h = random_test_function(rng, n_atoms=1)
    gammas = {0: 1.9, 1: 0.0}
    orders_seen = []
    original = expansion.indefinite_inner

    def counted(n, *args):
        orders_seen.append(n)
        return original(n, *args)

    monkeypatch.setattr(expansion, "indefinite_inner", counted)
    by_order = _kernel_study([0, 1], [0.4], *linear_catalog, gammas, f, h)
    assert by_order[1][0].rhs == by_order[0][0].rhs
    assert orders_seen == [0]


def test_truncated_pair_is_sum_of_noise_pairs(rng, linear_catalog):
    f = random_test_function(rng, n_atoms=1)
    h = random_test_function(rng, n_atoms=1)
    gammas = {0: 1.1, 1: -0.4, 2: 0.9}
    lam = 0.6
    by_hand = sum(_graded_pair(n, lam, gammas, f, h) for n in range(3))
    assert_allclose(_noise_side((-1, +1), [f, h], 2, lam, linear_catalog,
                                gammas),
                    by_hand, rtol=1e-13)


def test_kernel_error_baseline_frozen(quadratic_study):
    """Regression anchor recorded from the first green build."""
    point, = _kernel_study([0], [0.5], *quadratic_study)[0]
    assert point.abs_error > 0
    assert_allclose(point.abs_error, 0.10265062869554864, rtol=1e-6)


def test_kernel_error_decreases_along_grid(quadratic_study):
    points = _kernel_study([0], LAMBDA_GRID, *quadratic_study)[0]
    assert [p.lam for p in points] == list(LAMBDA_GRID)
    errs = [p.abs_error for p in points]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_deep_truncation_error_is_tiny(quadratic_study):
    """Once the next graded term underflows the error sits near the
    quadrature floor rather than the truncation order."""
    by_order = _kernel_study([0, 3], [0.08], *quadratic_study)
    shallow, deep = by_order[0][0].abs_error, by_order[3][0].abs_error
    assert deep < 1e-5 and deep < 1e-2 * shallow


def test_multi_order_kernel_error_shares_one_exact_value(quadratic_study):
    disp, g, gammas, f_minus, f_plus = quadratic_study
    orders, lams = (2, 0, 1), (0.35, 0.25)
    by_order = _kernel_study(orders, lams, *quadratic_study)
    assert list(by_order) == list(orders)
    for N, points in by_order.items():
        assert [p.lam for p in points] == list(lams)
        for lam, p in zip(lams, points):
            assert p.order == N
            assert p.lhs == mn.reservoir_pair(disp, g, lam, f_minus, f_plus)
            assert p.rhs == _truncated_pair_by_hand(N, lam, f_minus, f_plus,
                                                    gammas)
            assert p.abs_error == abs(p.lhs - p.rhs)


def test_multi_order_correlation_error_shares_one_exact_value(quadratic_study):
    from multinoise.config import DEFAULT_WORD_SMEARS

    disp, g, gammas, *_ = quadratic_study
    signs, smears = (-1, -1, +1, +1), DEFAULT_WORD_SMEARS
    by_order = mn.correlation_error(signs, smears, (0, 1), (0.35, 0.25),
                                    disp, g, gammas)
    for lam, p0, p1 in zip((0.35, 0.25), by_order[0], by_order[1]):
        lhs = wick_sum(signs, lambda j, k: mn.reservoir_pair(
            disp, g, lam, smears[j], smears[k]))
        for N, p in ((0, p0), (1, p1)):
            assert p.lam == lam and p.order == N and p.lhs == lhs
            assert p.rhs == wick_sum(signs, lambda j, k: _truncated_pair_by_hand(
                N, lam, smears[j], smears[k], gammas))


def test_two_point_correlation_error_matches_kernel_error(quadratic_study):
    """The two-letter word is the single pair on both sides."""
    disp, g, gammas, f_minus, f_plus = quadratic_study
    point, = _kernel_study([0], [0.3], *quadratic_study)[0]
    exact = mn.reservoir_pair(disp, g, 0.3, f_minus, f_plus)
    noise = _graded_pair(0, 0.3, gammas, f_minus, f_plus)
    assert abs(point.lhs - exact) <= 1e-12 * abs(exact)
    assert abs(point.rhs - noise) <= 1e-12 * abs(noise)


def test_four_point_noise_side_hand_expansion(rng, linear_catalog):
    """N = 0 Wick sum is the two-matching sum of white-noise pair products."""
    smears = [random_test_function(rng, n_atoms=1) for _ in range(4)]
    gammas = {0: 2.2}
    lam = 0.3
    val = _noise_side((-1, -1, +1, +1), smears, 0, lam, linear_catalog, gammas)
    pair = {(j, k): gammas[0] * mn.l2_inner(smears[j], smears[k])
            for j, k in ((0, 2), (1, 3), (0, 3), (1, 2))}
    by_hand = pair[(0, 2)] * pair[(1, 3)] + pair[(0, 3)] * pair[(1, 2)]
    assert abs(val - by_hand) <= 1e-10 * (1 + abs(by_hand))


def test_noise_side_equals_brute_force_order_sum(rng, linear_catalog):
    """Summing fixed-order words over all order tuples reproduces the
    per-pair truncated sums (cross orders die by the Kronecker delta)."""
    smears = [random_test_function(rng, n_atoms=1) for _ in range(4)]
    signs = (-1, -1, +1, +1)
    gammas = {0: 1.2, 1: 0.8}
    lam, N = 0.7, 1
    fast = _noise_side(signs, smears, N, lam, linear_catalog, gammas)
    brute = 0j
    for orders in itertools.product(range(N + 1), repeat=4):
        word = [mn.Letter(s, f, n) for s, f, n in zip(signs, smears, orders)]
        brute += lam ** sum(orders) * mn.correlation(word, gammas)
    assert abs(fast - brute) <= 1e-10 * (1 + abs(fast))


def test_four_point_error_shrinks_with_lambda(quadratic_study):
    from multinoise.config import DEFAULT_WORD_SMEARS

    disp, g, gammas, *_ = quadratic_study
    e_big, e_small = mn.correlation_error((-1, -1, +1, +1), DEFAULT_WORD_SMEARS,
                                          [0], [0.3, 0.15], disp, g, gammas)[0]
    assert e_small.abs_error < e_big.abs_error


def test_correlation_error_validates_word():
    f = mn.gaussian()
    for signs, smears in (((-1, +1, +1), [f] * 3),     # odd length
                          ((-1, -1), [f] * 2),         # unbalanced
                          ((-1, +1) * 5, [f] * 10),    # longer than 8
                          ((-1, 0, 0, +1), [f] * 4),   # a sign that is not +-1
                          ((-1, +1), [f] * 3),         # one smear too many
                          ((-1, +1), [f, mn.zero()])):  # a zero smear
        with pytest.raises(ValueError):
            mn.correlation_error(signs, smears, [0], [0.3],
                                 mn.LinearDispersion(), f, {0: 1.0})


def test_fit_rate_exact_power_law():
    lams = (0.8, 0.5, 0.3, 0.2, 0.1)
    report = mn.fit_rate([_point(lam, 0, lam ** 3) for lam in lams])
    assert abs(report.fitted_slope - 3.0) <= 1e-9
    assert report.r_squared >= 1 - 1e-12


def test_fit_rate_perturbed_power_law():
    lams = (0.8, 0.5, 0.3, 0.2, 0.1)
    report = mn.fit_rate([_point(lam, 0, lam ** 3 * (1 + 0.1 * lam))
                          for lam in lams])
    assert 2.9 <= report.fitted_slope <= 3.2


def test_fit_rate_constant_errors_flagged():
    report = mn.fit_rate([_point(lam, 0, 0.125) for lam in (0.5, 0.3, 0.2)])
    assert abs(report.fitted_slope) < 1e-12
    assert report.r_squared == 0.0


def test_fit_rate_below_floor():
    with pytest.raises(BelowFloor):
        mn.fit_rate([_point(lam, 0, 1e-14) for lam in (0.5, 0.3, 0.2)])


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        mn.fit_rate([_point(0.5, 0, 0.1), _point(0.3, 0, 0.01)])
    with pytest.raises(ValueError):
        mn.fit_rate([_point(0.3, 0, 0.1), _point(0.5, 0, 0.2),
                     _point(0.2, 0, 0.05)])


def test_expansion_point_validation():
    with pytest.raises(ValueError):
        mn.ExpansionPoint(-0.5, 0, 1 + 0j, 0j)


def test_rate_report_emits_alternative_grading():
    lams = (0.5, 0.3, 0.2)
    report = mn.fit_rate([_point(lam, 1, lam ** 4) for lam in lams])
    blob = report.to_json_dict()
    assert blob["grading"] == "lambda^(2n)"
    assert blob["expected_slope"] == 4
    assert blob["alternative_grading"]["expected_slope"] == 2
    assert blob["n_points"] == 3
