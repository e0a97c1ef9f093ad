"""Weak-coupling coefficients: oscillatory route, shell oracle, support check."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from numpy.testing import assert_allclose

import multinoise as mn
from multinoise import gamma as gamma_mod
from multinoise.errors import (DegenerateRoot, QuadratureFailure, SlowDecay,
                               SupportConditionFailed)
from multinoise.panels import MAX_RULE_PANELS, panel_rule
from oracles import gamma_by_sigma_panels, i_sigma, i_sigma_on_rule

TWO_SQRT_PI = 2 * math.sqrt(math.pi)


def test_i_sigma_at_zero_is_norm(linear_catalog):
    disp, g = linear_catalog
    assert_allclose(i_sigma(disp, g, 0.0), 1.0, rtol=1e-10)


def test_i_sigma_conjugation_symmetry(quadratic_catalog):
    disp, g = quadratic_catalog
    plus = i_sigma(disp, g, 2.0)
    minus = i_sigma(disp, g, -2.0)
    assert abs(plus - np.conj(minus)) <= 1e-12


def test_i_sigma_gaussian_closed_form(linear_catalog):
    disp, g = linear_catalog
    for sigma in (0.5, 1.5, 3.0, 6.0):
        assert_allclose(i_sigma(disp, g, sigma),
                        math.exp(-sigma * sigma / 4), rtol=1e-8, atol=1e-12)


def test_gamma_osc_linear_catalog(linear_catalog):
    disp, g = linear_catalog
    assert_allclose(mn.gamma_osc(disp, g, 0), TWO_SQRT_PI, rtol=1e-8)
    for n in (1, 3, 5):  # even |g|^2, odd-symmetric omega: an exact +0.0
        value = mn.gamma_osc(disp, g, n)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert_allclose(mn.gamma_osc(disp, g, 2), -TWO_SQRT_PI, rtol=1e-8)


def test_gamma_shell_linear_pushforward(linear_catalog):
    disp, g = linear_catalog
    # rho(E) = |g(E)|^2 = exp(-E^2)/sqrt(pi), so rho^(n)(0) = (-1)^n H_n(0)
    # / sqrt(pi) and gamma_n = 2 sqrt(pi) H_n(0) / n!: gamma_4 = sqrt(pi),
    # gamma_6 = -sqrt(pi)/3
    for n in range(gamma_mod.MAX_ORDER + 1):
        hermite_at_zero = hermval(0.0, [0] * n + [1])
        expected = TWO_SQRT_PI * hermite_at_zero / math.factorial(n)
        if n % 2:
            assert mn.gamma_shell(disp, g, n) == 0.0
        else:
            assert_allclose(mn.gamma_shell(disp, g, n), expected, rtol=1e-13)
    assert_allclose(mn.gamma_shell(disp, g, 6), -math.sqrt(math.pi) / 3,
                    rtol=1e-13)


# gamma_n = (2 pi / n!) (-1)^n rho^(n)(0) for n = 0..6, with rho in closed form
# and mpmath.diff at 50 digits (mpmath 1.3.0).  To regenerate, set
# mp.dps = 50, w = mp.mpf(0.35) (the float the fixture holds), |g(k)|^2 =
# exp(-((k - 2)/w)^2) / (sqrt(pi) w), and rho(E) = sum over the roots
# k = +-sqrt(2 (E + 2)) of |g(k)|^2 / |k|, keeping only k > 0 times 4 pi k^2
# for the radial catalog.
SHELL_PINS = {
    "quadratic_catalog": (
        5.0641538597300461, 1.2660384649325115, -9.8602434526504036,
        -4.9696854283543428, 8.2102045321189881, 6.8179988364646549,
        -3.0722777727678165),
    "radial_catalog": (
        254.55213699802095, -63.638034249505237, -527.44891142000648,
        -1.9886885702970386, 537.5917097401562, 136.36505496854078,
        -325.78452494600229),
}


@pytest.mark.parametrize("catalog", sorted(SHELL_PINS))
def test_gamma_shell_matches_high_precision_pins(catalog, request):
    disp, g = request.getfixturevalue(catalog)
    got = [mn.gamma_shell(disp, g, n) for n in range(gamma_mod.MAX_ORDER + 1)]
    assert_allclose(got, SHELL_PINS[catalog], rtol=1e-12, atol=0)


def test_gamma_shell_quadratic_root_formula():
    disp = mn.QuadraticDispersion(mass=1.0, offset=1.0)
    g = mn.gaussian(center=1.5, width=0.3)
    k = math.sqrt(2.0)
    expected = 2 * math.pi * (abs(g(k)) ** 2 + abs(g(-k)) ** 2) / k
    assert_allclose(mn.gamma_shell(disp, g, 0), expected, rtol=1e-12)


def test_gamma_shell_empty_shell_is_zero():
    disp = mn.QuadraticDispersion(mass=1.0, offset=-1.0)  # omega >= 1
    g = mn.gaussian(center=2.0, width=0.35)
    for n in range(4):
        assert abs(mn.gamma_shell(disp, g, n)) <= 1e-10


def test_gamma_osc_empty_shell_is_small():
    disp = mn.QuadraticDispersion(mass=1.0, offset=-1.0)
    g = mn.gaussian(center=2.0, width=0.35)
    for n in range(3):
        assert abs(mn.gamma_osc(disp, g, n)) <= 1e-8


def test_oracle_agreement_on_catalogs(linear_catalog, quadratic_catalog):
    for disp, g in (linear_catalog, quadratic_catalog):
        table = mn.gamma_table(disp, g, range(4))
        for row in table.rows:
            assert abs(row.gamma_osc - row.gamma_shell) <= \
                1e-6 * (abs(row.gamma_shell) + 1e-10)
        assert table.rows[0].gamma_osc >= -1e-12


def test_gamma_nonnegativity_of_order_zero(quadratic_catalog):
    disp, g = quadratic_catalog
    assert mn.gamma_osc(disp, g, 0) >= -1e-12
    assert mn.gamma_shell(disp, g, 0) >= 0


def test_realness_through_order_four(linear_catalog, quadratic_catalog):
    """gamma_osc is a real float up to n = 4.

    i^n M_n(x) is real for real x, so the route has no imaginary part to
    discard: the kernel is Re M_n or Im M_n by construction.
    """
    for disp, g in (linear_catalog, quadratic_catalog):
        for n in range(5):
            assert isinstance(mn.gamma_osc(disp, g, n), float)


def test_sigma_decay_ladder(linear_catalog, quadratic_catalog):
    """Non-stationary phase: the tail shrinks faster than Sigma^-4 per doubling."""
    for disp, g in (linear_catalog, quadratic_catalog):
        sigma = 4.0
        mag = lambda s: max(abs(i_sigma(disp, g, x))
                            for x in (s, 1.3 * s, 1.7 * s))
        m1, m2 = mag(sigma), mag(2 * sigma)
        assert m2 <= max(m1 / 16, 1e-13)


def test_check_support_examples():
    quad = mn.QuadraticDispersion(mass=1.0, offset=1.0)
    lo, hi = mn.check_support(quad, mn.gaussian(center=1.5, width=0.3))
    assert 0 < lo < 1.5 < hi

    with pytest.raises(SupportConditionFailed,
                       match=r"^stationary points \[0\.0\] inside effective "
                             r"support \(-\d\.\d+, \d\.\d+\)$"):
        mn.check_support(quad, mn.gaussian(width=0.3))

    # a linear dispersion has no stationary point: any support passes
    lo, hi = mn.check_support(mn.LinearDispersion(slope=2.0), mn.gaussian())
    assert lo < 0 < hi


def test_degenerate_root_detected():
    disp = mn.QuadraticDispersion(mass=1.0, offset=5e-14)
    g = mn.gaussian(width=1.0)
    with pytest.raises(DegenerateRoot):
        mn.gamma_shell(disp, g, 0)


def test_slow_decay_raised_for_stationary_point_in_support():
    """The message names the cause the momentum range shows: a stationary
    point of omega, or else the k = 0 edge of a radial domain that g
    reaches (a linear dispersion has no stationary point)."""
    cases = [
        # support covers the stationary point k = 0
        (mn.QuadraticDispersion(mass=1.0, offset=2.0), mn.gaussian(width=1.0),
         r"stationary points 0 of omega inside the momentum range"),
        # the linear catalog made radial, g still 0.033 at k = 0
        (mn.LinearDispersion(slope=1.0, offset=1.5, dimension=3),
         0.7511255444649425 * mn.gaussian(center=1.5, width=0.6),
         r"\|g\| = 0\.0\d+ at the k = 0 edge of the radial domain$"),
    ]
    for disp, g, message in cases:
        with pytest.raises(SlowDecay, match=message):
            mn.gamma_osc(disp, g, 0)
    with pytest.raises(SupportConditionFailed, match=r"^stationary points "):
        mn.check_support(*cases[0][:2])
    mn.check_support(*cases[1][:2])


def test_order_cap():
    with pytest.raises(ValueError):
        mn.gamma_osc(mn.LinearDispersion(), mn.gaussian(), 7)
    with pytest.raises(ValueError):
        mn.gamma_shell(mn.LinearDispersion(), mn.gaussian(), -1)


def test_gamma_table_csv_round_trip(linear_catalog):
    disp, g = linear_catalog
    table = mn.gamma_table(disp, g, range(3))
    text = table.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "n,gamma_osc,gamma_shell,rel_diff"
    for line, row in zip(lines[1:], table.rows):
        n, osc, shell, rel = line.split(",")
        assert int(n) == row.n
        assert float(osc) == row.gamma_osc  # 17 significant digits round-trip
        assert float(shell) == row.gamma_shell
        assert float(rel) == row.rel_diff


def test_radial_reduction_runs(radial_catalog):
    """d = 3 radial option shares the code paths and stays self-consistent."""
    disp, g = radial_catalog
    table = mn.gamma_table(disp, g, range(3))
    for row in table.rows:
        assert abs(row.gamma_osc - row.gamma_shell) <= \
            1e-6 * (abs(row.gamma_shell) + 1e-10)
    # the radial weight 4 pi k^2 scales gamma_0 close to 4 pi k*^2 at the shell
    base = mn.gamma_table(mn.QuadraticDispersion(mass=1.0, offset=2.0), g,
                          [0]).rows[0].gamma_osc
    kstar = 2.0
    assert_allclose(table.rows[0].gamma_osc / base, 4 * math.pi * kstar ** 2,
                    rtol=0.05)


def test_i_sigma_on_the_momentum_rule_matches_adaptive_quadrature(
        linear_catalog, quadratic_catalog, radial_catalog):
    """The momentum rule gamma_osc integrates over resolves I up to Sigma."""
    for disp, g in (linear_catalog, quadratic_catalog, radial_catalog):
        sigma_end, blocks = gamma_mod._truncated_rule(disp, g)
        scale = max(1.0, abs(i_sigma_on_rule(blocks, [0.0])[0]))
        sigmas = np.linspace(0.0, sigma_end, 6)
        on_rule = i_sigma_on_rule(blocks, sigmas)
        # adaptive quadrature asks for 1e-11 relative; allow ten times that
        for sigma, value in zip(sigmas, on_rule):
            assert abs(value - i_sigma(disp, g, float(sigma))) <= 1e-10 * scale


# Kernel of gamma_osc: Re M_n(u) for even n, Im M_n(u) for odd n, with
# M_n(u) = int_{-1}^1 t^n exp(i u t) dt, at the u of MOMENT_US (mpmath 1.3.0).
# To regenerate, sum the power series M_n(u) = sum_k (iu)^k / k!
# (1 + (-1)^(n+k)) / (n + k + 1) at 70 + u/2.3 digits until a term falls
# below 1e-70; it agreed to 1e-40 with mp.quad on 32 panels (u <= 50) and
# with the integration-by-parts sum at 60 digits (u >= 8).
MOMENT_US = (0.0, 1e-8, 7.999, 8.0, 8.001, 50.0, 3000.0)
MOMENT_PINS = {
    0: (2.0, 2.0, 0.24740673883081843, 0.24733956165584545,
        0.24727215396443972, -0.010494994148157152, 0.00014612664952187872),
    1: (0.0, 6.666666666666667e-09, 0.06706187583254945, 0.06729245365913407,
        0.06752290866705483, -0.03880854102264768, 0.0006505035088070076),
    2: (0.6666666666666666, 0.6666666666666666, 0.2306391739270681,
        0.23051644824106193, 0.23039353662484346, -0.008942652507251245,
        0.00014569298051600736),
    3: (0.0, 4e-09, 0.12263267005062495, 0.1228186765425516,
        0.12300453045309291, -0.039135200290119604, 0.0006506004929043497),
    4: (0.4, 0.39999999999999997, 0.18608273830544028, 0.18593022338456963,
        0.18577757556019378, -0.007364178124947583, 0.00014525918219800626),
    5: (0.0, 2.857142857142857e-09, 0.15244841823739794, 0.1525813980675094,
        0.15271422523205036, -0.039335058952179286, 0.0006506968985608303),
    6: (0.2857142857142857, 0.2857142857142857, 0.13305613132683197,
        0.1329035131052134, 0.1327508002096213, -0.005774787073895637,
        0.00014482525572475705),
}


@pytest.mark.parametrize("n", sorted(MOMENT_PINS))
def test_moment_kernel_against_high_precision_pins(n):
    u = np.array(MOMENT_US)
    pins = np.array(MOMENT_PINS[n])
    got = gamma_mod._moment_kernel(n, u)
    assert np.all(np.abs(got - pins)
                  <= 1e-14 * np.maximum(np.abs(pins), 1.0 / (1.0 + u)))
    # bitwise parity in x: even n is even, odd n is odd
    assert np.array_equal(gamma_mod._moment_kernel(n, -u),
                          got if n % 2 == 0 else -got)


@pytest.mark.parametrize("catalog",
                         ["linear_catalog", "quadratic_catalog",
                          "radial_catalog"])
def test_gamma_osc_matches_the_sigma_panel_route(catalog, request):
    """The same truncated integral, sigma integrated last by Legendre panels."""
    disp, g = request.getfixturevalue(catalog)
    sigma_end, blocks = gamma_mod._truncated_rule(disp, g)
    orders = range(gamma_mod.MAX_ORDER + 1)
    reference = gamma_by_sigma_panels(sigma_end, blocks, orders)
    got = [mn.gamma_osc(disp, g, n, (sigma_end, blocks)) for n in orders]
    # rounding amplified by Sigma^6 leaves 1.4e-8 at n = 6 (quadratic)
    assert_allclose(got, reference, rtol=1e-7, atol=0)


def test_gamma_osc_allocates_no_sigma_table(quadratic_catalog):
    """Peak traced memory of a cold gamma_osc is a few momentum-sized vectors.

    A (sigma panels) x (momentum nodes) phase table on this catalog is
    145 x 11,872 complex entries, 27.5 MB; numpy reports its buffers to
    tracemalloc, so the peak repeats exactly (1.3 MB when written).
    """
    disp, g = quadratic_catalog
    tracemalloc.start()
    try:
        gamma_mod.gamma_osc(disp, g, gamma_mod.MAX_ORDER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


@pytest.mark.parametrize("lo, hi, width", [
    (0.0, 1.0, 1.0 / (MAX_RULE_PANELS + 1)),
    (0.0, 6.4e300, 1.8),
    (0.0, 6.4, 1.8e-300),
    (0.0, math.inf, 1.0),
    (0.0, math.nan, 1.0),
])
def test_panel_rule_refuses_oversized_rules_before_allocating(lo, hi, width):
    with pytest.raises(QuadratureFailure):
        panel_rule(lo, hi, width)


def test_panel_rule_at_the_cap():
    nodes, weights = panel_rule(0.0, 1.0, 1.0 / MAX_RULE_PANELS)
    assert nodes.size == MAX_RULE_PANELS * 16
    assert weights.sum() == pytest.approx(1.0, rel=1e-12)
