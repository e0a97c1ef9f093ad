"""Weak-coupling coefficients: oscillatory route, shell oracle, support check."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from numpy.testing import assert_allclose

import multinoise as mn
from multinoise import gamma as gamma_mod
from multinoise.errors import DegenerateRoot, SlowDecay
from oracles import i_sigma, i_sigma_on_rule

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
    for n in (1, 3, 5):  # even |g|^2, odd-symmetric omega
        assert mn.gamma_osc(disp, g, n) == 0.0
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
    """gamma_osc discards no visible imaginary residue up to n = 4."""
    for disp, g in (linear_catalog, quadratic_catalog):
        for n in range(5):
            value = mn.gamma_osc(disp, g, n)  # raises ImaginaryResidue if not
            assert isinstance(value, float)


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
    report = mn.check_support(quad, mn.gaussian(center=1.5, width=0.3))
    assert report.passes
    assert report.support[0] > 0

    centered = mn.check_support(quad, mn.gaussian(width=0.3))
    assert not centered.passes
    assert 0.0 in centered.stationary_inside

    lin = mn.check_support(mn.LinearDispersion(slope=2.0), mn.gaussian())
    assert lin.passes and lin.stationary_inside == ()


def test_degenerate_root_detected():
    disp = mn.QuadraticDispersion(mass=1.0, offset=5e-14)
    g = mn.gaussian(width=1.0)
    with pytest.raises(DegenerateRoot):
        mn.shell_density(disp, g, 0.0)


def test_slow_decay_raised_for_stationary_point_in_support():
    disp = mn.QuadraticDispersion(mass=1.0, offset=2.0)
    g = mn.gaussian(width=1.0)  # support covers the stationary point k = 0
    assert not mn.check_support(disp, g).passes
    with pytest.raises(SlowDecay):
        mn.gamma_osc(disp, g, 0)


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


def test_sigma_table_matches_direct_and_adaptive_routes(
        linear_catalog, quadratic_catalog, radial_catalog):
    """The factored panel table against I evaluated node by node."""
    for disp, g in (linear_catalog, quadratic_catalog, radial_catalog):
        nodes, _, values = gamma_mod._oscillation_table(disp, g)
        blocks = gamma_mod._momentum_rule(
            disp, g, gamma_mod._sigma_cutoff(disp, g))
        scale = max(1.0, abs(i_sigma_on_rule(blocks, [0.0])[0]))
        picks = np.linspace(0, nodes.size - 1, 40).round().astype(int)
        direct = i_sigma_on_rule(blocks, nodes[picks])
        assert np.max(np.abs(values[picks] - direct)) <= 1e-12 * scale
        # adaptive quadrature asks for 1e-11 relative; allow ten times that
        for k in range(0, 40, 8):
            adaptive = i_sigma(disp, g, float(nodes[k]))
            assert abs(values[k] - adaptive) <= 1e-10 * scale


def test_sigma_table_never_builds_the_dense_sigma_momentum_matrix(
        quadratic_catalog):
    """Peak traced memory of the table stays far below the dense matrix.

    The dense sigma x momentum matrix on this catalog alone is about 440 MB;
    numpy reports its buffers to tracemalloc, so the peak repeats exactly.
    """
    disp, g = quadratic_catalog
    gamma_mod._oscillation_table.cache_clear()
    tracemalloc.start()
    try:
        gamma_mod._oscillation_table(disp, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100e6
