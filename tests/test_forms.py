"""The inner products, their cross-route identities, and the grid metric."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erfcx

import multinoise as mn
from multinoise import panels
from multinoise.errors import QuadratureFailure, ZeroGamma
from multinoise.forms import ENVELOPE_TOL, QUAD_REL, _erfcx
from conftest import random_test_function
from oracles import complex_quad


def quad_oracle(weight, f, h):
    """integral weight(t) conj(f(t)) h(t) dt by adaptive quadrature.

    The range comes from the Gaussian envelopes and is split at 0, where
    |t|^n is not smooth.
    """
    ends = [end for fn in (f, h) for end in fn.envelope_interval(ENVELOPE_TOL)]
    lo, hi = min(0.0, *ends), max(0.0, *ends)

    def integrand(t):
        return weight(t) * np.conj(f(t)) * h(t)

    return complex_quad(integrand, lo, 0.0) + complex_quad(integrand, 0.0, hi)


# -- L2 ----------------------------------------------------------------------


def test_gaussian_unit_norm():
    phi = mn.gaussian()
    assert_allclose(mn.indefinite_inner(0, 1.0, [phi], [phi])[0, 0], 1.0,
                    rtol=1e-12)


def test_hermite_orthogonality():
    assert abs(mn.indefinite_inner(0, 1.0, [mn.gaussian()],
                                   [mn.hermite_fn(1)])[0, 0]) < 1e-12
    assert_allclose(mn.indefinite_inner(0, 1.0, [mn.hermite_fn(2)],
                                        [mn.hermite_fn(2)])[0, 0], 1.0,
                    rtol=1e-12)


def test_parseval(rng):
    for _ in range(5):
        f = random_test_function(rng)
        h = random_test_function(rng)
        time_side = mn.indefinite_inner(0, 1.0, [f], [h])[0, 0]
        freq_side = mn.indefinite_inner(0, 1.0, [f.fourier()],
                                        [h.fourier()])[0, 0]
        assert abs(time_side - freq_side) <= 1e-10 * (1 + abs(time_side))


# -- weighted positive form ----------------------------------------------------


def test_weighted_inner_examples():
    phi = mn.gaussian()
    assert_allclose(mn.weighted_inner(0, [phi], [phi])[0, 0], 1.0, rtol=1e-12)
    assert_allclose(mn.weighted_inner(1, [phi], [phi])[0, 0],
                    1 / math.sqrt(math.pi), rtol=1e-10)
    assert_allclose(mn.weighted_inner(2, [phi], [phi])[0, 0], 0.5, rtol=1e-10)


def test_weighted_positivity(rng):
    for _ in range(100):
        f = random_test_function(rng, n_atoms=1)
        for n in range(5):
            assert mn.weighted_inner(n, [f], [f])[0, 0].real >= -1e-12


# -- indefinite commutator kernel ---------------------------------------------


def test_real_gaussian_dipole_kernel_vanishes():
    phi = mn.gaussian()
    assert abs(mn.indefinite_inner(1, 1.0, [phi], [phi])[0, 0]) < 1e-12


def test_negative_square_norm_witness():
    f = mn.gaussian(modulation=-5.0)
    assert_allclose(mn.indefinite_inner(1, 1.0, [f], [f])[0, 0], -5.0,
                    rtol=1e-9)


def test_order_zero_reduces_to_weighted_l2(rng):
    gamma0 = 2.3
    f, h = random_test_function(rng), random_test_function(rng)
    lhs = mn.indefinite_inner(0, gamma0, [f], [h])[0, 0]
    rhs = gamma0 * mn.indefinite_inner(0, 1.0, [f], [h])[0, 0]
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_zero_gamma_rejected():
    phi = mn.gaussian()
    with pytest.raises(ZeroGamma):
        mn.indefinite_inner(1, 0.0, [phi], [phi])
    with pytest.raises(ZeroGamma):
        mn.indefinite_inner_frequency(1, 0.0, [phi], [phi])


def test_conjugate_symmetry(rng):
    for n in range(5):
        for _ in range(3):
            f = random_test_function(rng, n_atoms=1)
            h = random_test_function(rng, n_atoms=1)
            a = mn.indefinite_inner(n, 0.7, [f], [h])[0, 0]
            b = mn.indefinite_inner(n, 0.7, [h], [f])[0, 0]
            assert abs(a - np.conj(b)) <= 1e-10 * (1 + abs(a))


def test_time_and_frequency_routes_agree(rng):
    for n in range(5):
        f = random_test_function(rng, n_atoms=1)
        h = random_test_function(rng, n_atoms=1)
        time_route = mn.indefinite_inner(n, 1.0, [f], [h])[0, 0]
        freq_route = mn.indefinite_inner_frequency(n, 1.0, [f], [h])[0, 0]
        assert abs(time_route - freq_route) <= 1e-8 * (1 + abs(time_route))
        if n % 2 == 0:
            weighted = mn.weighted_inner(n, [f], [h])[0, 0]
            assert abs(time_route - weighted) <= 1e-8 * (1 + abs(weighted))


@pytest.mark.parametrize("n", [1, 3])
def test_indefiniteness_witnesses(n):
    plus = mn.gaussian(modulation=5.0)    # frequency content at -5
    minus = mn.gaussian(modulation=-5.0)  # frequency content at +5
    assert mn.indefinite_inner(n, 1.0, [plus], [plus])[0, 0].real > 1.0
    assert mn.indefinite_inner(n, 1.0, [minus], [minus])[0, 0].real < -1.0


# -- exact forms against the quadrature oracle ------------------------------------


@pytest.mark.parametrize("n", range(7))
def test_exact_forms_match_quadrature(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(2):
        f = random_test_function(rng, max_modulation=5.0)
        h = random_test_function(rng, max_modulation=5.0)
        fF, hF = f.fourier(), h.fourier()
        fd = f.derivative(n)
        cases = [
            (mn.indefinite_inner(0, 1.0, [f], [h])[0, 0],
             quad_oracle(lambda t: 1.0, f, h)),
            (mn.weighted_inner(n, [f], [h])[0, 0],
             quad_oracle(lambda x: np.abs(x) ** n, fF, hF)),
            (mn.indefinite_inner(n, 0.7, [f], [h])[0, 0],
             (1j) ** n * 0.7 * quad_oracle(lambda t: 1.0, fd, h)),
            (mn.indefinite_inner_frequency(n, 0.7, [f], [h])[0, 0],
             (-1.0) ** n * 0.7 * quad_oracle(lambda x: x ** n, fF, hF)),
        ]
        for exact, oracle in cases:
            assert abs(exact - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_batched_forms_match_pairwise_calls(rng):
    fs = [random_test_function(rng) for _ in range(3)]
    hs = [random_test_function(rng, n_atoms=1) for _ in range(2)]
    for n in (0, 1, 2, 3):
        forms = (lambda f, h: mn.indefinite_inner(0, 1.0, f, h),
                 lambda f, h: mn.weighted_inner(n, f, h),
                 lambda f, h: mn.indefinite_inner(n, 1.3, f, h),
                 lambda f, h: mn.indefinite_inner_frequency(n, 1.3, f, h))
        for form in forms:
            matrix = form(fs, hs)
            assert matrix.shape == (3, 2)
            for i, f in enumerate(fs):
                for j, h in enumerate(hs):
                    assert_allclose(matrix[i, j], form([f], [h])[0, 0],
                                    rtol=1e-13)
            assert_allclose(form(fs[:1], hs), matrix[:1], rtol=1e-13)
    zero_row = mn.weighted_inner(1, [mn.zero()], hs)
    assert zero_row.shape == (1, 2) and not np.any(zero_row)


# Reference values at large modulation gaps, computed with mpmath 1.3.0 at
# 60 digits (composite 24-point Gauss-Legendre on panels of width 1/2 over
# +-12 widths of every atom, split at 0).  Row n holds
# (indefinite_inner(n, 1, f, h), weighted_inner(n, f, h)).
GAP_CASES = {
    "gap 8.5": (
        ((0.3, 0.8, -4.0, (1.0, 0.5j, -0.25)),
         (-0.2, 1.2, 4.5, (0.7, 0.0, 0.3 + 0.1j))),
        [(-5.831143407523067e-06 - 5.2018298543950204e-05j,
          -5.831143407523071e-06 - 5.201829854395026e-05j),
         (9.814461371738239e-07 - 8.622646006698429e-05j,
          8.66717020499507e-07 - 8.627944212342711e-05j),
         (1.61469201515416e-05 - 0.00016093472547287608j,
          1.6146920151541622e-05 - 0.0001609347254728762j),
         (5.7426603248559445e-05 - 0.0003251689162054911j,
          5.74007298438732e-05 - 0.0003251763587388567j),
         (0.00017039685950967192 - 0.000698569892010235j,
          0.00017039685950967205 - 0.0006985698920102354j),
         (0.00048039904874138767 - 0.0015760070411480862j,
          0.0004803838321715213 - 0.0015760093638400503j),
         (0.0013321419853982767 - 0.0036990207631493214j,
          0.0013321419853982773 - 0.003699020763149323j)],
    ),
    "gap 16": (
        ((0.5, 1.1, -7.5, (1.0, -0.3)),
         (-0.4, 0.9, 8.5, (0.5j, 0.2, 0.0, 0.1))),
        [(-3.0032381964054943e-24 + 1.5021319361588417e-24j,
          -3.0032381964055156e-24 + 1.5021319361588538e-24j),
         (2.8865704241873707e-24 - 3.005456838940454e-24j,
          -2.942347165486661e-24 + 2.9193773523638244e-24j),
         (-3.576738755472742e-24 + 5.431820561860475e-24j,
          -3.576738755472768e-24 + 5.431820561860508e-24j),
         (4.72322377083424e-24 - 1.0721655012061438e-23j,
          -4.732544623954897e-24 + 1.0686190557470729e-23j),
         (-6.285991843740053e-24 + 2.2328616083900088e-23j,
          -6.285991843741071e-24 + 2.2328616083901878e-23j),
         (7.308232637410924e-24 - 4.934796923477875e-23j,
          -7.308200519874055e-24 + 4.931520119498571e-23j),
         (-3.545157659583231e-24 + 1.144846699229209e-22j,
          -3.545157658310194e-24 + 1.1448466992228256e-22j)],
    ),
}


def _atom_function(center, width, modulation, poly):
    return mn.TestFunction(((1.0 + 0j, mn.Atom(
        center, width, modulation, tuple(complex(p) for p in poly))),))


@pytest.mark.parametrize("case", sorted(GAP_CASES))
def test_large_modulation_gap_against_high_precision(case):
    (fa, fb), rows = GAP_CASES[case]
    f, h = _atom_function(*fa), _atom_function(*fb)
    for n, (kernel, weighted) in enumerate(rows):
        # the values lie far below the size of their integrands (down to
        # 1e-27 of it); QUAD_REL is the accuracy the forms promise
        assert abs(mn.indefinite_inner(n, 1.0, [f], [h])[0, 0] - kernel) \
            <= QUAD_REL * abs(kernel)
        assert abs(mn.weighted_inner(n, [f], [h])[0, 0] - weighted) \
            <= QUAD_REL * abs(weighted)


def test_separated_atoms_odd_weighted_form_raises():
    """Atoms ten widths apart in time: the odd-order weighted form oscillates
    on the frequency side, and its half-line recurrence loses accuracy as the
    order grows.  It must report that instead of returning the value."""
    f, h = mn.gaussian(center=-5.0), mn.gaussian(center=5.0)
    # mpmath at 60 digits, as above
    assert_allclose(mn.weighted_inner(1, [f], [h])[0, 0],
                    -0.012040225606926656, rtol=QUAD_REL)
    assert_allclose(mn.weighted_inner(2, [f], [h])[0, 0],
                    -3.4025462469161855e-10, rtol=QUAD_REL)
    assert_allclose(mn.indefinite_inner(5, 1.0, [f], [h])[0, 0],
                    -3.498025860987813e-08j, rtol=QUAD_REL)
    for n in (3, 5):
        with pytest.raises(QuadratureFailure):
            mn.weighted_inner(n, [f], [h])


# -- grids and the metric operator ----------------------------------------------


def test_grid_of_zero_function():
    nodes, _ = mn.frequency_grid([mn.gaussian()])
    assert np.all(mn.zero().fourier()(nodes) == 0)


def test_grid_nodes_exclude_zero_and_are_symmetric():
    nodes, weights = mn.frequency_grid([mn.gaussian()])
    assert np.all(nodes != 0)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    assert_allclose(nodes, -nodes[::-1], rtol=0, atol=0)


def test_grid_pointwise_matches_closed_form():
    phi = mn.gaussian()
    nodes, _ = mn.frequency_grid([phi])
    sampled = phi.fourier()(nodes)
    x = nodes[len(nodes) // 2]  # smallest positive node
    assert x > 0
    assert_allclose(sampled[len(nodes) // 2],
                    math.pi ** -0.25 * math.exp(-0.5 * x * x), rtol=1e-13)


def test_grid_inner_matches_weighted(rng):
    for n in range(4):
        f = random_test_function(rng, n_atoms=1)
        h = random_test_function(rng, n_atoms=1)
        nodes, weights = mn.frequency_grid([f, h])
        val = mn.grid_weighted_inner(n, nodes, weights, f.fourier()(nodes),
                                     h.fourier()(nodes))
        ref = mn.weighted_inner(n, [f], [h])[0, 0]
        assert abs(val - ref) <= 1e-12 * (1 + abs(ref))


def test_grid_inner_sums_over_the_last_axis(rng):
    """A complex for one pair of sample arrays, an array over the batch axes
    for stacked pairs, equal entry by entry."""
    fns = [random_test_function(rng, n_atoms=1) for _ in range(6)]
    nodes, weights = mn.frequency_grid(fns)
    u = np.array([f.fourier()(nodes) for f in fns]).reshape(2, 3, -1)
    for n in range(4):
        batch = mn.grid_weighted_inner(n, nodes, weights, u[0], u[1])
        assert batch.shape == (3,)
        for i in range(3):
            one = mn.grid_weighted_inner(n, nodes, weights, u[0, i], u[1, i])
            assert isinstance(one, complex)
            assert abs(batch[i] - one) <= 1e-13 * (1 + abs(one))


def test_frequency_grid_bisects_each_envelope_once(monkeypatch):
    """The grid takes its radius from the memoized envelopes, so grids of
    every sector over one basis bisect each Fourier envelope once."""
    calls = []
    original = mn.TestFunction.envelope_interval

    def counted(self, tol=1e-18):
        calls.append(self)
        return original(self, tol)

    monkeypatch.setattr(mn.TestFunction, "envelope_interval", counted)
    panels.envelope.cache_clear()
    basis = [mn.hermite_fn(k, modulation=0.25 * k) for k in range(3)]
    grids = [mn.frequency_grid(basis) for _ in range(4)]
    assert len(calls) == len(basis)
    assert all(np.array_equal(g[0], grids[0][0]) for g in grids)


def test_metric_involution_is_exact(rng):
    f = random_test_function(rng)
    nodes, _ = mn.frequency_grid([f])
    u = f.fourier()(nodes)
    for n in (0, 1, 2, 3):
        eta = mn.metric_sign(n, nodes)
        assert np.array_equal(u * eta * eta, u)


def test_metric_orientation(rng):
    """The calibrated orientation reproduces the commutator kernel; the
    opposite sign does not."""
    for n in (1, 3):
        f = random_test_function(rng, n_atoms=1)
        h = random_test_function(rng, n_atoms=1)
        nodes, weights = mn.frequency_grid([f, h])
        uf, uh = f.fourier()(nodes), h.fourier()(nodes)
        kernel = mn.indefinite_inner(n, 1.0, [f], [h])[0, 0]
        calibrated = mn.grid_weighted_inner(n, nodes, weights, uf,
                                            mn.metric_sign(n, nodes) * uh)
        flipped = mn.grid_weighted_inner(n, nodes, weights, uf,
                                         np.sign(nodes) * uh)
        assert abs(calibrated - kernel) <= 1e-12 * (1 + abs(kernel))
        assert abs(flipped - kernel) > 1e-3 * (1 + abs(kernel))


def test_metric_even_orders_reduce_to_weighted(rng):
    f = random_test_function(rng, n_atoms=1)
    h = random_test_function(rng, n_atoms=1)
    nodes, weights = mn.frequency_grid([f, h])
    val = mn.grid_weighted_inner(2, nodes, weights, f.fourier()(nodes),
                                 mn.metric_sign(2, nodes) * h.fourier()(nodes))
    kernel = mn.indefinite_inner(2, 1.0, [f], [h])[0, 0]
    assert abs(val - kernel) <= 1e-12 * (1 + abs(kernel))


def test_metric_projectors(rng):
    f = random_test_function(rng)
    nodes, _ = mn.frequency_grid([f])
    u = f.fourier()(nodes)
    for n in (1, 2):
        eta = mn.metric_sign(n, nodes)
        plus = 0.5 * (u + eta * u)
        minus = 0.5 * (u - eta * u)
        # idempotent and complementary, pointwise exactly
        assert np.array_equal(0.5 * (plus + eta * plus), plus)
        assert np.array_equal(plus + minus, u)


def test_quadrature_failure_is_reported():
    with pytest.raises(QuadratureFailure):
        complex_quad(lambda t: np.sin(1.0 / t) + 0j, 1e-9, 1.0,
                     epsabs=1e-16, epsrel=1e-15, limit=3)


@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 1000.0])
def test_erfcx_matches_scipy_on_right_half_plane(scale):
    """The rational erfcx agrees with scipy's where the half-line moments use it."""
    draws = np.random.default_rng(int(scale * 10))
    z = (draws.uniform(0.0, scale, 20000)
         + 1j * draws.uniform(-scale, scale, 20000))
    z = np.concatenate([z, [0.0, 1j * scale, -1j * scale, scale]])
    want = erfcx(z)
    assert np.max(np.abs(_erfcx(z) - want) / np.abs(want)) <= 1e-13
