"""Test-function calculus: evaluation, derivatives, Fourier transform, IO."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

import multinoise as mn
from multinoise import config
from conftest import random_test_function

PHI0_AMP = math.pi ** -0.25


def test_gaussian_at_origin():
    assert mn.gaussian()(0.0) == pytest.approx(PHI0_AMP, rel=1e-14)


def test_zero_function_everywhere():
    z = mn.zero()
    for t in (-3.0, 0.0, 7.5):
        assert z(t) == 0


def test_modulated_gaussian_value():
    f = mn.gaussian(modulation=5.0)
    expected = PHI0_AMP * math.exp(-0.5) * np.exp(5.0j)
    assert_allclose(f(1.0), expected, rtol=1e-13)


def test_vectorized_evaluation_matches_scalar():
    f = random_test_function(np.random.default_rng(1))
    ts = np.linspace(-2, 2, 7)
    assert_allclose(f(ts), np.array([f(float(t)) for t in ts]), rtol=1e-14)


def test_derivative_order_zero_is_identity():
    f = mn.gaussian()
    g = f.derivative(0)
    assert g is f


def test_gaussian_first_derivative():
    phi = mn.gaussian()
    dphi = phi.derivative()
    for t in (-1.3, 0.2, 2.0):
        assert_allclose(dphi(t), -t * phi(t), rtol=1e-13, atol=1e-16)


def test_second_derivative_against_finite_differences(rng):
    f = random_test_function(rng)
    d2 = f.derivative(2)
    h = 1e-2
    for t in rng.uniform(-2, 2, size=10):
        def second(hh):
            return (f(t + hh) - 2 * f(t) + f(t - hh)) / hh ** 2
        fd = (4 * second(h / 2) - second(h)) / 3  # one Richardson step
        assert abs(d2(t) - fd) <= 1e-6 * (1 + abs(d2(t)))


def test_gaussian_is_fourier_fixed_point():
    phi = mn.gaussian()
    phiF = phi.fourier()
    for x in (-2.0, 0.0, 0.7):
        assert_allclose(phiF(x), phi(x), rtol=1e-13, atol=1e-16)


def test_modulated_atom_moves_to_minus_b():
    b = 1.7
    f = mn.gaussian(modulation=b)
    (coeff, atom), = f.fourier().atoms
    assert atom.center == pytest.approx(-b)
    # quadrature oracle for the transform kernel
    for x in (-2.2, -1.7, 0.4):
        def kernel(t, part):
            return getattr(f(t) * np.exp(1j * t * x), part)
        direct = (quad(lambda t: kernel(t, "real"), -12, 12, limit=300)[0]
                  + 1j * quad(lambda t: kernel(t, "imag"), -12, 12, limit=300)[0])
        direct /= math.sqrt(2 * math.pi)
        assert_allclose(f.fourier()(x), direct, rtol=1e-10, atol=1e-12)


def test_double_fourier_is_parity(rng):
    f = random_test_function(rng)
    ff = f.fourier().fourier()
    for x in rng.uniform(-3, 3, size=10):
        assert abs(ff(x) - f(-x)) <= 1e-10 * (1 + abs(f(-x)))


def test_linear_combination_and_arithmetic():
    f = mn.gaussian()
    h = mn.hermite_fn(1)
    combo = mn.linear_combination([2.0, -1.0j], [f, h])
    manual = 2.0 * f - 1.0j * h
    for t in (-0.8, 0.0, 1.1):
        assert_allclose(combo(t), manual(t), rtol=1e-14)
        assert_allclose(combo(t), 2 * f(t) - 1j * h(t), rtol=1e-14)


def test_envelope_interval_bounds_the_function(rng):
    f = random_test_function(rng)
    lo, hi = f.envelope_interval(1e-12)
    for t in (lo - 0.5, hi + 0.5, lo - 3.0, hi + 3.0):
        assert abs(f(t)) < 1e-12


def test_amplitude_scales_with_the_function(rng):
    """The largest |coeff| max_k |poly_k| over the atoms: linear in f, and 0
    for the empty sum.  A Gaussian's transform has its width times the
    coefficient."""
    g = mn.gaussian(width=4.0)
    assert g.amplitude() == PHI0_AMP / 2.0
    assert g.fourier().amplitude() == pytest.approx(2.0 * PHI0_AMP, rel=1e-15)
    f = random_test_function(rng)
    assert (-3e200 * f).amplitude() == pytest.approx(3e200 * f.amplitude(),
                                                    rel=1e-15)
    assert mn.zero().amplitude() == 0.0


def test_json_round_trip(rng):
    """config's atom writer and reader give back the same test function."""
    for _ in range(5):
        f = random_test_function(rng, n_atoms=3)
        text = json.dumps(config.atom_json(f))
        back = config._test_function(json.loads(text), "form_factor")
        assert back == f
        ts = rng.uniform(-2, 2, size=5)
        assert_allclose(back(ts), f(ts), rtol=0, atol=0)


def test_atom_validation():
    with pytest.raises(ValueError):
        mn.Atom(0.0, -1.0, 0.0, (1.0 + 0j,))
    with pytest.raises(ValueError):
        mn.Atom(0.0, 1.0, 0.0, ())
    with pytest.raises(ValueError):
        mn.gaussian().derivative(-1)
