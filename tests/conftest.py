"""Shared fixtures: catalog configurations and small reusable sectors."""

import numpy as np
import pytest

import multinoise as mn
from multinoise.checks import Stream, default_basis


@pytest.fixture(scope="session")
def linear_catalog():
    """Linear dispersion with the unit Gaussian form factor."""
    return mn.LinearDispersion(slope=1.0, offset=0.0), mn.gaussian()


@pytest.fixture(scope="session")
def quadratic_catalog():
    """Quadratic dispersion with the shell centered on the form factor."""
    disp = mn.QuadraticDispersion(mass=1.0, offset=2.0)
    return disp, mn.gaussian(center=2.0, width=0.35)


@pytest.fixture(scope="session")
def radial_catalog():
    """d = 3 radial reduction of the quadratic catalog (|I(0)| is about 51)."""
    disp = mn.QuadraticDispersion(mass=1.0, offset=2.0, dimension=3)
    return disp, mn.gaussian(center=2.0, width=0.35)


@pytest.fixture(scope="session")
def small_sectors():
    """Sectors n = 0..2 on a 4-element basis, cheap enough for unit tests."""
    basis = default_basis(4)
    gammas = {0: 1.0, 1: 1.0, 2: -0.5}
    return {n: mn.build_sector(n, gammas[n], basis, particle_cap=3)
            for n in range(3)}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240711)


@pytest.fixture()
def stream():
    """The draws of checks.random_coefficients and random_fock_vector."""
    return Stream(20240711)


def random_test_function(rng, n_atoms=2, max_poly=3, max_modulation=3.0):
    """Random small atom combination with moderate modulations."""
    atoms = []
    for _ in range(n_atoms):
        center = float(rng.uniform(-1.5, 1.5))
        width = float(rng.uniform(0.6, 1.6))
        modulation = float(rng.uniform(-max_modulation, max_modulation))
        degree = int(rng.integers(1, max_poly + 1))
        poly = tuple(complex(rng.standard_normal(), rng.standard_normal()) * 0.5
                     for _ in range(degree))
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        atoms.append((coeff, mn.Atom(center, width, modulation, poly)))
    return mn.TestFunction(tuple(atoms))
