"""Sectors, creation/annihilation, the sector metric, and vacuum expectations."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import multinoise as mn
from multinoise.checks import default_basis, random_coefficients, random_fock_vector
from multinoise.errors import (CapacityExceeded, IllConditionedBasis,
                               NotInSpan, SectorMismatch, ZeroGamma)
from multinoise.fock import FockVector, max_symmetry_defect


@pytest.fixture(scope="module")
def hermite_sector():
    basis = tuple(mn.hermite_fn(k) for k in range(4))
    return mn.build_sector(0, 1.0, basis, particle_cap=3)


def test_orthonormal_hermite_basis_gives_identity_gram(hermite_sector):
    assert_allclose(hermite_sector.gram, np.eye(4), atol=1e-10)


def test_order_zero_pairing_is_gamma_times_gram():
    basis = default_basis(4)
    sector = mn.build_sector(0, 2.5, basis, particle_cap=2)
    assert_allclose(sector.pairing, 2.5 * sector.gram, atol=1e-10)


def test_dipole_sector_pairing_is_indefinite():
    basis = (mn.gaussian(modulation=2.0), mn.gaussian(modulation=-2.0),
             mn.hermite_fn(1))
    sector = mn.build_sector(1, 1.0, basis, particle_cap=2)
    eigs = np.linalg.eigvalsh(sector.pairing)
    assert eigs[0] < -0.1 and eigs[-1] > 0.1


def test_build_sector_rejects_bad_input():
    basis = default_basis(3)
    with pytest.raises(ZeroGamma):
        mn.build_sector(1, 0.0, basis, particle_cap=2)
    with pytest.raises(IllConditionedBasis):
        mn.build_sector(0, 1.0, (basis[0], basis[0], basis[1]), particle_cap=2)


def test_create_on_vacuum_is_coefficient_vector(small_sectors):
    sector = small_sectors[1]
    coeffs = np.array([0.5, -1.0j, 0.25, 0.0])
    one = mn.create(sector, coeffs, FockVector.vacuum(sector))
    assert_allclose(one.components[1], coeffs, rtol=0, atol=0)
    assert np.all(one.components[0] == 0)
    # a TestFunction in the span projects onto the same coefficients
    f = mn.linear_combination(coeffs, sector.basis)
    one_tf = mn.create(sector, f, FockVector.vacuum(sector))
    assert_allclose(one_tf.components[1], coeffs, atol=1e-10)


def test_creators_commute(small_sectors, rng):
    sector = small_sectors[2]
    cf = random_coefficients(rng, sector.size)
    ch = random_coefficients(rng, sector.size)
    phi = random_fock_vector(sector, rng, max_rank=1)
    ab = mn.create(sector, cf, mn.create(sector, ch, phi))
    ba = mn.create(sector, ch, mn.create(sector, cf, phi))
    for x, y in zip(ab.components, ba.components):
        assert_allclose(x, y, atol=1e-12)


def test_two_particle_symmetrized_product(small_sectors, rng):
    """c+(f) c+(h) vacuum reconstructs (f(t1)h(t2) + f(t2)h(t1)) / sqrt(2)."""
    sector = small_sectors[0]
    cf = random_coefficients(rng, sector.size)
    ch = random_coefficients(rng, sector.size)
    f = mn.linear_combination(cf, sector.basis)
    h = mn.linear_combination(ch, sector.basis)
    two = mn.create(sector, cf, mn.create(sector, ch, FockVector.vacuum(sector)))
    T = two.components[2]
    for t1, t2 in rng.uniform(-1.5, 1.5, size=(5, 2)):
        recon = sum(T[a, b] * sector.basis[a](t1) * sector.basis[b](t2)
                    for a in range(sector.size) for b in range(sector.size))
        expected = (f(t1) * h(t2) + f(t2) * h(t1)) / math.sqrt(2)
        assert abs(recon - expected) <= 1e-8 * (1 + abs(expected))


def test_annihilate_vacuum_is_zero(small_sectors):
    sector = small_sectors[1]
    out = mn.annihilate(sector, np.ones(sector.size), FockVector.vacuum(sector))
    assert all(np.all(c == 0) for c in out.components)


def test_annihilate_create_vacuum_gives_kernel(small_sectors, rng):
    sector = small_sectors[1]
    cf = random_coefficients(rng, sector.size)
    ch = random_coefficients(rng, sector.size)
    f = mn.linear_combination(cf, sector.basis)
    h = mn.linear_combination(ch, sector.basis)
    out = mn.annihilate(sector, cf, mn.create(sector, ch, FockVector.vacuum(sector)))
    kernel = mn.indefinite_inner(sector.n, sector.gamma, f, h)
    assert abs(complex(out.components[0]) - kernel) <= 1e-10 * (1 + abs(kernel))


def test_annihilator_through_two_creators(small_sectors, rng):
    """c-(f) c+(h) c+(g) vac = <f,h> c+(g) vac + <f,g> c+(h) vac."""
    sector = small_sectors[2]
    vac = FockVector.vacuum(sector)
    cf, ch, cg = (random_coefficients(rng, sector.size) for _ in range(3))
    lhs = mn.annihilate(sector, cf,
                        mn.create(sector, ch, mn.create(sector, cg, vac)))
    pair = sector.pairing
    k_fh = complex(np.conj(cf) @ pair @ ch)
    k_fg = complex(np.conj(cf) @ pair @ cg)
    rhs_1 = k_fh * mn.create(sector, cg, vac).components[1] \
        + k_fg * mn.create(sector, ch, vac).components[1]
    assert_allclose(lhs.components[1], rhs_1, atol=1e-12)


def test_fock_inner_vacuum(small_sectors):
    vac = FockVector.vacuum(small_sectors[0])
    assert mn.fock_inner(vac, vac) == 1.0


def test_fock_inner_negative_square_norm_witness():
    witness = mn.gaussian(modulation=-5.0)
    partner = mn.gaussian(modulation=5.0)
    sector = mn.build_sector(1, 1.0, (witness, partner), particle_cap=2)
    one = mn.create(sector, witness, FockVector.vacuum(sector))
    assert_allclose(mn.fock_inner(one, one), -5.0, rtol=1e-6)


def test_pseudo_adjointness(small_sectors, rng):
    for sector in small_sectors.values():
        for _ in range(10):
            cf = random_coefficients(rng, sector.size)
            phi = random_fock_vector(sector, rng, max_rank=sector.particle_cap)
            psi = random_fock_vector(sector, rng, max_rank=sector.particle_cap - 1)
            left = mn.fock_inner(mn.annihilate(sector, cf, phi), psi)
            right = mn.fock_inner(phi, mn.create(sector, cf, psi))
            assert abs(left - right) <= 1e-10 * (1 + max(abs(left), abs(right)))


def test_ccr_on_random_vectors(small_sectors, rng):
    for sector in small_sectors.values():
        cf = random_coefficients(rng, sector.size)
        ch = random_coefficients(rng, sector.size)
        f = mn.linear_combination(cf, sector.basis)
        h = mn.linear_combination(ch, sector.basis)
        kernel = mn.indefinite_inner(sector.n, sector.gamma, f, h)
        phi = random_fock_vector(sector, rng, max_rank=sector.particle_cap - 1)
        ac = mn.annihilate(sector, cf, mn.create(sector, ch, phi))
        ca = mn.create(sector, ch, mn.annihilate(sector, cf, phi))
        comm = FockVector(sector, tuple(
            a - b - kernel * c
            for a, b, c in zip(ac.components, ca.components, phi.components)))
        assert comm.positive_norm() <= 1e-10 * (1 + phi.positive_norm())


def test_outputs_stay_symmetric(small_sectors, rng):
    sector = small_sectors[0]
    phi = random_fock_vector(sector, rng, max_rank=2)
    cf = random_coefficients(rng, sector.size)
    for vec in (mn.create(sector, cf, phi), mn.annihilate(sector, cf, phi)):
        assert all(max_symmetry_defect(c) <= 1e-12 for c in vec.components)


def test_metric_consistency_through_sector_matrix(small_sectors, rng):
    for sector in small_sectors.values():
        phi = random_fock_vector(sector, rng, max_rank=2)
        psi = random_fock_vector(sector, rng, max_rank=2)
        direct = mn.fock_inner(phi, psi, use_metric=True)
        lifted = mn.fock_inner(phi, mn.apply_sector_metric(psi), use_metric=False)
        assert abs(direct - lifted) <= 1e-8 * (1 + abs(direct))


def test_capacity_is_enforced(small_sectors, rng):
    sector = small_sectors[0]
    cf = random_coefficients(rng, sector.size)
    full = random_fock_vector(sector, rng, max_rank=sector.particle_cap)
    with pytest.raises(CapacityExceeded):
        mn.create(sector, cf, full)


def test_not_in_span(hermite_sector):
    stranger = mn.gaussian(modulation=7.0)
    with pytest.raises(NotInSpan):
        mn.create(hermite_sector, stranger, FockVector.vacuum(hermite_sector))
    with pytest.raises(NotInSpan):
        mn.annihilate(hermite_sector, stranger, FockVector.vacuum(hermite_sector))


def test_even_sector_pairing_sign_tracks_gamma():
    """For even n the pairing is gamma times a positive form, so its
    eigenvalue signs follow the sign of gamma."""
    basis = default_basis(3)
    plus = mn.build_sector(2, 1.5, basis, particle_cap=2)
    minus = mn.build_sector(2, -0.5, basis, particle_cap=2)
    assert np.linalg.eigvalsh(plus.pairing)[0] > 0
    assert np.linalg.eigvalsh(minus.pairing)[-1] < 0


def test_sector_mismatch(small_sectors):
    vac0 = FockVector.vacuum(small_sectors[0])
    vac1 = FockVector.vacuum(small_sectors[1])
    with pytest.raises(SectorMismatch):
        mn.fock_inner(vac0, vac1)
    with pytest.raises(SectorMismatch):
        mn.create(small_sectors[1], np.ones(4), vac0)


def test_multi_inner_vacuum_and_factorization(small_sectors, rng):
    """No sector touched gives 1; a word over two sectors factorizes."""
    assert mn.vacuum_expectation([], {}) == 1.0
    c = [random_coefficients(rng, 4) for _ in range(4)]
    in_0 = [(-1, 0, c[0]), (+1, 0, c[1])]
    in_2 = [(-1, 2, c[2]), (-1, 2, c[3]), (+1, 2, c[0]), (+1, 2, c[1])]
    expected = (mn.vacuum_expectation(in_0, small_sectors)
                * mn.vacuum_expectation(in_2, small_sectors))
    assert expected != 0
    for word in (in_0 + in_2, in_2 + in_0, in_0[:1] + in_2 + in_0[1:]):
        assert_allclose(mn.vacuum_expectation(word, small_sectors), expected,
                        rtol=1e-12)


def test_apply_word_empty_is_identity(small_sectors):
    val = mn.vacuum_expectation([], small_sectors)
    assert type(val) is complex and val == 1.0


def test_apply_word_pair_reduces_to_kernel(small_sectors, rng):
    sector = small_sectors[1]
    cf = random_coefficients(rng, sector.size)
    ch = random_coefficients(rng, sector.size)
    f = mn.linear_combination(cf, sector.basis)
    h = mn.linear_combination(ch, sector.basis)
    val = mn.vacuum_expectation([(-1, 1, cf), (+1, 1, ch)], small_sectors)
    kernel = mn.indefinite_inner(1, sector.gamma, f, h)
    assert abs(val - kernel) <= 1e-10 * (1 + abs(kernel))


def test_apply_word_cross_sector_vanishes(small_sectors, rng):
    cf = random_coefficients(rng, 4)
    ch = random_coefficients(rng, 4)
    assert mn.vacuum_expectation([(-1, 1, cf), (+1, 2, ch)],
                                 small_sectors) == 0
