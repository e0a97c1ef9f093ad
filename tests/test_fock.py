"""Sectors, creation/annihilation, the sector metric, and vacuum expectations."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import multinoise as mn
from multinoise import checks, fock
from multinoise.checks import (default_basis, random_coefficients,
                               random_fock_vector, run_representation_checks)
from multinoise.errors import (CapacityExceeded, IllConditionedBasis,
                               SectorMismatch, ZeroGamma)
from multinoise.fock import FockVector
from oracles import max_symmetry_defect, symmetrize_by_permutations, unpack


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
    one = mn.create(coeffs, FockVector.vacuum(sector))
    assert_allclose(unpack(one)[1], sector.to_krein @ coeffs, rtol=0, atol=0)
    assert np.all(unpack(one)[0] == 0)


def test_operators_take_coefficient_vectors_only(small_sectors):
    sector = small_sectors[1]
    vac = FockVector.vacuum(sector)
    for op in (mn.create, mn.annihilate):
        with pytest.raises(TypeError):
            op(sector.basis[0], vac)
        with pytest.raises(ValueError):
            op(np.ones(sector.size + 1), vac)


def test_create_is_weighted_symmetric_product(stream):
    """Rank k+1 of c+(c) phi is sqrt(k+1) Sym(phi_k (x) c'), at every rank,
    with phi and c' = to_krein c in Krein coordinates."""
    sector = mn.build_sector(1, 1.0, default_basis(3), particle_cap=5)
    phi = random_fock_vector(sector, stream, max_rank=sector.particle_cap - 1)
    c = random_coefficients(stream, sector.size)
    out = unpack(mn.create(c, phi))
    assert out[0] == 0
    krein = sector.to_krein @ c
    for k, comp in enumerate(unpack(phi)[:-1]):
        want = math.sqrt(k + 1) * symmetrize_by_permutations(
            np.multiply.outer(comp, krein))
        assert_allclose(out[k + 1], want, rtol=0, atol=1e-13)


def test_representation_checks_pass_at_basis_10():
    """The Krein map has condition about 400 here; metric_consistency reads
    its reference values from the gram and pairing matrices, so no power of
    it reaches the residual (1.5e-15 against the 1e-8 threshold)."""
    report = run_representation_checks(sector_max=3, basis_size=10,
                                       particle_cap=4, seed=1, pairs=2)
    assert report["failures"] == [] and report["passes"]


def test_representation_checks_pass_at_particle_cap_6():
    report = run_representation_checks(sector_max=1, basis_size=6,
                                       particle_cap=6, seed=1, pairs=2)
    assert report["failures"] == [] and report["passes"]


@pytest.mark.parametrize("pairs", [0, -3])
def test_representation_checks_refuse_fewer_than_one_pair(pairs):
    """Without a pair no ccr, adjoint or symmetry residual is computed, so a
    report would read 0.0 for each and pass."""
    with pytest.raises(ValueError, match=f"pairs must be at least 1, got {pairs}$"):
        run_representation_checks(sector_max=0, basis_size=3, particle_cap=3,
                                  seed=1, pairs=pairs)


def test_zero_grid_node_fails_metric_involution(monkeypatch):
    """sign(0) * sign(0) = 0, so a node at 0 breaks the odd-order involution."""
    original = checks.frequency_grid

    def with_zero_node(fns):
        nodes, weights = original(fns)
        nodes = nodes.copy()
        nodes[len(nodes) // 2] = 0.0
        return nodes, weights

    monkeypatch.setattr(checks, "frequency_grid", with_zero_node)
    report = run_representation_checks(sector_max=1, basis_size=3,
                                       particle_cap=3, seed=0, pairs=1)
    assert "metric_involution" in report["failures"]


def test_creators_commute(small_sectors, stream):
    sector = small_sectors[2]
    cf = random_coefficients(stream, sector.size)
    ch = random_coefficients(stream, sector.size)
    phi = random_fock_vector(sector, stream, max_rank=1)
    ab = mn.create(cf, mn.create(ch, phi))
    ba = mn.create(ch, mn.create(cf, phi))
    for x, y in zip(unpack(ab), unpack(ba)):
        assert_allclose(x, y, atol=1e-12)


def test_two_particle_symmetrized_product(small_sectors, rng, stream):
    """c+(f) c+(h) vacuum reconstructs (f(t1)h(t2) + f(t2)h(t1)) / sqrt(2)."""
    sector = small_sectors[0]
    cf = random_coefficients(stream, sector.size)
    ch = random_coefficients(stream, sector.size)
    f = mn.linear_combination(cf, sector.basis)
    h = mn.linear_combination(ch, sector.basis)
    two = mn.create(cf, mn.create(ch, FockVector.vacuum(sector)))
    # the expected basis-coordinate tensor, mapped forward on both slots
    T = (np.multiply.outer(cf, ch) + np.multiply.outer(ch, cf)) / math.sqrt(2)
    K = sector.to_krein
    assert_allclose(unpack(two)[2], K @ T @ K.T, rtol=0, atol=1e-8)
    for t1, t2 in rng.uniform(-1.5, 1.5, size=(5, 2)):
        recon = sum(T[a, b] * sector.basis[a](t1) * sector.basis[b](t2)
                    for a in range(sector.size) for b in range(sector.size))
        expected = (f(t1) * h(t2) + f(t2) * h(t1)) / math.sqrt(2)
        assert abs(recon - expected) <= 1e-8 * (1 + abs(expected))


def test_annihilate_vacuum_is_zero(small_sectors):
    sector = small_sectors[1]
    out = mn.annihilate(np.ones(sector.size), FockVector.vacuum(sector))
    assert all(np.all(c == 0) for c in unpack(out))


def test_annihilate_create_vacuum_gives_kernel(small_sectors, stream):
    sector = small_sectors[1]
    cf = random_coefficients(stream, sector.size)
    ch = random_coefficients(stream, sector.size)
    f = mn.linear_combination(cf, sector.basis)
    h = mn.linear_combination(ch, sector.basis)
    out = mn.annihilate(cf, mn.create(ch, FockVector.vacuum(sector)))
    kernel = mn.indefinite_inner(sector.n, sector.gamma, [f], [h])[0, 0]
    assert abs(complex(unpack(out)[0]) - kernel) <= 1e-10 * (1 + abs(kernel))


def test_annihilator_through_two_creators(small_sectors, stream):
    """c-(f) c+(h) c+(g) vac = <f,h> c+(g) vac + <f,g> c+(h) vac."""
    sector = small_sectors[2]
    vac = FockVector.vacuum(sector)
    cf, ch, cg = (random_coefficients(stream, sector.size) for _ in range(3))
    lhs = mn.annihilate(cf,
                        mn.create(ch, mn.create(cg, vac)))
    pair = sector.pairing
    k_fh = complex(np.conj(cf) @ pair @ ch)
    k_fg = complex(np.conj(cf) @ pair @ cg)
    rhs_1 = k_fh * unpack(mn.create(cg, vac))[1] \
        + k_fg * unpack(mn.create(ch, vac))[1]
    assert_allclose(unpack(lhs)[1], rhs_1, atol=1e-12)


def test_fock_inner_vacuum(small_sectors):
    vac = FockVector.vacuum(small_sectors[0])
    assert mn.fock_inner(vac, vac) == 1.0


def test_fock_vector_refuses_wrong_component_shapes(small_sectors):
    """One packed component per particle number, all with the same batch axes."""
    sector = small_sectors[0]
    comps = FockVector.vacuum(sector).components
    for wrong in (comps[:-1], (np.ones((2, 1)), *comps[1:]),
                  (*comps[:-1], np.zeros(comps[-1].size + 1))):
        with pytest.raises(ValueError, match="one packed component per"):
            FockVector(sector, wrong)


def test_unknown_fault_injection_is_refused():
    with pytest.raises(ValueError, match="unknown fault injection mode 'swap'"):
        run_representation_checks(sector_max=1, basis_size=4, particle_cap=3,
                                  seed=0, pairs=1, fault_injection="swap")


def test_fock_inner_negative_square_norm_witness():
    witness = mn.gaussian(modulation=-5.0)
    partner = mn.gaussian(modulation=5.0)
    sector = mn.build_sector(1, 1.0, (witness, partner), particle_cap=2)
    one = mn.create((1.0, 0.0), FockVector.vacuum(sector))  # e_0 = witness
    assert_allclose(mn.fock_inner(one, one), -5.0, rtol=1e-6)


def test_pseudo_adjointness(small_sectors, stream):
    for sector in small_sectors.values():
        for _ in range(10):
            cf = random_coefficients(stream, sector.size)
            phi = random_fock_vector(sector, stream, max_rank=sector.particle_cap)
            psi = random_fock_vector(sector, stream, max_rank=sector.particle_cap - 1)
            left = mn.fock_inner(mn.annihilate(cf, phi), psi)
            right = mn.fock_inner(phi, mn.create(cf, psi))
            assert abs(left - right) <= 1e-10 * (1 + max(abs(left), abs(right)))


def test_ccr_on_random_vectors(small_sectors, stream):
    for sector in small_sectors.values():
        cf = random_coefficients(stream, sector.size)
        ch = random_coefficients(stream, sector.size)
        f = mn.linear_combination(cf, sector.basis)
        h = mn.linear_combination(ch, sector.basis)
        kernel = mn.indefinite_inner(sector.n, sector.gamma, [f], [h])[0, 0]
        phi = random_fock_vector(sector, stream, max_rank=sector.particle_cap - 1)
        ac = mn.annihilate(cf, mn.create(ch, phi))
        ca = mn.create(ch, mn.annihilate(cf, phi))
        comm = FockVector(sector, tuple(
            a - b - kernel * c
            for a, b, c in zip(ac.components, ca.components, phi.components)))
        assert comm.positive_norm() <= 1e-10 * (1 + phi.positive_norm())


def test_outputs_stay_symmetric(small_sectors, stream):
    sector = small_sectors[0]
    phi = random_fock_vector(sector, stream, max_rank=2)
    cf = random_coefficients(stream, sector.size)
    for vec in (mn.create(cf, phi), mn.annihilate(cf, phi)):
        assert all(max_symmetry_defect(c) <= 1e-12 for c in unpack(vec))


def test_metric_consistency_through_sector_matrix(small_sectors, stream):
    """Both Fock products of two-particle product vectors that are not
    powers: <c+(f1) c+(f2) vac, c+(h1) c+(h2) vac> = K11 K22 + K12 K21, with
    K_ij = conj(f_i) @ M @ h_j for M the pairing or the gram matrix."""
    for sector in small_sectors.values():
        f = random_coefficients(stream, sector.size, (2,))
        h = random_coefficients(stream, sector.size, (2,))
        vac = FockVector.vacuum(sector)
        phi = mn.create(f[0], mn.create(f[1], vac))
        psi = mn.create(h[0], mn.create(h[1], vac))
        for use_metric, M in ((True, sector.pairing), (False, sector.gram)):
            K = np.conj(f) @ M @ h.T
            expected = K[0, 0] * K[1, 1] + K[0, 1] * K[1, 0]
            got = mn.fock_inner(phi, psi, use_metric=use_metric)
            assert abs(got - expected) <= 1e-12 * (1 + abs(expected))


def test_capacity_is_enforced(small_sectors, stream):
    sector = small_sectors[0]
    cf = random_coefficients(stream, sector.size)
    full = random_fock_vector(sector, stream, max_rank=sector.particle_cap)
    with pytest.raises(CapacityExceeded):
        mn.create(cf, full)


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


def test_vacuum_expectation_of_no_sectors_and_factorization(small_sectors, stream):
    """No sector touched gives 1; a word over two sectors factorizes."""
    assert mn.vacuum_expectation([], [], [], {}) == 1.0
    c = [random_coefficients(stream, 4) for _ in range(4)]
    in_0 = [(-1, 0, c[0]), (+1, 0, c[1])]
    in_2 = [(-1, 2, c[2]), (-1, 2, c[3]), (+1, 2, c[0]), (+1, 2, c[1])]

    def expectation(letters):
        return mn.vacuum_expectation(*zip(*letters), small_sectors)

    expected = expectation(in_0) * expectation(in_2)
    assert expected != 0
    for word in (in_0 + in_2, in_2 + in_0, in_0[:1] + in_2 + in_0[1:]):
        assert_allclose(expectation(word), expected, rtol=1e-12)


def test_vacuum_expectation_of_empty_word_is_one(small_sectors):
    val = mn.vacuum_expectation([], [], [], small_sectors)
    assert type(val) is complex and val == 1.0


def test_vacuum_expectation_of_pair_is_kernel(small_sectors, stream):
    sector = small_sectors[1]
    cf = random_coefficients(stream, sector.size)
    ch = random_coefficients(stream, sector.size)
    f = mn.linear_combination(cf, sector.basis)
    h = mn.linear_combination(ch, sector.basis)
    val = mn.vacuum_expectation((-1, +1), (1, 1), (cf, ch), small_sectors)
    kernel = mn.indefinite_inner(1, sector.gamma, [f], [h])[0, 0]
    assert abs(val - kernel) <= 1e-10 * (1 + abs(kernel))


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_vacuum_expectation_refuses_signs_other_than_one(small_sectors, sign):
    with pytest.raises(ValueError, match="letter sign must be"):
        mn.vacuum_expectation((sign,), (0,), (np.ones(4),), small_sectors)


def test_vacuum_expectation_across_sectors_vanishes(small_sectors, stream):
    cf = random_coefficients(stream, 4)
    ch = random_coefficients(stream, 4)
    assert mn.vacuum_expectation((-1, +1), (1, 2), (cf, ch),
                                 small_sectors) == 0


def test_second_routes_are_built_once_per_sector(monkeypatch):
    """ccr and metric take their kernels and samples as basis matrices once
    per sector, and build no test function per random pair."""
    counts = {"indefinite_inner_frequency": 0, "linear_combination": 0}

    def counted(name):
        original = getattr(checks, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(checks, name, counted(name))
    report = run_representation_checks(sector_max=1, basis_size=4,
                                       particle_cap=3, seed=0, pairs=3)
    assert report["passes"]
    assert counts["indefinite_inner_frequency"] == 2
    counts["linear_combination"] = 0
    sectors = checks.build_check_sectors(1, 4, 3)
    checks.ccr_suite(sectors, 0, 3)
    checks.metric_suite(sectors, 0)
    assert counts["linear_combination"] == 0


@pytest.fixture(scope="module")
def acceptance_sectors():
    """Sectors of the acceptance-size rep-check: basis 6, cap 4, orders 0..3."""
    return checks.build_check_sectors(sector_max=3, basis_size=6, particle_cap=4)


def test_krein_coordinates_reproduce_gram_and_pairing(acceptance_sectors):
    for sector in acceptance_sectors.values():
        K = sector.to_krein
        for target, rebuilt in (
                (sector.gram, K.conj().T @ K),
                (sector.pairing, K.conj().T @ (sector.krein_metric[:, None] * K))):
            err = np.linalg.norm(rebuilt - target) / np.linalg.norm(target)
            assert err <= 1e-12, (sector.n, err)


@pytest.mark.parametrize("n, basis_size", [(n, 15) for n in range(6)]
                         + [(6, 14)])
def test_krein_map_reconstructs_both_matrices_at_the_basis_bound(n, basis_size):
    """A triangular inverse of the gram's Cholesky factor missed the pairing
    by 1.2e-10 relative here; diagonal scaling of the gram's eigenvectors
    keeps both matrices at rounding level."""
    sector = mn.build_sector(n, 1.0, default_basis(basis_size), particle_cap=3)
    K = sector.to_krein
    for target, rebuilt in (
            (sector.gram, K.conj().T @ K),
            (sector.pairing, K.conj().T @ (sector.krein_metric[:, None] * K))):
        err = np.max(np.abs(rebuilt - target))
        assert err <= 1e-13 * np.max(np.abs(target)), err


@pytest.mark.parametrize("gram, message", [
    (np.diag([1.0, -1e-3]), "gram has a non-positive eigenvalue -0.001$"),
    (np.diag([1.0, 0.0]), "gram has a non-positive eigenvalue 0$"),
    (np.diag([1.0, 1e-11]), r"gram condition number 1e\+11 exceeds 1e\+10$")],
    ids=["negative-eigenvalue", "zero-eigenvalue", "condition-1e11"])
def test_from_matrices_refuses_an_ill_conditioned_gram(gram, message):
    """A non-positive eigenvalue is named as such, not as a condition number
    of 1e+300 from a clamped denominator."""
    basis = default_basis(2)
    with pytest.raises(IllConditionedBasis, match=message):
        mn.Sector.from_matrices(0, 1.0, basis, gram, np.eye(2), particle_cap=2)


def test_from_matrices_refuses_particle_cap_0():
    with pytest.raises(ValueError, match="particle_cap"):
        mn.Sector.from_matrices(0, 1.0, default_basis(2), np.eye(2),
                                np.eye(2), particle_cap=0)


def test_representation_checks_pass_at_the_basis_bound():
    """ccr read 7.4e-10 here while the Krein map came from a triangular
    inverse."""
    report = run_representation_checks(sector_max=5, basis_size=15,
                                       particle_cap=3, seed=1, pairs=2)
    assert report["passes"] and report["residuals"]["ccr"] <= 1e-12


def test_krein_metric_signs(acceptance_sectors):
    """Even orders carry gamma times the positive form; order 1 is indefinite."""
    for n, sector in acceptance_sectors.items():
        lam = sector.krein_metric
        if n % 2 == 0:
            assert_allclose(lam, sector.gamma, rtol=1e-12)
    lam = acceptance_sectors[1].krein_metric
    assert lam.min() < 0 < lam.max()


def test_flipped_krein_sign_fails_metric_consistency(acceptance_sectors):
    """metric_consistency takes its reference values from the pairing and
    gram matrices, so it sees a sign error in the Krein weights that the
    Krein-side products share."""
    sector = acceptance_sectors[1]
    lam = sector.krein_metric.copy()
    lam[0] = -lam[0]
    flipped = dataclasses.replace(sector, krein_metric=lam)
    assert checks.metric_suite({1: sector}, 1)["metric_consistency"] \
        <= checks.THRESHOLDS["metric_consistency"]
    assert checks.metric_suite({1: flipped}, 1)["metric_consistency"] \
        > checks.THRESHOLDS["metric_consistency"]


def test_ccr_suite_builds_no_dense_tensors():
    """At basis 3, cap 13 a dense rank-13 tensor holds 1.6 million entries;
    the symmetry residual's closed form on product vectors stays packed
    (160.5 MB traced peak when each pair was unpacked and created densely)."""
    fock.index_tables.cache_clear()
    tracemalloc.start()
    try:
        sectors = checks.build_check_sectors(0, 3, 13)
        checks.ccr_suite(sectors, 1, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_metric_suite_builds_no_dense_tensors():
    """At basis 10, cap 6 a dense rank-6 tensor holds 10**6 entries; the
    metric suite's created powers stay packed (70.8 MB traced peak when it
    contracted dense draws slot by slot)."""
    sectors = checks.build_check_sectors(0, 10, 6)
    tracemalloc.start()
    try:
        checks.metric_suite(sectors, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6
