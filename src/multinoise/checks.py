"""Randomized representation checks shared by the CLI and the test suite.

Four suites, each reporting the worst residual it saw:

* ccr          -- [c^-(f), c^+(h)] acts as the kernel value computed on the
                  frequency side, gamma (-1)^n int x^n conj(f_F) h_F, a
                  route independent of the derivative route that fills the
                  sector pairing matrix; creator/creator and
                  annihilator/annihilator commutators vanish.
* adjoint      -- <c^-(f) Phi, Psi> = <Phi, c^+(f) Psi> under the metric
                  inner product.
* metric       -- grid involution is exact, the eta-weighted positive form
                  agrees with the commutator kernel, the slotwise sector
                  metric reconciles the two Fock inner products, and the
                  modulated Gaussian witness has squared norm -5.
* fock_wick    -- vacuum correlations of noise words agree between the pair
                  partition sum (exact kernels on the smears) and the
                  explicit Fock representation.

Randomness comes from a caller-seeded numpy PCG64 generator, so reports are
reproducible bit for bit.  Commutator residuals are norms relative to
(1 + |state|); scalar identities are relative to (1 + |value|).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

import numpy as np

from .atoms import TestFunction, gaussian, hermite_fn, linear_combination
from .fock import (FockVector, Sector, annihilate, apply_sector_metric,
                   build_sector, create, fock_inner, max_symmetry_defect,
                   symmetrize, vacuum_expectation)
from .forms import (frequency_grid, grid_weighted_inner, indefinite_inner,
                    indefinite_inner_frequency, metric_apply, to_grid)
from .wick import Letter, correlation

__all__ = [
    "default_basis",
    "build_check_sectors",
    "random_fock_vector",
    "run_representation_checks",
    "THRESHOLDS",
]

THRESHOLDS = {
    "ccr": 1e-10,
    "ccr_creators": 1e-10,
    "ccr_annihilators": 1e-10,
    "adjoint": 1e-10,
    "symmetry": 1e-12,
    "metric_involution": 0.0,
    "metric_two_route": 1e-8,
    "metric_witness": 1e-6,
    "metric_consistency": 1e-8,
    "fock_wick": 1e-8,
}

WITNESS_MODULATION = -5.0
WITNESS_VALUE = -5.0
METRIC_PAIRS = 10  # random (f, h) pairs per sector in the metric suite
FOCK_WICK_MAX_ORDER = 2  # highest sector order the Fock-Wick words use
FOCK_WICK_WORDS_PER_PATTERN = 2  # random words per sign pattern


def default_basis(size: int) -> tuple[TestFunction, ...]:
    """Deterministic well-conditioned basis mixing Hermite and modulated atoms.

    The modulated entries keep the pairing matrix genuinely complex, which is
    what makes transposition-style faults detectable.
    """
    pool = [
        hermite_fn(0),
        gaussian(modulation=2.0),
        gaussian(modulation=-2.0),
        hermite_fn(1),
        hermite_fn(1, modulation=2.0),
        hermite_fn(2),
    ]
    k = 3
    while len(pool) < size:
        pool.append(hermite_fn(k))
        k += 1
    return tuple(pool[:size])


def build_check_sectors(sector_max: int, basis_size: int,
                        particle_cap: int) -> dict[int, Sector]:
    """Sectors of orders 0..sector_max, coupling 1, on the default basis."""
    basis = default_basis(basis_size)
    return {n: build_sector(n, 1.0, basis, particle_cap)
            for n in range(sector_max + 1)}


def random_coefficients(rng: np.random.Generator, size: int) -> np.ndarray:
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return c / np.linalg.norm(c)


def random_fock_vector(sector: Sector, rng: np.random.Generator,
                       max_rank: int) -> FockVector:
    m = sector.size
    comps = []
    for k in range(sector.particle_cap + 1):
        if k <= max_rank:
            raw = (rng.standard_normal((m,) * k)
                   + 1j * rng.standard_normal((m,) * k))
            comps.append(symmetrize(np.asarray(raw, dtype=complex)))
        else:
            comps.append(np.zeros((m,) * k, dtype=complex))
    phi = FockVector(sector, tuple(comps))
    norm = phi.positive_norm()
    if norm > 0:
        phi = FockVector(sector, tuple(c / norm for c in phi.components))
    return phi


def _diff_norm(a: FockVector, b: FockVector) -> float:
    diff = FockVector(a.sector, tuple(x - y for x, y in
                                      zip(a.components, b.components)))
    return diff.positive_norm()


def ccr_suite(sectors: Mapping[int, Sector], rng: np.random.Generator,
              pairs: int = 50) -> dict[str, float]:
    worst = {"ccr": 0.0, "ccr_creators": 0.0, "ccr_annihilators": 0.0,
             "symmetry": 0.0}
    for sector in sectors.values():
        cap = sector.particle_cap
        for _ in range(pairs):
            cf = random_coefficients(rng, sector.size)
            ch = random_coefficients(rng, sector.size)
            f = linear_combination(cf, sector.basis)
            h = linear_combination(ch, sector.basis)
            kernel = indefinite_inner_frequency(sector.n, sector.gamma, f, h)

            phi = random_fock_vector(sector, rng, max_rank=cap - 1)
            ac = annihilate(sector, cf, create(sector, ch, phi))
            ca = create(sector, ch, annihilate(sector, cf, phi))
            comm = FockVector(sector, tuple(
                x - y - kernel * z for x, y, z in
                zip(ac.components, ca.components, phi.components)))
            worst["ccr"] = max(worst["ccr"], comm.positive_norm()
                               / (1.0 + phi.positive_norm()))
            worst["symmetry"] = max(
                worst["symmetry"],
                max(max_symmetry_defect(c) for c in ac.components))

            psi = random_fock_vector(sector, rng, max_rank=cap - 2)
            cc = _diff_norm(create(sector, cf, create(sector, ch, psi)),
                            create(sector, ch, create(sector, cf, psi)))
            worst["ccr_creators"] = max(
                worst["ccr_creators"], cc / (1.0 + psi.positive_norm()))
            aa = _diff_norm(annihilate(sector, cf, annihilate(sector, ch, phi)),
                            annihilate(sector, ch, annihilate(sector, cf, phi)))
            worst["ccr_annihilators"] = max(
                worst["ccr_annihilators"], aa / (1.0 + phi.positive_norm()))
    return worst


def adjoint_suite(sectors: Mapping[int, Sector], rng: np.random.Generator,
                  pairs: int = 50) -> dict[str, float]:
    worst = 0.0
    for sector in sectors.values():
        for _ in range(pairs):
            cf = random_coefficients(rng, sector.size)
            phi = random_fock_vector(sector, rng, sector.particle_cap)
            psi = random_fock_vector(sector, rng, sector.particle_cap - 1)
            left = fock_inner(annihilate(sector, cf, phi), psi)
            right = fock_inner(phi, create(sector, cf, psi))
            worst = max(worst, abs(left - right) / (1.0 + max(abs(left),
                                                              abs(right))))
    return {"adjoint": worst}


def metric_suite(sectors: Mapping[int, Sector],
                 rng: np.random.Generator) -> dict[str, float]:
    report = {"metric_involution": 0.0, "metric_two_route": 0.0,
              "metric_witness": 0.0, "metric_consistency": 0.0}
    for sector in sectors.values():
        grid = frequency_grid(sector.basis)
        for _ in range(METRIC_PAIRS):
            cf = random_coefficients(rng, sector.size)
            ch = random_coefficients(rng, sector.size)
            f = linear_combination(cf, sector.basis)
            h = linear_combination(ch, sector.basis)

            uh = to_grid(h, grid)
            twice = metric_apply(sector.n, metric_apply(sector.n, uh))
            report["metric_involution"] = max(
                report["metric_involution"],
                float(np.max(np.abs(twice.values - uh.values), initial=0.0)))

            grid_val = grid_weighted_inner(sector.n, to_grid(f, grid),
                                           metric_apply(sector.n, uh))
            kernel = indefinite_inner(sector.n, 1.0, f, h)
            report["metric_two_route"] = max(
                report["metric_two_route"],
                abs(grid_val - kernel) / (1.0 + abs(kernel)))

            phi = random_fock_vector(sector, rng, sector.particle_cap)
            psi = random_fock_vector(sector, rng, sector.particle_cap)
            direct = fock_inner(phi, psi, use_metric=True)
            lifted = fock_inner(phi, apply_sector_metric(psi), use_metric=False)
            report["metric_consistency"] = max(
                report["metric_consistency"],
                abs(direct - lifted) / (1.0 + abs(direct)))

    witness = gaussian(modulation=WITNESS_MODULATION)
    partner = gaussian(modulation=-WITNESS_MODULATION)
    kernel_route = indefinite_inner(1, 1.0, witness, witness)
    wit_sector = build_sector(1, 1.0, (witness, partner), particle_cap=2)
    fock_route = fock_inner(create(wit_sector, witness,
                                   FockVector.vacuum(wit_sector)),
                            create(wit_sector, witness,
                                   FockVector.vacuum(wit_sector)))
    report["metric_witness"] = max(abs(kernel_route - WITNESS_VALUE),
                                   abs(fock_route - WITNESS_VALUE))
    return report


_WORD_PATTERNS = (
    (-1, +1),
    (-1, -1, +1, +1),
    (-1, +1, -1, +1),
    (-1, -1, -1, +1, +1, +1),
    (-1, +1, -1, +1, -1, +1),
    (-1, -1, +1, -1, +1, +1),
)


def fock_wick_suite(sectors: Mapping[int, Sector],
                    rng: np.random.Generator) -> dict[str, float]:
    orders_avail = [n for n in sorted(sectors) if n <= FOCK_WICK_MAX_ORDER]
    gammas = {n: sectors[n].gamma for n in orders_avail}
    worst = 0.0
    for signs in _WORD_PATTERNS:
        for rep in range(FOCK_WICK_WORDS_PER_PATTERN):
            if rep == 0:
                # all letters in one sector: nonzero matchings guaranteed
                orders = [orders_avail[int(rng.integers(len(orders_avail)))]] * len(signs)
            else:
                orders = [orders_avail[int(rng.integers(len(orders_avail)))]
                          for _ in signs]
            coeff_vectors = [random_coefficients(rng, sectors[n].size)
                             for n in orders]
            smears = [linear_combination(c, sectors[n].basis)
                      for c, n in zip(coeff_vectors, orders)]
            word = [Letter(s, f, n) for s, f, n in zip(signs, smears, orders)]
            wick_val = correlation(word, gammas)
            fock_val = vacuum_expectation(
                list(zip(signs, orders, coeff_vectors)), sectors)
            worst = max(worst, abs(wick_val - fock_val) / (1.0 + abs(wick_val)))
    return {"fock_wick": worst}


def run_representation_checks(*, sector_max: int = 3, basis_size: int = 6,
                              particle_cap: int = 4, seed: int = 0,
                              pairs: int = 50,
                              fault_injection: str | None = None) -> dict:
    """Run all suites and report residuals against the fixed thresholds."""
    rng = np.random.default_rng(seed)
    sectors = build_check_sectors(sector_max, basis_size, particle_cap)
    if fault_injection == "transpose_pairing":
        sectors = {n: replace(s, pairing=s.pairing.T.copy())
                   for n, s in sectors.items()}
    elif fault_injection is not None:
        raise ValueError(f"unknown fault injection mode {fault_injection!r}")

    residuals: dict[str, float] = {}
    residuals.update(ccr_suite(sectors, rng, pairs))
    residuals.update(adjoint_suite(sectors, rng, pairs))
    residuals.update(metric_suite(sectors, rng))
    residuals.update(fock_wick_suite(sectors, rng))
    failures = sorted(name for name, value in residuals.items()
                      if value > THRESHOLDS[name])
    return {
        "seed": seed,
        "sector_max": sector_max,
        "basis_size": basis_size,
        "particle_cap": particle_cap,
        "pairs": pairs,
        "prng": "numpy PCG64",
        "residuals": residuals,
        "thresholds": dict(THRESHOLDS),
        "failures": failures,
        "passes": not failures,
    }
