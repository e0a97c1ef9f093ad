"""Randomized representation checks shared by the CLI and the test suite.

Four suites on basis coefficient vectors, each reporting the worst residual
it saw; a second route is a basis matrix M taken once per sector, so a random
pair (f, h) with coefficients (cf, ch) has the kernel conj(cf) @ M @ ch.

* ccr          -- [c^-(f), c^+(h)] acts as the kernel value computed on the
                  frequency side, gamma (-1)^n int x^n conj(f_F) h_F, a
                  route independent of the derivative route that fills the
                  sector pairing matrix; creator/creator and
                  annihilator/annihilator commutators vanish; and c^+(h) on
                  the powers f^(x)k, k < cap, equals its closed form
                  sqrt(k+1) Sym(f^(x)k (x) h) entry by entry (``symmetry``;
                  f, h scaled to unit gram norm; powers span each rank).
* adjoint      -- <c^-(f) Phi, Psi> = <Phi, c^+(f) Psi> under the metric
                  inner product.
* metric       -- grid involution is exact, the eta-weighted positive form
                  agrees with the commutator kernel, for each rank r up to
                  the cap both Fock inner products of c^+(f)^r vac and
                  c^+(h)^r vac are r! <f, h>^r, with <f, h> read from the
                  sector's pairing or gram matrix (f, h scaled to unit gram
                  norm; powers span each symmetric rank), and the modulated
                  Gaussian witness has squared norm -5.
* fock_wick    -- vacuum correlations of noise words agree between the pair
                  partition sum (exact kernels on the smears) and the
                  explicit Fock representation.

Randomness comes from counter-based SplitMix64 streams (``Stream``), one
per (seed, suite, sector, quantity), so reports are reproducible bit for bit
per (configuration, seed).  A stream's draws are counted pair-major: pair i
of a quantity reads the same words whether it is drawn alone or in a batch,
so the residuals do not depend on how the pairs are split into batches.
Fock vectors are drawn straight into packed storage, C(m+k-1, k) complex
normals per rank k, and scaled to unit positive norm; no suite builds a
dense tensor.  ccr, adjoint and metric draw each quantity of a batch of
pairs as one array and run the packed operators once over it: metric its
METRIC_PAIRS pairs per sector, ccr and adjoint batches split so that none of
their arrays holds more than MAX_FOCK_ENTRIES entries.  Commutator residuals
are norms relative to (1 + |state|); scalar identities are relative to
(1 + |value|).
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

import numpy as np

from .atoms import TestFunction, gaussian, hermite_fn, linear_combination
from .config import MAX_FOCK_ENTRIES
from .fock import (FockVector, Sector, annihilate, build_sector, create,
                   fock_inner, project_coefficients, vacuum_expectation)
from .forms import (frequency_grid, grid_weighted_inner, indefinite_inner,
                    indefinite_inner_frequency, metric_sign)
from .wick import correlation

__all__ = [
    "Stream",
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
FOCK_WICK_WORDS_PER_PATTERN = 2  # random words per sign pattern


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio increment
# and the two multipliers of its output mix
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_LIMB = 2 ** 64


def _splitmix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of a uint64 array.  Array arithmetic wraps
    modulo 2**64 silently; a numpy scalar's would raise under errstate."""
    z = (z ^ (z >> np.uint64(30))) * _MIX[0]
    z = (z ^ (z >> np.uint64(27))) * _MIX[1]
    return z ^ (z >> np.uint64(31))


class Stream:
    """Counter-based SplitMix64 draws: word i of the stream keyed by labels
    is the mix of key + (i + 1) * golden, and each call reads the next words,
    so a quantity drawn in batches reads the words it would read at once.

    The key folds every label in order, each as its count of 64-bit limbs
    and then the limbs, so a nonnegative integer of any size is a label; a
    string stands for the integer of its UTF-8 bytes.
    """

    def __init__(self, *labels: int | str):
        key = np.zeros(1, dtype=np.uint64)
        for label in labels:
            if isinstance(label, str):
                label = int.from_bytes(label.encode(), "big")
            if label < 0:
                raise ValueError(f"stream labels must be nonnegative, got {label}")
            limbs = [label % _LIMB]
            while label >= _LIMB:
                label //= _LIMB
                limbs.append(label % _LIMB)
            for word in (len(limbs), *limbs):
                key = _splitmix(key + _GOLDEN + np.uint64(word))
        self.key, self.drawn = key, 0

    def words(self, count: int) -> np.ndarray:
        """The next count words of the stream, as uint64."""
        counter = np.arange(self.drawn + 1, self.drawn + count + 1,
                            dtype=np.uint64)
        self.drawn += count
        return _splitmix(self.key + counter * _GOLDEN)

    def complex_normals(self, shape: tuple[int, ...]) -> np.ndarray:
        """Complex numbers with independent standard normal real and
        imaginary parts, in C order of shape: Box-Muller on two words each,
        read as uniforms in (0, 1] on their top 53 bits."""
        count = math.prod(shape)
        u = ((self.words(2 * count) >> np.uint64(11)) + np.uint64(1)).astype(
            float).reshape(count, 2) * 2.0 ** -53
        radius = np.sqrt(-2.0 * np.log(u[:, 0]))
        return (radius * np.exp(2j * np.pi * u[:, 1])).reshape(shape)

    def index(self, n: int) -> int:
        """An index in 0..n-1 from the next word (bias below n / 2**64)."""
        return int(self.words(1)[0]) % n


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


def random_coefficients(stream: Stream, size: int,
                        batch: tuple[int, ...] = ()) -> np.ndarray:
    """Unit complex normal coefficient vectors of the given size, after the
    batch axes, one vector's entries after another."""
    c = stream.complex_normals((*batch, size))
    return c / np.linalg.norm(c, axis=-1, keepdims=True)


def random_fock_vector(sector: Sector, stream: Stream, max_rank: int,
                       batch: tuple[int, ...] = ()) -> FockVector:
    """Vectors of positive norm 1 per batch entry with ranks 0..max_rank
    occupied by complex normals straight into the packed entries, one
    vector's ranks 0..max_rank after another; higher ranks are zero."""
    sizes = [len(rows) for rows in sector.tables.multi]
    drawn = stream.complex_normals((*batch, sum(sizes[:max_rank + 1])))
    comps = np.split(drawn, np.cumsum(sizes[:max_rank]), axis=-1)
    comps += [np.zeros((*batch, n), dtype=complex) for n in sizes[max_rank + 1:]]
    norm = FockVector(sector, tuple(comps)).positive_norm()
    norm = np.where(norm > 0, norm, 1.0)  # a zero vector stays zero
    return FockVector(sector, tuple(c / norm[..., None] for c in comps))


def _batch_sizes(sector: Sector, pairs: int) -> Iterator[int]:
    """Pairs per batch, yielded lazily.  A packed vector holds C(m + cap, cap)
    entries and an index gather of the operators fewer than m times that, so
    no array of a batch holds more entries than MAX_FOCK_ENTRIES."""
    per_pair = sector.size * sum(len(rows) for rows in sector.tables.multi)
    step = max(1, MAX_FOCK_ENTRIES // per_pair)
    for start in range(0, pairs, step):
        yield min(step, pairs - start)


def _worst(*values) -> float:
    """Largest residual; NaN if any is NaN, which the builtin max can drop."""
    return float(np.max(np.hstack(values)))


def _form(matrix: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conj(a) @ matrix @ b per batch entry of the coefficient arrays."""
    return np.einsum("bi,ij,bj->b", np.conj(a), matrix, b)


def _unit(sector: Sector, c: np.ndarray) -> np.ndarray:
    """Coefficient arrays scaled to unit gram norm per batch entry."""
    return c / np.sqrt(_form(sector.gram, c, c).real)[:, None]


def _diff_norm(a: FockVector, b: FockVector, kernel=None, c=None) -> np.ndarray:
    """Positive norm of a - b, or of a - b - kernel c, per batch entry."""
    diff = [x - y for x, y in zip(a.components, b.components)]
    if c is not None:
        diff = [d - kernel[..., None] * z for d, z in zip(diff, c.components)]
    return FockVector(a.sector, tuple(diff)).positive_norm()


def _slot_product(fk: np.ndarray, rows: np.ndarray,
                  skip: int | None = None) -> np.ndarray:
    """prod_q fk[:, rows[:, q]] over the slots q != skip, one multiply at a
    time: a prod reduction may round a row by the rows beside it."""
    out = np.ones((len(fk), len(rows)), dtype=complex)
    for q in range(rows.shape[1]):
        if q != skip:
            out = out * fk[:, rows[:, q]]
    return out


def _product_residual(sector: Sector, cf: np.ndarray,
                      ch: np.ndarray) -> np.ndarray:
    """Worst entry difference per rank k+1 = 1..cap between c^+(h) on the
    powers f^(x)k and sum_p h'[alpha_p] prod_{q != p} f'[alpha_q] / sqrt(k+1),
    with f, h the coefficients scaled to unit gram norm and f', h' their
    Krein coordinates; the reference reads the multi-indices only, never the
    removal or addition tables or an operator."""
    multi, cap = sector.tables.multi, sector.particle_cap
    f, h = _unit(sector, cf), _unit(sector, ch)
    # einsum, not @: BLAS may round a row by the rows beside it
    fk, hk = np.einsum("kbj,ij->kbi", np.array([f, h]), sector.to_krein)
    powers = [_slot_product(fk, rows) for rows in multi[:cap]]
    powers.append(np.zeros((len(f), len(multi[cap])), dtype=complex))
    created = create(h, FockVector(sector, tuple(powers))).components
    worst = []
    for k, rows in enumerate(multi[1:], 1):
        want = sum(hk[:, rows[:, p]] * _slot_product(fk, rows, p)
                   for p in range(k)) / math.sqrt(k)
        worst.append(np.max(np.abs(created[k] - want)))
    return np.array(worst)


def ccr_suite(sectors: Mapping[int, Sector], seed: int,
              pairs: int) -> dict[str, float]:
    worst = {"ccr": 0.0, "ccr_creators": 0.0, "ccr_annihilators": 0.0,
             "symmetry": 0.0}
    for sector in sectors.values():
        m, cap = sector.size, sector.particle_cap
        frequency_kernel = indefinite_inner_frequency(
            sector.n, sector.gamma, sector.basis, sector.basis)
        draw_f, draw_h, draw_phi, draw_psi = (
            Stream(seed, "ccr", sector.n, name) for name in ("f", "h", "phi", "psi"))
        for count in _batch_sizes(sector, pairs):
            cf = random_coefficients(draw_f, m, (count,))
            ch = random_coefficients(draw_h, m, (count,))
            phi = random_fock_vector(sector, draw_phi, cap - 1, (count,))
            psi = random_fock_vector(sector, draw_psi, cap - 2, (count,))
            kernel = _form(frequency_kernel, cf, ch)
            created = create(ch, phi)
            worst["symmetry"] = _worst(worst["symmetry"],
                                       _product_residual(sector, cf, ch))
            comm = _diff_norm(annihilate(cf, created),
                              create(ch, annihilate(cf, phi)), kernel, phi)
            worst["ccr"] = _worst(worst["ccr"],
                                  comm / (1.0 + phi.positive_norm()))
            cc = _diff_norm(create(cf, create(ch, psi)),
                            create(ch, create(cf, psi)))
            worst["ccr_creators"] = _worst(
                worst["ccr_creators"], cc / (1.0 + psi.positive_norm()))
            aa = _diff_norm(annihilate(cf, annihilate(ch, phi)),
                            annihilate(ch, annihilate(cf, phi)))
            worst["ccr_annihilators"] = _worst(
                worst["ccr_annihilators"], aa / (1.0 + phi.positive_norm()))
    return worst


def adjoint_suite(sectors: Mapping[int, Sector], seed: int,
                  pairs: int) -> dict[str, float]:
    worst = 0.0
    for sector in sectors.values():
        m, cap = sector.size, sector.particle_cap
        draw_f, draw_phi, draw_psi = (
            Stream(seed, "adjoint", sector.n, name) for name in ("f", "phi", "psi"))
        for count in _batch_sizes(sector, pairs):
            cf = random_coefficients(draw_f, m, (count,))
            phi = random_fock_vector(sector, draw_phi, cap, (count,))
            psi = random_fock_vector(sector, draw_psi, cap - 1, (count,))
            left = fock_inner(annihilate(cf, phi), psi)
            right = fock_inner(phi, create(cf, psi))
            worst = _worst(worst, np.abs(left - right)
                           / (1.0 + np.maximum(np.abs(left), np.abs(right))))
    return {"adjoint": worst}


def metric_suite(sectors: Mapping[int, Sector], seed: int) -> dict[str, float]:
    report = {"metric_involution": 0.0, "metric_two_route": 0.0,
              "metric_witness": 0.0, "metric_consistency": 0.0}
    for sector in sectors.values():
        nodes, weights = frequency_grid(sector.basis)
        eta = metric_sign(sector.n, nodes)
        samples = np.array([b.fourier()(nodes) for b in sector.basis])
        # recomputed, not sector.pairing, so a fault there cannot leak in
        pairing = indefinite_inner(sector.n, 1.0, sector.basis, sector.basis)
        cf, ch = (random_coefficients(Stream(seed, "metric", sector.n, name),
                                      sector.size, (METRIC_PAIRS,))
                  for name in ("f", "h"))
        # einsum, not @, which hands this small product to threaded BLAS
        uf, uh = np.einsum("kbi,ij->kbj", np.array([cf, ch]), samples)
        report["metric_involution"] = _worst(
            report["metric_involution"],
            float(np.max(np.abs(uh * eta * eta - uh), initial=0.0)))
        grid_val = grid_weighted_inner(sector.n, nodes, weights, uf, uh * eta)
        kernel = _form(pairing, cf, ch)
        report["metric_two_route"] = _worst(
            report["metric_two_route"],
            np.abs(grid_val - kernel) / (1.0 + np.abs(kernel)))

        # <c+(f)^r vac, c+(h)^r vac> = r! <f, h>^r; powers span each
        # symmetric rank, so a form that agrees on random ones agrees on all
        f, h = _unit(sector, cf), _unit(sector, ch)
        phi = psi = FockVector.vacuum(sector)
        for r in range(1, sector.particle_cap + 1):
            phi, psi = create(f, phi), create(h, psi)
            for use_metric, matrix in ((True, sector.pairing),
                                       (False, sector.gram)):
                z = _form(matrix, f, h) ** r
                value = fock_inner(phi, psi, use_metric) / math.factorial(r)
                report["metric_consistency"] = _worst(
                    report["metric_consistency"],
                    np.abs(value - z) / (1.0 + np.abs(z)))

    witness = gaussian(modulation=WITNESS_MODULATION)
    partner = gaussian(modulation=-WITNESS_MODULATION)
    kernel_route = indefinite_inner(1, 1.0, (witness,), (witness,))[0, 0]
    wit_sector = build_sector(1, 1.0, (witness, partner), particle_cap=2)
    one = create(project_coefficients(wit_sector, witness),
                 FockVector.vacuum(wit_sector))
    report["metric_witness"] = _worst(abs(kernel_route - WITNESS_VALUE),
                                      abs(fock_inner(one, one) - WITNESS_VALUE))
    return report


_WORD_PATTERNS = (
    (-1, +1),
    (-1, -1, +1, +1),
    (-1, +1, -1, +1),
    (-1, -1, -1, +1, +1, +1),
    (-1, +1, -1, +1, -1, +1),
    (-1, -1, +1, -1, +1, +1),
)


def fock_wick_suite(sectors: Mapping[int, Sector], seed: int) -> dict[str, float]:
    orders_avail = sorted(sectors)
    gammas = {n: sectors[n].gamma for n in orders_avail}
    stream = Stream(seed, "fock_wick")
    worst = 0.0
    for signs in _WORD_PATTERNS:
        for rep in range(FOCK_WICK_WORDS_PER_PATTERN):
            if rep == 0:
                # all letters in one sector: nonzero matchings guaranteed
                orders = [orders_avail[stream.index(len(orders_avail))]] * len(signs)
            else:
                orders = [orders_avail[stream.index(len(orders_avail))]
                          for _ in signs]
            coeff_vectors = [random_coefficients(stream, sectors[n].size)
                             for n in orders]
            smears = [linear_combination(c, sectors[n].basis)
                      for c, n in zip(coeff_vectors, orders)]
            wick_val = correlation(signs, orders, smears, gammas)
            fock_val = vacuum_expectation(signs, orders, coeff_vectors, sectors)
            worst = _worst(worst, abs(wick_val - fock_val) / (1.0 + abs(wick_val)))
    return {"fock_wick": worst}


def run_representation_checks(*, sector_max: int, basis_size: int,
                              particle_cap: int, seed: int, pairs: int,
                              fault_injection: str | None = None) -> dict:
    """Run all suites and report residuals against the fixed thresholds;
    ValueError for fewer than one pair, which would check nothing, or for a
    negative seed."""
    if pairs < 1:
        raise ValueError(f"pairs must be at least 1, got {pairs}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    sectors = build_check_sectors(sector_max, basis_size, particle_cap)
    if fault_injection == "transpose_pairing":
        sectors = {n: Sector.from_matrices(s.n, s.gamma, s.basis, s.gram,
                                           s.pairing.T.copy(), s.particle_cap)
                   for n, s in sectors.items()}
    elif fault_injection is not None:
        raise ValueError(f"unknown fault injection mode {fault_injection!r}")

    residuals: dict[str, float] = {}
    residuals.update(ccr_suite(sectors, seed, pairs))
    residuals.update(adjoint_suite(sectors, seed, pairs))
    residuals.update(metric_suite(sectors, seed))
    residuals.update(fock_wick_suite(sectors, seed))
    failures = sorted(name for name, value in residuals.items()
                      if not value <= THRESHOLDS[name])
    return {
        "seed": seed,
        "sector_max": sector_max,
        "basis_size": basis_size,
        "particle_cap": particle_cap,
        "pairs": pairs,
        "prng": "SplitMix64 counter streams, Box-Muller",
        "residuals": residuals,
        "thresholds": dict(THRESHOLDS),
        "failures": failures,
        "passes": not failures,
    }
