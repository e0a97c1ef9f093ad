"""Truncated symmetric Fock sectors with indefinite metric, stored packed.

A sector holds one multipole order n, its coupling gamma, a finite basis of
test functions, the positive Gram matrix of the order-n weighted form and the
indefinite pairing matrix of the commutator kernel.  Its Krein coordinates
c' = to_krein c turn the gram into the identity and the pairing into
diag(lam), lam real and of both signs for odd n: the fundamental
decomposition H+ (+) H- of the pseudo-Hilbert space.

A vector holds, per particle number k up to the cap, a symmetric tensor in
Krein coordinates stored once per sorted multi-index alpha, C(m+k-1, k)
entries for m basis functions instead of m**k, after any leading batch axes;
the operators broadcast those against the batch axes of the coefficients c,
so one call serves one vector or a stack; no array holds a dense m**k
tensor.  Index tables, built with numpy per (basis size, cap) with the first
sector of that size, give

* create: rank k+1 at alpha is sum_p phi_k[alpha without slot p] c'[alpha_p]
  / sqrt(k+1), which is sqrt(k+1) Sym(phi_k (x) c'), summed slot by slot;
* annihilate: rank k-1 at beta is sqrt(k) sum_j phi_k[beta + j] conj(c'_j) lam_j;
  both map an all-zero rank to zeros without gathering it;
* the inner products weight each entry by its multiplicity k!/prod n_i!, the
  metric one also by prod_p lam[alpha_p].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .atoms import Atom, TestFunction, linear_combination
from .errors import (CapacityExceeded, IllConditionedBasis, NotInSpan,
                     SectorMismatch)
from .forms import indefinite_inner, weighted_inner

__all__ = ["Sector", "build_sector", "FockVector", "project_coefficients",
           "create", "annihilate", "fock_inner", "vacuum_expectation"]

SPAN_RESIDUAL_TOL = 1e-8
COND_LIMIT = 1e10


class IndexTables(NamedTuple):  # per rank k = 0..cap, for m basis functions
    multi: tuple[np.ndarray, ...]   # (N_k, k) sorted multi-indices, in order
    mult: tuple[np.ndarray, ...]    # (N_k,) multiplicities k!/prod n_i!
    remove: tuple[np.ndarray, ...]  # (N_k, k) rank-(k-1) index without slot p
    add: tuple[np.ndarray, ...]     # (N_k, m) rank-(k+1) index with j added


@functools.lru_cache(maxsize=None)
def index_tables(m: int, cap: int) -> IndexTables:
    """The packed index tables of m basis functions up to rank cap."""
    multi = [np.zeros((1, 0), dtype=np.intp)]
    for _ in range(cap):  # append each j >= the largest entry: lexicographic
        rows, cols = np.nonzero(np.arange(m) >= multi[-1].max(
            axis=1, initial=0, keepdims=True))
        multi.append(np.column_stack([multi[-1][rows], cols]))

    def lookup(rows):  # positions of sorted rows among those of their rank
        code = m ** np.arange(rows.shape[1])[::-1]
        return np.searchsorted(multi[rows.shape[1]] @ code, rows @ code)

    remove = [np.column_stack([lookup(np.delete(a, p, axis=1)) for p in
                               range(k)]) if k else a for k, a in enumerate(multi)]
    add = [lookup(np.sort(np.column_stack([np.repeat(a, m, axis=0), np.tile(
        np.arange(m), len(a))]), axis=1)).reshape(-1, m) for a in multi[:-1]]
    # dense entries per orbit: a rank-(k+1) dense index is a rank-k one and j
    mult = [np.ones(1)]
    for table in add:
        mult.append(np.bincount(table.ravel(), weights=np.repeat(mult[-1], m)))
    for array in (*multi, *mult, *remove, *add):
        array.setflags(write=False)
    return IndexTables(*map(tuple, (multi, mult, remove, add)))


@dataclass(frozen=True, eq=False)
class Sector:
    """One order's truncated one-particle data and Krein coordinates, with
    to_krein = V^H S^1/2 U^H for gram = U S U^H; built by ``from_matrices``."""

    n: int
    gamma: float
    basis: tuple[TestFunction, ...]
    gram: np.ndarray      # (b_a, b_b) under the positive order-n form
    pairing: np.ndarray   # indefinite_inner(n, gamma, basis, basis)
    particle_cap: int
    to_krein: np.ndarray      # basis coefficients -> Krein coordinates
    krein_metric: np.ndarray  # lam: the pairing is diag(lam) in Krein coordinates
    tables: IndexTables = field(init=False, repr=False)
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)  # mult lam^J

    def __post_init__(self):
        tables = index_tables(self.size, self.particle_cap)
        weights = tuple(mult * self.krein_metric[rows].prod(axis=1)
                        for mult, rows in zip(tables.mult, tables.multi))
        for array in (self.gram, self.pairing, self.to_krein,
                      self.krein_metric, *weights):
            array.setflags(write=False)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_matrices(cls, n: int, gamma: float,
                      basis: Sequence[TestFunction], gram: np.ndarray,
                      pairing: np.ndarray, particle_cap: int) -> "Sector":
        """Sector of a hermitian gram and pairing in the module's Krein
        coordinates; the one check of the particle cap (ValueError) and of
        the gram's positivity and condition (IllConditionedBasis)."""
        if particle_cap < 1:
            raise ValueError("particle_cap must be at least 1")
        s, u = np.linalg.eigh(gram)
        if not s[0] > 0:
            raise IllConditionedBasis(f"gram has a non-positive eigenvalue {s[0]:.3g}")
        if not s[-1] / s[0] <= COND_LIMIT:
            raise IllConditionedBasis(f"gram condition number {s[-1] / s[0]:.3g}"
                                      f" exceeds {COND_LIMIT:g}")
        whiten = u / np.sqrt(s)  # diagonal scaling, no triangular inverse
        lam, vecs = np.linalg.eigh(_hermitian(whiten.conj().T @ pairing @ whiten))
        to_krein = vecs.conj().T @ (u * np.sqrt(s)).conj().T
        return cls(n, float(gamma), tuple(basis), gram, pairing,
                   int(particle_cap), to_krein, lam)

    @property
    def size(self) -> int:
        return len(self.basis)


def _hermitian(matrix: np.ndarray) -> np.ndarray:
    """Keep the upper triangle and mirror it, so the result is exactly hermitian."""
    return np.triu(matrix) + np.triu(matrix, 1).conj().T


def build_sector(n: int, gamma: float, basis: Sequence[TestFunction],
                 particle_cap: int) -> Sector:
    """Assemble the gram and pairing matrices into a validated sector."""
    basis = tuple(basis)
    gram = _hermitian(weighted_inner(n, basis, basis))
    pairing = _hermitian(indefinite_inner(n, gamma, basis, basis))
    return Sector.from_matrices(n, gamma, basis, gram, pairing, particle_cap)


@dataclass(frozen=True, eq=False)
class FockVector:
    """Finite vector, or stack of vectors, of one sector: components[k] is the
    packed rank-k symmetric tensor in the sector's Krein coordinates, its
    last axis the sorted multi-indices, after the batch axes shared by all."""

    sector: Sector
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        batch = self.components[0].shape[:-1]
        if [c.shape for c in self.components] != [
                (*batch, len(rows)) for rows in self.sector.tables.multi]:
            raise ValueError("need one packed component per particle number "
                             "0..cap, all with the same batch axes")
        for comp in self.components:
            comp.setflags(write=False)

    @classmethod
    def vacuum(cls, sector: Sector) -> "FockVector":
        comps = [np.zeros(len(rows), dtype=complex) for rows in sector.tables.multi]
        return cls(sector, (comps[0] + 1, *comps[1:]))

    def positive_norm(self):
        """Norm in the positive (gram-kernel) inner product, per batch entry."""
        return np.sqrt(np.real(fock_inner(self, self, use_metric=False)))


def _merged(f: TestFunction) -> TestFunction:
    """f with the coefficients of equal atoms summed and zero terms dropped."""
    coeffs: dict[Atom, complex] = {}
    for c, a in f.atoms:
        coeffs[a] = coeffs.get(a, 0j) + c
    return TestFunction(tuple((c, a) for a, c in coeffs.items() if c != 0))


def project_coefficients(sector: Sector, f: TestFunction) -> np.ndarray:
    """Least-squares coefficients of f in the sector basis (positive form).

    Raises NotInSpan when the projection residual exceeds the tolerance
    relative to max(1, |f|).  The residual is the norm of the function
    f - sum_j c_j b_j with equal atoms merged, so an f built from the basis
    atoms leaves a residual at rounding level instead of the sqrt(eps) floor
    of |f|^2 - v^H gram^-1 v.
    """
    column = weighted_inner(sector.n, sector.basis + (f,), (f,))[:, 0]
    v, norm_sq = column[:-1], column[-1].real
    coeffs = np.linalg.solve(sector.gram, v)
    rest = _merged(f - linear_combination(coeffs, sector.basis))
    residual = math.sqrt(max(
        weighted_inner(sector.n, (rest,), (rest,))[0, 0].real, 0.0))
    if residual > SPAN_RESIDUAL_TOL * max(1.0, math.sqrt(max(norm_sq, 0.0))):
        raise NotInSpan(
            f"projection residual {residual:.3g} exceeds {SPAN_RESIDUAL_TOL:g}")
    return coeffs


def _krein_coefficients(sector: Sector, coeffs) -> np.ndarray:
    """Krein coordinates of coefficient vectors (last axis); numpy refuses a
    wrong length (ValueError) or a TestFunction (TypeError).  einsum, not @,
    whose BLAS may round a row by the rows beside it."""
    return np.einsum("...j,ij->...i", np.asarray(coeffs, dtype=complex),
                     sector.to_krein)


def create(coeffs, phi: FockVector) -> FockVector:
    """Creation operator for the basis coefficient vector coeffs on phi."""
    sector, tables, cap = phi.sector, phi.sector.tables, phi.sector.particle_cap
    krein = _krein_coefficients(sector, coeffs)
    if np.any(phi.components[cap] != 0):
        raise CapacityExceeded(
            f"top component at particle number {cap} is occupied")
    batch = np.broadcast_shapes(phi.components[0].shape[:-1], krein.shape[:-1])
    out = [np.zeros((*batch, 1), complex)]
    for k, comp in enumerate(phi.components[:cap]):
        remove, multi = tables.remove[k + 1], tables.multi[k + 1]
        out.append(sum(np.take(comp, remove[:, p], axis=-1)
                       * np.take(krein, multi[:, p], axis=-1)
                       for p in range(k + 1)) / math.sqrt(k + 1)
                   if np.any(comp) else np.zeros((*batch, len(multi)), complex))
    return FockVector(sector, tuple(out))


def annihilate(coeffs, phi: FockVector) -> FockVector:
    """Annihilation operator for coeffs on phi; the vacuum maps to zero."""
    sector, tables = phi.sector, phi.sector.tables
    v = np.conj(_krein_coefficients(sector, coeffs)) * sector.krein_metric
    batch = np.broadcast_shapes(phi.components[0].shape[:-1], v.shape[:-1])
    out = [math.sqrt(k) * np.einsum("...aj,...j->...a", comp[..., add], v)
           if np.any(comp) else np.zeros((*batch, len(add)), complex)
           for k, (comp, add) in enumerate(zip(phi.components[1:], tables.add), 1)]
    out.append(np.zeros((*batch, len(tables.multi[-1])), complex))
    return FockVector(sector, tuple(out))


def fock_inner(phi: FockVector, psi: FockVector, use_metric: bool = True):
    """Sector inner product: the metric one, or the positive one without it;
    a complex for single vectors, an array over the batch axes otherwise."""
    if phi.sector is not psi.sector:
        raise SectorMismatch("fock_inner requires vectors of the same sector")
    weights = phi.sector.weights if use_metric else phi.sector.tables.mult
    total = sum(np.einsum("...a,...a->...", np.conj(T), W * S) for T, S, W in
                zip(phi.components, psi.components, weights))
    return complex(total) if np.ndim(total) == 0 else total


def vacuum_expectation(signs: Sequence[int], orders: Sequence[int], smears,
                       sectors: Mapping[int, Sector]) -> complex:
    """Vacuum expectation of a word given as parallel signs, orders, smears.

    Letters act rightmost first, each on its order's sector, which starts at
    the vacuum; sign is +1 for creation, -1 for annihilation, and the smear
    is a coefficient vector in the sector basis.  The value is the product
    over the touched sectors, in sorted order, of the rank-0 entries: each
    one the metric inner product with the sector vacuum.
    """
    vectors: dict[int, FockVector] = {}
    for sign, order, smear in reversed(list(zip(signs, orders, smears,
                                                strict=True))):
        if sign not in (+1, -1):
            raise ValueError("letter sign must be +1 or -1")
        if order not in vectors:
            vectors[order] = FockVector.vacuum(sectors[order])
        op = create if sign > 0 else annihilate
        vectors[order] = op(smear, vectors[order])
    prod = 1.0 + 0j
    for order in sorted(vectors):
        prod *= vectors[order].components[0][0]
    return complex(prod)
