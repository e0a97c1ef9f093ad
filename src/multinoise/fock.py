"""Truncated symmetric Fock sectors with indefinite metric.

A sector holds one multipole order n, its coupling gamma, a finite basis of
test functions, the positive Gram matrix of the order-n weighted form and the
indefinite pairing matrix of the commutator kernel.  On this basis the
pseudo-Hilbert space splits as H+ (+) H- (its fundamental decomposition):
with gram = U S U^H and S^-1/2 U^H pairing U S^-1/2 = V diag(lam) V^H, the
coordinates c' = to_krein c, to_krein = V^H S^1/2 U^H, turn the gram matrix
into the identity and the pairing matrix into diag(lam), with lam real and of
both signs for odd n.  Vectors are tuples of dense symmetric tensors in these
Krein coordinates, one per particle number up to the cap.  Each operator
takes the basis coefficients c of its test function, and acts on the sector
of the vector it is given; project_coefficients is the one bridge from a
TestFunction in the basis span to its coefficients.

* create maps c once, c' = to_krein c, appends c' as a new last slot and
  symmetrizes that slot in, with weight sqrt(k+1);
* annihilate contracts the first slot against conj(c') lam, with weight
  sqrt(k);
* the positive inner product is a plain vdot per rank, and the metric one
  weights rank k elementwise by lam (x) ... (x) lam.

A word of operators from several orders acts sector by sector on the vacuum
of the full theory, a tensor product over sectors; its vacuum expectation is
the product of the sectors' rank-0 entries, each one the metric inner product
of the sector vacuum with the sector's vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .atoms import Atom, TestFunction, linear_combination
from .errors import (CapacityExceeded, IllConditionedBasis, NotInSpan,
                     SectorMismatch)
from .forms import indefinite_inner, weighted_inner

__all__ = [
    "Sector",
    "build_sector",
    "FockVector",
    "project_coefficients",
    "create",
    "annihilate",
    "fock_inner",
    "vacuum_expectation",
]

SPAN_RESIDUAL_TOL = 1e-8
COND_LIMIT = 1e10


@dataclass(frozen=True, eq=False)
class Sector:
    """One order's truncated one-particle data and Krein coordinates, with
    to_krein = V^H S^1/2 U^H for gram = U S U^H; built by ``from_matrices``."""

    n: int
    gamma: float
    basis: tuple[TestFunction, ...]
    gram: np.ndarray      # (b_a, b_b) under the positive order-n form
    pairing: np.ndarray   # indefinite_inner(n, gamma, b_a, b_b)
    particle_cap: int
    to_krein: np.ndarray      # basis coefficients -> Krein coordinates
    krein_metric: np.ndarray  # lam: the pairing is diag(lam) in Krein coordinates
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)  # lam^(x k)

    def __post_init__(self):
        weights = [np.ones(())]
        for _ in range(self.particle_cap):
            weights.append(np.multiply.outer(weights[-1], self.krein_metric))
        for array in (self.gram, self.pairing, self.to_krein,
                      self.krein_metric, *weights):
            array.setflags(write=False)
        object.__setattr__(self, "weights", tuple(weights))

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
        if not (s[0] > 0 and s[-1] / s[0] <= COND_LIMIT):
            raise IllConditionedBasis(
                f"gram condition number {s[-1] / max(s[0], 1e-300):.3g} "
                f"exceeds {COND_LIMIT:g}")
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
    """Finite vector of one sector: components[k] is a rank-k symmetric tensor
    in the sector's Krein coordinates."""

    sector: Sector
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        m, cap = self.sector.size, self.sector.particle_cap
        if len(self.components) != cap + 1:
            raise ValueError("need one component per particle number 0..cap")
        for k, comp in enumerate(self.components):
            if comp.shape != (m,) * k:
                raise ValueError(f"component {k} has shape {comp.shape}")
            comp.setflags(write=False)

    @classmethod
    def vacuum(cls, sector: Sector) -> "FockVector":
        m = sector.size
        comps = [np.zeros((m,) * k, dtype=complex)
                 for k in range(sector.particle_cap + 1)]
        comps[0] = np.array(1.0 + 0j)
        return cls(sector, tuple(comps))

    def positive_norm(self) -> float:
        """Norm in the positive (gram-kernel) inner product."""
        return math.sqrt(max(fock_inner(self, self, use_metric=False).real, 0.0))


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
    column = weighted_inner(sector.n, sector.basis + (f,), f)[:, 0]
    v, norm_sq = column[:-1], column[-1].real
    coeffs = np.linalg.solve(sector.gram, v)
    rest = _merged(f - linear_combination(coeffs, sector.basis))
    residual = math.sqrt(max(weighted_inner(sector.n, rest, rest).real, 0.0))
    if residual > SPAN_RESIDUAL_TOL * max(1.0, math.sqrt(max(norm_sq, 0.0))):
        raise NotInSpan(
            f"projection residual {residual:.3g} exceeds {SPAN_RESIDUAL_TOL:g}")
    return coeffs


def _krein_coefficients(sector: Sector, coeffs) -> np.ndarray:
    """Krein coordinates of a vector of basis coefficients; numpy refuses a
    vector of the wrong length (ValueError) or a TestFunction (TypeError)."""
    return sector.to_krein @ np.asarray(coeffs, dtype=complex)


def create(coeffs, phi: FockVector) -> FockVector:
    """Creation operator for the basis coefficient vector coeffs on phi."""
    sector = phi.sector
    krein = _krein_coefficients(sector, coeffs)
    cap = sector.particle_cap
    if np.any(phi.components[cap] != 0):
        raise CapacityExceeded(
            f"top component at particle number {cap} is occupied")
    out = [math.sqrt(k + 1) * _symmetrize_slot(np.multiply.outer(comp, krein), k)
           for k, comp in enumerate(phi.components[:cap])]
    return FockVector(sector, (np.zeros((), dtype=complex), *out))


def annihilate(coeffs, phi: FockVector) -> FockVector:
    """Annihilation operator for coeffs on phi; the vacuum maps to zero."""
    sector = phi.sector
    v = np.conj(_krein_coefficients(sector, coeffs)) * sector.krein_metric
    m = sector.size
    out = [math.sqrt(k) * (v @ comp.reshape(m, -1)).reshape(comp.shape[1:])
           for k, comp in enumerate(phi.components[1:], 1)]
    out.append(np.zeros((m,) * sector.particle_cap, dtype=complex))
    return FockVector(sector, tuple(out))


def fock_inner(phi: FockVector, psi: FockVector, use_metric: bool = True) -> complex:
    """Sector inner product: the metric one, or the positive one without it."""
    if phi.sector is not psi.sector:
        raise SectorMismatch("fock_inner requires vectors of the same sector")
    weights = phi.sector.weights if use_metric else (1.0,) * len(phi.components)
    return sum((complex(np.vdot(T, W * S)) for T, S, W in
                zip(phi.components, psi.components, weights)), 0j)


def _symmetrize_slot(tensor: np.ndarray, j: int) -> np.ndarray:
    """Mean over i <= j of the tensor with slots i and j swapped.

    If slots 0..j-1 are symmetric, the result is symmetric in slots 0..j.
    """
    acc = tensor.copy()
    for i in range(j):
        acc += np.swapaxes(tensor, i, j)
    return acc / (j + 1)


def symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Symmetric part of the tensor, built up one slot at a time."""
    for j in range(1, tensor.ndim):
        tensor = _symmetrize_slot(tensor, j)
    return tensor


def max_symmetry_defect(tensor: np.ndarray) -> float:
    """Largest deviation from permutation symmetry across adjacent swaps."""
    return float(np.max(
        [np.max(np.abs(tensor - np.swapaxes(tensor, i, i + 1)))
         for i in range(tensor.ndim - 1)], initial=0.0))


def vacuum_expectation(signs: Sequence[int], orders: Sequence[int], smears,
                       sectors: Mapping[int, Sector]) -> complex:
    """Vacuum expectation of a word given as parallel signs, orders, smears.

    Letters act rightmost first, each on its order's sector, which starts at
    the vacuum; sign is +1 for creation, -1 for annihilation, and the smear
    is a coefficient vector in the sector basis.  The value is the product,
    over the touched sectors in sorted order, of the rank-0 entry of the
    sector's vector, which is its metric inner product with the sector
    vacuum; untouched sectors contribute a factor 1.
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
        prod *= vectors[order].components[0]
    return complex(prod)
