"""Truncated symmetric Fock sectors with indefinite metric.

A sector holds one multipole order n, its coupling gamma, a finite basis of
test functions, the positive Gram matrix of the order-n weighted form and the
indefinite pairing matrix of the commutator kernel.  Vectors are tuples of
dense symmetric tensors over basis indices, one per particle number up to the
cap.  Creation inserts a coefficient vector symmetrically with 1/sqrt(k+1);
annihilation contracts the first slot against the pairing vector with sqrt(k).

A word of operators from several orders acts sector by sector on the vacuum
of the full theory, a tensor product over sectors; its vacuum expectation is
the product of per-sector metric inner products with the sector vacua.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .atoms import TestFunction
from .errors import (CapacityExceeded, IllConditionedBasis, NotInSpan,
                     SectorMismatch, ZeroGamma)
from .forms import indefinite_inner, weighted_inner

__all__ = [
    "Sector",
    "build_sector",
    "FockVector",
    "project_coefficients",
    "create",
    "annihilate",
    "fock_inner",
    "sector_metric_matrix",
    "vacuum_expectation",
]

SPAN_RESIDUAL_TOL = 1e-8
COND_LIMIT = 1e10


@dataclass(frozen=True, eq=False)
class Sector:
    """One multipole order with its truncated one-particle data."""

    n: int
    gamma: float
    basis: tuple[TestFunction, ...]
    gram: np.ndarray      # (b_a, b_b) under the positive order-n form
    pairing: np.ndarray   # indefinite_inner(n, gamma, b_a, b_b)
    particle_cap: int

    @property
    def size(self) -> int:
        return len(self.basis)


def _hermitian(matrix: np.ndarray) -> np.ndarray:
    """Keep the upper triangle and mirror it, so the result is exactly hermitian."""
    return np.triu(matrix) + np.triu(matrix, 1).conj().T


def build_sector(n: int, gamma: float, basis: Sequence[TestFunction],
                 particle_cap: int) -> Sector:
    """Assemble gram/pairing matrices and validate the basis."""
    if gamma == 0:
        raise ZeroGamma("sector coupling gamma must be nonzero")
    if particle_cap < 1:
        raise ValueError("particle_cap must be at least 1")
    basis = tuple(basis)
    gram = _hermitian(weighted_inner(n, basis, basis))
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > COND_LIMIT:
        raise IllConditionedBasis(
            f"gram condition number {eigs[-1] / max(eigs[0], 1e-300):.3g} "
            f"exceeds {COND_LIMIT:g}")
    pairing = _hermitian(indefinite_inner(n, gamma, basis, basis))
    gram.setflags(write=False)
    pairing.setflags(write=False)
    return Sector(n, float(gamma), basis, gram, pairing, int(particle_cap))


@dataclass(frozen=True, eq=False)
class FockVector:
    """Finite vector of one sector: components[k] is a rank-k symmetric tensor."""

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


def project_coefficients(sector: Sector, f: TestFunction) -> np.ndarray:
    """Least-squares coefficients of f in the sector basis (positive form).

    Raises NotInSpan when the projection residual exceeds the tolerance
    relative to max(1, |f|).
    """
    column = weighted_inner(sector.n, sector.basis + (f,), f)[:, 0]
    v, norm_sq = column[:-1], column[-1].real
    coeffs = np.linalg.solve(sector.gram, v)
    residual_sq = norm_sq - float(np.real(np.vdot(v, coeffs)))
    residual = math.sqrt(max(residual_sq, 0.0))
    if residual > SPAN_RESIDUAL_TOL * max(1.0, math.sqrt(max(norm_sq, 0.0))):
        raise NotInSpan(
            f"projection residual {residual:.3g} exceeds {SPAN_RESIDUAL_TOL:g}")
    return coeffs


def _as_coefficients(sector: Sector, f) -> np.ndarray:
    if isinstance(f, TestFunction):
        return project_coefficients(sector, f)
    arr = np.asarray(f, dtype=complex)
    if arr.shape != (sector.size,):
        raise ValueError(f"coefficient vector must have shape ({sector.size},)")
    return arr


def create(sector: Sector, f, phi: FockVector) -> FockVector:
    """Apply the creation operator for f (TestFunction or coefficient vector)."""
    if phi.sector is not sector:
        raise SectorMismatch("vector does not belong to this sector")
    coeffs = _as_coefficients(sector, f)
    cap = sector.particle_cap
    if np.any(phi.components[cap] != 0):
        raise CapacityExceeded(
            f"top component at particle number {cap} is occupied")
    m = sector.size
    out = [np.zeros((m,) * k, dtype=complex) for k in range(cap + 1)]
    for k in range(cap):
        comp = phi.components[k]
        if not np.any(comp):
            continue
        acc = np.zeros((m,) * (k + 1), dtype=complex)
        for i in range(k + 1):
            acc += np.moveaxis(np.multiply.outer(coeffs, comp), 0, i)
        out[k + 1] = acc / math.sqrt(k + 1)
    return FockVector(sector, tuple(out))


def _pairing_vector(sector: Sector, f) -> np.ndarray:
    if isinstance(f, TestFunction):
        project_coefficients(sector, f)  # span check
        return indefinite_inner(sector.n, sector.gamma, f, sector.basis)[0]
    coeffs = np.asarray(f, dtype=complex)
    if coeffs.shape != (sector.size,):
        raise ValueError(f"coefficient vector must have shape ({sector.size},)")
    return np.conj(coeffs) @ sector.pairing


def annihilate(sector: Sector, f, phi: FockVector) -> FockVector:
    """Apply the annihilation operator for f; the vacuum maps to zero."""
    if phi.sector is not sector:
        raise SectorMismatch("vector does not belong to this sector")
    v = _pairing_vector(sector, f)
    m, cap = sector.size, sector.particle_cap
    out = [np.zeros((m,) * k, dtype=complex) for k in range(cap + 1)]
    for k in range(1, cap + 1):
        comp = phi.components[k]
        if not np.any(comp):
            continue
        out[k - 1] = math.sqrt(k) * np.tensordot(v, comp, axes=(0, 0))
    return FockVector(sector, tuple(out))


def _apply_slotwise(kernel: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Apply the matrix kernel to every slot of the tensor S.

    Each pass contracts the leading slot and appends the result as the last
    axis, so after S.ndim passes the slots are back in their original order.
    """
    for _ in range(S.ndim):
        S = np.tensordot(S, kernel, axes=([0], [1]))
    return S


def _kernel_contract(T: np.ndarray, S: np.ndarray, kernel: np.ndarray) -> complex:
    return complex(np.vdot(T, _apply_slotwise(kernel, S)))


def fock_inner(phi: FockVector, psi: FockVector, use_metric: bool = True) -> complex:
    """Sector inner product; the metric kernel is the pairing matrix."""
    if phi.sector is not psi.sector:
        raise SectorMismatch("fock_inner requires vectors of the same sector")
    kernel = phi.sector.pairing if use_metric else phi.sector.gram
    total = 0j
    for T, S in zip(phi.components, psi.components):
        if np.any(T) and np.any(S):
            total += _kernel_contract(T, S, kernel)
    return total


def sector_metric_matrix(sector: Sector) -> np.ndarray:
    """Matrix of the sector metric operator in the basis: gram^(-1) pairing."""
    return np.linalg.solve(sector.gram, sector.pairing)


def apply_sector_metric(phi: FockVector) -> FockVector:
    """Second-quantized metric: the sector metric matrix on every slot."""
    eta = sector_metric_matrix(phi.sector)
    return FockVector(phi.sector, tuple(_apply_slotwise(eta, comp)
                                        for comp in phi.components))


def symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Average over all slot permutations."""
    k = tensor.ndim
    if k <= 1:
        return tensor.copy()
    acc = np.zeros_like(tensor)
    for perm in itertools.permutations(range(k)):
        acc += np.transpose(tensor, perm)
    return acc / math.factorial(k)


def max_symmetry_defect(tensor: np.ndarray) -> float:
    """Largest deviation from permutation symmetry across adjacent swaps."""
    defect = 0.0
    for i in range(tensor.ndim - 1):
        axes = list(range(tensor.ndim))
        axes[i], axes[i + 1] = axes[i + 1], axes[i]
        defect = max(defect, float(np.max(np.abs(tensor - np.transpose(tensor, axes)))))
    return defect


def vacuum_expectation(letters: Sequence[tuple[int, int, object]],
                       sectors: Mapping[int, Sector]) -> complex:
    """Vacuum expectation of a word of (sign, order, smear) letters.

    Letters act rightmost first, each on its order's sector, which starts at
    the vacuum; sign is +1 for creation, -1 for annihilation, and the smear
    is a TestFunction or a coefficient vector in the sector basis.  The value
    is the product, over the touched sectors in sorted order, of the metric
    inner product of the sector vacuum with the sector's vector; untouched
    sectors contribute a factor 1.
    """
    vectors: dict[int, FockVector] = {}
    for sign, order, smear in reversed(list(letters)):
        sector = sectors[order]
        vec = vectors[order] if order in vectors else FockVector.vacuum(sector)
        op = create if sign > 0 else annihilate
        vectors[order] = op(sector, smear, vec)
    prod = 1.0 + 0j
    for order in sorted(vectors):
        vec = vectors[order]
        prod *= fock_inner(FockVector.vacuum(vec.sector), vec)
        if prod == 0:
            break
    return complex(prod)
