"""Reservoir dispersion laws: smooth, bounded below, closed-form gradients.

Two kinds are supported, in one momentum dimension by default or with an
optional radial reduction of the three-dimensional integral
(dk -> 4 pi r^2 dr on r >= 0):

    linear     omega(k) = slope * k - offset
    quadratic  omega(k) = k^2 / (2 mass) - offset
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["LinearDispersion", "QuadraticDispersion", "Dispersion"]


@dataclass(frozen=True)
class LinearDispersion:
    slope: float = 1.0
    offset: float = 0.0
    dimension: int = 1

    def __post_init__(self):
        if self.slope == 0:
            raise ValueError("linear dispersion needs a nonzero slope")
        if self.dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3 (radial)")

    def omega(self, k):
        return self.slope * np.asarray(k, dtype=float) - self.offset

    def domega(self, k):
        return self.slope * np.ones_like(np.asarray(k, dtype=float))

    def stationary_points(self) -> tuple[float, ...]:
        return ()

    def roots(self, energy: float) -> tuple[float, ...]:
        k = (energy + self.offset) / self.slope
        if self.dimension == 3 and k <= 0:
            return ()
        return (k,)


@dataclass(frozen=True)
class QuadraticDispersion:
    mass: float = 1.0
    offset: float = 0.0
    dimension: int = 1

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("quadratic dispersion needs a positive mass")
        if self.dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3 (radial)")

    def omega(self, k):
        k = np.asarray(k, dtype=float)
        return k * k / (2.0 * self.mass) - self.offset

    def domega(self, k):
        return np.asarray(k, dtype=float) / self.mass

    def stationary_points(self) -> tuple[float, ...]:
        return (0.0,)

    def roots(self, energy: float) -> tuple[float, ...]:
        radicand = 2.0 * self.mass * (energy + self.offset)
        if radicand < 0:
            return ()
        r = math.sqrt(radicand)
        if self.dimension == 3:
            return (r,) if r > 0 else ()
        if r == 0:
            return (0.0,)
        return (-r, r)


Dispersion = Union[LinearDispersion, QuadraticDispersion]


def measure_weight(disp: Dispersion, k):
    """Momentum measure density: 1 in d=1, 4 pi k^2 for the radial reduction."""
    k = np.asarray(k, dtype=float)
    if disp.dimension == 3:
        return 4.0 * math.pi * k * k
    return np.ones_like(k)


def measure_taylor(disp: Dispersion, k0: float) -> tuple[float, ...]:
    """Taylor coefficients of measure_weight about k0, in powers of k - k0."""
    if disp.dimension == 3:
        return (4.0 * math.pi * k0 * k0, 8.0 * math.pi * k0, 4.0 * math.pi)
    return (1.0,)


def curvature(disp: Dispersion) -> float:
    """omega'', which is constant for both kinds."""
    return 0.0 if isinstance(disp, LinearDispersion) else 1.0 / disp.mass


def clip_domain(disp: Dispersion, lo: float, hi: float) -> tuple[float, float]:
    """Restrict an interval to the dispersion's momentum domain."""
    if disp.dimension == 3:
        return max(lo, 0.0), max(hi, 0.0)
    return lo, hi


def monotone_branches(disp: Dispersion, lo: float, hi: float) -> list[tuple[float, float]]:
    """Split [lo, hi] at interior stationary points of omega."""
    cuts = sorted(p for p in disp.stationary_points() if lo < p < hi)
    edges = [lo, *cuts, hi]
    return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def branch_inverse(disp: Dispersion, a: float, b: float, energy):
    """Inverse of omega on the monotone branch [a, b]."""
    energy = np.asarray(energy, dtype=float)
    if isinstance(disp, LinearDispersion):
        return (energy + disp.offset) / disp.slope
    sign = 1.0 if (a + b) >= 0 else -1.0
    radicand = 2.0 * disp.mass * (energy + disp.offset)
    return sign * np.sqrt(np.maximum(radicand, 0.0))
