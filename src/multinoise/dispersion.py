"""Reservoir dispersion laws: smooth, bounded below, closed-form gradients.

Two kinds are supported, in one momentum dimension by default or with an
optional radial reduction of the three-dimensional integral
(dk -> 4 pi r^2 dr on r >= 0):

    linear     omega(k) = slope * k - offset
    quadratic  omega(k) = k^2 / (2 mass) - offset

``roots`` is the one inverse of omega, elementwise in the energy, one array
per branch whatever the domain.  ``shell_density`` pushes a form factor
through it, and the gamma shell oracle finds the energy shell with it.
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

    def roots(self, energy) -> tuple[np.ndarray, ...]:
        return ((np.asarray(energy, dtype=float) + self.offset) / self.slope,)


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

    def roots(self, energy) -> tuple[np.ndarray, ...]:
        """On the branches k <= 0 and k >= 0; NaN below omega's minimum."""
        radicand = 2.0 * self.mass * (np.asarray(energy, dtype=float) + self.offset)
        r = np.sqrt(np.where(radicand >= 0, radicand, np.nan))
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


def cut_points(disp: Dispersion, lo: float, hi: float) -> list[float]:
    """lo, the stationary points of omega strictly between lo and hi, and hi:
    omega is monotone between two neighbouring cuts."""
    return [lo, *(p for p in disp.stationary_points() if lo < p < hi), hi]


def shell_density(disp: Dispersion, g, lo: float, hi: float, energy):
    """rho(E) = sum of w(k) |g(k)|^2 / |omega'(k)| over the roots k of
    omega = E in [lo, hi], elementwise in E, with omega' taken at those roots
    only.  A flat root, which only an energy rounded onto a stationary value
    reaches, adds 0."""
    energy = np.asarray(energy, dtype=float)
    rho = np.zeros(energy.shape)
    for k in disp.roots(energy):
        inside = (lo <= k) & (k <= hi)
        k = k[inside]
        slope = np.abs(disp.domega(k))
        rho[inside] += np.divide(measure_weight(disp, k) * np.abs(g(k)) ** 2,
                                 slope, out=np.zeros(k.shape), where=slope > 0)
    return rho
