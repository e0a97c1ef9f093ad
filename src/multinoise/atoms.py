"""Gaussian-Hermite test functions with exact derivative and Fourier calculus.

A test function is a finite sum of atoms

    p((t - c)/w) * exp(-((t - c)^2) / (2 w^2)) * exp(i b t)

where the polynomial prefactor p is stored in the physicists' Hermite basis,
p(u) = sum_k poly[k] * H_k(u).  This class is closed under linear combination,
differentiation and the Fourier transform

    (F h)(x) = (2 pi)^(-1/2) * integral exp(i t x) h(t) dt,

so both operations are exact maps on the coefficient data:

    d/du [H_k(u) e^(-u^2/2)] = (k H_(k-1) - H_(k+1)/2) e^(-u^2/2)
    F[H_k((t-c)/w) e^(-((t-c)/w)^2/2) e^(ibt)](x)
        = i^k w e^(icb) H_k(w(x+b)) e^(-w^2 (x+b)^2 / 2) e^(icx)

i.e. Fourier swaps (center, modulation) -> (-modulation, center) and inverts
the width, multiplying each Hermite coefficient by i^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite as _herm

__all__ = [
    "Atom",
    "TestFunction",
    "gaussian",
    "hermite_fn",
    "zero",
    "linear_combination",
]


@dataclass(frozen=True)
class Atom:
    """One Gaussian-Hermite atom.  ``poly`` holds Hermite-basis coefficients."""

    center: float
    width: float
    modulation: float
    poly: tuple[complex, ...]

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"atom width must be positive, got {self.width}")
        if len(self.poly) == 0:
            raise ValueError("atom polynomial must be nonempty")


@dataclass(frozen=True)
class TestFunction:
    """Finite sum of weighted atoms, closed under d/dt and Fourier transform."""

    atoms: tuple[tuple[complex, Atom], ...]

    # -- pointwise evaluation ------------------------------------------------

    def __call__(self, t):
        """Evaluate at a scalar or ndarray of real points."""
        arr = np.asarray(t, dtype=float)
        out = np.zeros(arr.shape, dtype=complex)
        for coeff, a in self.atoms:
            u = (arr - a.center) / a.width
            out += (
                coeff
                * _herm.hermval(u, np.asarray(a.poly, dtype=complex))
                * np.exp(-0.5 * u * u)
                * np.exp(1j * a.modulation * arr)
            )
        if np.ndim(t) == 0:
            return complex(out)
        return out

    # -- exact calculus ------------------------------------------------------

    def derivative(self, m: int = 1) -> "TestFunction":
        """Exact m-th derivative; stays in the atom class."""
        if m < 0:
            raise ValueError("derivative order must be nonnegative")
        f = self
        for _ in range(m):
            f = f._derivative_once()
        return f

    def _derivative_once(self) -> "TestFunction":
        new = []
        for coeff, a in self.atoms:
            q = np.zeros(len(a.poly) + 1, dtype=complex)
            for k, ak in enumerate(a.poly):
                if k:
                    q[k - 1] += k * ak / a.width
                q[k + 1] -= 0.5 * ak / a.width
                q[k] += 1j * a.modulation * ak
            new.append((coeff, Atom(a.center, a.width, a.modulation, tuple(q))))
        return TestFunction(tuple(new))

    def fourier(self) -> "TestFunction":
        """Exact Fourier transform under the e^{itx}/sqrt(2 pi) convention."""
        new = []
        for coeff, a in self.atoms:
            scale = a.width * np.exp(1j * a.center * a.modulation)
            q = tuple(ak * (1j) ** k for k, ak in enumerate(a.poly))
            new.append((coeff * scale, Atom(-a.modulation, 1.0 / a.width, a.center, q)))
        return TestFunction(tuple(new))

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "TestFunction") -> "TestFunction":
        return TestFunction(self.atoms + other.atoms)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "TestFunction":
        s = complex(scalar)
        return TestFunction(tuple((s * c, a) for c, a in self.atoms))

    __rmul__ = __mul__

    def __neg__(self) -> "TestFunction":
        return (-1.0) * self

    def is_zero(self) -> bool:
        """True when every atom has a zero coefficient or an all-zero poly."""
        return all(c == 0 or not any(a.poly) for c, a in self.atoms)

    # -- envelope bookkeeping --------------------------------------------------

    def amplitude(self) -> float:
        """Largest |coeff| * max_k |poly_k| over the atoms; linear in f."""
        return max((abs(c) * max(map(abs, a.poly)) for c, a in self.atoms),
                   default=0.0)

    def envelope_interval(self, tol: float = 1e-18) -> tuple[float, float]:
        """Interval outside which |f| is provably below ``tol``.

        Per atom the modulus is bounded by |coeff| * Q(|u|) * exp(-u^2/2) with
        Q the polynomial of absolute monomial coefficients; the crossing point
        is bracketed by doubling and refined by bisection.  The union over
        atoms is returned.  The zero function yields a degenerate interval.
        """
        lo, hi = math.inf, -math.inf
        for coeff, a in self.atoms:
            if coeff == 0 or not any(a.poly):
                continue
            mono = np.abs(_herm.herm2poly(np.asarray(a.poly, dtype=complex)))
            amp = abs(coeff)

            def bound(s, _mono=mono, _amp=amp):
                return _amp * np.polyval(_mono[::-1], s) * math.exp(-0.5 * s * s)

            s = 1.0
            while bound(s) >= tol or bound(s + 1.0) >= bound(s):
                s *= 2.0
                if s > 1e6:
                    break
            s_lo, s_hi = s / 2.0, s
            for _ in range(60):
                mid = 0.5 * (s_lo + s_hi)
                if bound(mid) < tol:
                    s_hi = mid
                else:
                    s_lo = mid
            r = s_hi * a.width
            lo = min(lo, a.center - r)
            hi = max(hi, a.center + r)
        if lo > hi:
            return (0.0, 0.0)
        return (lo, hi)


def gaussian(center: float = 0.0, width: float = 1.0, modulation: float = 0.0) -> TestFunction:
    """Unit-L2-norm Gaussian atom; gaussian() is the standard phi_0."""
    amp = math.pi ** -0.25 / math.sqrt(width)
    return TestFunction(((complex(amp), Atom(center, width, modulation, (1.0 + 0j,))),))


def hermite_fn(k: int, center: float = 0.0, width: float = 1.0,
               modulation: float = 0.0) -> TestFunction:
    """k-th unit-L2-norm Hermite function, optionally shifted/scaled/modulated."""
    amp = 1.0 / math.sqrt(width * (2.0 ** k) * math.factorial(k) * math.sqrt(math.pi))
    poly = tuple(0j if j < k else 1.0 + 0j for j in range(k + 1))
    return TestFunction(((complex(amp), Atom(center, width, modulation, poly)),))


def zero() -> TestFunction:
    return TestFunction(())


def linear_combination(coeffs, fns) -> TestFunction:
    """sum_j coeffs[j] * fns[j], flattened to a single atom list."""
    atoms = []
    for c, f in zip(coeffs, fns, strict=True):
        c = complex(c)
        if c == 0:
            continue
        atoms.extend((c * cc, a) for cc, a in f.atoms)
    return TestFunction(tuple(atoms))
