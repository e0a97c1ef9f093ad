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

__all__ = [
    "Atom",
    "TestFunction",
    "gaussian",
    "herm2poly",
    "hermite_fn",
    "hermval",
    "linear_combination",
]

# highest multipole order n that a study runs: the coefficients gamma_n and
# the Fock sectors H_n
MAX_ORDER = 6


# -- Hermite series -----------------------------------------------------------
# numpy's hermval and herm2poly with their operation order, so every value
# keeps its bits; importing numpy's polynomial package costs about 0.7 MB of
# peak RSS


def hermval(x, c):
    """sum_k c[k] H_k(x) by Clenshaw's recurrence, as numpy's hermval.

    Coefficient columns c[k] broadcast against x, as numpy's tensor=False.
    """
    c = np.asarray(c)
    x2 = x * 2
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1 * (2 * (len(c) - i + 1)), c0 + c1 * x2
    return c0 + c1 * x2


def _trimmed(c) -> np.ndarray:
    """c as an array without trailing zeros, keeping at least one entry."""
    c = np.atleast_1d(c)
    end = len(c)
    while end > 1 and c[end - 1] == 0:
        end -= 1
    return c[:end]


def _series_sum(a, b) -> np.ndarray:
    """a + b on power series, the shorter added into a copy of the longer."""
    a, b = sorted((_trimmed(a), _trimmed(b)), key=len)
    out = b.copy()
    out[:len(a)] += a
    return _trimmed(out)


def _plus_2x(a, b) -> np.ndarray:
    """a + 2 x b on power series; numpy's polymulx puts b[0] * 0 first."""
    return _series_sum(a, np.concatenate(([b[0] * 0], b)) * 2)


def herm2poly(c) -> np.ndarray:
    """Power-basis coefficients of the Hermite series c, as numpy's herm2poly."""
    c = _trimmed(np.array(c))
    if len(c) == 2:
        c[1] *= 2
    if len(c) < 3:
        return c
    c0, c1 = c[-2], c[-1:]
    for i in range(len(c) - 1, 1, -1):
        c0, c1 = _series_sum(c[i - 2], -(c1 * (2 * (i - 1)))), _plus_2x(c0, c1)
    return _plus_2x(c0, c1)


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
                * hermval(u, np.asarray(a.poly, dtype=complex))
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
            mono = np.abs(herm2poly(np.asarray(a.poly, dtype=complex)))
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


def linear_combination(coeffs, fns) -> TestFunction:
    """sum_j coeffs[j] * fns[j], flattened to a single atom list."""
    atoms = []
    for c, f in zip(coeffs, fns, strict=True):
        c = complex(c)
        if c == 0:
            continue
        atoms.extend((c * cc, a) for cc, a in f.atoms)
    return TestFunction(tuple(atoms))
