"""Vacuum correlation functions as sums over admissible pair partitions.

A word is a list of letters (sign, channel, smearing function).  Its vacuum
expectation is the sum over perfect matchings in which every pair has the
annihilator strictly left of the creator, of the product of two-point
contractions; ``wick_sum`` is the package's one loop over those matchings,
and every correlation is that sum with its own pair kernel (the expansion
study hands it the graded sum of the noise kernels).  Two channel families
are supported:

* multipole noise of order n, pair value lambda^(2n) i^n gamma_n
  integral conj(f_minus^(n)) f_plus dt, zero across unequal orders;
* the rescaled reservoir field, whose pair value is the smeared kernel
  (1/lambda^2) integral dk |g(k)|^2 exp(i omega(k) (tau - t) / lambda^2).
  The time integrals are done exactly by the smears' Fourier transforms,
  leaving one momentum integral.  On each monotone branch of the dispersion
  it runs over the k-window where u = omega(k)/lambda^2 lies inside both
  smears' spectra, as a vectorized Gauss-Legendre panel sum
  (``panels.panel_sum``, the panel layout of the gamma table) whose panel
  count doubles until two successive sums agree.  Each smear's transform and
  spectral interval, and the form factor's momentum interval, are computed
  once per function.  The test suite checks the kernel against adaptive
  quadrature in u and against a time-domain tensor rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .atoms import TestFunction
from .dispersion import (Dispersion, branch_inverse, clip_domain,
                         measure_weight, monotone_branches)
from .errors import ZeroGamma
from .forms import indefinite_inner
from .panels import envelope, panel_sum

__all__ = [
    "Letter",
    "ReservoirChannel",
    "enumerate_matchings",
    "wick_sum",
    "noise_pair",
    "reservoir_pair",
    "correlation",
    "MAX_WORD_LENGTH",
]

MAX_WORD_LENGTH = 12  # exhaustive matching enumeration only
RESERVOIR_SUPPORT_TOL = 1e-9  # |g| threshold bounding the momentum integral


@dataclass(frozen=True)
class Letter:
    """One operator factor: sign +1/-1, smear, and noise order (None = reservoir)."""

    sign: int
    smear: TestFunction
    order: Optional[int] = None

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("letter sign must be +1 or -1")
        if self.smear.is_zero():
            raise ValueError("letter smear must be nonzero")


@dataclass(frozen=True)
class ReservoirChannel:
    dispersion: Dispersion
    form_factor: TestFunction
    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("coupling lambda must be positive")

    def at_lambda(self, lam: float) -> "ReservoirChannel":
        return replace(self, lam=lam)


def enumerate_matchings(signs: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings with each annihilator paired to a later creator.

    Returns 0-based index pairs; the list is empty for odd or unbalanced
    words.  Exhaustive recursion, deterministic order.
    """
    if len(signs) > MAX_WORD_LENGTH:
        raise ValueError(f"word length limited to {MAX_WORD_LENGTH}")
    out: list[tuple[tuple[int, int], ...]] = []

    def recurse(remaining: tuple[int, ...], acc: tuple[tuple[int, int], ...]):
        if not remaining:
            out.append(acc)
            return
        j = remaining[0]
        if signs[j] != -1:
            return  # leftmost unpaired letter must annihilate
        for pos, k in enumerate(remaining[1:], start=1):
            if signs[k] == +1:
                rest = remaining[1:pos] + remaining[pos + 1:]
                recurse(rest, acc + ((j, k),))

    recurse(tuple(range(len(signs))), ())
    return out


def wick_sum(signs: Sequence[int], pair) -> complex:
    """Sum over the admissible matchings of the product of pair values.

    ``pair(j, k)`` is the contraction of annihilator j with creator k; it is
    evaluated at most once per index pair, and a matching stops multiplying
    at its first zero factor.
    """
    cache: dict[tuple[int, int], complex] = {}
    total = 0j
    for matching in enumerate_matchings(list(signs)):
        prod = 1.0 + 0j
        for jk in matching:
            if jk not in cache:
                cache[jk] = pair(*jk)
            prod *= cache[jk]
            if prod == 0:
                break
        total += prod
    return total


def noise_pair(n: int, gamma: float, lam: float, f_minus: TestFunction,
               f_plus: TestFunction) -> complex:
    """Smeared contraction of one multipole channel with its lambda grading."""
    if gamma == 0:
        raise ZeroGamma("noise channel requires gamma != 0")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return lam ** (2 * n) * indefinite_inner(n, gamma, f_minus, f_plus)


@lru_cache(maxsize=256)
def _spectrum(f: TestFunction):
    """A smear's Fourier transform and the interval where it exceeds 1e-12."""
    f_hat = f.fourier()
    return f_hat, f_hat.envelope_interval(1e-12)


def _k_window(disp: Dispersion, a: float, b: float, lam2: float,
              u_lo: float, u_hi: float) -> Optional[tuple[float, float]]:
    """Momenta of the branch [a, b] with omega(k)/lambda^2 inside [u_lo, u_hi].

    An end the u-window does not cut stays the branch end exactly: inverting
    omega there would move a stationary end by the square root of a rounding
    error.
    """
    ua, ub = float(disp.omega(a)) / lam2, float(disp.omega(b)) / lam2
    if min(u_hi, max(ua, ub)) <= max(u_lo, min(ua, ub)):
        return None

    def end(k: float, u: float) -> float:
        if u_lo <= u <= u_hi:
            return k
        return float(branch_inverse(disp, a, b, lam2 * min(max(u, u_lo), u_hi)))

    return end(a, ua), end(b, ub)


def reservoir_pair(channel: ReservoirChannel, f_minus: TestFunction,
                   f_plus: TestFunction, *, epsabs: float = 1e-12,
                   epsrel: float = 1e-10) -> complex:
    """Exact two-point function of the rescaled reservoir field.

    Computed per monotone dispersion branch as

        2 pi * integral dk  lambda^-2 w(k) |g(k)|^2
                            * conj(f_minus_F(u)) f_plus_F(u),   u = omega(k)/lambda^2,

    over the momenta whose u lies where both smears' Fourier transforms
    exceed 1e-12 (outside that window one of the two factors is below it).
    For small lambda that window is O(lambda^2) wide, so it resolves the
    energy shell at every lambda, and the k integrand carries no 1/|omega'|
    Jacobian, so a branch ending at a stationary point stays smooth.  Each
    window is a Gauss-Legendre panel sum whose panel count doubles until two
    successive sums agree to max(epsabs, epsrel |I|); QuadratureFailure if
    they still differ at MAX_PANELS panels.  The oracles live in the test
    suite: adaptive quadrature of the u-substituted integral (the
    Jacobian form), a time-domain tensor rule, and a dense sum for a narrow
    spectral overlap.
    """
    disp, g, lam = channel.dispersion, channel.form_factor, channel.lam
    lo, hi = clip_domain(disp, *envelope(g, RESERVOIR_SUPPORT_TOL))
    if hi <= lo:
        return 0j
    fm_hat, (m_lo, m_hi) = _spectrum(f_minus)
    fp_hat, (p_lo, p_hi) = _spectrum(f_plus)
    u_lo, u_hi = max(m_lo, p_lo), min(m_hi, p_hi)
    lam2 = lam * lam

    def integrand(k):
        u = disp.omega(k) / lam2
        return (measure_weight(disp, k) * np.abs(g(k)) ** 2
                * np.conj(fm_hat(u)) * fp_hat(u)) / lam2

    total = 0j
    for a, b in monotone_branches(disp, lo, hi):
        window = _k_window(disp, a, b, lam2, u_lo, u_hi)
        if window is not None:
            total += panel_sum(integrand, *window, epsabs=epsabs,
                                epsrel=epsrel)
    return 2.0 * math.pi * total


def correlation(word: Sequence[Letter], *, gammas=None, lam: float = 1.0,
                channel: Optional[ReservoirChannel] = None) -> complex:
    """Vacuum expectation of a word over one channel family.

    Noise words need ``gammas`` (indexable by order) and the grading ``lam``;
    reservoir words need ``channel``.  Mixed words are rejected.
    """
    word = list(word)
    if not word:
        return 1.0 + 0j
    is_reservoir = [letter.order is None for letter in word]
    reservoir = all(is_reservoir)
    if any(is_reservoir) and not reservoir:
        raise ValueError("mixed noise/reservoir words are not supported")
    if reservoir:
        if channel is None:
            raise ValueError("reservoir words need a ReservoirChannel")
    elif gammas is None:
        raise ValueError("noise words need the gamma coefficients")

    def pair(j: int, k: int) -> complex:
        left, right = word[j], word[k]
        if reservoir:
            return reservoir_pair(channel, left.smear, right.smear)
        if left.order != right.order:
            return 0j  # cross-channel Kronecker delta
        n = left.order
        return noise_pair(n, gammas[n], lam, left.smear, right.smear)

    return wick_sum([letter.sign for letter in word], pair)
