"""Vacuum correlation functions as sums over admissible pair partitions.

A word is given as parallel sequences: letter signs (+1 creates, -1
annihilates), smearing functions and, for noise words, noise orders.  Its
vacuum expectation is the sum over perfect matchings in which every pair has
the annihilator strictly left of the creator, of the product of two-point
contractions; ``wick_sum`` is the package's one loop over those matchings,
and every correlation is that sum with its own pair kernel.  Two kernels are
provided:

* ``correlation`` contracts multipole noise: a pair of order-n letters gives
  i^n gamma_n integral conj(f_minus^(n)) f_plus dt, letters of unequal
  orders give exactly zero.  The expansion study grades these contractions
  by lambda^(2n) itself.
* ``reservoir_pair`` is the two-point function of the rescaled reservoir
  field, the smeared kernel
  (1/lambda^2) integral dk |g(k)|^2 exp(i omega(k) (tau - t) / lambda^2).
  The time integrals are done exactly by the smears' Fourier transforms,
  leaving one momentum integral.  On each monotone branch of the dispersion
  it runs over the k-window where u = omega(k)/lambda^2 lies inside both
  smears' spectra, as a vectorized Gauss-Legendre panel sum
  (``panels.panel_sum``, the panel layout of the gamma table) whose panel
  count doubles until two successive sums agree.  Each smear's spectral
  interval, and the form factor's momentum interval, are computed once per
  function (``panels.envelope``).  The test suite checks the kernel against
  adaptive quadrature in u and against a time-domain tensor rule.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .atoms import TestFunction
from .dispersion import (Dispersion, branch_inverse, clip_domain,
                         measure_weight, monotone_branches)
from .forms import indefinite_inner
from .panels import MOMENTUM_TOL, envelope, panel_sum

__all__ = [
    "enumerate_matchings",
    "wick_sum",
    "reservoir_pair",
    "correlation",
    "MAX_WORD_LENGTH",
]

MAX_WORD_LENGTH = 12  # exhaustive matching enumeration only
PAIR_ABS, PAIR_REL = 1e-12, 1e-10  # panel-doubling agreement of reservoir_pair
SPECTRUM_TOL = 1e-12  # |f_F| bound of a smear's spectrum, per unit amplitude


def enumerate_matchings(signs: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings with each annihilator paired to a later creator.

    Returns 0-based index pairs; the list is empty for odd or unbalanced
    words.  Exhaustive recursion, deterministic order.
    """
    if len(signs) > MAX_WORD_LENGTH:
        raise ValueError(f"word length limited to {MAX_WORD_LENGTH}")
    if any(s not in (+1, -1) for s in signs):
        raise ValueError("letter sign must be +1 or -1")
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


def reservoir_pair(disp: Dispersion, g: TestFunction, lam: float,
                   f_minus: TestFunction, f_plus: TestFunction) -> complex:
    """Exact two-point function of the rescaled reservoir field at coupling lam.

    Computed per monotone dispersion branch as

        2 pi * integral dk  lambda^-2 w(k) |g(k)|^2
                            * conj(f_minus_F(u)) f_plus_F(u),   u = omega(k)/lambda^2,

    over the momenta whose u lies where both smears' Fourier transforms exceed
    SPECTRUM_TOL times their largest atom amplitude (outside that window one
    factor is below it, however the smears are normalised).  For small lambda
    that window is O(lambda^2) wide, so it resolves the energy shell at every
    lambda, and the k integrand carries no 1/|omega'| Jacobian, so a branch
    ending at a stationary point stays smooth.  Each window is a
    Gauss-Legendre panel sum whose panel count doubles until two successive
    sums agree to max(PAIR_ABS, PAIR_REL |I|); QuadratureFailure if they still
    differ at MAX_PANELS panels.  The oracles live in the test suite: adaptive
    quadrature of the u-substituted integral (the Jacobian form), a
    time-domain tensor rule, and a dense sum for a narrow spectral overlap.
    """
    if not lam > 0:
        raise ValueError("coupling lambda must be positive")
    lo, hi = clip_domain(disp, *envelope(g, MOMENTUM_TOL))
    if hi <= lo:
        return 0j
    fm_hat, fp_hat = f_minus.fourier(), f_plus.fourier()
    m_lo, m_hi = envelope(fm_hat, SPECTRUM_TOL * fm_hat.amplitude())
    p_lo, p_hi = envelope(fp_hat, SPECTRUM_TOL * fp_hat.amplitude())
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
            total += panel_sum(integrand, *window, epsabs=PAIR_ABS,
                               epsrel=PAIR_REL)
    return 2.0 * math.pi * total


def correlation(signs: Sequence[int], orders: Sequence[int],
                smears: Sequence[TestFunction], gammas) -> complex:
    """Vacuum expectation of a multipole-noise word.

    Letter j has sign ``signs[j]``, order ``orders[j]`` and nonzero smear
    ``smears[j]``.  ``gammas`` is indexable by order; the order-n pair value
    is ``indefinite_inner(n, gammas[n], ...)``, and letters of unequal
    orders contract to exactly zero.
    """
    if not len(signs) == len(orders) == len(smears):
        raise ValueError("signs, orders and smears must have equal length")
    if any(f.is_zero() for f in smears):
        raise ValueError("letter smear must be nonzero")

    def pair(j: int, k: int) -> complex:
        n = orders[j]
        if n != orders[k]:
            return 0j  # cross-channel Kronecker delta
        return indefinite_inner(n, gammas[n], (smears[j],), (smears[k],))[0, 0]

    return wick_sum(signs, pair)
