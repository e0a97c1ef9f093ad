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
  and the momentum integral is pushed through omega onto the energy: an
  integral in u = E/lambda^2 of the shell density rho(E)
  (``dispersion.shell_density``), whose derivatives at E = 0 are the
  gamma_n, against the smears' spectra.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .atoms import TestFunction
from .dispersion import Dispersion, clip_domain, cut_points, shell_density
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
PAIR_ABS, PAIR_REL = 1e-12, 1e-10  # reservoir_pair's panel-doubling agreement,
                                   # PAIR_ABS per unit of its amplitude scale
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


def reservoir_pair(disp: Dispersion, g: TestFunction, lam: float,
                   f_minus: TestFunction, f_plus: TestFunction) -> complex:
    """Exact two-point function of the rescaled reservoir field at coupling lam:

        2 pi * integral du  rho(lambda^2 u) conj(f_minus_F(u)) f_plus_F(u),

    rho the shell density of g over its momentum range.  u runs where both
    smears' Fourier transforms exceed SPECTRUM_TOL times their largest atom
    amplitude (however the smears are normalised), clipped to omega's range
    over the momentum range: the window does not depend on lambda, and an
    empty one gives 0j.  It is cut at omega's values at the range's ends and
    stationary points, over lambda^2.  rho has a 1/sqrt threshold at a
    stationary value e_s, so the piece starting there runs in t, with
    u = e_s/lambda^2 + t^2 at the energy e_s + lambda^2 t^2.  Each piece is a
    Gauss-Legendre panel sum whose panel count doubles until two sums agree
    to max(PAIR_ABS A, PAIR_REL |I|), A the product of g's amplitude squared
    and both spectra's amplitudes; QuadratureFailure if they still differ at
    MAX_PANELS panels.  The test suite checks it by adaptive quadrature in u
    on its own branch inverse and in k, and by a time-domain tensor rule.
    """
    if not (lam > 0 and lam * lam > 0):
        raise ValueError("coupling lambda must be positive")
    lo, hi = clip_domain(disp, *envelope(g, MOMENTUM_TOL))
    if hi <= lo:
        return 0j
    fm_hat, fp_hat = f_minus.fourier(), f_plus.fourier()
    m_lo, m_hi = envelope(fm_hat, SPECTRUM_TOL * fm_hat.amplitude())
    p_lo, p_hi = envelope(fp_hat, SPECTRUM_TOL * fp_hat.amplitude())
    lam2 = lam * lam
    corners = np.array(cut_points(disp, lo, hi))  # omega's range is theirs
    energies = disp.omega(corners)
    with np.errstate(over="ignore"):  # an infinite end clips and cuts nothing
        ends = energies / lam2
    thresholds = {u: e for u, e, slope in zip(ends, energies, disp.domega(corners))
                  if slope == 0}
    u_lo, u_hi = max(m_lo, p_lo, ends.min()), min(m_hi, p_hi, ends.max())
    if not u_hi > u_lo:
        return 0j
    epsabs = PAIR_ABS * g.amplitude() ** 2 * fm_hat.amplitude() * fp_hat.amplitude()

    def spectral(u, energy):
        return (shell_density(disp, g, lo, hi, energy)
                * np.conj(fm_hat(u)) * fp_hat(u))

    cuts = [u_lo, *sorted({u for u in ends if u_lo < u < u_hi}), u_hi]
    total = 0j
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a in thresholds:
            e_s = thresholds[a]
            total += panel_sum(
                lambda t: 2.0 * t * spectral(a + t * t, e_s + lam2 * t * t),
                0.0, math.sqrt(b - a), epsabs=epsabs, epsrel=PAIR_REL)
        else:
            total += panel_sum(lambda u: spectral(u, lam2 * u), a, b,
                               epsabs=epsabs, epsrel=PAIR_REL)
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
