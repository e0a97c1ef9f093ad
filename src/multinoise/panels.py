"""Gauss-Legendre panel rules shared by the gamma table and the reservoir kernel.

``panel_rule`` lays equal panels of GL_ORDER Legendre nodes on an interval;
``panel_sum`` doubles the panel count until two successive sums agree;
``envelope`` memoizes the integration range both modules take from a test
function's envelope.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .atoms import TestFunction
from .errors import QuadratureFailure

__all__ = ["GL_ORDER", "MAX_PANELS", "MOMENTUM_TOL", "envelope", "panel_rule",
           "panel_sum"]

GL_ORDER = 16
# leggauss refines its nodes by Newton steps, about half a millisecond a call,
# and the reservoir kernel builds a panel rule per doubling step
GL_NODES, GL_WEIGHTS = leggauss(GL_ORDER)
MAX_PANELS = 1024  # doubling cap of panel_sum
MOMENTUM_TOL = 1e-9  # |g| threshold bounding the momentum integrals over g


@lru_cache(maxsize=64)
def envelope(f: TestFunction, tol: float) -> tuple[float, float]:
    """``f.envelope_interval(tol)``, computed once per function and threshold.

    The support gate, both gamma routes and the reservoir kernel each ask
    for the same form factor's interval, the kernel once per pair and lambda.
    """
    return f.envelope_interval(tol)


def panel_rule(lo: float, hi: float, width: float):
    """Equal Gauss-Legendre panels on [lo, hi], none wider than ``width``.

    Returns ``(nodes, weights, mids, offsets)``: node ``p * GL_ORDER + j`` is
    ``mids[p] + offsets[j]``.  Every panel shares one half-width, so the
    offsets are the same floats in every panel, which is what lets the sigma
    table factor its phase per panel.
    """
    n_panels = int(math.ceil((hi - lo) / width))
    half = 0.5 * (hi - lo) / n_panels
    mids = lo + half * (2.0 * np.arange(n_panels) + 1.0)
    offsets = half * GL_NODES
    nodes = (mids[:, None] + offsets[None, :]).ravel()
    weights = np.tile(half * GL_WEIGHTS, n_panels)
    return nodes, weights, mids, offsets


def panel_sum(fun, lo: float, hi: float, *, epsabs: float,
              epsrel: float) -> complex:
    """Gauss-Legendre panel sum of a vectorized integrand over [lo, hi].

    The panel count doubles until two successive sums agree to
    max(epsabs, epsrel |I|); past MAX_PANELS the integral is reported as
    QuadratureFailure.
    """
    previous, change = None, math.inf
    panels = 1
    while panels <= MAX_PANELS:
        nodes, weights, _, _ = panel_rule(lo, hi, (hi - lo) / panels)
        total = complex(np.dot(weights, fun(nodes)))
        if previous is not None:
            change = abs(total - previous)
            if change <= max(epsabs, epsrel * abs(total)):
                return total
        previous = total
        panels *= 2
    raise QuadratureFailure(
        f"panel sum on [{lo:g}, {hi:g}] not converged to {epsabs:g}/{epsrel:g} "
        f"with {MAX_PANELS} panels; last change {change:g}")
