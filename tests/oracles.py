"""The tests' independent routes to the package's integrals.

The package computes every integral without QUADPACK; these routines redo
them by scipy's adaptive Gauss-Kronrod quadrature, so a fault in the exact
forms, the sigma table or the reservoir kernel shows up as a disagreement.
``i_sigma_on_rule`` sums the sigma table's own momentum rule node by node,
without the per-panel phase factoring.
"""

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from multinoise.dispersion import clip_domain, measure_weight
from multinoise.errors import QuadratureFailure
from multinoise.forms import QUAD_REL
from multinoise.panels import MOMENTUM_TOL, envelope

QUAD_ABS = 1e-14     # absolute quadrature floor


def complex_quad(fun, lo: float, hi: float, *, epsabs: float = QUAD_ABS,
                 epsrel: float = QUAD_REL, limit: int = 200,
                 points=None) -> complex:
    """Adaptive Gauss-Kronrod integration of a complex-valued integrand."""
    if hi <= lo:
        return 0j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, abserr, _info = quad(
            fun, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit,
            points=points, complex_func=True, full_output=True)
    # QUADPACK reports the error it actually achieved; treat a large miss as
    # failure rather than trusting the value silently.
    if abs(abserr) > 50.0 * max(epsabs, epsrel * abs(val)):
        raise QuadratureFailure(
            f"requested {epsabs:g}/{epsrel:g} on [{lo:g}, {hi:g}], "
            f"achieved only {abs(abserr):g}")
    return complex(val)


def i_sigma(disp, g, sigma: float, *, epsabs: float = 1e-13,
            epsrel: float = 1e-11) -> complex:
    """Characteristic-function integral I(sigma) by adaptive quadrature."""
    lo, hi = clip_domain(disp, *envelope(g, MOMENTUM_TOL))

    def integrand(k):
        return (np.exp(1j * sigma * disp.omega(k)) * measure_weight(disp, k)
                * abs(g(k)) ** 2)

    return complex_quad(integrand, lo, hi, epsabs=epsabs, epsrel=epsrel,
                        limit=400)


def i_sigma_on_rule(blocks, sigmas) -> np.ndarray:
    """I(sigma) on a momentum rule as the direct outer-product sum."""
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if not blocks:
        return np.zeros(sigmas.shape, dtype=complex)
    acc = np.exp(1j * np.outer(sigmas, blocks[0][0])) * blocks[0][1]
    for omega_nodes, density in blocks[1:]:
        # mirror blocks share the node layout; adding before the momentum sum
        # lets conjugate pairs cancel exactly
        acc = acc + np.exp(1j * np.outer(sigmas, omega_nodes)) * density
    return acc.sum(axis=1)
