"""The tests' independent routes to the package's integrals.

The package computes every integral without QUADPACK; these routines redo
them by scipy's adaptive Gauss-Kronrod quadrature, so a fault in the exact
forms, the gamma moments or the reservoir kernel shows up as a disagreement.
``i_sigma_on_rule`` sums I(sigma) on gamma's momentum rule node by node, and
``gamma_by_sigma_panels`` integrates it over sigma panels: the package
integrates the other way round, sigma first, in closed form.
``unpack`` expands a packed Fock vector into dense tensors through an
itertools map from sorted multi-index to position, not the package's index
tables; ``symmetrize_by_permutations`` is the k!-term average a packed
creation must reproduce, and ``max_symmetry_defect`` measures how far a
dense tensor is from symmetric.
"""

import itertools
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from multinoise.dispersion import clip_domain, measure_weight
from multinoise.errors import QuadratureFailure
from multinoise.forms import QUAD_REL
from multinoise.panels import MOMENTUM_TOL, envelope, panel_rule

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


def unpack(phi) -> tuple[np.ndarray, ...]:
    """The dense symmetric tensors of a packed Fock vector, batch axes first:
    dense entry (i_1, ..., i_k) is the packed entry of sorted(i_1, ..., i_k),
    the packed entries of rank k in the order of
    combinations_with_replacement."""
    m = phi.sector.size
    dense = []
    for k, comp in enumerate(phi.components):
        position = {alpha: i for i, alpha in enumerate(
            itertools.combinations_with_replacement(range(m), k))}
        index = [position[tuple(sorted(d))]
                 for d in itertools.product(range(m), repeat=k)]
        dense.append(comp[..., index].reshape(comp.shape[:-1] + (m,) * k))
    return tuple(dense)


def symmetrize_by_permutations(tensor: np.ndarray) -> np.ndarray:
    """Average of the tensor over all permutations of its slots."""
    k = tensor.ndim
    return (sum(np.transpose(tensor, perm)
                for perm in itertools.permutations(range(k)))
            / math.factorial(k))


def max_symmetry_defect(tensor: np.ndarray) -> float:
    """Largest deviation from permutation symmetry across adjacent swaps."""
    return float(np.max(
        [np.max(np.abs(tensor - np.swapaxes(tensor, i, i + 1)))
         for i in range(tensor.ndim - 1)], initial=0.0))


def gamma_by_sigma_panels(sigma_end: float, blocks, orders) -> list[float]:
    """gamma_n of the sigma integral truncated at Sigma, integrated over sigma.

    Legendre panels on [0, Sigma], none wider than pi / max|omega|, over I
    from ``i_sigma_on_rule`` (64 sigma nodes at a time, so that no
    sigma x momentum matrix of the whole rule is held); the negative half
    line enters through I(-sigma) = conj(I(sigma)).
    """
    omega_max = max((float(np.max(np.abs(om))) for om, _ in blocks),
                    default=0.0)
    nodes, weights = panel_rule(
        0.0, sigma_end, min(math.pi / max(omega_max, 1e-6), sigma_end / 4.0))
    values = np.concatenate([i_sigma_on_rule(blocks, nodes[i:i + 64])
                             for i in range(0, nodes.size, 64)])
    gammas = []
    for n in orders:
        half = np.sum(weights * nodes ** n * values)
        full = (1j) ** n * (half + (-1) ** n * np.conj(half))
        gammas.append(float(full.real) / math.factorial(n))
    return gammas
