"""The sesquilinear forms on test functions, plus the grid-side metric.

* ``l2_inner``          -- plain L2 pairing  integral conj(f) h dt
* ``weighted_inner``    -- positive form     integral |x|^n conj(f_F) h_F dx
* ``indefinite_inner``  -- commutator kernel i^n gamma integral conj(f^(n)) h dt

The indefinite kernel equals gamma * (-1)^n integral x^n conj(f_F) h_F dx in the
frequency domain.  ``indefinite_inner_frequency`` computes it that way, through
``fourier()`` instead of ``derivative()``, which gives the ccr check a second
route to the kernel.  For even n both routes reduce to gamma * weighted_inner;
for odd n the form is genuinely indefinite.  Given sequences of functions,
each form returns its matrix over all pairs from one batched evaluation.

The forms are exact: no integral is done numerically.  For two atoms,
conj(a) b t^k is a polynomial P times exp(-A t^2 + B t + C) with A > 0 and
complex B.  Completing the square and shifting the contour to the complex
centre t0 = B / 2A turns the integral over the line into Gauss-Hermite
quadrature of P(t0 + x / sqrt(A)), which is exact with floor(deg P / 2) + 1
nodes (the Hermite-Gaussian overlaps of McMurchie & Davidson, J. Comput.
Phys. 26, 218 (1978) and Obara & Saika, J. Chem. Phys. 84, 3963 (1986)).
For odd n the weight |x|^n is not a polynomial, and the weighted form uses
integral |x|^n g = 2 integral_0^inf x^n g - integral x^n g, with the half-line
moments in closed form (``_odd_weighted_pairs``).  Where the half-line
recurrence would lose more accuracy than QUAD_REL of the terms it combines,
the form raises QuadratureFailure instead of returning a degraded value.

The test suite checks the forms against adaptive quadrature.  scipy is
imported only inside ``_odd_weighted_pairs``, for ``erfcx``, so importing the
package loads no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from numpy.polynomial.hermite import herm2poly, hermgauss, hermval

from .atoms import TestFunction
from .errors import QuadratureFailure, ZeroGamma
from .panels import panel_rule

__all__ = [
    "QUAD_REL",
    "ENVELOPE_TOL",
    "METRIC_ORIENTATION",
    "l2_inner",
    "weighted_inner",
    "indefinite_inner",
    "indefinite_inner_frequency",
    "GridFunction",
    "frequency_grid",
    "to_grid",
    "metric_apply",
    "grid_weighted_inner",
]

QUAD_REL = 1e-11     # relative accuracy target of quadrature and exact forms
ENVELOPE_TOL = 1e-18  # tail truncation threshold for Gaussian envelopes
GRID_PANELS = 32    # panels on each half of the frequency grid

Functions = Union[TestFunction, Sequence[TestFunction]]

# Orientation of the frequency-domain sign multiplier for odd orders,
# calibrated so that (f, eta_n h)_{H_n} reproduces the time-domain kernel
# i^n int conj(f^(n)) h dt under the e^{itx} Fourier convention.  Even orders
# carry the trivial metric.  See test_forms.test_metric_orientation.
METRIC_ORIENTATION = -1.0


# ---------------------------------------------------------------------------
# exact atom-pair overlaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _AtomTable:
    """The atoms of a list of test functions, stacked for batched pair sums.

    ``to_fn[i, a]`` is the coefficient of atom a in function i, so a matrix V
    of atom-pair values maps to function pairs as conj(to_fn_f) V to_fn_h^T.
    ``poly`` holds the Hermite coefficients, zero-padded to a common length.
    """

    to_fn: np.ndarray
    center: np.ndarray
    width: np.ndarray
    modulation: np.ndarray
    poly: np.ndarray

    @classmethod
    def of(cls, fns: Sequence[TestFunction]) -> "_AtomTable":
        rows = [(i, c, a) for i, f in enumerate(fns) for c, a in f.atoms]
        length = max((len(a.poly) for _, _, a in rows), default=1)
        to_fn = np.zeros((len(fns), len(rows)), dtype=complex)
        poly = np.zeros((len(rows), length), dtype=complex)
        for j, (i, c, a) in enumerate(rows):
            to_fn[i, j] = c
            poly[j, :len(a.poly)] = a.poly
        shape = np.array([(a.center, a.width, a.modulation) for _, _, a in rows],
                         dtype=float).reshape(-1, 3)
        return cls(to_fn, shape[:, 0], shape[:, 1], shape[:, 2], poly)

    def powers(self) -> np.ndarray:
        """Coefficients of each atom polynomial p((t - center)/width) in powers of t."""
        d = self.poly.shape[1]
        in_u = self.poly @ _hermite_to_powers(d)
        i = np.arange(d)
        # (u)^i = width^-i sum_j C(i, j) t^j (-center)^(i-j)
        shift = (_binomials(d)
                 * (-self.center[:, None, None]) ** np.maximum(i[:, None] - i, 0)
                 / self.width[:, None, None] ** i[:, None])
        return np.einsum("ai,aij->aj", in_u, shift)


@functools.lru_cache(maxsize=None)
def _gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return hermgauss(nodes)


@functools.lru_cache(maxsize=None)
def _hermite_to_powers(d: int) -> np.ndarray:
    """Row k holds the power-basis coefficients of H_k, padded to length d."""
    out = np.zeros((d, d))
    for k in range(d):
        out[k, :k + 1] = herm2poly(np.eye(d)[k, :k + 1])
    return out


@functools.lru_cache(maxsize=None)
def _binomials(d: int) -> np.ndarray:
    return np.array([[math.comb(i, j) for j in range(d)] for i in range(d)],
                    dtype=float)


def _gaussian_parameters(fa: _AtomTable, fb: _AtomTable):
    """A, B, C of conj(a) b = P(t) exp(-A t^2 + B t + C), shape (atoms_a, atoms_b)."""
    ia = 1.0 / fa.width[:, None] ** 2
    ib = 1.0 / fb.width ** 2
    A = 0.5 * (ia + ib)
    B = (fa.center[:, None] * ia + fb.center * ib
         + 1j * (fb.modulation - fa.modulation[:, None]))
    C = -0.5 * (fa.center[:, None] ** 2 * ia + fb.center ** 2 * ib)
    return A, B, C


def _line_pairs(fa: _AtomTable, fb: _AtomTable, k: int) -> np.ndarray:
    """integral conj(a) b t^k dt over the real line, for every atom pair."""
    A, B, C = _gaussian_parameters(fa, fb)
    root = np.sqrt(A)
    degree = fa.poly.shape[1] + fb.poly.shape[1] - 2 + k
    x, w = _gauss_hermite(degree // 2 + 1)
    t = (B / (2.0 * A))[..., None] + x / root[..., None]
    left = hermval((t - fa.center[:, None, None]) / fa.width[:, None, None],
                   np.conj(fa.poly).T[:, :, None, None], tensor=False)
    right = hermval((t - fb.center[:, None]) / fb.width[:, None],
                    fb.poly.T[:, None, :, None], tensor=False)
    return np.exp(B * B / (4.0 * A) + C) / root * ((left * right * t ** k) @ w)


def _odd_weighted_pairs(fa: _AtomTable, fb: _AtomTable, k: int) -> np.ndarray:
    """integral |t|^k conj(a) b dt for odd k, for every atom pair.

    The value is sign * (2 H - L) with L the line integral and H the half line
    on the side away from the Gaussian centre Re(t0): [0, inf) for sign = +1,
    (-inf, 0] for sign = -1.  That choice keeps the erfcx argument in the
    right half plane, where it is bounded.  H expands P in powers of t about
    the endpoint, against the moments

        J_j = integral_0^inf s^j exp(-A s^2 + beta s + C) ds,  beta = sign B,
        J_0 = e^C sqrt(pi / A) / 2 * erfcx(-beta / (2 sqrt(A))),
        2 A J_1 = beta J_0 + e^C,   2 A J_j = beta J_(j-1) + (j-1) J_(j-2).

    The recurrence loses accuracy when the centre is far off the axis
    relative to its width (well-separated atoms in time).  A running bound on
    its rounding error is kept beside it; a pair whose bound exceeds QUAD_REL
    of the terms it combines raises QuadratureFailure.
    """
    # imported here: of the CLI commands only rep-check builds the odd-order sector Gram matrices that need it
    from scipy.special import erfcx

    A, B, C = _gaussian_parameters(fa, fb)
    line = _line_pairs(fa, fb, k)
    sign = np.where(B.real <= 0.0, 1.0, -1.0)
    beta = sign * B
    two_a = 2.0 * A
    ec = np.exp(C)
    count = fa.poly.shape[1] + fb.poly.shape[1] - 1 + k
    J = np.empty(B.shape + (count,), dtype=complex)
    bound = np.empty(J.shape)
    J[..., 0] = ec * np.sqrt(np.pi / A) / 2.0 * erfcx(-beta / np.sqrt(2.0 * two_a))
    bound[..., 0] = np.abs(J[..., 0])
    J[..., 1] = (beta * J[..., 0] + ec) / two_a
    bound[..., 1] = (np.abs(beta) * bound[..., 0] + ec) / two_a
    for j in range(2, count):
        J[..., j] = (beta * J[..., j - 1] + (j - 1) * J[..., j - 2]) / two_a
        bound[..., j] = (np.abs(beta) * bound[..., j - 1]
                         + (j - 1) * bound[..., j - 2]) / two_a

    pa, pb = fa.powers(), fb.powers()
    power = k + np.arange(pa.shape[1])[:, None] + np.arange(pb.shape[1])
    moments = J[..., power] * sign[..., None, None] ** power
    half = np.einsum("ai,bl,abil->ab", np.conj(pa), pb, moments)

    magnitude = np.einsum("ai,bl,abil->ab", np.abs(pa), np.abs(pb),
                          np.abs(moments)) + np.abs(line)
    error = 2.0 * np.finfo(float).eps * np.einsum(
        "ai,bl,abil->ab", np.abs(pa), np.abs(pb), bound[..., power])
    if np.any(error > QUAD_REL * magnitude):
        worst = float(np.max(error / magnitude))
        raise QuadratureFailure(
            f"order-{k} weighted form: half-line recurrence error {worst:.3g} "
            f"relative to its terms exceeds {QUAD_REL:g}")
    return sign * (2.0 * half - line)


def _form_matrix(fs: Sequence[TestFunction], hs: Sequence[TestFunction],
                 k: int, absolute: bool = False) -> np.ndarray:
    """M[i, j] = integral conj(fs[i]) hs[j] w(t) dt with w = t^k, or |t|^k."""
    fa, fb = _AtomTable.of(fs), _AtomTable.of(hs)
    if fa.poly.shape[0] == 0 or fb.poly.shape[0] == 0:
        return np.zeros((len(fs), len(hs)), dtype=complex)
    if absolute and k % 2:
        pairs = _odd_weighted_pairs(fa, fb, k)
    else:
        pairs = _line_pairs(fa, fb, k)
    if not np.all(np.isfinite(pairs)):
        raise QuadratureFailure(f"non-finite atom overlap for weight order {k}")
    return np.conj(fa.to_fn) @ pairs @ fb.to_fn.T


def _listed(f: Functions) -> tuple[TestFunction, ...]:
    return (f,) if isinstance(f, TestFunction) else tuple(f)


def _shaped(matrix: np.ndarray, f: Functions, h: Functions):
    """A scalar for two single functions, else the whole pair matrix."""
    if isinstance(f, TestFunction) and isinstance(h, TestFunction):
        return complex(matrix[0, 0])
    return matrix


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError("order must be nonnegative")


def _check_gamma(gamma: float) -> None:
    if gamma == 0:
        raise ZeroGamma("coupling constant gamma must be nonzero")


# ---------------------------------------------------------------------------
# the forms
# ---------------------------------------------------------------------------
#
# Each form takes two test functions and returns a complex number, or takes
# sequences of test functions (a single function counts as a sequence of one)
# and returns the matrix of the form over all pairs, in one batched call.


def l2_inner(f: Functions, h: Functions) -> complex | np.ndarray:
    """(f, h)_{L2} = integral conj(f(t)) h(t) dt."""
    return _shaped(_form_matrix(_listed(f), _listed(h), 0), f, h)


def weighted_inner(n: int, f: Functions, h: Functions) -> complex | np.ndarray:
    """Positive form of order n: integral |x|^n conj(f_F(x)) h_F(x) dx."""
    _check_order(n)
    fF = [g.fourier() for g in _listed(f)]
    hF = [g.fourier() for g in _listed(h)]
    return _shaped(_form_matrix(fF, hF, n, absolute=True), f, h)


def indefinite_inner(n: int, gamma: float, f: Functions,
                     h: Functions) -> complex | np.ndarray:
    """Commutator kernel  i^n gamma integral conj(f^(n)(t)) h(t) dt."""
    _check_order(n)
    _check_gamma(gamma)
    fd = [g.derivative(n) for g in _listed(f)]
    return _shaped((1j) ** n * gamma * _form_matrix(fd, _listed(h), 0), f, h)


def indefinite_inner_frequency(n: int, gamma: float, f: Functions,
                               h: Functions) -> complex | np.ndarray:
    """Same kernel through the frequency domain: gamma (-1)^n int x^n conj(f_F) h_F."""
    _check_order(n)
    _check_gamma(gamma)
    fF = [g.fourier() for g in _listed(f)]
    hF = [g.fourier() for g in _listed(h)]
    return _shaped((-1.0) ** n * gamma * _form_matrix(fF, hF, n), f, h)


# ---------------------------------------------------------------------------
# pointwise frequency grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridFunction:
    """Frequency-domain samples on a sign-symmetric quadrature grid.

    Nodes are strictly increasing, symmetric about 0 and exclude 0 itself,
    so multiplication by sign(x) is well defined on every node.
    """

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if not (len(nodes) == len(weights) == len(values)):
            raise ValueError("nodes, weights and values must have equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(nodes == 0.0):
            raise ValueError("nodes must exclude 0")
        if np.any(np.abs(nodes + nodes[::-1]) > 1e-12 * np.max(np.abs(nodes))):
            raise ValueError("nodes must be symmetric about 0")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        for name, arr in (("nodes", nodes), ("weights", weights), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def frequency_grid(fns) -> GridFunction:
    """Template grid of Gauss-Legendre panels on [-X, 0] u [0, X].

    X is taken from the Fourier-domain envelopes of ``fns`` so the excluded
    tails are below the envelope threshold.  Legendre nodes are interior, so
    no node is 0 and the |x|^n kinks sit at a panel edge.
    """
    radius = 1.0
    for f in fns:
        lo, hi = f.fourier().envelope_interval(ENVELOPE_TOL)
        radius = max(radius, abs(lo), abs(hi))
    pos_nodes, pos_weights, _, _ = panel_rule(0.0, radius, radius / GRID_PANELS)
    nodes = np.concatenate([-pos_nodes[::-1], pos_nodes])
    weights = np.concatenate([pos_weights[::-1], pos_weights])
    return GridFunction(nodes, weights, np.zeros(nodes.shape, dtype=complex))


def to_grid(f: TestFunction, grid: GridFunction) -> GridFunction:
    """Sample the Fourier transform of f on the grid template."""
    return GridFunction(grid.nodes, grid.weights, f.fourier()(grid.nodes))


def metric_apply(n: int, u: GridFunction) -> GridFunction:
    """Apply the order-n metric operator pointwise on the grid.

    Odd n multiplies by METRIC_ORIENTATION * sign(x); even sectors carry the
    identity metric.  Involutive in both cases.
    """
    if n % 2 == 0:
        return u
    return GridFunction(u.nodes, u.weights,
                        u.values * (METRIC_ORIENTATION * np.sign(u.nodes)))


def grid_weighted_inner(n: int, u: GridFunction, v: GridFunction) -> complex:
    """Order-n positive form evaluated on matching grids."""
    if u.nodes.shape != v.nodes.shape or np.any(u.nodes != v.nodes):
        raise ValueError("grid functions must share nodes")
    return complex(np.sum(u.weights * np.abs(u.nodes) ** n
                          * np.conj(u.values) * v.values))
