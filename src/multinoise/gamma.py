"""Weak-coupling coefficients by oscillatory integral and energy-shell oracle.

The n-th coefficient is

    gamma_n = (i^n / n!) integral dsigma sigma^n I(sigma),
    I(sigma) = integral dk exp(i sigma omega(k)) |g(k)|^2,

computed by truncating the sigma integral where |I(sigma)| has decayed below
a bound, with Gauss-Legendre panels (``panels.panel_rule``) narrow enough to
resolve both oscillation rates (sigma * max|omega'| in momentum, max|omega|
in sigma).  ``_i_sigma_on_panels`` is the one evaluator of I:  the sigma
panels share one half-width h, so every node is mid_p + h x_j with the same
Legendre nodes x_j, and exp(i sigma omega) = exp(i mid_p omega)
exp(i h x_j omega) exactly: per momentum block the table is one
(panels x momentum) by (momentum x 16) matrix product of the two phase
factors, and no sigma x momentum matrix is formed.  The table is evaluated
once on the sigma nodes and memoized; the decay probes that place the cutoff
are one-node panels.  The test suite checks I against the direct node-by-node
sum and adaptive quadrature.

The independent oracle pushes |g|^2 through omega:  with
rho(E) = sum_{omega(k)=E} w(k) |g(k)|^2 / |omega'(k)|  (the shell density),

    gamma_n = (2 pi / n!) (-1)^n rho^(n)(0).

The derivative is exact.  A root k(E) moves at dk/dE = 1/omega', so each
root k0 of omega contributes (S^n F)(k0) / |omega'(k0)| to rho^(n)(0), with
F = w |g|^2 and S F = (F / omega')'.  F is carried as its Taylor series about
k0, from the exact derivatives of g; omega' is affine in k, so each division
by it is a two-term recurrence and S loses nothing but rounding.
Both routes require the stationary set of omega to avoid the support of g,
where |g|^2 may reach EPS_SUPP; ``check_support`` reports that condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .atoms import TestFunction
from .dispersion import (Dispersion, clip_domain, curvature, measure_taylor,
                         measure_weight)
from .errors import (DegenerateRoot, ImaginaryResidue, OracleMismatch,
                     QuadratureFailure, SlowDecay)
from .panels import MOMENTUM_TOL, envelope, panel_rule

__all__ = [
    "SupportReport",
    "check_support",
    "gamma_osc",
    "gamma_shell",
    "GammaRow",
    "GammaTable",
    "gamma_table",
]

EPS_SUPP = 1e-10   # threshold on |g|^2 for the effective support
SIGMA_DECAY_TOL = 1e-12
SIGMA_CAP = 512.0
DEGENERATE_SLOPE = 1e-6
MAX_ORDER = 6
MAX_SIGMA_TABLE = 2 ** 24  # (sigma panels) x (momentum nodes); shipped: 1.7e6


@dataclass(frozen=True)
class SupportReport:
    support: tuple[float, float]
    stationary_inside: tuple[float, ...]

    @property
    def passes(self) -> bool:
        return not self.stationary_inside


def check_support(disp: Dispersion, g: TestFunction) -> SupportReport:
    """Stationary points of omega where |g(k)|^2 may reach EPS_SUPP."""
    lo, hi = clip_domain(disp, *envelope(g, math.sqrt(EPS_SUPP)))
    inside = tuple(p for p in disp.stationary_points() if lo <= p <= hi)
    return SupportReport((lo, hi), inside)


# ---------------------------------------------------------------------------
# oscillatory route
# ---------------------------------------------------------------------------


def _momentum_rule(disp: Dispersion, g: TestFunction, sigma_max: float):
    """Panel blocks of (omega values, weighted |g|^2) resolving exp(i sigma omega).

    A domain straddling 0 is widened to [-X, X] and returned as a positive
    block plus its bitwise mirror, so that configurations with odd omega and
    even |g|^2 produce exactly conjugate node pairs; summing the mirror blocks
    elementwise then cancels the imaginary part identically, which is what
    makes symmetry-forced odd coefficients come out as exact zeros.
    """
    lo, hi = clip_domain(disp, *envelope(g, MOMENTUM_TOL))
    if hi <= lo:
        return ()
    corners = [lo, hi, *(p for p in disp.stationary_points() if lo < p < hi)]
    dom_max = float(np.max(np.abs(disp.domega(np.array(corners)))))
    min_width = min(a.width for _, a in g.atoms)
    width = min(math.pi / max(sigma_max * dom_max, 1e-6),
                0.5 * min_width, (hi - lo) / 4.0)

    def block(nodes, weights):
        density = weights * measure_weight(disp, nodes) * np.abs(g(nodes)) ** 2
        return np.asarray(disp.omega(nodes)), density

    if lo < 0.0 < hi:
        radius = max(-lo, hi)
        nodes, weights, _, _ = panel_rule(0.0, radius, width)
        return (block(nodes, weights), block(-nodes, weights))
    nodes, weights, _, _ = panel_rule(lo, hi, width)
    return (block(nodes, weights),)


def _i_sigma_on_panels(blocks, mids, offsets) -> np.ndarray:
    """I on the nodes ``mids[p] + offsets[j]``, raveled panel by panel.

    exp(i sigma omega) splits exactly into exp(i mid omega) exp(i offset
    omega), so each momentum block costs (P + J) K exponentials and one
    P x K by K x J matrix product instead of P J K exponentials.  More than
    MAX_SIGMA_TABLE entries P K is QuadratureFailure, raised before allocating.
    """
    entries = mids.size * sum(omega_nodes.size for omega_nodes, _ in blocks)
    if entries > MAX_SIGMA_TABLE:
        raise QuadratureFailure(f"sigma table needs {entries:.3g} phase "
                                f"entries, more than {MAX_SIGMA_TABLE}")
    acc = np.zeros((mids.size, offsets.size), dtype=complex)
    for omega_nodes, density in blocks:
        # a mirror block's product is the bitwise conjugate of its partner's,
        # so odd coefficients of symmetric configurations still cancel exactly
        acc += ((np.exp(1j * np.outer(mids, omega_nodes)) * density)
                @ np.exp(1j * np.outer(offsets, omega_nodes)).T)
    return acc.ravel()


def _sigma_cutoff(disp: Dispersion, g: TestFunction) -> float:
    """Truncation point Sigma of the sigma integral.

    Sigma is the first point of a doubling ladder where |I(sigma)| stays below
    SIGMA_DECAY_TOL (three probes guard against hitting an oscillation zero);
    SlowDecay if the cap is reached.
    """
    def probe_mag(sig: float) -> float:
        blocks = _momentum_rule(disp, g, 1.7 * sig)
        probes = np.array([sig, 1.3 * sig, 1.7 * sig])
        # one-node panels: I at the probes themselves
        values = _i_sigma_on_panels(blocks, probes, np.zeros(1))
        return float(np.max(np.abs(values)))

    sigma_end = 1.0
    while probe_mag(sigma_end) >= SIGMA_DECAY_TOL:
        sigma_end *= 2.0
        if sigma_end > SIGMA_CAP:
            raise SlowDecay(
                f"|I(sigma)| not below {SIGMA_DECAY_TOL:g} by sigma = "
                f"{SIGMA_CAP:g}; "
                f"stationary phase point suspected")
    return sigma_end


@lru_cache(maxsize=32)
def _oscillation_table(disp: Dispersion, g: TestFunction):
    """Sigma nodes, weights and memoized I values on [0, Sigma]."""
    sigma_end = _sigma_cutoff(disp, g)
    blocks = _momentum_rule(disp, g, sigma_end)
    omega_max = max((float(np.max(np.abs(om))) for om, _ in blocks),
                    default=0.0)
    panel = math.pi / max(omega_max, 1e-6)
    nodes, weights, mids, offsets = panel_rule(
        0.0, sigma_end, min(panel, sigma_end / 4.0))
    values = _i_sigma_on_panels(blocks, mids, offsets)
    for arr in (nodes, weights, values):
        arr.setflags(write=False)
    return nodes, weights, values


def gamma_osc(disp: Dispersion, g: TestFunction, n: int) -> float:
    """Order-n coefficient via the truncated oscillatory sigma integral.

    The negative half line is folded in through the exact identity
    I(-sigma) = conj(I(sigma)), so the assembled value is real by
    construction; the residue check is a tripwire for evaluators that break
    that symmetry.
    """
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    nodes, weights, values = _oscillation_table(disp, g)
    half = np.sum(weights * nodes ** n * values)
    raw = (1j) ** n / math.factorial(n) * (half + (-1) ** n * np.conj(half))
    if abs(raw.imag) > 1e-8 * (abs(raw.real) + 1e-14):
        raise ImaginaryResidue(
            f"gamma_{n} carries imaginary part {raw.imag:.3g} "
            f"against real part {raw.real:.3g}")
    return float(raw.real)


# ---------------------------------------------------------------------------
# energy-shell oracle
# ---------------------------------------------------------------------------


def _shell_roots(disp: Dispersion, energy: float):
    """Roots of omega = energy with their slopes; DegenerateRoot on a flat one."""
    for k in disp.roots(energy):
        slope = float(disp.domega(k))
        if abs(slope) < DEGENERATE_SLOPE:
            raise DegenerateRoot(
                f"|omega'({k:g})| = {abs(slope):.3g} below {DEGENERATE_SLOPE:g}")
        yield k, slope


def _root_derivative(disp: Dispersion, g: TestFunction, k0: float,
                     slope: float, n: int) -> float:
    """(S^n F)(k0) / |omega'(k0)|, one root's share of rho^(n)(0).

    F = w |g|^2 and S F = (F / omega')' are carried as Taylor coefficients in
    delta = k - k0, truncated at degree n; each S drops one degree.
    """
    coeffs = [g.derivative(j)(k0) / math.factorial(j) for j in range(n + 1)]
    taylor = [sum(coeffs[i] * coeffs[j - i].conjugate()
                  for i in range(j + 1)).real for j in range(n + 1)]
    taylor = np.convolve(taylor, measure_taylor(disp, k0))[:n + 1]
    # omega'(k0 + delta) = slope + omega'' delta, so dividing by it is a
    # two-term recurrence
    second = curvature(disp)
    for _ in range(n):
        quotient, last = [], 0.0
        for t in taylor:
            last = (t - second * last) / slope
            quotient.append(last)
        taylor = [j * q for j, q in enumerate(quotient)][1:]
    return float(taylor[0]) / abs(slope)


def gamma_shell(disp: Dispersion, g: TestFunction, n: int) -> float:
    """Order-n coefficient from the exact n-th E-derivative of rho at E = 0."""
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    val = sum(_root_derivative(disp, g, k, slope, n)
              for k, slope in _shell_roots(disp, 0.0))
    return (2.0 * math.pi / math.factorial(n)) * (-1.0) ** n * val


# ---------------------------------------------------------------------------
# cross-checked table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaRow:
    n: int
    gamma_osc: float
    gamma_shell: float
    rel_diff: float


@dataclass(frozen=True)
class GammaTable:
    rows: tuple[GammaRow, ...]

    def max_rel_diff(self) -> float:
        # np.max keeps a NaN that the builtin max would drop
        return float(np.max([r.rel_diff for r in self.rows], initial=0.0))

    def gammas(self) -> dict[int, float]:
        return {r.n: r.gamma_osc for r in self.rows}

    def to_csv_text(self) -> str:
        lines = ["n,gamma_osc,gamma_shell,rel_diff"]
        for r in self.rows:
            lines.append(f"{r.n},{r.gamma_osc:.17g},{r.gamma_shell:.17g},"
                         f"{r.rel_diff:.17g}")
        return "\n".join(lines) + "\n"


def gamma_table(disp: Dispersion, g: TestFunction, orders) -> GammaTable:
    """Both gamma routes for every requested order, with their disagreement."""
    rows = []
    for n in orders:
        osc = gamma_osc(disp, g, n)
        shell = gamma_shell(disp, g, n)
        rel = abs(osc - shell) / (abs(shell) + 1e-10)
        rows.append(GammaRow(int(n), osc, shell, rel))
    for r in rows:
        if r.n == 0 and r.gamma_osc < -1e-12:
            raise OracleMismatch(
                f"gamma_0 = {r.gamma_osc:.3g} violates nonnegativity")
    return GammaTable(tuple(rows))
