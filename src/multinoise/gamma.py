"""Weak-coupling coefficients by oscillatory integral and energy-shell oracle.

The n-th coefficient is

    gamma_n = (i^n / n!) integral dsigma sigma^n I(sigma),
    I(sigma) = integral dk exp(i sigma omega(k)) |g(k)|^2,

computed by truncating the sigma integral where |I(sigma)| has decayed below
a bound, with Gauss-Legendre panels (``panels.panel_rule``) narrow enough to
resolve both oscillation rates (sigma * max|omega'| in momentum, max|omega|
in sigma).  I(sigma) is
evaluated once on the sigma nodes and memoized.  The sigma panels share one
half-width h, so every node is mid_p + h x_j with the same Legendre nodes x_j,
and exp(i sigma omega) = exp(i mid_p omega) exp(i h x_j omega) exactly: per
momentum block the table is one (panels x momentum) by (momentum x 16)
matrix product of the two phase factors, and no sigma x momentum matrix is
formed.  Its checks are the direct outer-product sum ``_i_sigma_on_rule``
(which also serves the decay probes), the test suite's adaptive-quadrature
I(sigma), and, for the coefficients themselves, the energy-shell oracle
below.

The independent oracle pushes |g|^2 through omega:  with
rho(E) = sum_{omega(k)=E} w(k) |g(k)|^2 / |omega'(k)|  (the shell density),

    gamma_n = (2 pi / n!) (-1)^n rho^(n)(0),

with the derivative taken by Richardson-extrapolated central differences.
Both routes require the stationary set of omega to avoid the support of g;
``check_support`` reports that condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .atoms import TestFunction
from .dispersion import Dispersion, clip_domain, measure_weight
from .errors import DegenerateRoot, ImaginaryResidue, OracleMismatch, SlowDecay
from .panels import envelope, panel_rule

__all__ = [
    "SupportReport",
    "check_support",
    "effective_support",
    "gamma_osc",
    "shell_density",
    "gamma_shell",
    "GammaRow",
    "GammaTable",
    "gamma_table",
]

EPS_SUPP_DEFAULT = 1e-10   # threshold on |g|^2 for the effective support
SIGMA_DECAY_TOL = 1e-12
SIGMA_CAP = 512.0
DEGENERATE_SLOPE = 1e-6
MAX_ORDER = 6
_INTEGRATION_TOL = 1e-9    # |g| threshold bounding the momentum domain


def effective_support(g: TestFunction, eps_supp: float = EPS_SUPP_DEFAULT) -> tuple[float, float]:
    """Interval outside which |g(k)|^2 is provably below eps_supp."""
    return envelope(g, math.sqrt(eps_supp))


@dataclass(frozen=True)
class SupportReport:
    eps_supp: float
    support: tuple[float, float]
    stationary_inside: tuple[float, ...]

    @property
    def passes(self) -> bool:
        return not self.stationary_inside


def check_support(disp: Dispersion, g: TestFunction,
                  eps_supp: float = EPS_SUPP_DEFAULT) -> SupportReport:
    """Report stationary points of omega inside the effective support of g."""
    lo, hi = clip_domain(disp, *effective_support(g, eps_supp))
    inside = tuple(p for p in disp.stationary_points() if lo <= p <= hi)
    return SupportReport(eps_supp, (lo, hi), inside)


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
    lo, hi = clip_domain(disp, *envelope(g, _INTEGRATION_TOL))
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


def _i_sigma_on_rule(blocks, sigmas) -> np.ndarray:
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if not blocks:
        return np.zeros(sigmas.shape, dtype=complex)
    acc = np.exp(1j * np.outer(sigmas, blocks[0][0])) * blocks[0][1]
    for omega_nodes, density in blocks[1:]:
        # mirror blocks share the node layout; adding before the momentum sum
        # lets conjugate pairs cancel exactly
        acc = acc + np.exp(1j * np.outer(sigmas, omega_nodes)) * density
    return acc.sum(axis=1)


def _i_sigma_on_panels(blocks, mids, offsets) -> np.ndarray:
    """I on the nodes ``mids[p] + offsets[j]``, raveled panel by panel.

    exp(i sigma omega) splits exactly into exp(i mid omega) exp(i offset
    omega), so each momentum block costs (P + J) K exponentials and one
    P x K by K x J matrix product instead of P J K exponentials.
    """
    acc = np.zeros((mids.size, offsets.size), dtype=complex)
    for omega_nodes, density in blocks:
        # a mirror block's product is the bitwise conjugate of its partner's,
        # so odd coefficients of symmetric configurations still cancel exactly
        acc += ((np.exp(1j * np.outer(mids, omega_nodes)) * density)
                @ np.exp(1j * np.outer(offsets, omega_nodes)).T)
    return acc.ravel()


def _sigma_cutoff(disp: Dispersion, g: TestFunction, tol: float) -> float:
    """Truncation point Sigma of the sigma integral.

    Sigma is the first point of a doubling ladder where |I(sigma)| stays below
    ``tol`` (three probes guard against hitting an oscillation zero);
    SlowDecay if the cap is reached.
    """
    def probe_mag(sig: float) -> float:
        blocks = _momentum_rule(disp, g, 1.7 * sig)
        probes = np.array([sig, 1.3 * sig, 1.7 * sig])
        return float(np.max(np.abs(_i_sigma_on_rule(blocks, probes))))

    sigma_end = 1.0
    while probe_mag(sigma_end) >= tol:
        sigma_end *= 2.0
        if sigma_end > SIGMA_CAP:
            raise SlowDecay(
                f"|I(sigma)| not below {tol:g} by sigma = {SIGMA_CAP:g}; "
                f"stationary phase point suspected")
    return sigma_end


@lru_cache(maxsize=32)
def _oscillation_table(disp: Dispersion, g: TestFunction,
                       tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sigma nodes, weights and memoized I values on [0, Sigma]."""
    sigma_end = _sigma_cutoff(disp, g, tol)
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


def gamma_osc(disp: Dispersion, g: TestFunction, n: int, *,
              tol: float = SIGMA_DECAY_TOL) -> float:
    """Order-n coefficient via the truncated oscillatory sigma integral.

    The negative half line is folded in through the exact identity
    I(-sigma) = conj(I(sigma)), so the assembled value is real by
    construction; the residue check is a tripwire for evaluators that break
    that symmetry.
    """
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    nodes, weights, values = _oscillation_table(disp, g, tol)
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


def shell_density(disp: Dispersion, g: TestFunction, energy: float) -> float:
    """Pushforward density of the weighted |g|^2 through omega."""
    total = 0.0
    for k in disp.roots(energy):
        slope = abs(float(disp.domega(k)))
        if slope < DEGENERATE_SLOPE:
            raise DegenerateRoot(
                f"|omega'({k:g})| = {slope:.3g} below {DEGENERATE_SLOPE:g}")
        total += float(measure_weight(disp, k)) * abs(g(k)) ** 2 / slope
    return total


def _central_difference(fun, x0: float, order: int, h: float) -> float:
    # symmetric offsets are combined pairwise so that even densities yield
    # exact zeros for odd orders instead of cancellation noise
    total = 0.0
    for i in range(order // 2 + 1):
        delta = (order / 2 - i) * h
        coeff = (-1) ** i * math.comb(order, i)
        if delta == 0:
            total += coeff * fun(x0)
        elif order % 2:
            total += coeff * (fun(x0 + delta) - fun(x0 - delta))
        else:
            total += coeff * (fun(x0 + delta) + fun(x0 - delta))
    return total / h ** order


def _richardson_derivative(fun, x0: float, order: int, h0: float,
                           levels: int = 4) -> float:
    if order == 0:
        return fun(x0)
    est = [_central_difference(fun, x0, order, h0 / 2 ** lev)
           for lev in range(levels)]
    for m in range(1, levels):
        fac = 4.0 ** m
        est = [(fac * est[i + 1] - est[i]) / (fac - 1.0)
               for i in range(len(est) - 1)]
    return est[0]


def gamma_shell(disp: Dispersion, g: TestFunction, n: int) -> float:
    """Order-n coefficient from derivatives of the shell density at E = 0."""
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    roots = disp.roots(0.0)
    lo, hi = effective_support(g)
    if not roots or all(not lo <= k <= hi for k in roots):
        # empty energy shell on the support: make sure rho vanishes there too
        if shell_density(disp, g, 0.0) < 1e-30:
            return 0.0
    slope_min = min((abs(float(disp.domega(k))) for k in roots), default=1.0)
    width_min = min(a.width for _, a in g.atoms)
    h0 = slope_min * width_min / 4.0
    val = _richardson_derivative(lambda e: shell_density(disp, g, e), 0.0, n, h0)
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
        return max((r.rel_diff for r in self.rows), default=0.0)

    def gammas(self) -> dict[int, float]:
        return {r.n: r.gamma_osc for r in self.rows}

    def to_csv_text(self) -> str:
        lines = ["n,gamma_osc,gamma_shell,rel_diff"]
        for r in self.rows:
            lines.append(f"{r.n},{r.gamma_osc:.17g},{r.gamma_shell:.17g},"
                         f"{r.rel_diff:.17g}")
        return "\n".join(lines) + "\n"


def gamma_table(disp: Dispersion, g: TestFunction, orders, *,
                tol: float = SIGMA_DECAY_TOL) -> GammaTable:
    """Both gamma routes for every requested order, with their disagreement."""
    rows = []
    for n in orders:
        osc = gamma_osc(disp, g, n, tol=tol)
        shell = gamma_shell(disp, g, n)
        rel = abs(osc - shell) / (abs(shell) + 1e-10)
        rows.append(GammaRow(int(n), osc, shell, rel))
    for r in rows:
        if r.n == 0 and r.gamma_osc < -1e-12:
            raise OracleMismatch(
                f"gamma_0 = {r.gamma_osc:.3g} violates nonnegativity")
    return GammaTable(tuple(rows))
