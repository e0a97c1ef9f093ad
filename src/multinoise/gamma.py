"""Weak-coupling coefficients by oscillatory integral and energy-shell oracle.

The n-th coefficient is

    gamma_n = (i^n / n!) integral dsigma sigma^n I(sigma),
    I(sigma) = integral dk exp(i sigma omega(k)) w(k) |g(k)|^2,

truncated to [-Sigma, Sigma], where ``_sigma_cutoff`` finds |I| decayed
below SIGMA_DECAY_TOL.  On that finite domain the two integrals swap: with
the momentum rule's densities d_k (Gauss-Legendre panels resolving
exp(i Sigma omega)),

    gamma_n = (i^n / n!) Sigma^(n+1) sum_k d_k M_n(Sigma omega_k),
    M_n(x) = integral_{-1}^{1} t^n exp(i x t) dt,

and M_n is taken in closed form (``_moment_kernel``), so no sigma grid is
built.  The rule's densities, the decay probes and the moment kernel run on
slices of at most CHUNK nodes, so their temporaries do not grow with Sigma;
densities and kernel terms are bitwise the same whatever CHUNK is, and only
the probes, compared with SIGMA_DECAY_TOL, are summed slice by slice.  The
test suite checks M_n against high-precision values and gamma_n against
sigma panels over I summed node by node.

The independent oracle pushes |g|^2 through omega:  with
rho(E) = sum_{omega(k)=E} w(k) |g(k)|^2 / |omega'(k)|  (the shell density),

    gamma_n = (2 pi / n!) (-1)^n rho^(n)(0).

The derivative is exact.  A root k(E) moves at dk/dE = 1/omega', so each
root k0 of omega contributes (S^n F)(k0) / |omega'(k0)| to rho^(n)(0), with
F = w |g|^2 and S F = (F / omega')'.  F is carried as its Taylor series about
k0, from the exact derivatives of g; omega' is affine in k, so each division
by it is a two-term recurrence and S loses nothing but rounding.
Both routes require the stationary set of omega to avoid the support of g,
where |g|^2 may reach EPS_SUPP, and ``check_support`` raises otherwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .atoms import MAX_ORDER, TestFunction
from .dispersion import (Dispersion, clip_domain, curvature, cut_points,
                         measure_taylor, measure_weight)
from .errors import (DegenerateRoot, OracleMismatch, SlowDecay,
                     SupportConditionFailed)
from .panels import GL_NODES, GL_WEIGHTS, MOMENTUM_TOL, envelope, panel_rule

__all__ = [
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
SERIES_FROM = 8.0  # |Sigma omega| from which M_n is summed by parts
CHUNK = 4096  # momentum nodes evaluated at once, bounding the temporaries


def _stationary_in_range(disp: Dispersion, g: TestFunction, tol: float):
    """(lo, hi, inside): the momentum range where |g| may reach ``tol``,
    clipped to omega's domain, and the stationary points of omega in it."""
    lo, hi = clip_domain(disp, *envelope(g, tol))
    return lo, hi, [p for p in disp.stationary_points() if lo <= p <= hi]


def check_support(disp: Dispersion, g: TestFunction) -> tuple[float, float]:
    """The effective support (lo, hi), where |g(k)|^2 may reach EPS_SUPP;
    SupportConditionFailed if a stationary point of omega lies inside it."""
    lo, hi, inside = _stationary_in_range(disp, g, math.sqrt(EPS_SUPP))
    if inside:
        raise SupportConditionFailed(
            f"stationary points {inside} inside effective support {(lo, hi)}")
    return lo, hi


# ---------------------------------------------------------------------------
# oscillatory route
# ---------------------------------------------------------------------------


def _chunks(size: int):
    """Consecutive slices of at most CHUNK nodes covering range(size)."""
    return (slice(i, i + CHUNK) for i in range(0, size, CHUNK))


def _momentum_rule(disp: Dispersion, g: TestFunction, sigma_max: float):
    """Panel blocks of (omega values, weighted |g|^2) resolving exp(i sigma omega).

    A domain straddling 0 is widened to [-X, X] and returned as a positive
    block plus its bitwise mirror, so that configurations with odd omega and
    even |g|^2 produce node pairs with exactly opposite omega and equal
    density; summing the mirror blocks elementwise then cancels an odd kernel
    identically, which is what makes symmetry-forced odd coefficients come
    out as exact zeros.
    """
    lo, hi = clip_domain(disp, *envelope(g, MOMENTUM_TOL))
    if hi <= lo:
        return ()
    corners = np.array(cut_points(disp, lo, hi))
    dom_max = float(np.max(np.abs(disp.domega(corners))))
    min_width = min(a.width for _, a in g.atoms)
    width = min(math.pi / max(sigma_max * dom_max, 1e-6),
                0.5 * min_width, (hi - lo) / 4.0)

    def block(nodes, weights):
        density = np.empty(nodes.size)
        for s in _chunks(nodes.size):
            k = nodes[s]
            density[s] = (weights[s] * measure_weight(disp, k)
                          * np.abs(g(k)) ** 2)
        return np.asarray(disp.omega(nodes)), density

    if lo < 0.0 < hi:
        radius = max(-lo, hi)
        nodes, weights = panel_rule(0.0, radius, width)
        return (block(nodes, weights), block(-nodes, weights))
    nodes, weights = panel_rule(lo, hi, width)
    return (block(nodes, weights),)


def _moment_kernel(n: int, x: np.ndarray) -> np.ndarray:
    """Re M_n(x) for even n and Im M_n(x) for odd n, elementwise.

    M_n(x) = int_{-1}^1 t^n e^{ixt} dt = H + (-1)^n conj(H) with
    H = int_0^1 t^n e^{iut} dt at u = |x|, so the kernel is 2 Re H or
    2 sign(x) Im H: evaluated on |x|, it is bitwise even or odd in x.  Up to
    SERIES_FROM, 16 Legendre nodes on [0, 1] give H exactly to below 1e-25.
    Past it, integration by parts gives H = exp(iu) sum_j c_j z^(j+1) -
    c_n z^(n+1), with z = 1/(iu) and c_j = (-1)^j n!/(n-j)!, summed by
    Horner in z without cancellation (n!/u^n <= 2.7e-3 for n <= 6).  The
    t = 0 term c_n z^(n+1) is imaginary for even n and real for odd n, the
    part the kernel drops, so it is left out.
    """
    u = np.abs(x)
    half = np.empty(u.shape, dtype=complex)
    near = u <= SERIES_FROM
    un = u[near]
    acc = np.zeros(un.shape, dtype=complex)
    for t, w in zip(0.5 * (GL_NODES + 1.0), 0.5 * GL_WEIGHTS):
        acc += w * t ** n * np.exp(1j * t * un)
    half[near] = acc
    far = ~near
    z = 1.0 / (1j * u[far])
    coeffs = [(-1) ** j * math.perm(n, j) for j in range(n + 1)]
    poly = np.full(z.shape, complex(coeffs[n]))
    for c in reversed(coeffs[:-1]):
        poly = c + z * poly
    half[far] = np.exp(1j * u[far]) * z * poly
    return 2.0 * half.real if n % 2 == 0 else 2.0 * np.sign(x) * half.imag


def _sigma_cutoff(disp: Dispersion, g: TestFunction) -> float:
    """Truncation point Sigma of the sigma integral.

    Sigma is the first point of a doubling ladder where |I(sigma)| stays below
    SIGMA_DECAY_TOL (three probes guard against hitting an oscillation zero);
    SlowDecay if the cap is reached.
    """
    def probe_mag(sig: float) -> float:
        blocks = _momentum_rule(disp, g, 1.7 * sig)
        # einsum, one probe at a time: the 3-row product through @ paged in
        # zgemm, 0.7 MB of high-water mark on kernel_quadratic
        return max(abs(sum(np.einsum("i,i->", np.exp(1j * p * omega[s]),
                                     density[s])
                           for omega, density in blocks
                           for s in _chunks(omega.size)))
                   for p in (sig, 1.3 * sig, 1.7 * sig))

    sigma_end = 1.0
    while probe_mag(sigma_end) >= SIGMA_DECAY_TOL:
        sigma_end *= 2.0
        if sigma_end > SIGMA_CAP:
            raise SlowDecay(
                f"|I(sigma)| not below {SIGMA_DECAY_TOL:g} by sigma = "
                f"{SIGMA_CAP:g}; {_slow_decay_cause(disp, g)}")
    return sigma_end


def _slow_decay_cause(disp: Dispersion, g: TestFunction) -> str:
    """The cause of a slow sigma decay that the momentum range shows: a
    stationary point of omega inside it, or else a radial domain's k = 0
    edge that g reaches."""
    lo, hi, inside = _stationary_in_range(disp, g, MOMENTUM_TOL)
    if inside:
        return (f"stationary points {', '.join(f'{p:g}' for p in inside)} "
                f"of omega inside the momentum range [{lo:.3g}, {hi:.3g}]")
    edge = abs(complex(g(0.0)))
    if disp.dimension == 3 and edge >= MOMENTUM_TOL:
        return f"|g| = {edge:.3g} at the k = 0 edge of the radial domain"
    return "no stationary point or domain edge in the momentum range"


def _truncated_rule(disp: Dispersion, g: TestFunction):
    """Sigma and the momentum blocks resolving exp(i sigma omega) up to it."""
    sigma_end = _sigma_cutoff(disp, g)
    return sigma_end, _momentum_rule(disp, g, sigma_end)


def gamma_osc(disp: Dispersion, g: TestFunction, n: int, rule=None) -> float:
    """Order-n coefficient from the sigma integral truncated at Sigma.

    ``rule`` is ``_truncated_rule(disp, g)``, built when not given.  i^n M_n
    is real, (-1)^((n+1)//2) times the kernel, so the value is real by
    construction; adding the mirror blocks elementwise before the sum makes
    symmetry-forced odd coefficients exact (positive) zeros.
    """
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    sigma_end, blocks = rule or _truncated_rule(disp, g)
    acc = np.zeros(max((omega.size for omega, _ in blocks), default=0))
    for s in _chunks(acc.size):
        for omega, density in blocks:
            acc[s] += density[s] * _moment_kernel(n, sigma_end * omega[s])
    scale = (-1) ** ((n + 1) // 2) * sigma_end ** (n + 1) / math.factorial(n)
    return scale * float(np.sum(acc)) + 0.0


# ---------------------------------------------------------------------------
# energy-shell oracle
# ---------------------------------------------------------------------------


def _shell_roots(disp: Dispersion, energy: float):
    """The roots of omega = energy in the domain (k > 0 radially), each once,
    with their slopes; DegenerateRoot on a flat one."""
    edge = 0.0 if disp.dimension == 3 else -math.inf  # a NaN root fails k > edge
    # + 0.0 turns the k <= 0 branch's -0.0, at a root k = 0, into 0.0
    for k in dict.fromkeys(float(k) + 0.0 for k in disp.roots(energy)):
        if not k > edge:
            continue
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


class GammaRow(NamedTuple):
    n: int
    gamma_osc: float
    gamma_shell: float
    rel_diff: float


class GammaTable(NamedTuple):
    rows: tuple[GammaRow, ...]

    def max_rel_diff(self) -> float:
        # np.max keeps a NaN that the builtin max would drop
        return float(np.max([r.rel_diff for r in self.rows], initial=0.0))

    def check(self, assert_rel: float) -> None:
        """OracleMismatch unless every row's rel_diff is at most assert_rel."""
        worst = self.max_rel_diff()
        if not worst <= assert_rel:
            raise OracleMismatch(f"gamma oracle mismatch: max rel_diff "
                                 f"{worst:.3g} exceeds {assert_rel:g}")

    def gammas(self) -> dict[int, float]:
        return {r.n: r.gamma_osc for r in self.rows}

    def to_csv_text(self) -> str:
        lines = ["n,gamma_osc,gamma_shell,rel_diff"]
        for r in self.rows:
            lines.append(f"{r.n},{r.gamma_osc:.17g},{r.gamma_shell:.17g},"
                         f"{r.rel_diff:.17g}")
        return "\n".join(lines) + "\n"


def gamma_table(disp: Dispersion, g: TestFunction, orders) -> GammaTable:
    """Both gamma routes for every order, the oscillatory one on one rule."""
    rule = _truncated_rule(disp, g)
    rows = []
    for n in orders:
        osc = gamma_osc(disp, g, n, rule)
        shell = gamma_shell(disp, g, n)
        rel = abs(osc - shell) / (abs(shell) + 1e-10)
        rows.append(GammaRow(int(n), osc, shell, rel))
    for r in rows:
        if r.n == 0 and r.gamma_osc < -1e-12:
            raise OracleMismatch(
                f"gamma_0 = {r.gamma_osc:.3g} violates nonnegativity")
    return GammaTable(tuple(rows))
