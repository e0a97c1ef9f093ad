"""Certification of the multipole expansion against exact reservoir values.

``correlation_error`` is the one expansion study.  For a word of letters it
compares, along a decreasing lambda grid, the reservoir correlation against
its noise expansion truncated after order N; fitting the log-log slope of
the error quantifies the remainder order.  The two-point kernel is the word
(-1, +1).  Both sides are ``wick_sum`` calls.  The exact side sums
``reservoir_pair`` kernels once per lambda, shared by every order; this
study is the only place that grades by lambda.  The noise side's
pair kernel is the graded sum over n <= N of lambda^(2n) times the order-n
contraction i^n gamma_n integral conj(f_minus^(n)) f_plus dt, which does not
depend on lambda, so each contraction is computed once per study.

With the adopted per-pair grading lambda^(2n), a truncation after order N
leaves an error of order lambda^(2N+2); the fit is also reported against the
alternative reading in which each order contributes a single power of lambda
(expected slope N+1) so the two conventions can be told apart from the data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atoms import TestFunction
from .dispersion import Dispersion
from .errors import BelowFloor
from .forms import indefinite_inner
from .wick import reservoir_pair, wick_sum

__all__ = [
    "ExpansionPoint",
    "RateReport",
    "correlation_error",
    "fit_rate",
    "ERROR_FLOOR",
]

ERROR_FLOOR = 1e-13


def correlation_error(signs: Sequence[int], smears, orders: Sequence[int],
                      lambda_grid: Sequence[float], disp: Dispersion,
                      g: TestFunction,
                      gammas) -> dict[int, list["ExpansionPoint"]]:
    """Smeared whole-word comparison of the reservoir with its noise expansion.

    The reservoir has dispersion ``disp`` and form factor ``g``; letter j has
    sign ``signs[j]`` and smear ``smears[j]``.  Returns, for each N in
    ``orders`` (in that order), one point per lambda of ``lambda_grid``.
    Each contraction (n, j, k) is evaluated once, and only if a matching
    uses it; orders with a vanishing coefficient contribute exactly zero.
    """
    signs = list(signs)
    if any(s not in (+1, -1) for s in signs):
        raise ValueError("letter sign must be +1 or -1")
    if len(signs) > 8 or len(signs) % 2 or signs.count(+1) != signs.count(-1):
        raise ValueError("word must be balanced with even length at most 8")
    if len(smears) != len(signs) or any(f.is_zero() for f in smears):
        raise ValueError("need one nonzero smear per letter")

    @functools.cache
    def contraction(n: int, j: int, k: int) -> complex:
        return indefinite_inner(n, gammas[n], smears[j], smears[k])

    def truncated(lam: float, N: int):
        def pair(j: int, k: int) -> complex:
            total = 0j
            for n in range(N + 1):
                if gammas[n] != 0:
                    total += lam ** (2 * n) * contraction(n, j, k)
            return total
        return pair

    by_order = {N: [] for N in orders}
    for lam in lambda_grid:
        lhs = wick_sum(signs, lambda j, k: reservoir_pair(
            disp, g, lam, smears[j], smears[k]))
        for N in orders:
            by_order[N].append(
                ExpansionPoint(lam, N, lhs, wick_sum(signs, truncated(lam, N))))
    return by_order


@dataclass(frozen=True)
class ExpansionPoint:
    lam: float
    order: int
    lhs: complex
    rhs: complex

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be positive")

    @property
    def abs_error(self) -> float:
        return abs(self.lhs - self.rhs)


@dataclass(frozen=True)
class RateReport:
    points: tuple[ExpansionPoint, ...]
    fitted_slope: float
    r_squared: float

    @property
    def order(self) -> int:
        return self.points[0].order

    def to_json_dict(self) -> dict:
        n = self.order
        return {
            "order": n,
            "n_points": len(self.points),
            "grading": "lambda^(2n)",
            "slope": self.fitted_slope,
            "r_squared": self.r_squared,
            "expected_slope": 2 * n + 2,
            "slope_threshold": 2 * n + 1.5,
            "alternative_grading": {
                "grading": "lambda^(n)",
                "expected_slope": n + 1,
                "slope_threshold": n + 0.75,
            },
        }


def fit_rate(points: Sequence[ExpansionPoint]) -> RateReport:
    """Least-squares slope of log(error) against log(lambda).

    Points at the quadrature floor are dropped; if fewer than three usable
    points remain the errors are indistinguishable from noise and BelowFloor
    is raised (which callers treat as a pass of the remainder claim).
    """
    points = tuple(points)
    if len(points) < 3:
        raise ValueError("rate fit needs at least three points")
    lams = [p.lam for p in points]
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda grid must be strictly decreasing")
    usable = tuple(p for p in points if p.abs_error > ERROR_FLOOR)
    if len(usable) < 3:
        raise BelowFloor("errors sit at the quadrature floor")
    x = np.log([p.lam for p in usable])
    y = np.log([p.abs_error for p in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot < 1e-30 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateReport(usable, float(slope), r2)
