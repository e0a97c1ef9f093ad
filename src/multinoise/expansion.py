"""Certification of the multipole expansion against exact reservoir values.

``truncated_pair`` is the partial sum of graded noise pair values; comparing
it against ``reservoir_pair`` over a decreasing lambda grid and fitting the
log-log slope of the error quantifies the remainder order.  The exact side
does not depend on the truncation order, so ``kernel_error`` and
``correlation_error`` compute it once per lambda and return one point for
every requested order.  Both sides of a word comparison are ``wick_sum``
calls, with the reservoir kernel and the truncated noise pair as kernels.

With the adopted per-pair grading lambda^(2n), a truncation after order N
leaves an error of order lambda^(2N+2); the fit is also reported against the
alternative reading in which each order contributes a single power of lambda
(expected slope N+1) so the two conventions can be told apart from the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atoms import TestFunction
from .errors import BelowFloor
from .wick import (Letter, ReservoirChannel, correlation, noise_pair,
                   reservoir_pair, wick_sum)

__all__ = [
    "ExpansionPoint",
    "RateReport",
    "truncated_pair",
    "kernel_error",
    "noise_correlation_truncated",
    "correlation_error",
    "fit_rate",
    "ERROR_FLOOR",
]

ERROR_FLOOR = 1e-13


def truncated_pair(N: int, lam: float, f_minus: TestFunction,
                   f_plus: TestFunction, gammas) -> complex:
    """Partial sum over orders 0..N of graded noise pair values.

    Orders with a vanishing coefficient contribute exactly zero.
    """
    total = 0j
    for n in range(N + 1):
        if gammas[n] == 0:
            continue
        total += noise_pair(n, gammas[n], lam, f_minus, f_plus)
    return total


def kernel_error(orders: Sequence[int], lam: float, f_minus: TestFunction,
                 f_plus: TestFunction, channel: ReservoirChannel,
                 gammas) -> list["ExpansionPoint"]:
    """Exact reservoir pair vs its order-N truncation at one lambda.

    The exact pair is computed once; one point per N in ``orders``.
    """
    lhs = reservoir_pair(channel.at_lambda(lam), f_minus, f_plus)
    return [ExpansionPoint(lam, N, lhs,
                           truncated_pair(N, lam, f_minus, f_plus, gammas))
            for N in orders]


def noise_correlation_truncated(signs: Sequence[int], smears, N: int,
                                lam: float, gammas) -> complex:
    """Wick sum whose pair kernel is the order-N truncated noise pair.

    Equals the correlation of the word in which every letter carries the
    graded sum over orders 0..N; only equal-order pairs survive, so the sum
    factorizes per pair.
    """
    return wick_sum(signs, lambda j, k: truncated_pair(N, lam, smears[j],
                                                       smears[k], gammas))


def correlation_error(signs: Sequence[int], smears, orders: Sequence[int],
                      lam: float, channel: ReservoirChannel,
                      gammas) -> list["ExpansionPoint"]:
    """Smeared whole-word comparison of the two channel families at one lambda.

    The reservoir correlation is computed once; one point per N in ``orders``.
    """
    signs = list(signs)
    if len(signs) > 8 or len(signs) % 2 or signs.count(+1) != signs.count(-1):
        raise ValueError("word must be balanced with even length at most 8")
    word = [Letter(s, f) for s, f in zip(signs, smears, strict=True)]
    lhs = correlation(word, channel=channel.at_lambda(lam))
    return [ExpansionPoint(lam, N, lhs, noise_correlation_truncated(
                signs, smears, N, lam, gammas))
            for N in orders]


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
