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
depend on lambda, so each order's contractions form one matrix per study.

With the adopted per-pair grading lambda^(2n), a truncation after order N
leaves an error of order lambda^(2N+2); the fit is also reported against the
alternative reading in which each order contributes a single power of lambda
(expected slope N+1) so the two conventions can be told apart from the data.
``fit_rate`` returns one order's ``*_rates.json`` entry, verdict included:
the order passes when its slope reaches 2N+1.5, or when fewer than three
errors lie above ERROR_FLOOR (``below_floor``).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .atoms import TestFunction
from .dispersion import Dispersion
from .errors import MultinoiseError
from .forms import indefinite_inner
from .wick import reservoir_pair, wick_sum

__all__ = [
    "ExpansionPoint",
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
    Each order's contractions are one matrix, annihilators by creators,
    computed once; orders with a vanishing coefficient contribute exactly zero.
    """
    signs = list(signs)
    if len(signs) % 2 or signs.count(+1) != signs.count(-1):
        raise ValueError("word must be balanced with even length")
    if len(smears) != len(signs) or any(f.is_zero() for f in smears):
        raise ValueError("need one nonzero smear per letter")

    minus = [j for j, s in enumerate(signs) if s < 0]
    plus = [k for k, s in enumerate(signs) if s > 0]
    # a call per annihilator: multi-row complex products page in zgemm, +0.3 MB
    contractions = {n: np.vstack([indefinite_inner(
        n, gammas[n], [smears[j]], [smears[k] for k in plus]) for j in minus])
        for n in range(max(orders, default=-1) + 1) if gammas[n] != 0}
    by_order = {N: [] for N in orders}
    for lam in lambda_grid:
        lhs = wick_sum(signs, lambda j, k: reservoir_pair(
            disp, g, lam, smears[j], smears[k]))
        for N in orders:
            graded = np.zeros((len(minus), len(plus)), dtype=complex)
            for n in range(N + 1):
                if n in contractions:
                    graded += lam ** (2 * n) * contractions[n]
            rhs = wick_sum(signs, lambda j, k: graded[minus.index(j), plus.index(k)])
            by_order[N].append(ExpansionPoint(lam, N, lhs, rhs))
    return by_order


class _Point(NamedTuple):
    lam: float
    order: int
    lhs: complex
    rhs: complex


class ExpansionPoint(_Point):
    """The reservoir value lhs and order N's expansion rhs at one lambda."""

    __slots__ = ()

    def __new__(cls, lam: float, order: int, lhs: complex, rhs: complex):
        if not lam > 0:
            raise ValueError("lambda must be positive")
        return super().__new__(cls, lam, order, lhs, rhs)

    @property
    def abs_error(self) -> float:
        return abs(self.lhs - self.rhs)


def fit_rate(points: Sequence[ExpansionPoint]) -> dict:
    """The rates entry of one order: log-log slope of the error, and verdict.

    The slope is the least-squares fit of log(error) against log(lambda)
    over the points above ERROR_FLOOR, in closed form: the centred cross sum
    of x and y over the centred sum of squares of x.  The order N passes
    when it reaches 2N + 1.5.  With fewer than three such points the errors
    are indistinguishable from noise, and the entry says ``below_floor`` and
    passes.  A non-finite error raises MultinoiseError.
    """
    points = tuple(points)
    if len(points) < 3:
        raise ValueError("rate fit needs at least three points")
    n = points[0].order
    lams = [p.lam for p in points]
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda grid must be strictly decreasing")
    if not np.all(np.isfinite([p.abs_error for p in points])):
        raise MultinoiseError("non-finite expansion error on the lambda grid")
    usable = tuple(p for p in points if p.abs_error > ERROR_FLOOR)
    if len(usable) < 3:
        return {"order": n, "grading": "lambda^(2n)", "below_floor": True,
                "passes": True}
    x = np.log([p.lam for p in usable])
    y = np.log([p.abs_error for p in usable])
    # not np.polyfit: its LAPACK least squares paged in 0.6 MB of
    # high-water mark on kernel_linear, for a line
    dx, dy = x - x.mean(), y - y.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    resid = dy - slope * dx
    ss_tot = float(np.sum(dy ** 2))
    r2 = 0.0 if ss_tot < 1e-30 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return {
        "order": n,
        "n_points": len(usable),
        "grading": "lambda^(2n)",
        "slope": slope,
        "r_squared": r2,
        "expected_slope": 2 * n + 2,
        "slope_threshold": 2 * n + 1.5,
        "alternative_grading": {
            "grading": "lambda^(n)",
            "expected_slope": n + 1,
            "slope_threshold": n + 0.75,
        },
        "below_floor": False,
        "passes": slope >= 2 * n + 1.5,
    }
