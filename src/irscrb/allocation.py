"""Reflecting-element vs sensor allocation under a shared budget.

With weights W_I per element and W_s per sensor and a total budget Q, the
single-antenna DoA bound is minimized by maximizing N^2 (K^3 - K) subject to
W_I * N + W_s * K = Q over continuous N, K.  Substituting N = Q/((1+s) W_I),
K = s Q/((1+s) W_s) reduces the problem to a scalar cubic in the split ratio
s, solved in closed form; a large-budget approximation and a grid search are
provided alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .config import check

MAX_GRID_POINTS = 10 ** 6       # largest exhaustive-search grid


class AllocationDomainError(ArithmeticError):
    """The closed-form cubic root left its real domain, or a budget in the
    domains of its inputs gives counts beyond the float range."""


@dataclass(frozen=True)
class AllocationResult:
    n_cont: float               # continuous number of reflecting elements
    k_cont: float               # continuous number of sensors
    varsigma: float             # split ratio K W_s / (N W_I)
    mode: Literal["optimal", "suboptimal", "exhaustive"]
    objective: float            # N^2 (K^3 - K)

    def __post_init__(self):
        if self.n_cont <= 0 or self.k_cont <= 0:
            raise ValueError("allocation must be strictly positive")


def split_objective(n, k):
    """Array-gain product N^2 (K^3 - K) that the bound is inversely
    proportional to (vectorized)."""
    return n ** 2 * (k ** 3 - k)


def _split(varsigma, q_tot: float, w_i: float, w_s: float):
    """Counts (N, K) = (Q/((1+s) W_I), s Q/((1+s) W_s)) of the split ratio s;
    W_I N + W_s K = Q for every s."""
    return (q_tot / ((1.0 + varsigma) * w_i),
            varsigma * q_tot / ((1.0 + varsigma) * w_s))


def _betas(q_tot: float, w_s: float) -> tuple[float, float]:
    """Coefficients (beta4, beta5) of the stationarity cubic."""
    q2, ws2 = q_tot ** 2, w_s ** 2
    return -2.0 * (q2 - ws2) / (q2 + ws2), -ws2 / (q2 + ws2)


def _check_budget(q_tot: float, w_i: float, w_s: float) -> None:
    for key, value in (("q_tot", q_tot), ("w_i", w_i), ("w_s", w_s)):
        check(key, value)
    if q_tot <= w_i + 2.0 * w_s:
        raise ValueError(
            f"budget q_tot = {q_tot} leaves no room for one element and two "
            f"sensors (needs more than w_i + 2 w_s = {w_i + 2.0 * w_s})"
        )


def _overflow(q_tot: float, w_i: float, w_s: float) -> AllocationDomainError:
    return AllocationDomainError(f"q_tot = {q_tot}, w_i = {w_i} and w_s = {w_s} give an "
                                 f"allocation beyond the float range")


def allocate_optimal(q_tot: float, w_i: float, w_s: float) -> AllocationResult:
    """Closed-form optimal continuous allocation.

    The split ratio is the unique stationary point of the gain product in
    (-2/beta4, inf), obtained from the cubic
    beta4 s^3 + 3 s^2 + beta5 = 0 by Cardano's formula.  Every accepted
    budget has Q > W_s, so beta4 = -2 (Q^2 - W_s^2)/(Q^2 + W_s^2) lies in
    (-2, 0), beta5 = -W_s^2/(Q^2 + W_s^2) in (-1/2, 0) and beta6 =
    -beta4^2 beta5 - 2 in (-2, 0): the discriminant beta6^2 - 4 is negative
    and the cubic has three real roots.  The two cube-root arguments are
    then complex conjugates whose principal roots sum to twice the real
    part of one, the largest real root.  In floating point the discriminant
    rounds to 0 only from about Q/W_s = 1e9 on, where the same form still
    holds.  The residual of the recovered root is checked.
    """
    _check_budget(q_tot, w_i, w_s)
    try:
        beta4, beta5 = _betas(q_tot, w_s)
        beta6 = -beta4 ** 2 * beta5 - 2.0
        beta7 = 1j * np.sqrt(4.0 - beta6 ** 2)
        root = ((beta6 + beta7) / (2.0 * beta4 ** 3)) ** (1.0 / 3.0)
        varsigma = -1.0 / beta4 + 2.0 * float(root.real)
        residual = split_cubic(varsigma, q_tot, w_s)
        if abs(residual) > 1e-8 or varsigma <= 0.0:
            raise AllocationDomainError(
                f"closed-form split ratio failed validation (root {varsigma:g}, "
                f"cubic residual {residual:g})"
            )
        n, k = _split(varsigma, q_tot, w_i, w_s)
        return AllocationResult(n_cont=float(n), k_cont=float(k),
                                varsigma=varsigma, mode="optimal",
                                objective=split_objective(n, k))
    except OverflowError as exc:
        raise _overflow(q_tot, w_i, w_s) from exc


def allocate_suboptimal(q_tot: float, w_i: float, w_s: float) -> AllocationResult:
    """Large-budget approximation of the optimal split.

    Dropping the W_s^2/(Q^2 + W_s^2) term fixes the split ratio at
    3(Q^2 + W_s^2) / (2(Q^2 - W_s^2)), giving

        N = (2 Q^3 - 2 Q W_s^2) / ((5 Q^2 + W_s^2) W_I)
        K = (3 Q^3 + 3 Q W_s^2) / (5 Q^2 W_s + W_s^3)
    """
    _check_budget(q_tot, w_i, w_s)
    try:
        q2, ws2 = q_tot ** 2, w_s ** 2
        varsigma = 3.0 * (q2 + ws2) / (2.0 * (q2 - ws2))
        n, k = _split(varsigma, q_tot, w_i, w_s)
        return AllocationResult(n_cont=float(n), k_cont=float(k),
                                varsigma=float(varsigma), mode="suboptimal",
                                objective=split_objective(n, k))
    except OverflowError as exc:
        raise _overflow(q_tot, w_i, w_s) from exc


def allocate_exhaustive(q_tot: float, w_i: float, w_s: float,
                        step: float) -> AllocationResult:
    """Grid search over feasible continuous splits with the given step."""
    _check_budget(q_tot, w_i, w_s)
    if (q_tot - w_s) / w_i > check("step", step) * MAX_GRID_POINTS:
        raise ValueError(f"step {step} makes a grid of more than {MAX_GRID_POINTS} points")
    n_grid = np.arange(step, (q_tot - w_s) / w_i, step)
    try:
        with np.errstate(over="raise"):
            k_grid = (q_tot - w_i * n_grid) / w_s
            objective = split_objective(n_grid, k_grid)
    except FloatingPointError as exc:
        raise _overflow(q_tot, w_i, w_s) from exc
    feasible = k_grid > 1.0
    n_grid, k_grid, objective = n_grid[feasible], k_grid[feasible], objective[feasible]
    if n_grid.size == 0:
        raise ValueError("no feasible grid point; decrease the step")
    best = int(np.argmax(objective))
    n, k = float(n_grid[best]), float(k_grid[best])
    return AllocationResult(n_cont=n, k_cont=k,
                            varsigma=(k * w_s) / (n * w_i), mode="exhaustive",
                            objective=float(objective[best]))


def split_cubic(varsigma: float, q_tot: float, w_s: float) -> float:
    """Stationarity cubic beta4 s^3 + 3 s^2 + beta5 whose root is the
    optimal split ratio."""
    beta4, beta5 = _betas(q_tot, w_s)
    return beta4 * varsigma ** 3 + 3.0 * varsigma ** 2 + beta5

