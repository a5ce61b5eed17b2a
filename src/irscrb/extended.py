"""Estimation bound for the target response matrix of an extended target.

When every sensor return is kept, the 2KN real unknowns of the response
matrix have a block-circular Fisher information whose inverse trace reduces
to (sigma^2 K / T) * tr((G R_x G^H)^{-1}): the reflection profile cancels,
so only the transmit covariance matters.  This module evaluates only that
closed form; the dense information matrix is kept in the test suite as its
oracle.  The optimal covariance follows from the SVD of G, which also yields
the bound itself, the isotropic baseline and their ratio in closed form.
Every bound is a sum over singular values under one rank rule (one at most
``RANK_RTOL * s_max`` is zero) and is infinite, not raised, short of rank N.
The closed-form bounds also take a stack of channels, shape (..., N, M),
and give one bound and one rank deficiency per channel.
A raw R_x is checked by the rule of :mod:`irscrb.pointcrb` before it is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pointcrb import TransmitCovariance, _scalar_or_array, covariance

RANK_RTOL = 1e-10


class EstimabilityError(ValueError):
    """The response matrix is not identifiable for this channel."""


@dataclass(frozen=True)
class ExtendedCrbReport:
    """Trace bound for the response-matrix estimate; arrays for a stack of
    channels."""

    crb: float | np.ndarray
    rank_deficiency: int | np.ndarray = 0   # positive where the bound is infinite


def _rank_deficiency(sv: np.ndarray, n: int) -> np.ndarray:
    """N minus the rank of each set of singular values on the last axis of
    ``sv``: a singular value at most RANK_RTOL * s_max is zero."""
    rank = np.sum(sv > RANK_RTOL * sv.max(axis=-1, initial=0.0, keepdims=True), axis=-1)
    return n - np.minimum(rank, n)


def _inverse_sum(a: np.ndarray, power: int):
    """(sum_i 1/s_i^power, rank deficiency) over the singular values of each
    [N, *] matrix on the last two axes of ``a``; the sum is infinite where the
    deficiency is positive.  A float and an int for one matrix."""
    a = np.asarray(a, dtype=complex)
    sv = np.linalg.svd(a, compute_uv=False)
    deficiency = _rank_deficiency(sv, a.shape[-2])
    with np.errstate(divide="ignore", over="ignore"):   # only where deficient
        sums = np.sum(1.0 / sv ** power, axis=-1)
    return (_scalar_or_array(np.where(deficiency > 0, np.inf, sums)),
            _scalar_or_array(deficiency))


def _return_factor(g_r: np.ndarray) -> float:
    """tr((G_r^H G_r)^{-1}) of each [m_r, N] return channel on the last two
    axes of ``g_r``; inf below rank N."""
    return _inverse_sum(np.swapaxes(g_r, -1, -2), 2)[0]


def crb_extended(r_x, g: np.ndarray, k: int, t: int,
                 sigma2: float) -> ExtendedCrbReport:
    """Trace bound (sigma^2 K / T) tr((G R_x G^H)^{-1}) for any profile.

    The trace is sum_i 1/s_i^2 over the singular values of G R_x^{1/2}.
    """
    w, q = covariance(r_x).eigh                     # ascending
    drop = _rank_deficiency(w, len(w))              # R_x's zero eigenvalues
    factor = q[:, drop:] * np.sqrt(w[drop:])        # factor @ factor^H = R_x
    inv_trace, deficiency = _inverse_sum(np.asarray(g, dtype=complex) @ factor, 2)
    return ExtendedCrbReport(sigma2 * k / t * inv_trace, deficiency)


def optimal_transmit_extended(g: np.ndarray, p0: float) -> TransmitCovariance:
    """Covariance minimizing the trace bound under the power budget.

    Writing G = U diag(s) Q^H, the optimizer spreads power over the first N
    right singular directions proportionally to 1/s_i; directions beyond N
    get nothing.  Requires M >= N and a full-rank G.
    """
    g = np.asarray(g, dtype=complex)
    n, m = g.shape
    _, sv, qh = np.linalg.svd(g)
    deficiency = _rank_deficiency(sv, n)
    if deficiency:
        raise EstimabilityError(f"response matrix is not estimable: G is {n} x {m} "
                                f"with rank deficiency {deficiency}")
    weights = (1.0 / sv) * (p0 / np.sum(1.0 / sv))
    q_n = qh.conj().T[:, :n]                      # [M, N]
    r_x = (q_n * weights) @ q_n.conj().T
    r_x = (r_x + r_x.conj().T) / 2.0
    # eliminate the rounding drift so the budget is met exactly
    r_x *= p0 / float(np.real(np.trace(r_x)))
    return TransmitCovariance(matrix=r_x, budget=p0)


def crb_extended_opt(g: np.ndarray, p0: float, k: int, t: int,
                     sigma2: float) -> ExtendedCrbReport:
    """Closed-form bound (sigma^2 K / (P0 T)) (sum_i 1/s_i)^2 at the optimum;
    infinite where M < N or G is rank deficient.  A stack of channels
    (..., N, M) gives arrays of shape (...), entry by entry each one's report.
    """
    inv_sum, deficiency = _inverse_sum(g, 1)
    # x * x as on a stack: one channel's x ** 2 is C pow, which can round apart
    return ExtendedCrbReport(sigma2 * k / (p0 * t) * (inv_sum * inv_sum), deficiency)


def crb_extended_iso(g: np.ndarray, p0: float, k: int, t: int,
                     sigma2: float) -> ExtendedCrbReport:
    """Bound (sigma^2 K M / (P0 T)) sum_i 1/s_i^2 under R_x = (P0/M) I,
    with M the column count of G.  A stack of channels (..., N, M) gives
    arrays of shape (...), entry by entry each one's report.
    """
    inv_sum, deficiency = _inverse_sum(g, 2)
    return ExtendedCrbReport(sigma2 * k * np.shape(g)[-1] / (p0 * t) * inv_sum, deficiency)


def gap_db(g: np.ndarray) -> float:
    """Isotropic-over-optimal bound ratio in dB; power and K independent."""
    n, m = np.shape(g)
    sv = np.linalg.svd(np.asarray(g, dtype=complex), compute_uv=False)
    if _rank_deficiency(sv, n):
        raise EstimabilityError("gap is undefined for a rank-deficient channel")
    return float(10.0 * np.log10(m * np.sum(1.0 / sv ** 2) / np.sum(1.0 / sv) ** 2))


def crb_fully_passive(r_x, g: np.ndarray, g_r: np.ndarray, t: int,
                      sigma2: float) -> float:
    """Reference bound when echoes return through the IRS to the BS.

    (sigma^2/T) tr((G R_x G^H)^{-1}) tr((G_r^H G_r)^{-1}) for the [m_r, N]
    return channel G_r; infinite when either channel factor is rank
    deficient.
    """
    return float(crb_extended(r_x, g, 1, t, sigma2).crb * _return_factor(g_r))


def crb_fully_passive_opt(g: np.ndarray, g_r: np.ndarray, p0: float, t: int,
                          sigma2: float) -> float | np.ndarray:
    """``crb_fully_passive`` at the optimal transmit covariance in closed form:
    the ``crb_extended_opt`` bound at K = 1 times tr((G_r^H G_r)^{-1}).
    Stacks ``g`` (..., N, M) and ``g_r`` (..., m_r, N) give an array of
    bounds, entry by entry each pair's; one pair gives a float.
    """
    return crb_extended_opt(g, p0, 1, t, sigma2).crb * _return_factor(g_r)


def semi_passive_preferred(k: int, g_r: np.ndarray) -> bool:
    """True when K sensors beat the fully-passive return path.

    The semi-passive bound is lower exactly when K < tr((G_r^H G_r)^{-1}).
    """
    return k < _return_factor(g_r)
