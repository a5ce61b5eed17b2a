"""Estimation bound for the target response matrix of an extended target.

When every sensor return is kept, the 2KN real unknowns of the response
matrix have a block-circular Fisher information whose inverse trace reduces
to (sigma^2 K / T) * tr((G R_x G^H)^{-1}): the reflection profile cancels,
so only the transmit covariance matters.  The optimal covariance follows
from the SVD of G, which also yields the bound itself, the isotropic
baseline and their ratio in closed form.  Every bound is a sum over
singular values under one rank rule (one at most ``RANK_RTOL * s_max`` is
zero) and is infinite, not raised, short of rank N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pointcrb import TransmitCovariance, covariance_matrix, profile_vector

RANK_RTOL = 1e-10
FIM_SIZE_LIMIT = 512


class EstimabilityError(ValueError):
    """The response matrix is not identifiable for this channel."""


@dataclass(frozen=True)
class ExtendedCrbReport:
    """Trace bound for the response-matrix estimate."""

    crb: float
    rank_deficiency: int = 0        # positive when the bound is infinite


def _rank_deficiency(sv: np.ndarray, n: int) -> int:
    """N minus the rank: a singular value at most RANK_RTOL * s_max is zero."""
    return n - min(int(np.sum(sv > RANK_RTOL * sv.max(initial=0.0))), n)


def _inverse_sum(a: np.ndarray, power: int) -> tuple[float, int]:
    """(sum_i 1/s_i^power, rank deficiency) over the singular values of the
    [N, *] matrix ``a``; the sum is infinite when the deficiency is positive."""
    a = np.asarray(a, dtype=complex)
    sv = np.linalg.svd(a, compute_uv=False)
    deficiency = _rank_deficiency(sv, a.shape[0])
    if deficiency:
        return float("inf"), deficiency
    return float(np.sum(1.0 / sv ** power)), 0


def _return_factor(g_r: np.ndarray) -> float:
    """tr((G_r^H G_r)^{-1}) of the [m_r, N] return channel; inf below rank N."""
    return _inverse_sum(np.asarray(g_r).T, 2)[0]


def fim_extended(r_x, v, g: np.ndarray, k: int, t: int,
                 sigma2: float) -> np.ndarray:
    """Dense 2KN x 2KN Fisher information of the stacked real parameters.

    Ordered as (Re vec H, Im vec H); both diagonal blocks equal
    (2T/sigma^2) Re{(Phi* G* R_x* G^T Phi^T) kron I_K} and the off-diagonal
    blocks carry the matching imaginary part.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    if k * n > FIM_SIZE_LIMIT:
        raise ValueError(
            f"dense information matrix of order {2 * k * n} exceeds the "
            f"{2 * FIM_SIZE_LIMIT} guard"
        )
    vv = profile_vector(v)
    rx = covariance_matrix(r_x)
    phi_g = vv[:, None] * g                       # Phi @ G
    inner = phi_g.conj() @ rx.conj() @ phi_g.T    # Phi* G* R_x* G^T Phi^T
    kern = np.kron(inner, np.eye(k))
    scale = 2.0 * t / sigma2
    top = np.hstack([kern.real, -kern.imag])
    bot = np.hstack([kern.imag, kern.real])
    return scale * np.vstack([top, bot])


def crb_extended(r_x, g: np.ndarray, k: int, t: int,
                 sigma2: float) -> ExtendedCrbReport:
    """Trace bound (sigma^2 K / T) tr((G R_x G^H)^{-1}) for any profile.

    The trace is sum_i 1/s_i^2 over the singular values of G R_x^{1/2}.
    """
    w, q = np.linalg.eigh(covariance_matrix(r_x))    # ascending
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
    infinite where M < N or G is rank deficient."""
    inv_sum, deficiency = _inverse_sum(g, 1)
    return ExtendedCrbReport(sigma2 * k / (p0 * t) * inv_sum ** 2, deficiency)


def crb_extended_iso(g: np.ndarray, p0: float, m: int, k: int, t: int,
                     sigma2: float) -> ExtendedCrbReport:
    """Bound (sigma^2 K M / (P0 T)) sum_i 1/s_i^2 under R_x = (P0/M) I."""
    if np.shape(g)[1] != m:
        raise ValueError(f"G has {np.shape(g)[1]} columns but m = {m}")
    inv_sum, deficiency = _inverse_sum(g, 2)
    return ExtendedCrbReport(sigma2 * k * m / (p0 * t) * inv_sum, deficiency)


def gap_db(g: np.ndarray, m: int) -> float:
    """Isotropic-over-optimal bound ratio in dB; power and K independent."""
    if np.shape(g)[1] != m:
        raise ValueError(f"G has {np.shape(g)[1]} columns but m = {m}")
    sv = np.linalg.svd(np.asarray(g, dtype=complex), compute_uv=False)
    if _rank_deficiency(sv, np.shape(g)[0]):
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
                          sigma2: float) -> float:
    """``crb_fully_passive`` at the optimal transmit covariance in closed form:
    the ``crb_extended_opt`` bound at K = 1 times tr((G_r^H G_r)^{-1})."""
    return float(crb_extended_opt(g, p0, 1, t, sigma2).crb * _return_factor(g_r))


def semi_passive_preferred(k: int, g_r: np.ndarray) -> bool:
    """True when K sensors beat the fully-passive return path.

    The semi-passive bound is lower exactly when K < tr((G_r^H G_r)^{-1}).
    """
    return k < _return_factor(g_r)
