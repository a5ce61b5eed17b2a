"""Estimation bound for the target response matrix of an extended target.

When every sensor return is kept, the 2KN real unknowns of the response
matrix have a block-circular Fisher information whose inverse trace reduces
to (sigma^2 K / T) * tr((G R_x G^H)^{-1}): the reflection profile cancels,
so only the transmit covariance matters.  The optimal covariance follows
from the SVD of G, which also yields the bound itself, the isotropic
baseline and their ratio in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .pointcrb import TransmitCovariance, covariance_matrix, profile_vector

RANK_RTOL = 1e-10
FIM_SIZE_LIMIT = 512


class EstimabilityError(ValueError):
    """The response matrix is not identifiable for this channel."""


@dataclass(frozen=True)
class ExtendedCrbReport:
    """Trace bound for the response-matrix estimate plus its provenance."""

    crb: float
    mode: Literal["generic", "optimal", "isotropic"]
    singular_values: np.ndarray     # singular values of G, descending
    gap_db: float | None = None     # isotropic-vs-optimal gap when known
    rank_deficiency: int = 0        # positive when the bound is infinite


@dataclass(frozen=True)
class FullyPassiveConfig:
    """Receive-side description of a fully-passive reference system."""

    m_r: int                        # BS receive antennas
    g_r: np.ndarray                 # [m_r, N] IRS-to-BS channel

    def __post_init__(self):
        g_r = np.asarray(self.g_r, dtype=complex)
        object.__setattr__(self, "g_r", g_r)
        if g_r.shape[0] != self.m_r:
            raise ValueError(f"g_r must have {self.m_r} rows, got {g_r.shape[0]}")


def _singular_values(g: np.ndarray) -> tuple[np.ndarray, int]:
    """Descending singular values of G and the rank deficiency w.r.t. N."""
    sv = np.linalg.svd(np.asarray(g, dtype=complex), compute_uv=False)
    n = g.shape[0]
    rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0
    return sv, n - min(rank, n)


def _inverse_trace(gram: np.ndarray) -> tuple[float, int]:
    """(tr(gram^{-1}), rank deficiency) of a Hermitian PSD matrix; inf when singular."""
    ev = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    deficiency = int(np.sum(ev <= RANK_RTOL * max(ev.max(initial=0.0), 0.0)))
    if ev.size == 0 or deficiency:
        return float("inf"), max(deficiency, 1)
    return float(np.sum(1.0 / ev)), 0


def _gap_db(sv: np.ndarray, m: int) -> float:
    """Isotropic-over-optimal bound ratio in dB from the singular values of G."""
    ratio = m * float(np.sum(1.0 / sv ** 2)) / float(np.sum(1.0 / sv)) ** 2
    return float(10.0 * np.log10(ratio))


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

    Returns an infinite bound carrying the rank deficiency when
    G R_x G^H is singular.
    """
    g = np.asarray(g, dtype=complex)
    rx = covariance_matrix(r_x)
    sv, _ = _singular_values(g)
    inv_trace, deficiency = _inverse_trace(g @ rx.conj().T @ g.conj().T)
    return ExtendedCrbReport(crb=sigma2 * k / t * inv_trace, mode="generic",
                             singular_values=sv, rank_deficiency=deficiency)


def optimal_transmit_extended(g: np.ndarray, p0: float) -> TransmitCovariance:
    """Covariance minimizing the trace bound under the power budget.

    Writing G = U diag(s) Q^H, the optimizer spreads power over the first N
    right singular directions proportionally to 1/s_i; directions beyond N
    get nothing.  Requires M >= N and a full-rank G.
    """
    g = np.asarray(g, dtype=complex)
    n, m = g.shape
    if m < n:
        raise EstimabilityError(
            f"response matrix is not estimable with M = {m} < N = {n}"
        )
    _, sv, qh = np.linalg.svd(g)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise EstimabilityError("channel is rank deficient; bound is infinite")
    weights = (1.0 / sv) * (p0 / np.sum(1.0 / sv))
    q = qh.conj().T                               # [M, M]... columns truncated below
    q_n = q[:, :n]
    r_x = (q_n * weights) @ q_n.conj().T
    r_x = (r_x + r_x.conj().T) / 2.0
    # eliminate the rounding drift so the budget is met exactly
    r_x *= p0 / float(np.real(np.trace(r_x)))
    return TransmitCovariance(matrix=r_x, budget=p0)


def crb_extended_opt(g: np.ndarray, p0: float, k: int, t: int,
                     sigma2: float) -> ExtendedCrbReport:
    """Closed-form bound (sigma^2 K / (P0 T)) (sum_i 1/s_i)^2 at the optimum."""
    g = np.asarray(g, dtype=complex)
    sv, deficiency = _singular_values(g)
    if g.shape[1] < g.shape[0] or deficiency > 0:
        raise EstimabilityError("optimal bound needs M >= N and full-rank G")
    crb = sigma2 * k / (p0 * t) * float(np.sum(1.0 / sv)) ** 2
    return ExtendedCrbReport(crb=crb, mode="optimal", singular_values=sv,
                             gap_db=_gap_db(sv, g.shape[1]))


def crb_extended_iso(g: np.ndarray, p0: float, m: int, k: int, t: int,
                     sigma2: float) -> ExtendedCrbReport:
    """Bound (sigma^2 K M / (P0 T)) sum_i 1/s_i^2 under R_x = (P0/M) I."""
    g = np.asarray(g, dtype=complex)
    if g.shape[1] != m:
        raise ValueError(f"G has {g.shape[1]} columns but m = {m}")
    sv, deficiency = _singular_values(g)
    if deficiency > 0:
        return ExtendedCrbReport(crb=float("inf"), mode="isotropic",
                                 singular_values=sv,
                                 rank_deficiency=deficiency)
    crb = sigma2 * k * m / (p0 * t) * float(np.sum(1.0 / sv ** 2))
    return ExtendedCrbReport(crb=crb, mode="isotropic", singular_values=sv,
                             gap_db=_gap_db(sv, m))


def gap_db(g: np.ndarray, m: int) -> float:
    """Isotropic-over-optimal bound ratio in dB; power and K independent."""
    g = np.asarray(g, dtype=complex)
    if g.shape[1] != m:
        raise ValueError(f"G has {g.shape[1]} columns but m = {m}")
    sv, deficiency = _singular_values(g)
    if deficiency > 0:
        raise EstimabilityError("gap is undefined for a rank-deficient channel")
    return _gap_db(sv, m)


def crb_fully_passive(r_x, g: np.ndarray, fp: FullyPassiveConfig, t: int,
                      sigma2: float) -> float:
    """Reference bound when echoes return through the IRS to the BS.

    (sigma^2/T) tr((G R_x G^H)^{-1}) tr((G_r^H G_r)^{-1}); infinite when
    either channel factor is rank deficient.
    """
    g = np.asarray(g, dtype=complex)
    rx = covariance_matrix(r_x)
    inv_tx, _ = _inverse_trace(g @ rx.conj().T @ g.conj().T)
    inv_rx, _ = _inverse_trace(fp.g_r.conj().T @ fp.g_r)
    return float(sigma2 / t * inv_tx * inv_rx)


def semi_passive_preferred(k: int, fp: FullyPassiveConfig) -> bool:
    """True when K sensors beat the fully-passive return path.

    The semi-passive bound is lower exactly when K < tr((G_r^H G_r)^{-1}).
    """
    inv_rx, _ = _inverse_trace(fp.g_r.conj().T @ fp.g_r)
    return k < inv_rx
