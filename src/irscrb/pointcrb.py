"""Fisher information and closed-form DoA bound for a point target.

The received echo mean is alpha * vec(E X) with the effective matrix
E = b a^T diag(v) G.  Because the steering vectors are centroid-referenced,
the 3x3 Fisher information over (theta, Re alpha, Im alpha) collapses into a
scalar bound on theta whose denominator is a quadratic form in the IRS
profile v; that closed form is evaluated here next to the full
matrix-inverse route so the two can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import centered_index, target_steering
from .config import PointTargetScene, SystemConfig

HERMITIAN_RTOL = 1e-12
EIG_FLOOR_RTOL = 1e-9
TRACE_SLACK_RTOL = 1e-8
UNIT_MODULUS_ATOL = 1e-10
LIFTED_ATOL = 1e-9


@dataclass(frozen=True)
class TransmitCovariance:
    """Hermitian PSD transmit covariance with a trace budget in watts."""

    matrix: np.ndarray          # [M, M] complex Hermitian
    budget: float               # W

    def __post_init__(self):
        r = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", r)
        scale = max(np.abs(r).max(), 1e-300)
        if np.abs(r - r.conj().T).max() > HERMITIAN_RTOL * scale:
            raise ValueError("transmit covariance must be Hermitian")
        trace = float(np.real(np.trace(r)))
        min_eig = float(np.linalg.eigvalsh((r + r.conj().T) / 2.0).min())
        if min_eig < -EIG_FLOOR_RTOL * max(trace, 1e-300):
            raise ValueError(f"transmit covariance is indefinite (min eig {min_eig:g})")
        if trace > self.budget * (1.0 + TRACE_SLACK_RTOL):
            raise ValueError(f"trace {trace:g} exceeds the budget {self.budget:g}")


@dataclass(frozen=True)
class PhaseProfile:
    """Unit-modulus IRS reflection vector, optionally with its lifted matrix."""

    v: np.ndarray               # [N] complex, |v_n| = 1
    lifted: np.ndarray | None = None  # [N, N], v v^H when present

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "v", v)
        if np.abs(np.abs(v) - 1.0).max() > UNIT_MODULUS_ATOL:
            raise ValueError("every reflection coefficient must be unit modulus")
        if self.lifted is not None:
            if np.linalg.norm(self.lifted - np.outer(v, v.conj())) > LIFTED_ATOL:
                raise ValueError("lifted matrix does not match v v^H")

    @classmethod
    def from_phases(cls, phases: np.ndarray) -> "PhaseProfile":
        return cls(v=np.exp(1j * np.asarray(phases, dtype=float)))


@dataclass(frozen=True)
class PointFim:
    """3x3 Fisher information over (theta, Re alpha, Im alpha)."""

    F: np.ndarray               # [3, 3] real symmetric
    f_theta_theta: float
    f_theta_alpha: np.ndarray   # [2]
    f_alpha_alpha: np.ndarray   # [2, 2], nonnegative multiple of I


def covariance_matrix(r_x) -> np.ndarray:
    """Accept a TransmitCovariance or a raw array."""
    if isinstance(r_x, TransmitCovariance):
        return r_x.matrix
    return np.asarray(r_x, dtype=complex)


def profile_vector(v) -> np.ndarray:
    """Accept a PhaseProfile or a raw array."""
    if isinstance(v, PhaseProfile):
        return v.v
    return np.asarray(v, dtype=complex)


def effective_matrix(b: np.ndarray, a: np.ndarray, v,
                     g: np.ndarray) -> np.ndarray:
    """Rank-one effective matrix E = b (v * a)^T G of shape [K, M]."""
    b = np.asarray(b, dtype=complex)
    a = np.asarray(a, dtype=complex)
    vv = profile_vector(v)
    g = np.asarray(g, dtype=complex)
    if g.shape[0] != a.shape[0] or vv.shape[0] != a.shape[0]:
        raise ValueError(
            f"inconsistent dimensions: a has {a.shape[0]} entries, v has "
            f"{vv.shape[0]}, G has {g.shape[0]} rows"
        )
    return np.outer(b, (vv * a) @ g)


def effective_matrix_derivative(b: np.ndarray, a: np.ndarray, v,
                                g: np.ndarray, theta: float, d_hat: float,
                                lambda_r: float) -> np.ndarray:
    """Angular derivative of :func:`effective_matrix` at ``theta``."""
    b = np.asarray(b, dtype=complex)
    a = np.asarray(a, dtype=complex)
    vv = profile_vector(v)
    g = np.asarray(g, dtype=complex)
    idx_b = centered_index(b.shape[0])
    idx_a = centered_index(a.shape[0])
    factor = 1j * np.pi * (d_hat / lambda_r) * np.cos(theta)
    return factor * (np.outer(idx_b * b, (vv * a) @ g)
                     + np.outer(b, (vv * idx_a * a) @ g))


def steered_gram(g: np.ndarray, r_x, a: np.ndarray) -> np.ndarray:
    """Hermitian form conj(A G) R_x^T (A G)^T with A = diag(a), shape [N, N].

    This is the quadratic kernel through which the IRS profile enters every
    point-target trace identity.
    """
    a_diag = np.asarray(a, dtype=complex)
    ag = a_diag[:, None] * np.asarray(g, dtype=complex)   # A @ G
    rx = covariance_matrix(r_x)
    return ag.conj() @ rx.T @ ag.T


def fim_point(scene: PointTargetScene, r_x, v, g: np.ndarray,
              config: SystemConfig) -> PointFim:
    """Fisher information for (theta, Re alpha, Im alpha)."""
    a = target_steering(scene.theta, config.N, config.spacing, config.wavelength)
    b = target_steering(scene.theta, config.K, config.spacing, config.wavelength)
    e = effective_matrix(b, a, v, g)
    e_dot = effective_matrix_derivative(b, a, v, g, scene.theta,
                                        config.spacing, config.wavelength)
    rx = covariance_matrix(r_x)
    scale = 2.0 * config.T / config.noise_power
    alpha = complex(scene.alpha)

    f_tt = float(abs(alpha) ** 2 * scale * np.real(np.trace(e_dot @ rx @ e_dot.conj().T)))
    cross = np.trace(e @ rx @ e_dot.conj().T)
    f_ta = scale * np.real(np.conj(alpha) * cross * np.array([1.0, 1j]))
    f_aa = scale * np.real(np.trace(e @ rx @ e.conj().T)) * np.eye(2)

    f = np.empty((3, 3))
    f[0, 0] = f_tt
    f[0, 1:] = f_ta
    f[1:, 0] = f_ta
    f[1:, 1:] = f_aa
    return PointFim(F=f, f_theta_theta=f_tt, f_theta_alpha=f_ta, f_alpha_alpha=f_aa)


def crb_point_closed(scene: PointTargetScene, r_x, v, g: np.ndarray,
                     config: SystemConfig) -> float:
    """Closed-form DoA bound in rad^2.

    Returns ``inf`` for degenerate geometry (endfire or a profile that
    nulls the reflected power) instead of raising, so sweeps can record the
    point.
    """
    vv = profile_vector(v)
    a = target_steering(scene.theta, config.N, config.spacing, config.wavelength)
    quad = steered_gram(g, r_x, a)
    idx_a = centered_index(config.N).astype(float)

    p_reflect = float(np.real(vv.conj() @ quad @ vv))
    if p_reflect <= 0.0:
        return float("inf")
    p_taper = float(np.real(vv.conj() @ (idx_a[:, None] * quad * idx_a[None, :]) @ vv))
    cross = vv.conj() @ (idx_a[:, None] * quad) @ vv

    k = config.K
    bracket = ((k ** 3 - k) / 3.0) * p_reflect + k * p_taper \
        - k * abs(cross) ** 2 / p_reflect
    return _bound_from_info(scene, config, bracket)


def _bound_from_info(scene: PointTargetScene, config: SystemConfig,
                     info: float) -> float:
    """Bound sigma^2 lambda^2 / (2 T |alpha|^2 pi^2 d^2 cos^2(theta) info).

    Returns ``inf`` when the information is not positive.
    """
    cos2 = np.cos(scene.theta) ** 2
    denom = (2.0 * config.T * abs(scene.alpha) ** 2 * np.pi ** 2
             * config.spacing ** 2 * cos2 * info)
    if denom <= 0.0:
        return float("inf")
    return float(config.noise_power * config.wavelength ** 2 / denom)


def single_antenna_optimum(scene: PointTargetScene, h_bi: np.ndarray,
                           config: SystemConfig) -> tuple[float, np.ndarray, float]:
    """Optimal power, phases and DoA bound for a single-antenna BS.

    The full budget is used and each reflection phase cancels the combined
    phase of the steering entry and the channel entry, so the reflected
    amplitudes add coherently.  Returns ``(p_x, phases, crb)`` where the
    bound equals

        3 sigma^2 lambda^2 /
        (2 T |alpha|^2 pi^2 cos^2(theta) d^2 P0 (K^3 - K) (sum_n |h_n|)^2).
    """
    if config.M != 1:
        raise ValueError(f"single-antenna optimum requires M = 1, got M = {config.M}")
    h = np.asarray(h_bi, dtype=complex)
    a = target_steering(scene.theta, config.N, config.spacing, config.wavelength)
    phases = np.angle(np.exp(-1j * (np.angle(a) + np.angle(h))))
    p_x = config.P0

    coherent_gain = float(np.sum(np.abs(h))) ** 2
    k = config.K
    info = p_x * (k ** 3 - k) * coherent_gain / 3.0
    return p_x, phases, _bound_from_info(scene, config, info)
