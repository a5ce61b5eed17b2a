"""Fisher information and closed-form DoA bound for a point target.

The received echo mean is alpha * vec(E X) with the effective matrix
E = b a^T diag(v) G.  Because the steering vectors are centroid-referenced,
the 3x3 Fisher information over (theta, Re alpha, Im alpha) collapses into a
scalar bound on theta whose denominator is K times the reflected
information measure f(R_x, V) = tr(W V) - |tr(C V)|^2 / tr(Q V) at
V = v v^H, with Q = L L^H for the N x M factor L = conj(A G R_x^{1/2}),
W = gamma Q + D Q D and C = D Q.  This module owns f, which also scores
every design of the beamforming optimizer, as the kernel (L, gamma, d).
The closed form is evaluated next to the full matrix-inverse route so the
two can cross-check each other.
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
IMAG_RESIDUE_RTOL = 1e-9


class DegenerateObjectiveError(ArithmeticError):
    """The reflected power term of the objective is not positive."""


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
    """Unit-modulus IRS reflection vector."""

    v: np.ndarray               # [N] complex, |v_n| = 1

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "v", v)
        if np.abs(np.abs(v) - 1.0).max() > UNIT_MODULUS_ATOL:
            raise ValueError("every reflection coefficient must be unit modulus")


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


Kernel = tuple[np.ndarray, float, np.ndarray | float]   # (L, gamma, d); d = 0: v^H L L^H v


def _info_kernels(g: np.ndarray, r_x, a: np.ndarray, k: int) -> Kernel:
    """Kernel of f at R_x: L = conj(A G R_x^{1/2}) from the eigenpairs of R_x,
    gamma = (K^2 - 1)/3 and d = centered_index(N).  A raw R_x is checked as
    a :class:`TransmitCovariance` without a budget."""
    if not isinstance(r_x, TransmitCovariance):
        r_x = TransmitCovariance(r_x, budget=np.inf)
    eig, vecs = np.linalg.eigh(r_x.matrix)
    ag = np.asarray(a, dtype=complex)[:, None] * np.asarray(g, dtype=complex)
    factor = (ag @ (vecs * np.sqrt(np.maximum(eig, 0.0)))).conj()
    return factor, (k ** 2 - 1) / 3.0, centered_index(factor.shape[0]).astype(float)


def _info_measure(w_trace, c_trace, q_trace):
    """f from the traces tr(W V), tr(C V) and tr(Q V), the first and last real."""
    if np.min(q_trace) <= 0.0:
        raise DegenerateObjectiveError(
            f"reflected power term is {np.min(q_trace):g}; the objective is undefined"
        )
    return w_trace - np.abs(c_trace) ** 2 / q_trace


def _profile_scores(kernel: Kernel, profiles: np.ndarray) -> np.ndarray:
    """f = gamma |b|^2 + |w|^2 - |w^H b|^2 / |b|^2 at each row v of ``profiles``,
    with b = L^H v and w = L^H D v for the kernel (L, gamma, d)."""
    factor, gamma, d = kernel
    b = profiles @ factor.conj()
    w = (profiles * d) @ factor.conj()
    power = np.sum(np.abs(b) ** 2, axis=1)
    return _info_measure(gamma * power + np.sum(np.abs(w) ** 2, axis=1),
                         np.sum(w.conj() * b, axis=1), power)


def fim_point(scene: PointTargetScene, r_x, v, g: np.ndarray,
              config: SystemConfig) -> np.ndarray:
    """3x3 real symmetric Fisher information over (theta, Re alpha, Im alpha);
    its alpha block is a nonnegative multiple of I."""
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
    return f


def crb_point_closed(scene: PointTargetScene, r_x, v, g: np.ndarray,
                     config: SystemConfig) -> float:
    """Closed-form DoA bound in rad^2.

    Returns ``inf`` for degenerate geometry (endfire or a profile that
    nulls the reflected power) instead of raising, so sweeps can record the
    point.
    """
    a = target_steering(scene.theta, config.N, config.spacing, config.wavelength)
    kernel = _info_kernels(g, r_x, a, config.K)
    try:
        info = _profile_scores(kernel, profile_vector(v)[None, :])[0]
    except DegenerateObjectiveError:
        return float("inf")
    return _bound_from_info(scene, config, config.K * float(info))


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


def single_antenna_optimum(scene: PointTargetScene, h: np.ndarray,
                           config: SystemConfig) -> tuple[np.ndarray, float]:
    """Optimal phases and DoA bound for a single-antenna BS, ``h`` = G[:, 0].

    The full budget P0 is used and each reflection phase cancels the combined
    phase of the steering entry and the channel entry, so the reflected
    amplitudes add coherently.  Returns ``(phases, crb)`` where the
    bound equals

        3 sigma^2 lambda^2 /
        (2 T |alpha|^2 pi^2 cos^2(theta) d^2 P0 (K^3 - K) (sum_n |h_n|)^2).
    """
    if config.M != 1:
        raise ValueError(f"single-antenna optimum requires M = 1, got M = {config.M}")
    h = np.asarray(h, dtype=complex)
    a = target_steering(scene.theta, config.N, config.spacing, config.wavelength)
    phases = np.angle(np.exp(-1j * (np.angle(a) + np.angle(h))))

    coherent_gain = float(np.sum(np.abs(h))) ** 2
    k = config.K
    info = config.P0 * (k ** 3 - k) * coherent_gain / 3.0
    return phases, _bound_from_info(scene, config, info)
