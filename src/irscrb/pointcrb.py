"""Closed-form DoA bound for a point target, reduced from its Fisher information.

The received echo mean is alpha * vec(E X) with the effective matrix
E = b a^T diag(v) G.  Because the steering vectors are centroid-referenced,
the 3x3 Fisher information over (theta, Re alpha, Im alpha) collapses into a
scalar bound on theta whose denominator is K times the reflected
information measure f(R_x, V) = tr(W V) - |tr(C V)|^2 / tr(Q V) at
V = v v^H, with Q = L L^H for the N x M factor L = conj(A G R_x^{1/2}),
W = gamma Q + D Q D and C = D Q.  This module owns f, which also scores
every design of the beamforming optimizer, as the kernel (L, gamma, d).
Only the closed form is evaluated here; the 3x3 information matrix and
its inverse are kept in the test suite as its oracle.  Each design input
has one rule, applied where it enters a public function: R_x by
:func:`covariance`, v by :func:`profile_vector` and theta by the scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import centered_index, target_steering
from .config import PointTargetScene, SystemConfig

HERMITIAN_RTOL = 1e-12
EIG_FLOOR_RTOL = 1e-9
TRACE_SLACK_RTOL = 1e-8
UNIT_MODULUS_ATOL = 1e-10


class DegenerateObjectiveError(ArithmeticError):
    """The reflected power term of the objective is not positive."""


@dataclass(frozen=True)
class TransmitCovariance:
    """Hermitian PSD transmit covariance with a trace budget in watts."""

    matrix: np.ndarray          # [M, M] complex Hermitian
    budget: float               # W
    # eigenvalues (ascending) and eigenvectors, taken once for every use
    eigh: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", r)
        scale = max(np.abs(r).max(), 1e-300)
        if not np.abs(r - r.conj().T).max() <= HERMITIAN_RTOL * scale:   # NaN fails
            raise ValueError("transmit covariance must be finite and Hermitian")
        object.__setattr__(self, "eigh", np.linalg.eigh(r))
        trace = float(np.real(np.trace(r)))
        min_eig = float(self.eigh[0][0])
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
        if not np.abs(np.abs(v) - 1.0).max() <= UNIT_MODULUS_ATOL:      # NaN fails
            raise ValueError("every reflection coefficient must be unit modulus")


def covariance(r_x) -> TransmitCovariance:
    """``r_x`` if it is a TransmitCovariance, else a raw array checked as one
    without a budget."""
    return r_x if isinstance(r_x, TransmitCovariance) else TransmitCovariance(r_x, np.inf)


def profile_vector(v) -> np.ndarray:
    """The entries of a PhaseProfile, or of a raw array checked as one."""
    return (v if isinstance(v, PhaseProfile) else PhaseProfile(v)).v


Kernel = tuple[np.ndarray, float, np.ndarray | float]   # (L, gamma, d); d = 0: v^H L L^H v


def _info_kernels(g: np.ndarray, r_x, a: np.ndarray, k: int) -> Kernel:
    """Kernel of f at R_x (see :func:`covariance`): L = conj(A G R_x^{1/2})
    from the eigenpairs of R_x, gamma = (K^2 - 1)/3 and d = centered_index(N)."""
    eig, vecs = covariance(r_x).eigh
    ag = np.asarray(a, dtype=complex)[:, None] * np.asarray(g, dtype=complex)
    factor = (ag @ (vecs * np.sqrt(np.maximum(eig, 0.0)))).conj()
    return factor, (k ** 2 - 1) / 3.0, centered_index(factor.shape[0]).astype(float)


def _info_measure(w_trace, c_trace, q_trace):
    """f from the traces tr(W V), tr(C V) and tr(Q V), the first and last real."""
    if np.min(q_trace) <= 0.0:
        raise DegenerateObjectiveError(
            f"reflected power term is {np.min(q_trace):g}; the objective is undefined"
        )
    return w_trace - np.abs(c_trace) * (np.abs(c_trace) / q_trace)


def _profile_scores(kernel: Kernel, profiles: np.ndarray) -> np.ndarray:
    """f = gamma |b|^2 + |w|^2 - |w^H b|^2 / |b|^2 at each row v of ``profiles``,
    with b = L^H v and w = L^H D v for the kernel (L, gamma, d)."""
    factor, gamma, d = kernel
    b = profiles @ factor.conj()
    w = (profiles * d) @ factor.conj()
    power = np.sum(np.abs(b) ** 2, axis=1)
    return _info_measure(gamma * power + np.sum(np.abs(w) ** 2, axis=1),
                         np.sum(w.conj() * b, axis=1), power)


def crb_point_closed(scene: PointTargetScene, r_x, v, g: np.ndarray,
                     config: SystemConfig) -> float:
    """Closed-form DoA bound in rad^2.

    Returns ``inf`` for a profile that nulls the reflected power, so sweeps
    can record the point.  At endfire, theta = +-pi/2, cos^2(theta) is about
    3.7e-33, so the bound there is very large but finite.
    """
    a = target_steering(scene.theta, config.N, config.spacing, config.wavelength)
    kernel = _info_kernels(g, r_x, a, config.K)
    try:
        info = _profile_scores(kernel, profile_vector(v)[None, :])[0]
    except DegenerateObjectiveError:
        return float("inf")
    return _bound_from_info(scene, config, config.K * float(info))


def _bound_from_info(scene: PointTargetScene, config: SystemConfig, info):
    """Bound sigma^2 lambda^2 / (2 T |alpha|^2 pi^2 d^2 cos^2(theta) info),
    elementwise over ``info``.

    Gives ``inf`` where the information is not positive, and a float for a
    scalar ``info``.
    """
    cos2 = np.cos(scene.theta) ** 2
    denom = (2.0 * config.T * abs(scene.alpha) ** 2 * np.pi ** 2
             * config.spacing ** 2 * cos2 * info)
    with np.errstate(divide="ignore"):     # where denom is 0, replaced by inf
        bound = config.noise_power * config.wavelength ** 2 / denom
    return _scalar_or_array(np.where(denom <= 0.0, np.inf, bound))


def _scalar_or_array(x):
    """A 0-d result as a Python scalar; a stack of results as its array."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def single_antenna_optimum(scene: PointTargetScene, h: np.ndarray,
                           config: SystemConfig) -> tuple[np.ndarray, float | np.ndarray]:
    """Optimal phases and DoA bound for a single-antenna BS, ``h`` = G[:, 0].

    The full budget P0 is used and each reflection phase cancels the combined
    phase of the steering entry and the channel entry, so the reflected
    amplitudes add coherently.  Returns ``(phases, crb)`` where the
    bound equals

        3 sigma^2 lambda^2 /
        (2 T |alpha|^2 pi^2 cos^2(theta) d^2 P0 (K^3 - K) (sum_n |h_n|)^2).

    A stack of channels ``h`` (..., N) gives phases of that shape and bounds
    of shape (...), entry by entry each channel's; one channel a float bound.
    """
    if config.M != 1:
        raise ValueError(f"single-antenna optimum requires M = 1, got M = {config.M}")
    h = np.asarray(h, dtype=complex)
    a = target_steering(scene.theta, config.N, config.spacing, config.wavelength)
    phases = np.angle(np.exp(-1j * (np.angle(a) + np.angle(h))))

    amplitude = np.sum(np.abs(h), axis=-1)
    coherent_gain = amplitude * amplitude       # not ** 2: see crb_extended_opt
    k = config.K
    info = config.P0 * (k ** 3 - k) * coherent_gain / 3.0
    return phases, _bound_from_info(scene, config, info)
