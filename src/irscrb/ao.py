"""Joint transmit/reflect beamforming for the point-target DoA bound.

Minimizing the closed-form bound is equivalent to maximizing the reflected
information measure f(R_x, V) of :mod:`irscrb.pointcrb` over the transmit
covariance R_x and the lifted profile V = v v^H.  At a fixed R_x, f is set
by the N x M factor kernel of :func:`~irscrb.pointcrb._info_kernels`, which
the reflection routines take: :func:`phase_ascent` climbs f over
unit-modulus profiles with a dual bound, and :func:`_reflect` falls back to
the semidefinite relaxation in V (the fractional term through a 2x2
Schur-complement block, on the N x N kernels of :func:`_dense`) and
Gaussian randomization where that bound fails.  For a unit-modulus profile
the best R_x has a closed form
(:func:`transmit_closed_form`), so the joint problem separates exactly into
two such reflection problems (:func:`ao_minimize_crb`).  The transmit
program at a lifted profile (:func:`transmit_subproblem`) stays available;
the optimizer solves none.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from . import conic
from .arrays import centered_index, target_steering
from .config import PointTargetScene, SystemConfig, check, make_rng
from .conic import ConicProgram, ConicSolution
# only perfbench/tracing.py uses crb_point_closed here
from .pointcrb import (DegenerateObjectiveError, Kernel, PhaseProfile, TransmitCovariance,
                       _bound_from_info, _info_kernels, _info_measure, _profile_scores,
                       crb_point_closed, profile_vector)

SUBPROBLEM_TOL = 1e-9
# A solve that stalls at the solver's numerical floor is kept when its KKT
# residual is at most this; the residual stays on the returned solution.
# Reflection solves of the optimizer stall at up to about 3e-9.
SUBPROBLEM_FLOOR = 1e-8
# memory: a stack copy holds (N + 3)(N + 2)^2 complex entries, 35 MB at N = 128
MAX_REFLECTION_N = 128
SUPREMUM_BEAM_SHARE = 1e-12       # power share left on b when f* is a supremum
FIXED_POINT_MAX_ITER = 1000
FIXED_POINT_ATOL = 1e-12          # largest phasor change that counts as a fixed point
CERTIFICATE_RTOL = 1e-9           # relative gap to f_upper that certifies a design
RANDOMIZATION_SAMPLES = 200       # Gaussian randomization draws per SDR fallback
IMAG_RESIDUE_RTOL = 1e-9

_log = logging.getLogger(__name__)


class SubproblemError(RuntimeError):
    """A beamforming subproblem did not reach an optimal solver status."""


@dataclass
class AoResult:
    R_x: TransmitCovariance
    v: PhaseProfile
    crb: float                          # rad^2
    # [f at Q's top phases, f of the design]; crb is at the last
    objective_trace: list[float]
    iterations: int                     # reflection SDRs whose candidates were scored
    # "certified" where f of the design is within CERTIFICATE_RTOL of f_upper
    status: Literal["certified", "uncertified"]
    f_upper: float                      # bound on f over every design
    solver_residual_max: float = 0.0    # worst KKT residual over those SDRs


def _dense(kernel: Kernel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N x N kernels (W, C, Q) = (gamma Q + D Q D, D Q, L L^H) of f."""
    factor, gamma, d = kernel
    quad = factor @ factor.conj().T
    cross = np.reshape(d, (-1, 1)) * quad
    return gamma * quad + cross * d, cross, quad


def sdr_objective(r_x, v_lifted: np.ndarray, a: np.ndarray, g: np.ndarray,
                  k: int) -> float:
    """Reflected information measure f(R_x, V); larger is better."""
    v_t = np.asarray(v_lifted, dtype=complex).T
    w, c, q = (np.sum(kern * v_t) for kern in _dense(_info_kernels(g, r_x, a, k)))
    for label, tr in (("reflected power", q), ("information term", w)):
        if abs(tr.imag) > IMAG_RESIDUE_RTOL * (1.0 + abs(tr.real)):
            raise ValueError(f"{label} has non-negligible imaginary part {abs(tr.imag):g}")
    return float(_info_measure(w.real, c, q.real))


# Kernels picking out U_11, Re U_12, Im U_12 and U_22 of the 2x2 Schur block U.
_U = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.5], [0.5, 0.0]],
               [[0.0, 0.5j], [-0.5j, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])


def _schur_program(quad_obj: np.ndarray, cross_kernel: np.ndarray, power_kernel: np.ndarray,
                   rows: np.ndarray, rhs) -> ConicProgram:
    """Epigraph program: min U_11 - tr(quad_obj X) with U tied to X, and the
    caller's rows <rows[j], X> = rhs[j] on X.

    The program's matrix is diag(X, U), of order n + 2.  Its 2x2 Hermitian
    corner U carries the fractional term: U_12 = tr(cross_kernel X), U_22 =
    tr(power_kernel X), and PSD-ness of U forces U_11 >= |U_12|^2 / U_22.
    The three rows tying U to X come first.  Each row of U is normalized:
    the objective by its largest entry s_q, the power kernel by its own s_p
    and the cross kernel by sqrt(s_q s_p).  That is the congruence D U D /
    s_q with D = diag(1, sqrt(s_q / s_p)), so it keeps U's PSD-ness and the
    optimal X.  Under one shared scale, U_22 of the transmit program is near
    2e-8 at N = 64 and its solves stall above the acceptance floor.
    """
    s_q = max(np.abs(quad_obj).max(), 1e-300)
    s_p = max(np.abs(power_kernel).max(), 1e-300)
    cross = cross_kernel / (np.sqrt(s_q) * np.sqrt(s_p))
    # Hermitian kernels extracting Re tr(C X) and Im tr(C X)
    re_k, im_k = (cross + cross.conj().T) / 2.0, (cross - cross.conj().T) / 2.0j
    n = quad_obj.shape[0]
    coeffs = np.zeros((4 + len(rows), n + 2, n + 2), dtype=complex)
    coeffs[:, :n, :n] = np.concatenate([[-quad_obj / s_q, re_k, im_k, power_kernel / s_p], rows])
    coeffs[0, n:, n:], coeffs[1:4, n:, n:] = _U[0], -_U[1:]
    return ConicProgram(coeffs[0], coeffs[1:], np.concatenate([np.zeros(3), rhs]))


def _transmit_kernels(v_lifted: np.ndarray, a: np.ndarray, g: np.ndarray, k: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernels (Qo, C, P) of the transmit program at a lifted profile V.

    f(R_x) = tr(Qo R_x) - |tr(C R_x)|^2 / tr(P R_x) with P = (A G)^H V^T (A G),
    C = (A G)^H V^T D (A G) and Qo = (K^2 - 1)/3 P + (A G)^H D V^T D (A G).
    """
    a = np.asarray(a, dtype=complex)
    g = np.asarray(g, dtype=complex)
    v_l = np.asarray(v_lifted, dtype=complex)
    if np.abs(np.diag(v_l).real - 1.0).max() > 1e-6:
        raise ValueError("lifted profile must have a unit diagonal")
    idx = centered_index(a.shape[0]).astype(float)
    ag = a[:, None] * g                                  # A @ G
    v_t = v_l.T
    power_kernel = ag.conj().T @ v_t @ ag
    quad_obj = ((k ** 2 - 1) / 3.0) * power_kernel \
        + ag.conj().T @ (idx[:, None] * v_t * idx[None, :]) @ ag
    cross_kernel = ag.conj().T @ v_t @ (idx[:, None] * ag)
    return quad_obj, cross_kernel, power_kernel


def transmit_subproblem(v_lifted: np.ndarray, a: np.ndarray, g: np.ndarray,
                        k: int, p0: float,
                        solver: Callable[..., ConicSolution] = conic.solve
                        ) -> tuple[TransmitCovariance, ConicSolution]:
    """Best transmit covariance for a fixed (possibly lifted) profile, and its solve.

    f is homogeneous of degree 1 in R_x, so the budget binds and the best
    R_x is P0 times the best X of unit trace.  The program is posed at that
    unit power, with the equality tr X = 1, so it is the same program at
    every budget; ``sol`` is its solution X.  X meets tr X = 1 only to the
    solver's tolerance, so R_x is X rescaled to trace P0.  X is a block of
    the solver's Hermitian iterate, and :class:`TransmitCovariance` checks
    that it is PSD in the one eigendecomposition it keeps.
    """
    quad_obj, cross_kernel, power_kernel = _transmit_kernels(v_lifted, a, g, k)
    m = quad_obj.shape[0]
    program = _schur_program(quad_obj, cross_kernel, power_kernel, np.eye(m)[None], [1.0])
    sol = _checked(solver(program, tol=SUBPROBLEM_TOL), "transmit subproblem")
    x = sol.x[:m, :m]
    return TransmitCovariance(matrix=(p0 / np.trace(x).real) * x, budget=p0), sol


def transmit_closed_form(v, a: np.ndarray, g: np.ndarray, k: int, p0: float
                         ) -> tuple[TransmitCovariance, Literal["attained", "supremum"]]:
    """Best transmit covariance for a unit-modulus profile, and its regime.

    Let b = (A G)^H conj(v), w = (A G)^H D conj(v), w2 the part of w
    orthogonal to b, e1 = b/|b|, e2 = w2/|w2| and x_ij = e_i^H R_x e_j / P0.
    Then f = P0 ((K^2 - 1)/3 |b|^2 x11 + |w2|^2 (x22 - |x12|^2 / x11)), whose
    supremum is P0 max((K^2 - 1)/3 |b|^2, |w2|^2).  It is "attained" by
    R_x = P0 e1 e1^H when the first term wins.  Otherwise it is a
    "supremum", approached as x11 goes to 0, and R_x = P0 (s e1 e1^H +
    (1 - s) e2 e2^H) with s = ``SUPREMUM_BEAM_SHARE`` is within s of it.
    """
    vv = profile_vector(v)
    ag = np.asarray(a, dtype=complex)[:, None] * np.asarray(g, dtype=complex)
    b = ag.conj().T @ vv.conj()
    w = ag.conj().T @ (centered_index(vv.shape[0]) * vv.conj())
    b_sq = float(np.vdot(b, b).real)
    if b_sq <= 0.0:
        raise DegenerateObjectiveError("the profile reflects no power toward the target")
    e1 = b / np.sqrt(b_sq)
    w2 = w - np.vdot(e1, w) * e1
    w2_sq = float(np.vdot(w2, w2).real)
    if ((k ** 2 - 1) / 3.0) * b_sq >= w2_sq:
        return TransmitCovariance(p0 * np.outer(e1, e1.conj()), p0), "attained"
    e2 = w2 / np.sqrt(w2_sq)
    s = SUPREMUM_BEAM_SHARE
    matrix = p0 * (s * np.outer(e1, e1.conj()) + (1.0 - s) * np.outer(e2, e2.conj()))
    return TransmitCovariance(matrix, p0), "supremum"


def irs_subproblem(kernel: Kernel, solver: Callable[..., ConicSolution] = conic.solve
                   ) -> tuple[np.ndarray, ConicSolution]:
    """Best lifted profile for the kernel (L, gamma, d) of f, and its solve."""
    n = kernel[0].shape[0]
    if n > MAX_REFLECTION_N:
        raise SubproblemError(f"reflection program at N = {n} > {MAX_REFLECTION_N} needs "
                              f"{16e-9 * (n + 3) * (n + 2) ** 2:.2g} GB for a stack copy")
    # the rows V_ii = 1, with the e_i e_i^T stacked
    program = _schur_program(*_dense(kernel), np.eye(n)[:, :, None] * np.eye(n), np.ones(n))
    sol = _checked(solver(program, tol=SUBPROBLEM_TOL), f"reflection subproblem at N = {n}")
    return sol.x[:n, :n], sol


def _checked(sol: ConicSolution, label: str) -> ConicSolution:
    if sol.status != "optimal" and (sol.status == "infeasible"
                                    or sol.kkt.max() > SUBPROBLEM_FLOOR):
        raise SubproblemError(f"{label} ended with status {sol.status} "
                              f"(KKT residual {sol.kkt.max():.3g})")
    return sol


def gaussian_randomization(v_lifted: np.ndarray, kernel: Kernel,
                           samples: int, seed: int) -> PhaseProfile:
    """Recover a unit-modulus profile from a lifted solution.

    Draws circular Gaussian vectors with covariance V (its eigenvalues
    clipped at 0), projects each onto the unit-modulus set by keeping only
    its phases, and scores them at once by f for ``kernel`` together with
    the phases of V's dominant eigenvector, which come last; the first
    candidate with the best f wins.  A numerically rank-one V
    short-circuits to those phases.  Draws come from one sequential stream,
    so a larger ``samples`` extends (never reshuffles) the pool.
    """
    check("samples", samples, "trials")
    v_l = np.asarray(v_lifted, dtype=complex)
    w, q = np.linalg.eigh((v_l + v_l.conj().T) / 2.0)
    w = np.maximum(w[::-1], 0.0)        # descending
    q = q[:, ::-1]
    if w[0] <= 0.0:
        raise ValueError("lifted profile is zero")
    dominant = np.exp(1j * np.angle(q[:, 0]))
    if w.shape[0] == 1 or w[1] / w[0] <= 1e-8:
        return PhaseProfile(v=dominant)

    n = v_l.shape[0]
    draws = make_rng(seed).standard_normal((samples, 2, n))   # real, imag per draw
    noise = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
    cands = np.vstack([np.exp(1j * np.angle(noise @ (q * np.sqrt(w)).T)), dominant])
    f_vals = _profile_scores(kernel, cands)
    return PhaseProfile(v=cands[np.argmax(f_vals)])


def _top_phases(factor: np.ndarray) -> np.ndarray:
    """Phases of the top left singular vector of ``factor``, as a profile."""
    return np.exp(1j * np.angle(np.linalg.svd(factor, full_matrices=False)[0][:, 0]))


def phase_ascent(kernel: Kernel, v: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Ascent on f over unit-modulus profiles from ``v``, and a bound on f.

    For the kernel (L, gamma, d), f(v) is the minimum over u of v^H K(u) v
    with K(u) = E E^H, E = [sqrt(gamma) L, (D - u I) L], at u = w^H b / |b|^2
    (b = L^H v, w = L^H D v).  Steps v <- exp(i arg(K(u) v)), K(u) v =
    L ((gamma + |u|^2) b - u w) + D L (w - conj(u) b), each refreshing u,
    end before one that would lower f, at a fixed point or after
    ``FIXED_POINT_MAX_ITER``.  With y = Re(conj(v) K(u) v), sum(y) + N
    max(0, -lambda_min(Diag(y) - K(u))) is dual-feasible for the
    unit-diagonal relaxation of max tr(K(u) V), so for any v it bounds the
    relaxation of f; it equals f, then the global maximum, where Diag(y) -
    K(u) is PSD (So, Zhang & Ye 2007).  K(u) is formed only for that bound.
    Returns (v, f, bound).
    """
    factor, gamma, d = kernel
    adjoint = factor.conj().T

    def at(v):
        b, w = adjoint @ v, adjoint @ (d * v)
        u = np.vdot(w, b) / np.vdot(b, b).real
        k_v = factor @ ((gamma + abs(u) ** 2) * b - u * w) \
            + d * (factor @ (w - np.conj(u) * b))
        return np.vdot(v, k_v).real, u, k_v

    f, u, k_v = at(v)
    for _ in range(FIXED_POINT_MAX_ITER):
        step = np.exp(1j * np.angle(k_v))
        if np.abs(step - v).max() <= FIXED_POINT_ATOL:
            break
        f_step, u_step, kv_step = at(step)
        if f_step < f:
            break
        v, f, u, k_v = step, f_step, u_step, kv_step
    y = (v.conj() * k_v).real
    e = np.hstack([np.sqrt(gamma) * factor, np.reshape(d - u, (-1, 1)) * factor])
    shift = max(0.0, -np.linalg.eigvalsh(np.diag(y) - e @ e.conj().T)[0])
    return v, float(y.sum()), float(y.sum() + y.shape[0] * shift)


def _reflect(kernel: Kernel, v: np.ndarray,
             seed: int) -> tuple[np.ndarray, float, float | None]:
    """The :func:`phase_ascent` from ``v`` and, where its bound fails, the
    SDR fallback from it.

    The fallback solves the reflection SDR and keeps the first best of its
    randomization winner (``RANDOMIZATION_SAMPLES`` draws from ``seed``) and
    the ascent profile.  A fallback whose solve raises ``SubproblemError``
    (a stall above ``SUBPROBLEM_FLOOR``, ``infeasible``, or a program above
    ``MAX_REFLECTION_N``) gives no candidate: the ascent profile is kept and
    a WARNING gives the seed and the error.  Returns (v, the ascent's bound,
    the KKT residual of the solve whose candidates were scored, or None).
    """
    v, f, f_upper = phase_ascent(kernel, v)
    if f >= f_upper * (1.0 - CERTIFICATE_RTOL):
        return v, f_upper, None
    _log.debug("ascent relative gap %.3g; SDR fallback", 1.0 - f / f_upper)
    try:
        v_lifted, sol = irs_subproblem(kernel)
    except SubproblemError as exc:
        _log.warning("SDR fallback with randomization seed %d failed, kept the ascent "
                     "profile: %s: %s", seed, type(exc).__name__, exc)
        return v, f_upper, None
    candidates = np.stack([gaussian_randomization(v_lifted, kernel,
                                                  RANDOMIZATION_SAMPLES, seed).v, v])
    return (candidates[np.argmax(_profile_scores(kernel, candidates))], f_upper,
            sol.kkt.max())


def ao_minimize_crb(scene: PointTargetScene, g: np.ndarray,
                    config: SystemConfig, seed: int = 0) -> AoResult:
    """Minimize the point-target DoA bound over transmit and reflection.

    With L the factor of :func:`~irscrb.pointcrb._info_kernels` at R_x = I,
    D = diag(centered_index(N)) and gamma = (K^2 - 1)/3,
    :func:`transmit_closed_form` gives f*(v) = P0 max(gamma |L^H v|^2,
    |w2(v)|^2), and |w2|^2 is f on the kernel (L, 0, d) of K = 1.  So
    max_v f*(v) = P0 max(gamma max_v |L^H v|^2, max_v |w2|^2) exactly, and
    each branch is a reflection problem: :func:`_reflect` from the phases of
    L's top left singular vector, on (L, 1, 0) for branch 1 and on (L, 0, d)
    for branch 2.  U_DQD bounds |L^H D v|^2 >= |w2|^2: it is the
    :func:`phase_ascent` bound on (D L, 1, 0) from the top phases of D L
    where M > 1 and N > 1, and 0 otherwise: at M = 1, w2 = 0 for every v,
    and at N = 1, D = 0, so |L^H D v|^2 = 0 for every v.  Branch 2
    runs only where it can win: U_DQD > gamma f_1, with f_1 = |L^H v|^2 of
    branch 1.  The design is the first best by f of the two branch profiles
    and the top phases of L, each with its closed-form R_x and the bound at
    its f.  ``f_upper`` = P0 max(gamma U_Q, U_DQD), with U_Q the bound of
    the branch-1 ascent, bounds f over all designs.  ``seed`` seeds the
    randomization of any SDR fallback.
    """
    g = np.asarray(g, dtype=complex)
    a = target_steering(scene.theta, config.N, config.spacing, config.wavelength)
    k, p0 = config.K, config.P0
    gamma = (k ** 2 - 1) / 3.0

    supremum = _info_kernels(g, np.eye(config.M), a, 1)    # (L, 0, d)
    factor, _, d = supremum
    top_q = _top_phases(factor)
    scaled = d[:, None] * factor                            # D L
    upper_dqd = (phase_ascent((scaled, 1.0, 0.0), _top_phases(scaled))[2]
                 if config.M > 1 and config.N > 1 else 0.0)
    branches = [_reflect((factor, 1.0, 0.0), top_q, seed)]
    v, upper_q, _ = branches[0]
    if upper_dqd > gamma * _profile_scores((factor, 1.0, 0.0), v[None, :])[0]:
        branches.append(_reflect(supremum, top_q, seed))
    residuals = [r for _, _, r in branches if r is not None]
    # the top phases come last, so a tie keeps the branch profile
    profiles = [v for v, _, _ in branches] + [top_q]
    designs = [transmit_closed_form(v, a, g, k, p0)[0] for v in profiles]
    scores = [float(_profile_scores(_info_kernels(g, r_x, a, k), v[None, :])[0])
              for r_x, v in zip(designs, profiles)]
    best = int(np.argmax(scores))
    r_x, f, v = designs[best], scores[best], profiles[best]
    f_upper = p0 * max(gamma * upper_q, upper_dqd)
    return AoResult(R_x=r_x, v=PhaseProfile(v=v),
                    crb=_bound_from_info(scene, config, k * f),
                    objective_trace=[scores[-1], f], iterations=len(residuals),
                    status=("certified" if f >= f_upper * (1.0 - CERTIFICATE_RTOL)
                            else "uncertified"),
                    f_upper=f_upper, solver_residual_max=max(residuals, default=0.0))
