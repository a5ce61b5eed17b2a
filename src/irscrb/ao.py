"""Joint transmit/reflect beamforming for the point-target DoA bound.

Minimizing the closed-form bound is equivalent to maximizing the reflected
information measure

    f(R_x, V) = (K^2 - 1)/3 * tr(Q V) + tr(D Q D V) - |tr(Q D V)|^2 / tr(Q V)

over the transmit covariance R_x and the lifted profile V = v v^H, where Q
is the steered channel Gram matrix and D the centered index taper.  The
rank-one constraint on V is dropped; with either variable fixed the problem
is a small semidefinite program (the fractional term enters through a 2x2
Schur-complement block), so the two subproblems alternate until the
objective stalls and a unit-modulus profile is then recovered by Gaussian
randomization.  The reflection step solves its program.  The transmit
steps solve none: the first and last, at unit-modulus profiles, are in
closed form, and the intermediate ones, at lifted profiles, take the
certified eigenvalue form of the program, which is solved only when no
certificate comes.  An incumbent feasible pair is tracked throughout, so
the final answer is never worse than the initialization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from . import conic
from .arrays import centered_index, target_steering
from .config import PointTargetScene, SystemConfig, make_rng
from .conic import ConicProgram, ConicSolution
from .pointcrb import (PhaseProfile, TransmitCovariance, crb_point_closed,
                       profile_vector, steered_gram)

SUBPROBLEM_TOL = 1e-9
# A solve that stalls at the solver's numerical floor is kept when its KKT
# residual is at most this; the residual stays on the returned solution.
# Reflection solves of the optimizer stall at up to about 3e-9.
SUBPROBLEM_FLOOR = 1e-8
IMAG_RESIDUE_RTOL = 1e-9
SUPREMUM_BEAM_SHARE = 1e-12       # power share left on b when f* is a supremum
EIGEN_GAP_RTOL = 1e-11            # certified gap of a transmit_eigen_form step
ECHO_BEAM_RTOL = 1e-6             # least x^H P x / max|P| of an accepted beam
EIGEN_NEWTON_STEPS = 20
EIGEN_LINE_SEARCH = 40            # step halvings per Newton step

class DegenerateObjectiveError(ArithmeticError):
    """The reflected power term of the objective is not positive."""


class SubproblemError(RuntimeError):
    """A beamforming subproblem did not reach an optimal solver status."""


@dataclass
class AoResult:
    R_x: TransmitCovariance
    v: PhaseProfile
    crb: float                          # rad^2
    objective_trace: list[float]        # f value per half-iteration
    iterations: int
    status: Literal["converged", "max_iter"]
    # SDP half-steps: the reflection steps, and transmit steps without an
    # eigenvalue-form certificate
    iter_seconds: list[float] = field(default_factory=list)  # per SDP half-step
    solver_residual_max: float = 0.0    # worst KKT residual over the SDP half-steps


def _real_trace(value, label: str):
    value = np.asarray(value)
    if np.any(np.abs(value.imag) > IMAG_RESIDUE_RTOL * (1.0 + np.abs(value.real))):
        raise ValueError(f"{label} has non-negligible imaginary part "
                         f"{np.max(np.abs(value.imag)):g}")
    return value.real


def _info_measure(p_reflect, p_taper, cross, k: int):
    """f from the traces tr(Q V), tr(D Q D V) and tr(Q D V); scalars or arrays."""
    p_reflect = _real_trace(p_reflect, "reflected power")
    if np.min(p_reflect) <= 0.0:
        raise DegenerateObjectiveError(
            f"reflected power term is {np.min(p_reflect):g}; the objective is undefined"
        )
    p_taper = _real_trace(p_taper, "tapered power")
    return ((k ** 2 - 1) / 3.0) * p_reflect + p_taper - np.abs(cross) ** 2 / p_reflect


def sdr_objective(r_x, v_lifted: np.ndarray, a: np.ndarray, g: np.ndarray,
                  k: int) -> float:
    """Reflected information measure f(R_x, V); larger is better."""
    quad = steered_gram(g, r_x, a)
    idx = centered_index(a.shape[0]).astype(float)
    v_l = np.asarray(v_lifted, dtype=complex)
    taper_quad = idx[:, None] * quad * idx[None, :]
    return float(_info_measure(np.trace(quad @ v_l), np.trace(taper_quad @ v_l),
                               np.trace((quad * idx[None, :]) @ v_l), k))


def _re_im_kernels(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian kernels extracting Re tr(B X) and Im tr(B X)."""
    return (b + b.conj().T) / 2.0, (b - b.conj().T) / 2.0j


# Kernels picking out the entries of the 2x2 Schur block U.
_U11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_U22 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_U12_RE = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
_U12_IM = np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex)


def _schur_program(quad_obj: np.ndarray, cross_kernel: np.ndarray,
                   power_kernel: np.ndarray, order: int) -> ConicProgram:
    """Common epigraph program: min U_11 - tr(quad_obj X) with U tied to X.

    The 2x2 Hermitian block U carries the fractional term: U_12 =
    tr(cross_kernel X), U_22 = tr(power_kernel X), and PSD-ness of U forces
    U_11 >= |U_12|^2 / U_22.  Each row of U is normalized on its own: the
    objective by its largest entry s_q, the power kernel by its own s_p and
    the cross kernel by sqrt(s_q s_p).  That is the congruence D U D / s_q
    with D = diag(1, sqrt(s_q / s_p)), so it keeps U's PSD-ness and the
    optimal X.  Under one shared scale, U_22 of the transmit program is
    near 2e-8 at N = 64 and its solves stall above the acceptance floor.
    """
    s_q = max(np.abs(quad_obj).max(), 1e-300)
    s_p = max(np.abs(power_kernel).max(), 1e-300)
    program = ConicProgram([order, 2])
    program.set_objective({0: -quad_obj / s_q, 1: _U11})
    re_k, im_k = _re_im_kernels(cross_kernel / np.sqrt(s_q * s_p))
    program.add_eq({0: re_k, 1: -_U12_RE}, 0.0)
    program.add_eq({0: im_k, 1: -_U12_IM}, 0.0)
    program.add_eq({0: power_kernel / s_p, 1: -_U22}, 0.0)
    return program


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
                        solver: Callable[..., ConicSolution] = conic.solve,
                        tol: float = SUBPROBLEM_TOL
                        ) -> tuple[TransmitCovariance, ConicSolution]:
    """Best transmit covariance for a fixed (possibly lifted) profile, and its solve.

    f is homogeneous of degree 1 in R_x, so the budget binds and the best
    R_x is P0 times the best X of unit trace.  The program is posed at that
    unit power, with the equality tr X = 1, so it is the same program at
    every budget; ``sol`` is its solution X.  X meets tr X = 1 only to the
    solver's tolerance, so R_x is X rescaled to trace P0.
    """
    quad_obj, cross_kernel, power_kernel = _transmit_kernels(v_lifted, a, g, k)
    order = quad_obj.shape[0]
    program = _schur_program(quad_obj, cross_kernel, power_kernel, order=order)
    program.add_eq({0: np.eye(order)}, 1.0)
    sol = _checked(solver(program, tol=tol), "transmit")
    x = _psd_clip(sol.blocks[0])
    return TransmitCovariance(matrix=(p0 / np.trace(x).real) * x, budget=p0), sol


def transmit_eigen_form(v_lifted: np.ndarray, a: np.ndarray, g: np.ndarray,
                        k: int, p0: float) -> TransmitCovariance | None:
    """Certified rank-one optimum of the transmit program, or None.

    Since -|c|^2/p = min_u (|u|^2 p - 2 Re(conj(u) c)), Sion's minimax
    theorem makes the program's value min over complex u of P0 lam1(K(u)),
    with K(u) = Qo + |u|^2 P - conj(u) C - u C^H and lam1 the largest
    eigenvalue: a convex function of two real parameters.  Damped Newton
    steps on it start from u = x^H C x / x^H P x, x the top eigenvector of
    Qo.  The top eigenvector x of each K(u) gives R_x = P0 x x^H with
    f(R_x) <= value <= P0 lam1, so R_x is returned once the gap
    P0 lam1 - f(R_x) is at most ``EIGEN_GAP_RTOL`` P0 |lam1| and x^H P x
    exceeds ``ECHO_BEAM_RTOL`` max|P|.  The second condition rejects a beam
    orthogonal to the echo, where f is only a supremum.  None means that
    no certificate came within ``EIGEN_NEWTON_STEPS`` steps; the caller
    then solves the program.
    """
    qo, c, p = _transmit_kernels(v_lifted, a, g, k)
    c_h = c.conj().T
    beam_floor = ECHO_BEAM_RTOL * np.abs(p).max()

    def top_pair(u):
        return np.linalg.eigh(qo + abs(u) ** 2 * p - np.conj(u) * c - u * c_h)

    x = np.linalg.eigh(qo)[1][:, -1]
    p_x = np.vdot(x, p @ x).real
    u = np.vdot(x, c @ x) / p_x if p_x > beam_floor else 0.0
    lam, vec = top_pair(u)
    for _ in range(EIGEN_NEWTON_STEPS + 1):
        x, lam1 = vec[:, -1], lam[-1]
        p_vec, c_vec, ch_vec = p @ x, c @ x, c_h @ x
        p_x = np.vdot(x, p_vec).real
        c_x = np.vdot(x, c_vec)
        if p_x > beam_floor:
            f_x = np.vdot(x, qo @ x).real - abs(c_x) ** 2 / p_x
            if lam1 - f_x <= EIGEN_GAP_RTOL * abs(lam1):
                return TransmitCovariance(p0 * np.outer(x, x.conj()), p0)
        spread = lam1 - lam[:-1]
        if spread.size and spread.min() <= EIGEN_GAP_RTOL * abs(lam1):
            return None                 # lam1 is not simple: no Newton step
        # d lam1 / d(Re u, Im u) = x^H K_i x, with K_re = 2 Re(u) P - (C + C^H)
        # and K_im = 2 Im(u) P + i (C - C^H); second order by perturbation.
        grad_c = 2.0 * (u * p_x - c_x)
        grad = np.array([grad_c.real, grad_c.imag])
        k_x = np.stack([2.0 * u.real * p_vec - (c_vec + ch_vec),
                        2.0 * u.imag * p_vec + 1j * (c_vec - ch_vec)], axis=1)
        z = vec[:, :-1].conj().T @ k_x / np.sqrt(spread)[:, None]
        hess = 2.0 * p_x * np.eye(2) + 2.0 * (z.conj().T @ z).real
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return None
        slope = grad @ step
        t = 1.0
        for _ in range(EIGEN_LINE_SEARCH):
            u_try = u + t * complex(step[0], step[1])
            lam_try, vec_try = top_pair(u_try)
            if lam_try[-1] <= lam1 + 1e-4 * t * slope:
                break
            t /= 2.0
        else:
            return None                 # no decrease left at working precision
        u, lam, vec = u_try, lam_try, vec_try
    return None


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


def irs_subproblem(r_x, a: np.ndarray, g: np.ndarray, k: int,
                   solver: Callable[..., ConicSolution] = conic.solve,
                   tol: float = SUBPROBLEM_TOL) -> tuple[np.ndarray, ConicSolution]:
    """Best lifted reflection profile for a fixed transmit covariance, and its solve."""
    a = np.asarray(a, dtype=complex)
    g = np.asarray(g, dtype=complex)
    n = a.shape[0]
    idx = centered_index(n).astype(float)
    quad = steered_gram(g, r_x, a)
    quad_obj = ((k ** 2 - 1) / 3.0) * quad + idx[:, None] * quad * idx[None, :]
    cross_kernel = idx[:, None] * quad                   # D Q, for tr(D Q V)
    program = _schur_program(quad_obj, cross_kernel, quad, order=n)
    for i in range(n):
        e_ii = np.zeros((n, n))
        e_ii[i, i] = 1.0
        program.add_eq({0: e_ii}, 1.0)
    sol = _checked(solver(program, tol=tol), "reflection")
    return sol.blocks[0], sol


def _checked(sol: ConicSolution, label: str) -> ConicSolution:
    if sol.status != "optimal" and (sol.status == "infeasible"
                                    or sol.kkt.max() > SUBPROBLEM_FLOOR):
        raise SubproblemError(f"{label} subproblem ended with status {sol.status} "
                              f"(KKT residual {sol.kkt.max():.3g})")
    return sol


def _psd_clip(mat: np.ndarray) -> np.ndarray:
    """Project a nearly-PSD Hermitian matrix onto the cone."""
    h = (mat + mat.conj().T) / 2.0
    w, q = np.linalg.eigh(h)
    if w.min() >= 0.0:
        return h
    return (q * np.maximum(w, 0.0)) @ q.conj().T


def gaussian_randomization(v_lifted: np.ndarray, r_x, a: np.ndarray,
                           g: np.ndarray, k: int, samples: int,
                           seed: int) -> PhaseProfile:
    """Recover a unit-modulus profile from a lifted solution.

    Draws circular Gaussian vectors with covariance V, projects each onto
    the unit-modulus set by keeping only its phases, scores all of them at
    once as quadratic forms and returns the first draw with the best
    objective.  A numerically rank-one V short-circuits to the phases of its
    dominant eigenvector.  Draws come from one sequential stream, so a
    larger ``samples`` extends (never reshuffles) the pool.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    v_l = _psd_clip(np.asarray(v_lifted, dtype=complex))
    w, q = np.linalg.eigh(v_l)
    w = np.maximum(w[::-1], 0.0)        # descending
    q = q[:, ::-1]
    if w[0] <= 0.0:
        raise ValueError("lifted profile is zero")
    if w.shape[0] == 1 or w[1] / w[0] <= 1e-8:
        return PhaseProfile.from_phases(np.angle(q[:, 0]))

    n = v_l.shape[0]
    draws = make_rng(seed).standard_normal((samples, 2, n))   # real, imag per draw
    noise = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
    cands = np.exp(1j * np.angle(noise @ (q * np.sqrt(w)).T))

    quad = steered_gram(g, r_x, a)
    idx = centered_index(n).astype(float)
    q_v, q_dv = cands @ quad.T, (cands * idx) @ quad.T       # rows Q v and Q D v
    f_vals = _info_measure(np.sum(cands.conj() * q_v, axis=1),
                           np.sum((cands * idx).conj() * q_dv, axis=1),
                           np.sum(cands.conj() * q_dv, axis=1), k)
    return PhaseProfile(v=cands[np.argmax(f_vals)])


def default_phase_profile(g: np.ndarray, a: np.ndarray) -> PhaseProfile:
    """Initialization aligning the profile against the dominant channel mode.

    Uses phi_n = -arg(a_n) - arg([G w]_n) with w the leading right singular
    vector of G; for a single-antenna BS this is exactly the optimal
    profile.  Falls back to uniform phases if the image has zero entries.
    """
    g = np.asarray(g, dtype=complex)
    a = np.asarray(a, dtype=complex)
    _, _, vh = np.linalg.svd(g)
    image = g @ vh[0].conj()
    if np.any(np.abs(image) == 0.0):
        return PhaseProfile.from_phases(np.zeros(g.shape[0]))
    return PhaseProfile.from_phases(-np.angle(a) - np.angle(image))


def ao_minimize_crb(scene: PointTargetScene, g: np.ndarray,
                    config: SystemConfig, init: PhaseProfile | None = None,
                    tol: float = 1e-6, max_iter: int = 50,
                    samples: int = 200, seed: int = 0) -> AoResult:
    """Alternating minimization of the point-target DoA bound.

    Alternates the two subproblems until the relative objective improvement
    drops below ``tol``, recovers a unit-modulus profile by randomization,
    gives it its closed-form transmit covariance, and reports the bound of
    the best feasible pair seen (including the initialization).
    """
    g = np.asarray(g, dtype=complex)
    a = target_steering(scene.theta, config.N, config.spacing, config.wavelength)
    if init is None:
        init = default_phase_profile(g, a)
    k, p0 = config.K, config.P0

    trace: list[float] = []
    seconds: list[float] = []
    residual_max = 0.0

    def half_step(fn, *args):
        nonlocal residual_max
        tic = time.perf_counter()
        out, sol = fn(*args)
        seconds.append(time.perf_counter() - tic)
        residual_max = max(residual_max, sol.kkt.max())
        return out

    v_lifted = np.outer(init.v, init.v.conj())
    r_x, _ = transmit_closed_form(init.v, a, g, k, p0)
    trace.append(sdr_objective(r_x, v_lifted, a, g, k))
    incumbent = (r_x, init.v, trace[0])

    status: Literal["converged", "max_iter"] = "max_iter"
    f_prev = trace[0]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        v_lifted = half_step(irs_subproblem, r_x, a, g, k)
        trace.append(sdr_objective(r_x, v_lifted, a, g, k))
        r_x = transmit_eigen_form(v_lifted, a, g, k, p0)
        if r_x is None:
            r_x = half_step(transmit_subproblem, v_lifted, a, g, k, p0)
        f_cur = sdr_objective(r_x, v_lifted, a, g, k)
        trace.append(f_cur)
        if abs(f_cur - f_prev) <= tol * max(1e-300, abs(f_prev)):
            status = "converged"
            break
        f_prev = f_cur

    # Candidate unit-modulus profiles: randomization winner, the dominant
    # eigenvector's phases and the initialization.
    best = gaussian_randomization(v_lifted, r_x, a, g, k, samples, seed)
    w, q = np.linalg.eigh(_psd_clip(v_lifted))
    candidates = [best.v, np.exp(1j * np.angle(q[:, -1])), init.v]
    scored = [(sdr_objective(r_x, np.outer(v, v.conj()), a, g, k), i, v)
              for i, v in enumerate(candidates)]
    _, _, v_star = max(scored, key=lambda t: (t[0], -t[1]))

    r_star, _ = transmit_closed_form(v_star, a, g, k, p0)
    f_star = sdr_objective(r_star, np.outer(v_star, v_star.conj()), a, g, k)
    if f_star < incumbent[2]:
        r_star, v_star, f_star = incumbent

    crb = crb_point_closed(scene, r_star, v_star, g, config)
    return AoResult(
        R_x=r_star,
        v=PhaseProfile(v=np.asarray(v_star)),
        crb=crb,
        objective_trace=trace,
        iterations=iterations,
        status=status,
        iter_seconds=seconds,
        solver_residual_max=residual_max,
    )
