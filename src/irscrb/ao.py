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
randomization.  An incumbent feasible pair is tracked throughout, so the
final answer is never worse than the initialization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from . import conic
from .arrays import centered_index, target_steering
from .config import PointTargetScene, SystemConfig, make_rng
from .conic import ConicProgram, ConicSolution, complexify, hermitian_functional
from .pointcrb import (PhaseProfile, TransmitCovariance, _bound_from_info,
                       crb_point_closed, steered_gram)

SUBPROBLEM_TOL = 1e-9
# A solve that stalls at the solver's numerical floor is kept when its KKT
# residual is at most this; the residual stays on the returned solution.
SUBPROBLEM_FLOOR = 1e-8
IMAG_RESIDUE_RTOL = 1e-9

class DegenerateObjectiveError(ArithmeticError):
    """The reflected power term of the objective is not positive."""


class SubproblemError(RuntimeError):
    """A beamforming subproblem did not reach an optimal solver status."""

    def __init__(self, message: str, objective_trace: list[float] | None = None):
        super().__init__(message)
        self.objective_trace = objective_trace or []


@dataclass
class AoResult:
    R_x: TransmitCovariance
    v: PhaseProfile
    crb: float                          # rad^2
    objective_trace: list[float]        # f value per half-iteration
    iterations: int
    randomization_samples: int
    status: Literal["converged", "max_iter"]
    iter_seconds: list[float] = field(default_factory=list)
    solver_residual_max: float = 0.0    # worst KKT residual over all solves


def _real_trace(value: complex, label: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_RTOL * (1.0 + abs(value.real)):
        raise ValueError(f"{label} has non-negligible imaginary part {value.imag:g}")
    return float(value.real)


def sdr_objective(r_x, v_lifted: np.ndarray, a: np.ndarray, g: np.ndarray,
                  k: int) -> float:
    """Reflected information measure f(R_x, V); larger is better."""
    quad = steered_gram(g, r_x, a)
    idx = centered_index(a.shape[0]).astype(float)
    v_l = np.asarray(v_lifted, dtype=complex)

    p_reflect = _real_trace(complex(np.trace(quad @ v_l)), "reflected power")
    if p_reflect <= 0.0:
        raise DegenerateObjectiveError(
            f"reflected power term is {p_reflect:g}; the objective is undefined"
        )
    taper_quad = idx[:, None] * quad * idx[None, :]
    p_taper = _real_trace(complex(np.trace(taper_quad @ v_l)), "tapered power")
    cross = complex(np.trace((quad * idx[None, :]) @ v_l))
    return ((k ** 2 - 1) / 3.0) * p_reflect + p_taper - abs(cross) ** 2 / p_reflect


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
    U_11 >= |U_12|^2 / U_22.
    """
    scale = max(np.abs(quad_obj).max(), np.abs(cross_kernel).max(),
                np.abs(power_kernel).max(), 1e-300)
    program = ConicProgram([2 * order, 4])
    program.set_objective({
        0: -hermitian_functional(quad_obj / scale),
        1: hermitian_functional(_U11),
    })
    re_k, im_k = _re_im_kernels(cross_kernel / scale)
    program.add_eq({0: hermitian_functional(re_k),
                    1: -hermitian_functional(_U12_RE)}, 0.0)
    program.add_eq({0: hermitian_functional(im_k),
                    1: -hermitian_functional(_U12_IM)}, 0.0)
    program.add_eq({0: hermitian_functional(power_kernel / scale),
                    1: -hermitian_functional(_U22)}, 0.0)
    return program


def transmit_subproblem(v_lifted: np.ndarray, a: np.ndarray, g: np.ndarray,
                        k: int, p0: float,
                        solver: Callable[..., ConicSolution] = conic.solve,
                        tol: float = SUBPROBLEM_TOL
                        ) -> tuple[TransmitCovariance, ConicSolution]:
    """Best transmit covariance for a fixed (possibly lifted) profile, and its solve."""
    a = np.asarray(a, dtype=complex)
    g = np.asarray(g, dtype=complex)
    v_l = np.asarray(v_lifted, dtype=complex)
    n = a.shape[0]
    if np.abs(np.diag(v_l).real - 1.0).max() > 1e-6:
        raise ValueError("lifted profile must have a unit diagonal")
    idx = centered_index(n).astype(float)
    ag = a[:, None] * g                                  # A @ G
    v_t = v_l.T
    power_kernel = ag.conj().T @ v_t @ ag                # U_22 kernel
    quad_obj = ((k ** 2 - 1) / 3.0) * power_kernel \
        + ag.conj().T @ (idx[:, None] * v_t * idx[None, :]) @ ag
    cross_kernel = ag.conj().T @ v_t @ (idx[:, None] * ag)

    program = _schur_program(quad_obj, cross_kernel, power_kernel, order=g.shape[1])
    program.add_ineq({0: hermitian_functional(np.eye(g.shape[1], dtype=complex))}, p0)
    sol = _checked(solver(program, tol=tol), "transmit")
    r_x = complexify(sol.blocks[0])
    r_x = _psd_clip(r_x)
    return TransmitCovariance(matrix=r_x, budget=p0), sol


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
        e_ii = np.zeros((n, n), dtype=complex)
        e_ii[i, i] = 1.0
        program.add_eq({0: hermitian_functional(e_ii)}, 1.0)
    sol = _checked(solver(program, tol=tol), "reflection")
    v_l = complexify(sol.blocks[0])
    return (v_l + v_l.conj().T) / 2.0, sol


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
    the unit-modulus set by keeping only its phases, and returns the draw
    with the best objective.  A numerically rank-one V short-circuits to the
    phases of its dominant eigenvector.  Draws come from one sequential
    stream, so a larger ``samples`` extends (never reshuffles) the pool.
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

    factor = q * np.sqrt(w)
    rng = make_rng(seed)
    n = v_l.shape[0]
    best_v = None
    best_f = -np.inf
    for _ in range(samples):
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        cand = np.exp(1j * np.angle(factor @ noise))
        f_val = sdr_objective(r_x, np.outer(cand, cand.conj()), a, g, k)
        if f_val > best_f:
            best_f = f_val
            best_v = cand
    return PhaseProfile(v=best_v)


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
                    samples: int = 200, seed: int = 0,
                    trace_path: str | None = None) -> AoResult:
    """Alternating minimization of the point-target DoA bound.

    Alternates the two subproblems until the relative objective improvement
    drops below ``tol``, recovers a unit-modulus profile by randomization,
    re-optimizes the transmit covariance against it, and reports the bound
    of the best feasible pair seen (including the initialization).
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
        try:
            out, sol = fn(*args)
        except SubproblemError as exc:
            exc.objective_trace = list(trace)
            raise
        seconds.append(time.perf_counter() - tic)
        residual_max = max(residual_max, sol.kkt.max())
        return out

    v_lifted = np.outer(init.v, init.v.conj())
    r_x = half_step(transmit_subproblem, v_lifted, a, g, k, p0)
    trace.append(sdr_objective(r_x, v_lifted, a, g, k))
    incumbent = (r_x, init.v, trace[0])

    status: Literal["converged", "max_iter"] = "max_iter"
    f_prev = trace[0]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        v_lifted = half_step(irs_subproblem, r_x, a, g, k)
        trace.append(sdr_objective(r_x, v_lifted, a, g, k))
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

    r_star = half_step(transmit_subproblem, np.outer(v_star, v_star.conj()),
                       a, g, k, p0)
    f_star = sdr_objective(r_star, np.outer(v_star, v_star.conj()), a, g, k)
    if f_star < incumbent[2]:
        r_star, v_star, f_star = incumbent

    crb = crb_point_closed(scene, r_star, v_star, g, config)
    result = AoResult(
        R_x=r_star if isinstance(r_star, TransmitCovariance)
        else TransmitCovariance(r_star, p0),
        v=PhaseProfile(v=np.asarray(v_star)),
        crb=crb,
        objective_trace=trace,
        iterations=iterations,
        randomization_samples=samples,
        status=status,
        iter_seconds=seconds,
        solver_residual_max=residual_max,
    )
    if trace_path is not None:
        _write_trace(trace_path, trace, scene, config)
    return result


def _write_trace(path: str, trace: list[float], scene: PointTargetScene,
                 config: SystemConfig) -> None:
    """Per-half-iteration CSV rows (iteration, f, crb bound implied by f)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,f,crb\n")
        for i, f_val in enumerate(trace):
            crb = _bound_from_info(scene, config, config.K * f_val)
            fh.write(f"{i},{f_val:.17e},{crb:.17e}\n")
