"""Independent oracles used to cross-check the library.

Everything here is intentionally built from first principles (explicit model
assembly, finite differences, grid refinement, projected gradient) rather
than through the code paths under test.  The exceptions are ``fim_point``
with ``effective_matrix`` and ``effective_matrix_derivative``, and
``fim_extended`` with its ``FIM_SIZE_LIMIT`` guard: the dense Fisher
information matrices, built on the library's steering vectors and covariance
acceptor, that the closed-form bounds reduce; the library keeps only the
closed forms.  The others are ``parent_transmit_program``, which poses the
library's own transmit program in its former inequality form,
``parent_isotropic_profile``, the isotropic-transmit reflection design as it
was made before the phase ascent, ``parent_fully_passive``, the
fully-passive sweep bound as it was evaluated before its transmit factor
came from the closed form, ``_alternate``, the alternating optimizer that
``ao_minimize_crb`` ran where its fixed point did not certify, before the
exact two-branch solve, and ``dense_info_kernels`` and
``dense_phase_ascent``, the N x N kernels of f and the ascent on them as
they were formed before f was carried by its N x M factor.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from irscrb.ao import (FIXED_POINT_ATOL, FIXED_POINT_MAX_ITER, _schur_program,
                       _transmit_kernels, gaussian_randomization, irs_subproblem,
                       transmit_closed_form)
from irscrb.arrays import centered_index, target_steering
from irscrb.channel import rician_channel
from irscrb.config import PointTargetScene, SystemConfig, derive_seed
from irscrb.conic import ConicProgram
from irscrb.extended import crb_fully_passive, optimal_transmit_extended
from irscrb.pointcrb import _info_kernels, _profile_scores, covariance
from irscrb.sweep import _RETURN

AO_TOL = 1e-6                     # relative objective gain that ends the AO
AO_MAX_ITER = 50
FIM_SIZE_LIMIT = 512              # largest K N of a dense fim_extended


def steering_direct(theta: float, count: int, d_hat: float,
                    lambda_r: float) -> np.ndarray:
    """Centered ULA response written out entry by entry."""
    m = np.arange(count)
    return np.exp(1j * (2 * m - count + 1) * np.pi * d_hat
                  * np.sin(theta) / lambda_r)


def symbols_for(r_x: np.ndarray, t: int) -> np.ndarray:
    """An explicit M x T symbol matrix with X X^H = T * R_x (needs T >= M)."""
    m = r_x.shape[0]
    if t < m:
        raise ValueError("need at least as many symbols as antennas")
    w, q = np.linalg.eigh((r_x + r_x.conj().T) / 2.0)
    w = np.maximum(w, 0.0)
    x = np.zeros((m, t), dtype=complex)
    x[:, :m] = q * np.sqrt(t * w)
    return x


def fd_fim_point(theta: float, alpha: complex, r_x: np.ndarray,
                 v: np.ndarray, g: np.ndarray, k: int, t: int,
                 sigma2: float, d_hat: float, lambda_r: float,
                 step: float = 1e-6) -> np.ndarray:
    """Finite-difference Fisher information over (theta, Re a, Im a).

    Assembles the mean vector alpha * vec(E(theta) X) directly from the
    model, differentiates it centrally and forms
    (2/sigma^2) Re{J^H J}.
    """
    n = g.shape[0]
    x_sym = symbols_for(r_x, t)

    def mean_vec(th, a_re, a_im):
        a_vec = steering_direct(th, n, d_hat, lambda_r)
        b_vec = steering_direct(th, k, d_hat, lambda_r)
        e = np.outer(b_vec, (v * a_vec) @ g)
        return (a_re + 1j * a_im) * (e @ x_sym).ravel(order="F")

    point = np.array([theta, alpha.real, alpha.imag])
    cols = []
    for i in range(3):
        delta = np.zeros(3)
        delta[i] = step
        cols.append((mean_vec(*(point + delta)) - mean_vec(*(point - delta)))
                    / (2.0 * step))
    jac = np.stack(cols, axis=1)
    return 2.0 / sigma2 * np.real(jac.conj().T @ jac)


def effective_matrix(b: np.ndarray, a: np.ndarray, v: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """Rank-one effective matrix E = b (v * a)^T G of shape [K, M]."""
    return np.outer(b, (np.asarray(v, dtype=complex) * a) @ g)


def effective_matrix_derivative(b: np.ndarray, a: np.ndarray, v: np.ndarray,
                                g: np.ndarray, theta: float, d_hat: float,
                                lambda_r: float) -> np.ndarray:
    """Angular derivative of :func:`effective_matrix` at ``theta``."""
    vv = np.asarray(v, dtype=complex)
    idx_b = centered_index(b.shape[0])
    idx_a = centered_index(a.shape[0])
    factor = 1j * np.pi * (d_hat / lambda_r) * np.cos(theta)
    return factor * (np.outer(idx_b * b, (vv * a) @ g)
                     + np.outer(b, (vv * idx_a * a) @ g))


def fim_point(scene: PointTargetScene, r_x, v: np.ndarray, g: np.ndarray,
              config: SystemConfig) -> np.ndarray:
    """3x3 real symmetric Fisher information over (theta, Re alpha, Im alpha);
    its alpha block is a nonnegative multiple of I."""
    a = target_steering(scene.theta, config.N, config.spacing, config.wavelength)
    b = target_steering(scene.theta, config.K, config.spacing, config.wavelength)
    e = effective_matrix(b, a, v, g)
    e_dot = effective_matrix_derivative(b, a, v, g, scene.theta,
                                        config.spacing, config.wavelength)
    rx = covariance(r_x).matrix
    scale = 2.0 * config.T / config.noise_power
    alpha = complex(scene.alpha)

    f_tt = float(abs(alpha) ** 2 * scale * np.real(np.trace(e_dot @ rx @ e_dot.conj().T)))
    cross = np.trace(e @ rx @ e_dot.conj().T)
    f_ta = scale * np.real(np.conj(alpha) * cross * np.array([1.0, 1j]))
    f_aa = scale * np.real(np.trace(e @ rx @ e.conj().T)) * np.eye(2)

    return np.block([[np.array([[f_tt]]), f_ta[None, :]], [f_ta[:, None], f_aa]])


def fim_extended(r_x, v: np.ndarray, g: np.ndarray, k: int, t: int,
                 sigma2: float) -> np.ndarray:
    """Dense 2KN x 2KN Fisher information of the stacked real parameters.

    Ordered as (Re vec H, Im vec H); both diagonal blocks equal
    (2T/sigma^2) Re{(Phi* G* R_x* G^T Phi^T) kron I_K} and the off-diagonal
    blocks carry the matching imaginary part.  Refused beyond order
    2 FIM_SIZE_LIMIT.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    if k * n > FIM_SIZE_LIMIT:
        raise ValueError(
            f"dense information matrix of order {2 * k * n} exceeds the "
            f"{2 * FIM_SIZE_LIMIT} guard"
        )
    rx = covariance(r_x).matrix
    phi_g = np.asarray(v, dtype=complex)[:, None] * g      # Phi @ G
    inner = phi_g.conj() @ rx.conj() @ phi_g.T    # Phi* G* R_x* G^T Phi^T
    kern = np.kron(inner, np.eye(k))
    scale = 2.0 * t / sigma2
    top = np.hstack([kern.real, -kern.imag])
    bot = np.hstack([kern.imag, kern.real])
    return scale * np.vstack([top, bot])


def random_covariance(rng: np.random.Generator, m: int,
                      budget: float) -> np.ndarray:
    """Random Hermitian PSD matrix with trace exactly ``budget``."""
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r = a @ a.conj().T
    return r * (budget / np.real(np.trace(r)))


def random_unit_profile(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


def point_bracket(v: np.ndarray, g: np.ndarray, r_x: np.ndarray,
                  a: np.ndarray, k: int) -> float:
    """Denominator bracket of the closed-form DoA bound, written directly."""
    n = a.shape[0]
    idx = (2 * np.arange(n) - n + 1).astype(float)
    ag = a[:, None] * g
    quad = ag.conj() @ r_x.T @ ag.T
    p = float(np.real(v.conj() @ quad @ v))
    taper = float(np.real(v.conj() @ (idx[:, None] * quad * idx[None, :]) @ v))
    cross = v.conj() @ (idx[:, None] * quad) @ v
    return (k ** 3 - k) / 3.0 * p + k * taper - k * abs(cross) ** 2 / p


def steered_gram(g: np.ndarray, r_x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Q = conj(A G) R_x^T (A G)^T with A = diag(a), shape [N, N], written directly."""
    ag = np.asarray(a, dtype=complex)[:, None] * np.asarray(g, dtype=complex)
    return ag.conj() @ np.asarray(r_x, dtype=complex).T @ ag.T


def dense_info_kernels(g: np.ndarray, r_x: np.ndarray, a: np.ndarray, k: int):
    """The N x N kernels (W, C, Q) of f: W = (K^2 - 1)/3 Q + D Q D and C = D Q."""
    quad = steered_gram(g, r_x, a)
    n = quad.shape[0]
    idx = (2 * np.arange(n) - n + 1).astype(float)
    return (((k ** 2 - 1) / 3.0) * quad + idx[:, None] * quad * idx[None, :],
            idx[:, None] * quad, quad)


def dense_phase_ascent(kernels, v: np.ndarray, max_iter: int = FIXED_POINT_MAX_ITER
                       ) -> tuple[np.ndarray, float, float]:
    """The phase ascent on the dense kernels (W, C, Q), with K(u) = W + |u|^2 Q
    - conj(u) C - u C^H formed at every step; returns (v, f, bound)."""
    w, c, q = kernels

    def at(v):
        u = np.vdot(v, c @ v) / np.vdot(v, q @ v).real
        k_u = w + abs(u) ** 2 * q - np.conj(u) * c - u * c.conj().T
        k_v = k_u @ v
        return np.vdot(v, k_v).real, k_u, k_v

    f, k_u, k_v = at(v)
    for _ in range(max_iter):
        step = np.exp(1j * np.angle(k_v))
        if np.abs(step - v).max() <= FIXED_POINT_ATOL:
            break
        f_step, k_step, kv_step = at(step)
        if f_step < f:
            break
        v, f, k_u, k_v = step, f_step, k_step, kv_step
    y = (v.conj() * k_v).real
    shift = max(0.0, -np.linalg.eigvalsh(np.diag(y) - k_u)[0])
    return v, float(y.sum()), float(y.sum() + y.shape[0] * shift)


def exhaustive_phase_grid(objective, n: int, levels: int) -> float:
    """Best objective over the discrete phase grid, first phase fixed to 0.

    ``objective`` maps a unit-modulus vector to a float; the global-phase
    invariance of the quadratic objective justifies pinning one entry.
    """
    phases = 2.0 * np.pi * np.arange(levels) / levels
    best = -np.inf
    grid = np.meshgrid(*([phases] * (n - 1)), indexing="ij")
    stacked = np.stack([g.ravel() for g in grid], axis=1)
    for row in stacked:
        v = np.exp(1j * np.concatenate([[0.0], row]))
        best = max(best, objective(v))
    return best


def randomization_by_loop(v_lifted: np.ndarray, objective, samples: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Gaussian randomization scored one candidate at a time.

    Each draw takes its own two calls on ``rng`` (real parts, then
    imaginary parts), the phases of V's dominant eigenvector follow the
    draws, and each candidate is scored by ``objective``, a map from a
    unit-modulus vector to f; the first best candidate wins.  The factor of
    V (eigenvalues clipped at 0) and the phase projection are formed as the
    library forms them, so the candidates agree bit for bit and only the
    draw order and the scoring are checked.
    """
    w, q = np.linalg.eigh((v_lifted + v_lifted.conj().T) / 2.0)
    w, q = np.maximum(w[::-1], 0.0), q[:, ::-1]
    n = q.shape[0]
    noise = np.array([(rng.standard_normal(n) + 1j * rng.standard_normal(n))
                      / np.sqrt(2.0) for _ in range(samples)])
    cands = list(np.exp(1j * np.angle(noise @ (q * np.sqrt(w)).T)))
    cands.append(np.exp(1j * np.angle(q[:, 0])))
    best_v, best_f = None, -np.inf
    for cand in cands:
        f_val = objective(cand)
        if f_val > best_f:
            best_v, best_f = cand, f_val
    return best_v


def dual_grid_sdp(c: np.ndarray, a: np.ndarray, b: float,
                  rounds: int = 8, resolution: int = 61) -> float:
    """Grid-refined dual bound for min tr(CX) s.t. tr(X)=1, tr(AX)=b, X>=0.

    Maximizes y1 + b*y2 over the dual feasible set {y1 I + y2 A <= C} by
    scanning a shrinking 2-D grid, keeping only feasible points.  By strong
    duality (X = I/n with b = tr(A)/n is strictly feasible) the refined
    value converges to the primal optimum.
    """
    span = float(np.linalg.norm(c, 2) + abs(b) + 1.0) * 2.0
    center = np.zeros(2)
    best_val = -np.inf
    for _ in range(rounds):
        y1s = center[0] + np.linspace(-span, span, resolution)
        y2s = center[1] + np.linspace(-span, span, resolution)
        for y1 in y1s:
            for y2 in y2s:
                slack = c - y1 * np.eye(c.shape[0]) - y2 * a
                if np.linalg.eigvalsh(slack).min() >= 0.0:
                    val = y1 + b * y2
                    if val > best_val:
                        best_val = val
                        center = np.array([y1, y2])
        span = span * 4.0 / (resolution - 1)
    return best_val


def projected_gradient_extended(g: np.ndarray, p0: float,
                                iters: int = 4000) -> np.ndarray:
    """First-order solver for min tr((G R G^H)^{-1}), tr(R) <= P0, R >= 0.

    Projected gradient with backtracking; the projection onto the PSD
    matrices of trace P0 is an eigenvalue simplex projection.
    """
    m = g.shape[1]
    r = np.eye(m, dtype=complex) * (p0 / m)

    def objective(mat):
        gram = g @ mat @ g.conj().T
        ev = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
        if ev.min() <= 0:
            return np.inf
        return float(np.sum(1.0 / ev))

    def gradient(mat):
        gram = g @ mat @ g.conj().T
        inv2 = np.linalg.matrix_power(np.linalg.inv(gram), 2)
        return -g.conj().T @ inv2 @ g

    def project(mat):
        h = (mat + mat.conj().T) / 2.0
        w, q = np.linalg.eigh(h)
        w = _simplex_projection(w, p0)
        return (q * w) @ q.conj().T

    step = p0
    obj = objective(r)
    for _ in range(iters):
        grad = gradient(r)
        while step > 1e-18:
            cand = project(r - step * grad)
            cand_obj = objective(cand)
            if cand_obj <= obj + 1e-15:
                break
            step *= 0.5
        if np.linalg.norm(cand - r) <= 1e-14 * max(1.0, np.linalg.norm(r)):
            r = cand
            break
        r, obj = cand, cand_obj
        step *= 1.3
    return r


def _simplex_projection(w: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of eigenvalues onto {w >= 0, sum w = total}."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(w) + 1)
    cond = u - css / ks > 0
    rho = np.max(np.nonzero(cond)[0]) + 1
    tau = css[rho - 1] / rho
    return np.maximum(w - tau, 0.0)


def parent_transmit_program(v_lifted: np.ndarray, a: np.ndarray, g: np.ndarray,
                            k: int, p0: float) -> ConicProgram:
    """The transmit program at budget P0 with tr X <= P0 as an inequality.

    This is how the transmit step was posed before it moved to unit power.
    The inequality is written out as the solver used to build it
    internally: a slack s as one more diagonal entry after the epigraph's
    diag(X, U), so the order is M + 3, and the row tr X + s = P0 after the
    three epigraph rows.  The kernels and the epigraph rows are the
    library's; only the budget row differs from ``transmit_subproblem``.
    """
    kernels = _transmit_kernels(v_lifted, a, g, k)
    m = kernels[0].shape[0]
    epigraph = _schur_program(*kernels, np.eye(m)[None], [p0])
    rows = np.pad(epigraph.rows, ((0, 0), (0, 1), (0, 1)))
    rows[-1, -1, -1] = 1.0                  # the slack s in tr X + s = P0
    return ConicProgram(np.pad(epigraph.objective, (0, 1)), rows, epigraph.rhs)


def parent_isotropic_profile(r_x: np.ndarray, a: np.ndarray, g: np.ndarray,
                             k: int, samples: int, seed: int) -> np.ndarray:
    """The reflection SDR at ``r_x`` and its Gaussian randomization winner.

    This is the whole reflection design of ``isotropic_tx`` before the
    phase ascent, with the same draws for the same ``seed``.
    """
    kernels = _info_kernels(g, r_x, a, k)
    lifted, _ = irs_subproblem(kernels)
    return gaussian_randomization(lifted, kernels, samples, seed).v


def parent_fully_passive(cfg, g: np.ndarray, seed: int, trial: int) -> float:
    """``crb_fully_passive`` at ``optimal_transmit_extended(g, P0)``, with the
    return channel of the sweep's ``(seed, trial)`` substream."""
    back_cfg = replace(cfg, M=cfg.K)
    g_r = rician_channel(back_cfg, seed=derive_seed(seed, trial, _RETURN)).G.T
    r_x = optimal_transmit_extended(g, cfg.P0)
    return crb_fully_passive(r_x, g, g_r, cfg.T, cfg.noise_power)


def _design(v: np.ndarray, a: np.ndarray, g: np.ndarray, k: int, p0: float):
    """Closed-form R_x of a unit-modulus profile, its kernels and f there."""
    r_x, _ = transmit_closed_form(v, a, g, k, p0)
    kernels = _info_kernels(g, r_x, a, k)
    return r_x, kernels, float(_profile_scores(kernels, v[None, :])[0])


def _reflection_step(v: np.ndarray, r_x, kernels: tuple, a: np.ndarray, g: np.ndarray,
                     k: int, samples: int, seed: int) -> tuple[np.ndarray, float]:
    """First best at R_x of the randomization winner of the reflection
    program and v, and the solve's KKT residual."""
    v_lifted, sol = irs_subproblem(kernels)
    best = gaussian_randomization(v_lifted, kernels, samples, seed)
    candidates = np.stack([best.v, v])
    return candidates[np.argmax(_profile_scores(kernels, candidates))], sol.kkt.max()


def _alternate(v: np.ndarray, a: np.ndarray, g: np.ndarray, k: int, p0: float,
               samples: int, seed: int):
    """Alternating maximization of f from the unit-modulus profile ``v``.

    Starts from ``v`` with its closed-form transmit covariance.  Each
    iteration takes :func:`_reflection_step` at the current R_x (``samples``
    draws from ``seed``) and gives the kept profile its closed-form transmit
    covariance.  The loop stops once f gains at most ``AO_TOL`` relative, or
    after ``AO_MAX_ITER`` iterations.  Returns (v, R_x,
    objective_trace, iterations, status, solver_residual_max).
    """
    r_x, kernels, f_v = _design(v, a, g, k, p0)
    trace = [f_v]
    residual_max = 0.0
    status = "max_iter"
    iterations = 0
    for iterations in range(1, AO_MAX_ITER + 1):
        v, residual = _reflection_step(v, r_x, kernels, a, g, k, samples, seed)
        residual_max = max(residual_max, residual)
        r_x, kernels, f_v = _design(v, a, g, k, p0)
        trace.append(f_v)
        if trace[-1] - trace[-2] <= AO_TOL * trace[-2]:
            status = "converged"
            break
    return v, r_x, trace, iterations, status, residual_max
