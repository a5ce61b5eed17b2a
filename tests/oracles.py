"""Independent oracles used to cross-check the library.

Everything here is intentionally built from first principles (explicit
model assembly, finite differences, grid refinement, projected gradient)
rather than through the code paths under test.  The exception is
``parent_transmit_program``, which poses the library's own transmit program
in its former inequality form.
"""

from __future__ import annotations

import numpy as np

from irscrb.ao import _schur_program, _transmit_kernels
from irscrb.conic import ConicProgram


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
    imaginary parts) and each candidate is scored by ``objective``, a map
    from a unit-modulus vector to f; the first best candidate wins.  The
    factor of V and the phase projection are formed as the library forms
    them, so the candidates agree bit for bit and only the draw order and
    the scoring are checked.
    """
    h = (v_lifted + v_lifted.conj().T) / 2.0
    w, q = np.linalg.eigh(h)
    if w.min() < 0.0:
        w, q = np.linalg.eigh((q * np.maximum(w, 0.0)) @ q.conj().T)
    w, q = np.maximum(w[::-1], 0.0), q[:, ::-1]
    n = h.shape[0]
    noise = np.array([(rng.standard_normal(n) + 1j * rng.standard_normal(n))
                      / np.sqrt(2.0) for _ in range(samples)])
    best_v, best_f = None, -np.inf
    for cand in np.exp(1j * np.angle(noise @ (q * np.sqrt(w)).T)):
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
    internally: a declared 1x1 slack block s after the epigraph blocks and
    the row tr X + s = P0 after the three epigraph rows, so the blocks are
    ``[M, 2, 1]``.  The kernels and the epigraph rows are the library's;
    only the budget row differs from ``transmit_subproblem``.
    """
    kernels = _transmit_kernels(v_lifted, a, g, k)
    m = kernels[0].shape[0]
    epigraph = _schur_program(*kernels, order=m)
    program = ConicProgram(epigraph.blocks + [1])
    program.set_objective(epigraph.objective)
    for coeffs, rhs in epigraph.eq:
        program.add_eq(coeffs, rhs)
    program.add_eq({0: np.eye(m), 2: np.ones((1, 1))}, p0)
    return program
