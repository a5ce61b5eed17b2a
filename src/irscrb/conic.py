"""Dense primal-dual interior-point solver for small PSD programs.

Solves

    minimize    <C, X>
    subject to  <A_j, X>  =  b_j      for every row j
                X PSD

over one dense matrix X, with the real inner product <A, X> = Re tr(A^H X).
X is complex Hermitian when any coefficient is complex and real symmetric
otherwise, so a complex program is solved on its native Hermitian matrix.
A program over several PSD matrices is one matrix with block-diagonal
coefficients, and an inequality gets a slack diagonal entry.  The search
direction is the Nesterov-Todd direction, computed per iteration from the
scaling point W with W S W = X; with the scaled variables both primal and
dual iterates equal the same diagonal, which keeps the corrector step a
cheap elementwise division.  A Mehrotra predictor picks the centering
weight.

A program holds its rows as one array of shape (m, n, n), flattened once
per solve and its NT-scaled copy once per iteration, so each operator
(the constraint map, its adjoint, the Schur complement and the Newton
right-hand side) is one matrix product.  Each iteration inverts the Schur complement
once, from its inverse Cholesky factor, so each of a step's six Schur
solves (predictor and corrector, two refinement rounds each) is one matvec.

The solver is deterministic: identical programs produce identical iterates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Literal

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
STEP_FRACTION = 0.98
SYMMETRY_ATOL = 1e-10

_log = logging.getLogger(__name__)


# -- program container -------------------------------------------------------

def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().swapaxes(-1, -2)) / 2.0


def _inner(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re tr(A^H X) over the last two axes; ``a`` may be a stack of matrices."""
    return (a.reshape(a.shape[:-2] + (-1,)) @ x.conj().ravel()).real


def _adjoint(y: np.ndarray, a_stack: np.ndarray) -> np.ndarray:
    """sum_j y_j A_j from the stacked ``(m, n, n)`` array."""
    return (y @ a_stack.reshape(len(y), -1)).reshape(a_stack.shape[1:])


@dataclass(frozen=True, eq=False)
class ConicProgram:
    """minimize <objective, X> subject to <rows[j], X> = rhs[j], X PSD.

    The constructor is the one check: a square objective of order n >= 1,
    an ``(m, n, n)`` stack of rows with m >= 1, one finite right-hand side
    per row, finite coefficients, and each coefficient Hermitian within
    ``SYMMETRY_ATOL`` of its largest entry.  It stores their Hermitian
    parts, read-only, in one dtype: complex if any coefficient is complex
    and float64 otherwise.
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c, a = np.asarray(self.objective), np.asarray(self.rows)
        n, m = c.shape[0] if c.ndim == 2 else 0, len(a) if a.ndim == 3 else 0
        if c.shape != (n, n) or n < 1:
            raise ValueError(f"the objective must be a square matrix, got shape {c.shape}")
        if a.shape != (m, n, n) or m < 1:
            raise ValueError(f"rows must be m >= 1 {n}x{n} matrices, got shape {a.shape}")
        rhs = np.array(self.rhs, dtype=float)
        if rhs.shape != (m,):
            raise ValueError(f"{m} rows need {m} right-hand sides, got shape {rhs.shape}")
        mats = np.concatenate([c[None], a], dtype=np.result_type(c, a, float))

        def name(j):
            return "the objective" if j == 0 else f"coefficient matrix {j - 1} of {m}"
        bad = ~np.isfinite(mats).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"{name(np.argmax(bad))} has a non-finite entry")
        if not np.isfinite(rhs).all():
            raise ValueError(f"right-hand side {np.argmax(~np.isfinite(rhs))} of {m} is not finite")
        scale = np.maximum(np.abs(mats).max(axis=(1, 2)), 1.0)
        skewed = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2)) > SYMMETRY_ATOL * scale
        if skewed.any():
            raise ValueError(f"{name(np.argmax(skewed))} is not Hermitian symmetric")
        mats = _hermitian_part(mats)
        mats.flags.writeable = rhs.flags.writeable = False
        for key, value in (("objective", mats[0]), ("rows", mats[1:]), ("rhs", rhs)):
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class KktResiduals:
    primal: float
    dual: float
    gap: float

    def max(self) -> float:
        return max(self.primal, self.dual, self.gap)


@dataclass
class ConicSolution:
    x: np.ndarray                       # primal PSD matrix X
    objective: float
    status: Literal["optimal", "max_iter", "infeasible"]
    kkt: KktResiduals
    y: np.ndarray                       # one multiplier per equality row
    s: np.ndarray                       # dual slack S
    iterations: int = 0


# -- residual bookkeeping ----------------------------------------------------

def kkt_residuals(program: ConicProgram, sol: ConicSolution) -> KktResiduals:
    """Normalized primal/dual/gap residuals of a candidate primal-dual pair.

    Primal: worst constraint violation and cone violation of X.  Dual:
    Frobenius residual of sum_j y_j A_j + S = C and cone violation of S.
    Gap: objective mismatch |primal - dual| and complementarity <X, S>,
    both relative to 1 + |primal objective|.
    """
    return _kkt(program, sol.x, np.asarray(sol.y, dtype=float), sol.s)


def _kkt(program: ConicProgram, x: np.ndarray, y: np.ndarray, s: np.ndarray) -> KktResiduals:
    """:func:`kkt_residuals` on the iterates ``x``, ``y`` and ``s``."""
    c_mat, a_stack, rhs = program.objective, program.rows, program.rhs
    pobj = float(_inner(c_mat, x))
    primal = float(np.max(np.abs(_inner(a_stack, x) - rhs) / (1.0 + np.abs(rhs))))
    dual = float(np.linalg.norm(c_mat - s - _adjoint(y, a_stack)) / (1.0 + np.linalg.norm(c_mat)))
    # cone violations of X and S, relative to 1 + the matrix's norm
    pair = np.array((x, s))
    least = np.linalg.eigvalsh(_hermitian_part(pair))[:, 0]
    violation = np.maximum(-least, 0.0) / (1.0 + np.linalg.norm(pair, axis=(1, 2)))
    primal, dual = max(primal, float(violation[0])), max(dual, float(violation[1]))

    gap = max(abs(pobj - float(y @ rhs)), abs(float(_inner(x, s)))) / (1.0 + abs(pobj))
    return KktResiduals(primal=primal, dual=dual, gap=gap)


# -- the interior-point iteration -------------------------------------------

def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """Factor G of the NT scaling point W = G G^H, with the scaled spectrum.

    Built from Cholesky factors X = Lx Lx^H, S = Ls Ls^H and the SVD
    Ls^H Lx = U diag(sig) V^H as G = Lx V diag(sig^{-1/2}); then
    G^{-1} X G^{-H} = G^H S G = diag(sig).
    """
    try:
        lx, ls = np.linalg.cholesky(np.array((x, s)))
    except np.linalg.LinAlgError:
        lx, ls = _chol(x), _chol(s)
    _, sig, vh = np.linalg.svd(ls.conj().T @ lx)
    g = lx @ vh.conj().T / np.sqrt(sig)
    return g, sig


def _chol(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        n = mat.shape[0]
        base = max(np.trace(mat).real / n, 1e-30)
        for jitter in (1e-14, 1e-11, 1e-8):
            try:
                return np.linalg.cholesky(mat + jitter * base * np.eye(n))
            except np.linalg.LinAlgError:
                continue
        raise


def _max_steps(root: np.ndarray, dx: np.ndarray, ds: np.ndarray) -> list[float]:
    """Largest steps keeping diag(lam) + alpha * dx and + alpha * ds positive
    definite, given ``root = 1 / sqrt(lam)``."""
    ev_mins = np.linalg.eigvalsh(root[:, None] * np.array((dx, ds)) * root[None, :])[:, 0]
    return [1.0 if ev >= -1e-14 else min(1.0, -STEP_FRACTION / ev) for ev in ev_mins.tolist()]


def _finite(vec: np.ndarray) -> np.ndarray:
    """Reject a non-finite Schur matrix or right-hand side."""
    if not np.isfinite(vec).all():
        raise ValueError("array must not contain infs or NaNs")
    return vec


def _cholesky_solver(mat: np.ndarray):
    """Solve with ``mat``'s inverse L^-T L^-1, from its lower Cholesky factor L.

    Each right-hand side costs one matvec; the inverse is accurate to about
    cond(mat) times rounding, and ``solve`` refines against the raw matrix.
    """
    inv_low = np.linalg.inv(np.linalg.cholesky(_finite(mat)))
    inv = inv_low.T @ inv_low

    def solve_with(rhs: np.ndarray) -> np.ndarray:
        return inv @ _finite(rhs)
    return solve_with


def solve(program: ConicProgram, tol: float = DEFAULT_TOL) -> ConicSolution:
    """Run at most ``DEFAULT_MAX_ITER`` NT predictor-corrector steps on ``program``.

    On ``status == "optimal"`` every normalized KKT residual is at most
    ``tol``; in particular the objective mismatch between the primal and
    dual values is bounded by ``tol * (1 + |objective|)``, so
    ``[primal - gap, dual + gap]`` brackets the true optimum.
    """
    c_mat, a_stack, rhs = program.objective, program.rows, program.rhs
    m, n = a_stack.shape[:2]
    a_flat = a_stack.reshape(m, -1)     # row j is vec(A_j): each map is one matvec
    a_tall = a_stack.reshape(m * n, n)  # the A_j stacked as rows, to multiply at once

    c_norm = np.linalg.norm(c_mat)
    row_scale = 1.0 + np.abs(rhs)
    x0 = max(10.0, float(np.max(row_scale / (1.0 + np.linalg.norm(a_flat, axis=1)))))
    s0 = max(10.0, c_norm)
    x = x0 * np.eye(n, dtype=c_mat.dtype)
    s = s0 * np.eye(n, dtype=c_mat.dtype)
    y = np.zeros(m)
    eye_m = np.eye(m)

    status: Literal["optimal", "max_iter", "infeasible"] = "max_iter"
    iterations = 0
    b_scale = 1.0 + np.linalg.norm(rhs)
    c_scale = 1.0 + c_norm
    best_metric = np.inf
    best_state = None

    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        x_conj = x.conj().ravel()
        rp = rhs - (a_flat @ x_conj).real
        aty = (y @ a_flat).reshape(n, n)
        rd = c_mat - s - aty
        mu = float((s.ravel() @ x_conj).real) / n

        pobj = float((c_mat.ravel() @ x_conj).real)
        dobj = float(rhs @ y)
        prim_res = max(np.linalg.norm(rp) / b_scale, float((np.abs(rp) / row_scale).max()))
        dual_res = np.linalg.norm(rd) / c_scale
        gap_res = max(abs(pobj - dobj), abs(mu * n)) / (1.0 + abs(pobj))

        _log.debug("iter %3d  mu %9.2e  prim %9.2e  dual %9.2e  gap %9.2e  obj %+.9e",
                   iterations, mu, prim_res, dual_res, gap_res, pobj)
        metric = max(prim_res, dual_res, gap_res)
        if metric < best_metric:
            best_metric = metric
            best_state = (x, y, s)
        if mu <= 0.0:
            break    # <X, S> > 0 for PD iterates, so this is the numerical floor
        if metric <= tol:
            status = "optimal"
            break
        # Dual improving ray: unbounded dual certifies primal infeasibility.
        y_mag = float(np.abs(y).max())
        if dobj > 1e9 * c_scale and y_mag > 0 and np.linalg.norm(s + aty) <= 1e-6 * y_mag:
            status = "infeasible"
            break

        try:
            # NT scaling; scaled data for the Schur complement.
            g, lam = _nt_scaling(x, s)
            g_h = g.conj().T
            f_flat = (g_h @ (a_tall @ g).reshape(m, n, n)).reshape(m, -1)
            rd_scaled = g_h @ rd @ g
            # Re <F_j, F_k> is the real dot product of the real and imaginary
            # parts side by side, which matmul takes as one symmetric product.
            f_real = f_flat.view(float)
            schur = f_real @ f_real.T
            reg = 1e-14 * max(schur.diagonal().max(), 1.0)
            schur_cho = _cholesky_solver(schur + reg * eye_m)

            def newton(theta: np.ndarray):
                """Direction for a scaled centering residual theta."""
                rhs_y = rp - (f_flat @ (theta - rd_scaled).conj().ravel()).real
                dy = schur_cho(rhs_y)
                for _ in range(2):   # iterative refinement against the raw matrix
                    dy = dy + schur_cho(rhs_y - schur @ dy)
                ds = rd - (dy @ a_flat).reshape(n, n)
                ds_scaled = g_h @ ds @ g
                return dy, ds, theta - ds_scaled, ds_scaled

            lam_sq, lam_mat, root = lam ** 2, np.diag(lam), 1.0 / np.sqrt(lam)
            # U = 2 R / lam_sum solves (U diag(lam) + diag(lam) U) / 2 = R
            lam_sum = lam[:, None] + lam[None, :]

            # Predictor: pure affine step (sigma = 0).
            _, _, dxs_aff, dss_aff = newton(2.0 * -np.diag(lam_sq) / lam_sum)
            alpha_p, alpha_d = _max_steps(root, dxs_aff, dss_aff)
            mu_aff = float(_inner(lam_mat + alpha_p * dxs_aff,
                                  lam_mat + alpha_d * dss_aff)) / n
            sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3)

            # Corrector with the Mehrotra second-order term.
            resid = np.diag(sigma * mu - lam_sq) - _hermitian_part(dxs_aff @ dss_aff)
            dy, ds, dxs, dss = newton(2.0 * resid / lam_sum)
            alpha_p, alpha_d = _max_steps(root, dxs, dss)
            dx = g @ dxs @ g_h
        except np.linalg.LinAlgError:
            break    # numerical floor; fall back to the best iterate seen

        # The iterates are rebound, never mutated, so best_state keeps references.
        x = _hermitian_part(x + alpha_p * dx)
        s = _hermitian_part(s + alpha_d * ds)
        y = y + alpha_d * dy

        if alpha_p < 1e-8 and alpha_d < 1e-8:
            break

    if status != "infeasible" and best_state is not None:
        x, y, s = best_state
    kkt = _kkt(program, x, y, s)
    if status != "infeasible":
        status = "optimal" if kkt.max() <= tol else "max_iter"
    return ConicSolution(x=x, objective=float(_inner(c_mat, x)), status=status, kkt=kkt,
                         y=y, s=s, iterations=iterations)
