"""Dense primal-dual interior-point solver for small PSD programs.

Solves

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_jb, X_b>  =  b_j      for every row j
                X_b PSD for every block b

over one or more dense blocks, with the real inner product
<A, X> = Re tr(A^H X).  The blocks are complex Hermitian when any
coefficient is complex and real symmetric otherwise, so a complex program
is solved on its native Hermitian blocks.  The rows are equalities only;
an inequality is posed by declaring its own 1x1 slack block and giving it
a 1 in its row.  The search direction is the Nesterov-Todd direction,
computed per iteration from the scaling point W with W S W = X; with the
scaled variables both primal and dual blocks equal the same diagonal, which
keeps the corrector step a cheap elementwise division.  A Mehrotra
predictor picks the centering weight.

The solver places the declared blocks on the diagonal of one matrix of
order n = sum of the block orders: one objective matrix and one stacked
constraint array of shape (m, n, n), row j holding constraint j's
coefficients on the diagonal slices of the blocks it touches and zeros
elsewhere.  It iterates on that single block, and slices the declared
blocks of X and S back out at the end.  This is exact: every coefficient
is block diagonal, so the NT scaling point, the Schur complement, the
direction and mu = <X, S> / n are those of the per-block iteration, and
so are both step lengths, since the least eigenvalue of the union is the
least over the blocks.  The stacked array is flattened once per solve and
its NT-scaled copy once per iteration, so each operator (the constraint
map, its adjoint, the Schur complement and the Newton right-hand side) is
one matrix product.  Each iteration inverts the Schur complement once, from
its inverse Cholesky factor, so each of a step's six Schur solves (predictor
and corrector, two refinement rounds each) is one matvec.

The solver is deterministic: identical programs produce identical iterates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
STEP_FRACTION = 0.98
SYMMETRY_ATOL = 1e-10

_log = logging.getLogger(__name__)


# -- program container -------------------------------------------------------

def _check_coeffs(blocks: list[int], coeffs: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    out = {}
    for idx, mat in coeffs.items():
        if not 0 <= idx < len(blocks):
            raise ValueError(f"block index {idx} out of range")
        m = np.asarray(mat, dtype=complex if np.iscomplexobj(mat) else float)
        n = blocks[idx]
        if m.shape != (n, n):
            raise ValueError(f"coefficient for block {idx} must be {n}x{n}, got {m.shape}")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.conj().T).max() > SYMMETRY_ATOL * scale:
            raise ValueError(f"coefficient for block {idx} is not Hermitian symmetric")
        out[idx] = _hermitian_part(m)
    return out


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().swapaxes(-1, -2)) / 2.0


def _inner(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re tr(A^H X) over the last two axes; ``a`` may be a stack of blocks."""
    return (a.reshape(a.shape[:-2] + (-1,)) @ x.conj().ravel()).real


def _adjoint(y: np.ndarray, a_stack: np.ndarray) -> np.ndarray:
    """sum_j y_j A_j from the stacked ``(m, n, n)`` array."""
    return (y @ a_stack.reshape(len(y), -1)).reshape(a_stack.shape[1:])


@dataclass
class ConicProgram:
    """A minimization over PSD blocks with linear equality rows.

    Only ``blocks`` is a constructor argument; the objective and the
    constraints enter through the checking methods below.  A caller may
    append to ``eq`` directly only rows that are Hermitian by construction.
    """

    blocks: list[int]
    objective: dict[int, np.ndarray] = field(init=False, default_factory=dict)
    eq: list[tuple[dict[int, np.ndarray], float]] = field(init=False, default_factory=list)

    def __post_init__(self):
        if not self.blocks or any(int(n) < 1 for n in self.blocks):
            raise ValueError("every block order must be a positive integer")
        self.blocks = [int(n) for n in self.blocks]

    def set_objective(self, coeffs: dict[int, np.ndarray]) -> None:
        self.objective = _check_coeffs(self.blocks, coeffs)

    def add_eq(self, coeffs: dict[int, np.ndarray], rhs: float) -> None:
        self.eq.append((_check_coeffs(self.blocks, coeffs), float(rhs)))


@dataclass(frozen=True)
class KktResiduals:
    primal: float
    dual: float
    gap: float

    def max(self) -> float:
        return max(self.primal, self.dual, self.gap)


@dataclass
class ConicSolution:
    blocks: list[np.ndarray]            # primal PSD blocks, declared order
    objective: float
    status: Literal["optimal", "max_iter", "infeasible"]
    kkt: KktResiduals
    y: np.ndarray                       # one multiplier per equality row
    dual_blocks: list[np.ndarray]       # dual slack S per block
    iterations: int = 0


# -- residual bookkeeping ----------------------------------------------------

def _diagonal_slices(orders: list[int]) -> list[slice]:
    """Index ranges of the declared blocks on the diagonal of one matrix."""
    ends = np.cumsum(orders).tolist()
    return [slice(end - n, end) for n, end in zip(orders, ends)]


def _program_arrays(program: ConicProgram):
    """Dense solver data of ``program`` as one block-diagonal block.

    Returns the order-n objective matrix and the stacked ``(m, n, n)``
    constraint array, n = sum(program.blocks), with each declared block on
    its diagonal slice and zeros elsewhere, and the m right-hand sides.  The
    matrices are complex if any coefficient is complex and float64
    otherwise.
    """
    rows = program.eq
    dtype = np.result_type(float, *program.objective.values(),
                           *(a for coeffs, _ in rows for a in coeffs.values()))
    cuts = _diagonal_slices(program.blocks)
    n = sum(program.blocks)
    c_mat = np.zeros((n, n), dtype)
    for b, c in program.objective.items():
        c_mat[cuts[b], cuts[b]] = c
    a_stack = np.zeros((len(rows), n, n), dtype)
    for j, (coeffs, _) in enumerate(rows):
        for b, a in coeffs.items():
            a_stack[j, cuts[b], cuts[b]] = a
    return c_mat, a_stack, np.array([r for _, r in rows], dtype=float)


def kkt_residuals(program: ConicProgram, sol: ConicSolution) -> KktResiduals:
    """Normalized primal/dual/gap residuals of a candidate primal-dual pair.

    Primal: worst constraint violation and cone violation of the primal
    blocks.  Dual: Frobenius residual of sum_j y_j A_j + S = C and cone
    violation of S.  Gap: objective
    mismatch |primal - dual| and complementarity <X, S>, both relative to
    1 + |primal objective|.
    """
    return _kkt(program.blocks, *_program_arrays(program), sol)


def _kkt(orders: list[int], c_mat: np.ndarray, a_stack: np.ndarray, rhs: np.ndarray,
         sol: ConicSolution) -> KktResiduals:
    """:func:`kkt_residuals` on the arrays of :func:`_program_arrays`, with the
    blocks of ``sol`` on their diagonal slices: each map is one contraction."""
    cuts = _diagonal_slices(orders)
    x, s = np.zeros((2,) + c_mat.shape, np.result_type(c_mat, *sol.blocks, *sol.dual_blocks))
    for cut, x_b, s_b in zip(cuts, sol.blocks, sol.dual_blocks):
        x[cut, cut], s[cut, cut] = x_b, s_b
    y = np.asarray(sol.y, dtype=float)

    pobj = float(_inner(c_mat, x))
    primal = float(np.max(np.abs(_inner(a_stack, x) - rhs) / (1.0 + np.abs(rhs))))
    c_norm = 1.0 + sum(np.linalg.norm(c_mat[cut, cut]) for cut in cuts)
    dual = float(np.linalg.norm(c_mat - s - _adjoint(y, a_stack))) / c_norm
    for cut in cuts:
        # cone violations of X_b and S_b, relative to 1 + the block's norm
        pair = np.array((x[cut, cut], s[cut, cut]))
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
    if not program.eq:
        raise ValueError("program has no equality rows")
    c_mat, a_stack, rhs = _program_arrays(program)
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
    cuts = _diagonal_slices(program.blocks)
    sol = ConicSolution(
        blocks=[x[c, c].copy() for c in cuts],
        objective=float(_inner(c_mat, x)),
        status=status,
        kkt=KktResiduals(0.0, 0.0, 0.0),
        y=y.copy(),
        dual_blocks=[s[c, c].copy() for c in cuts],
        iterations=iterations,
    )
    sol.kkt = _kkt(program.blocks, c_mat, a_stack, rhs, sol)
    if status != "infeasible":
        sol.status = "optimal" if sol.kkt.max() <= tol else "max_iter"
    return sol
