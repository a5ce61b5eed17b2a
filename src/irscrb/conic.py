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

The solver stacks the constraints once per block b into a dense array of
shape (m, n_b, n_b): row j is constraint j's coefficient on b, zero where
the constraint does not touch b.  Each operator of the iteration (the
constraint map, its adjoint, the Schur complement and the Newton
right-hand side) is then one contraction over that array per block.

The solver is deterministic: identical programs produce identical iterates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

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
    return (mat + mat.conj().T) / 2.0


def _inner(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re tr(A^H X) over the last two axes; ``a`` may be a stack of blocks."""
    return (a.reshape(a.shape[:-2] + (-1,)) @ x.conj().ravel()).real


def _adjoint(y: np.ndarray, a_stack: list[np.ndarray]) -> list[np.ndarray]:
    """sum_j y_j A_j per block, from the stacked ``(m, n_b, n_b)`` arrays."""
    return [(y @ a.reshape(len(y), -1)).reshape(a.shape[1:]) for a in a_stack]


@dataclass
class ConicProgram:
    """A minimization over PSD blocks with linear equality rows.

    Only ``blocks`` is a constructor argument; the objective and the
    constraints enter through the checking methods below.
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

def _program_arrays(program: ConicProgram):
    """Dense solver data of ``program``.

    Returns the objective matrix and the stacked ``(m, n_b, n_b)``
    constraint array of every block, and the m right-hand sides.  The
    matrices are complex if any coefficient is complex and float64
    otherwise.
    """
    rows = program.eq
    dtype = np.result_type(float, *program.objective.values(),
                           *(a for coeffs, _ in rows for a in coeffs.values()))
    c_mats = [np.asarray(program.objective.get(b, np.zeros((n, n))), dtype)
              for b, n in enumerate(program.blocks)]
    a_stack = [np.zeros((len(rows), n, n), dtype) for n in program.blocks]
    for j, (coeffs, _) in enumerate(rows):
        for b, a in coeffs.items():
            a_stack[b][j] = a
    return c_mats, a_stack, np.array([r for _, r in rows], dtype=float)


def kkt_residuals(program: ConicProgram, sol: ConicSolution) -> KktResiduals:
    """Normalized primal/dual/gap residuals of a candidate primal-dual pair.

    Primal: worst constraint violation and cone violation of the primal
    blocks.  Dual: Frobenius residual of sum_j y_j A_j + S = C and cone
    violation of S.  Gap: objective
    mismatch |primal - dual| and complementarity <X, S>, both relative to
    1 + |primal objective|.
    """
    xs = [np.asarray(x) for x in sol.blocks]
    ss = [np.asarray(s) for s in sol.dual_blocks]
    y = np.asarray(sol.y, dtype=float)

    pobj = sum(float(_inner(c, xs[b])) for b, c in program.objective.items())

    primal = 0.0
    for (coeffs, rhs) in program.eq:
        val = sum(float(_inner(a, xs[b])) for b, a in coeffs.items())
        primal = max(primal, abs(val - rhs) / (1.0 + abs(rhs)))
    for x in xs:
        lam = np.linalg.eigvalsh(_hermitian_part(x)).min()
        primal = max(primal, max(0.0, -lam) / (1.0 + np.linalg.norm(x)))

    c_norm = 1.0
    duals = []
    for b in range(len(program.blocks)):
        c = program.objective.get(b)
        d = -ss[b] if c is None else c - ss[b]
        duals.append(d)
        if c is not None:
            c_norm += np.linalg.norm(c)
    for j, (coeffs, _) in enumerate(program.eq):
        for b, a in coeffs.items():
            duals[b] = duals[b] - y[j] * a
    dual = np.sqrt(sum(np.linalg.norm(d) ** 2 for d in duals)) / c_norm
    for s in ss:
        lam = np.linalg.eigvalsh(_hermitian_part(s)).min()
        dual = max(dual, max(0.0, -lam) / (1.0 + np.linalg.norm(s)))

    dobj = float(np.dot(y, [r for _, r in program.eq]))
    compl = sum(float(_inner(x, s)) for x, s in zip(xs, ss))
    gap = max(abs(pobj - dobj), abs(compl)) / (1.0 + abs(pobj))
    return KktResiduals(primal=float(primal), dual=float(dual), gap=float(gap))


# -- the interior-point iteration -------------------------------------------

def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """Factor G of the NT scaling point W = G G^H, with the scaled spectrum.

    Built from Cholesky factors X = Lx Lx^H, S = Ls Ls^H and the SVD
    Ls^H Lx = U diag(sig) V^H as G = Lx V diag(sig^{-1/2}); then
    G^{-1} X G^{-H} = G^H S G = diag(sig).
    """
    lx = _chol(x)
    ls = _chol(s)
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


def _max_steps(lam: np.ndarray, dx: np.ndarray, ds: np.ndarray) -> list[float]:
    """Largest steps keeping diag(lam) + alpha * dx and + alpha * ds positive definite."""
    root = 1.0 / np.sqrt(lam)
    ev_mins = np.linalg.eigvalsh(root[:, None] * np.array((dx, ds)) * root[None, :])
    return [1.0 if ev >= -1e-14 else min(1.0, -STEP_FRACTION / ev)
            for ev in ev_mins.min(axis=1).tolist()]


def _finite(vec: np.ndarray) -> np.ndarray:
    """Reject a non-finite Schur matrix or right-hand side."""
    if not np.isfinite(vec).all():
        raise ValueError("array must not contain infs or NaNs")
    return vec


def _cholesky_solver(mat: np.ndarray):
    """Solve with an upper Cholesky factor of ``mat`` (LAPACK potrf/potrs)."""
    factor, info = dpotrf(_finite(mat), lower=0, clean=0, overwrite_a=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrf")

    def solve_with(rhs: np.ndarray) -> np.ndarray:
        out, info = dpotrs(factor, _finite(rhs), lower=0, overwrite_b=0)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return out
    return solve_with


def _lyapunov_rhs(lam: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (U diag(lam) + diag(lam) U) / 2 = rhs for Hermitian U."""
    return 2.0 * rhs / (lam[:, None] + lam[None, :])


def solve(program: ConicProgram, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> ConicSolution:
    """Run the NT predictor-corrector iteration on ``program``.

    On ``status == "optimal"`` every normalized KKT residual is at most
    ``tol``; in particular the objective mismatch between the primal and
    dual values is bounded by ``tol * (1 + |objective|)``, so
    ``[primal - gap, dual + gap]`` brackets the true optimum.
    """
    orders = program.blocks
    c_mats, a_stack, rhs = _program_arrays(program)
    m = len(rhs)
    n_blocks = len(orders)

    a_norms = np.max([np.linalg.norm(a, axis=(1, 2)) for a in a_stack], axis=0)
    c_norm = max(np.linalg.norm(c) for c in c_mats)
    if m:
        x0 = max(10.0, float(np.max((1.0 + np.abs(rhs)) / (1.0 + a_norms))))
    else:
        x0 = 10.0
    s0 = max(10.0, c_norm)

    xs = [x0 * np.eye(n, dtype=c_mats[0].dtype) for n in orders]
    ss = [s0 * np.eye(n, dtype=c_mats[0].dtype) for n in orders]
    y = np.zeros(m)
    n_tot = sum(orders)

    def apply_con(mats: list[np.ndarray]) -> np.ndarray:
        return sum(_inner(a, x) for a, x in zip(a_stack, mats))

    status: Literal["optimal", "max_iter", "infeasible"] = "max_iter"
    iterations = 0
    b_scale = 1.0 + np.linalg.norm(rhs)
    c_scale = 1.0 + c_norm
    best_metric = np.inf
    best_state = None

    for iterations in range(1, max_iter + 1):
        rp = rhs - apply_con(xs)
        aty = _adjoint(y, a_stack)
        rd = [c_mats[b] - ss[b] - aty[b] for b in range(n_blocks)]
        mu = sum(float(_inner(xs[b], ss[b])) for b in range(n_blocks)) / n_tot

        pobj = sum(float(_inner(c_mats[b], xs[b])) for b in range(n_blocks))
        dobj = float(rhs @ y)
        prim_res = max(np.linalg.norm(rp) / b_scale,
                       float(np.max(np.abs(rp) / (1.0 + np.abs(rhs)))) if m else 0.0)
        dual_res = np.sqrt(sum(np.linalg.norm(r) ** 2 for r in rd)) / c_scale
        gap_res = max(abs(pobj - dobj), abs(mu * n_tot)) / (1.0 + abs(pobj))

        _log.debug("iter %3d  mu %9.2e  prim %9.2e  dual %9.2e  gap %9.2e  obj %+.9e",
                   iterations, mu, prim_res, dual_res, gap_res, pobj)
        metric = max(prim_res, dual_res, gap_res)
        if metric < best_metric:
            best_metric = metric
            best_state = (xs, y, ss)
        if mu <= 0.0:
            break    # <X, S> > 0 for PD iterates, so this is the numerical floor
        if metric <= tol:
            status = "optimal"
            break
        # Dual improving ray: unbounded dual certifies primal infeasibility.
        y_mag = float(np.abs(y).max()) if m else 0.0
        if dobj > 1e9 * c_scale and y_mag > 0:
            ray_res = np.sqrt(sum(np.linalg.norm(ss[b] + aty[b]) ** 2
                                  for b in range(n_blocks)))
            if ray_res <= 1e-6 * y_mag:
                status = "infeasible"
                break

        try:
            # NT scaling per block; scaled data for the Schur complement.
            gs, lams = [], []
            for b in range(n_blocks):
                g, lam = _nt_scaling(xs[b], ss[b])
                gs.append(g)
                lams.append(lam)
            fs = [g.conj().T @ a @ g for g, a in zip(gs, a_stack)]
            rd_scaled = [gs[b].conj().T @ rd[b] @ gs[b] for b in range(n_blocks)]
            flat = [f.reshape(m, -1) for f in fs]
            schur = sum((f @ f.conj().T).real for f in flat)
            reg = 1e-14 * max(schur.diagonal().max(initial=0.0), 1.0)
            schur_cho = _cholesky_solver(schur + reg * np.eye(m))

            def schur_solve(rhs_y: np.ndarray) -> np.ndarray:
                dy = schur_cho(rhs_y)
                for _ in range(2):   # iterative refinement against the raw matrix
                    dy = dy + schur_cho(rhs_y - schur @ dy)
                return dy

            def newton(theta: list[np.ndarray]):
                """Direction for a scaled centering residual theta (per block)."""
                rhs_y = rp - sum(_inner(fs[b], theta[b] - rd_scaled[b])
                                 for b in range(n_blocks))
                dy = schur_solve(rhs_y)
                at_dy = _adjoint(dy, a_stack)
                ds = [rd[b] - at_dy[b] for b in range(n_blocks)]
                ds_scaled = [gs[b].conj().T @ ds[b] @ gs[b] for b in range(n_blocks)]
                dx_scaled = [theta[b] - ds_scaled[b] for b in range(n_blocks)]
                dx = [gs[b] @ dx_scaled[b] @ gs[b].conj().T for b in range(n_blocks)]
                return dy, ds, dx, dx_scaled, ds_scaled

            # Predictor: pure affine step (sigma = 0).
            theta_aff = [_lyapunov_rhs(lams[b], -np.diag(lams[b] ** 2))
                         for b in range(n_blocks)]
            _, _, _, dxs_aff, dss_aff = newton(theta_aff)
            alpha_p, alpha_d = map(min, zip(*(_max_steps(lams[b], dxs_aff[b], dss_aff[b])
                                             for b in range(n_blocks))))
            mu_aff = sum(
                float(_inner(np.diag(lams[b]) + alpha_p * dxs_aff[b],
                             np.diag(lams[b]) + alpha_d * dss_aff[b]))
                for b in range(n_blocks)
            ) / n_tot
            sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3)

            # Corrector with the Mehrotra second-order term.
            theta = []
            for b in range(n_blocks):
                cross = dxs_aff[b] @ dss_aff[b]
                resid = (sigma * mu * np.eye(orders[b]) - np.diag(lams[b] ** 2)
                         - _hermitian_part(cross))
                theta.append(_lyapunov_rhs(lams[b], resid))
            dy, ds, dx, dxs, dss = newton(theta)
            alpha_p, alpha_d = map(min, zip(*(_max_steps(lams[b], dxs[b], dss[b])
                                             for b in range(n_blocks))))
        except np.linalg.LinAlgError:
            break    # numerical floor; fall back to the best iterate seen

        # The iterates are rebound, never mutated, so best_state keeps references.
        xs = [_hermitian_part(x + alpha_p * d) for x, d in zip(xs, dx)]
        ss = [_hermitian_part(s + alpha_d * d) for s, d in zip(ss, ds)]
        y = y + alpha_d * dy

        if alpha_p < 1e-8 and alpha_d < 1e-8:
            break

    if status != "infeasible" and best_state is not None:
        xs, y, ss = best_state
    pobj = sum(float(_inner(c_mats[b], xs[b])) for b in range(n_blocks))
    sol = ConicSolution(
        blocks=xs,
        objective=float(pobj),
        status=status,
        kkt=KktResiduals(0.0, 0.0, 0.0),
        y=y.copy(),
        dual_blocks=ss,
        iterations=iterations,
    )
    sol.kkt = kkt_residuals(program, sol)
    if status != "infeasible":
        sol.status = "optimal" if sol.kkt.max() <= tol else "max_iter"
    return sol
