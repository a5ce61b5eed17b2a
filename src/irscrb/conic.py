"""Dense primal-dual interior-point solver for small PSD programs.

Solves

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_jb, X_b>  =  b_j      (equalities)
                sum_b <A_jb, X_b> <=  u_j      (inequalities)
                X_b PSD for every block b

over one or more dense real symmetric blocks.  Inequalities are converted
internally to equalities with 1x1 slack blocks, so the cone is always a
product of PSD blocks.  The search direction is the Nesterov-Todd direction,
computed per iteration from the scaling point W with W S W = X; with the
scaled variables both primal and dual blocks equal the same diagonal, which
keeps the corrector step a cheap elementwise division.  A Mehrotra
predictor picks the centering weight.

Complex Hermitian data enters through :func:`embed_hermitian`; the real
embedding doubles traces, so functional coefficients built from Hermitian
matrices should use :func:`hermitian_functional`, and solutions map back via
:func:`complexify`.

The solver is deterministic: identical programs produce identical iterates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
import scipy.linalg

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
STEP_FRACTION = 0.98
SYMMETRY_ATOL = 1e-10

_log = logging.getLogger(__name__)


# -- complex embedding -------------------------------------------------------

def embed_hermitian(h: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re H, -Im H], [Im H, Re H]] of Hermitian H.

    The embedding is PSD iff H is, each eigenvalue of H appears twice, and
    the trace doubles.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("embed_hermitian expects a square matrix")
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h - h.conj().T).max() > SYMMETRY_ATOL * scale:
        raise ValueError("matrix is not Hermitian")
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def hermitian_functional(h: np.ndarray) -> np.ndarray:
    """Coefficient F with <F, embed(X)> = tr(H X) for Hermitian H and X."""
    return embed_hermitian(h) / 2.0


def complexify(y: np.ndarray) -> np.ndarray:
    """Hermitian matrix recovered from a real symmetric embedded block.

    For a generic symmetric argument this averages over the embedding's
    structure group, so it is the exact inverse on embedded matrices and an
    orthogonal projection otherwise.
    """
    y = np.asarray(y, dtype=float)
    n2 = y.shape[0]
    if n2 % 2:
        raise ValueError("embedded block must have even order")
    n = n2 // 2
    re = (y[:n, :n] + y[n:, n:]) / 2.0
    im = (y[n:, :n] - y[n:, :n].T) / 2.0
    re = (re + re.T) / 2.0
    return re + 1j * im


# -- program container -------------------------------------------------------

def _check_coeffs(blocks: list[int], coeffs: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    out = {}
    for idx, mat in coeffs.items():
        if not 0 <= idx < len(blocks):
            raise ValueError(f"block index {idx} out of range")
        m = np.asarray(mat, dtype=float)
        n = blocks[idx]
        if m.shape != (n, n):
            raise ValueError(f"coefficient for block {idx} must be {n}x{n}, got {m.shape}")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > SYMMETRY_ATOL * scale:
            raise ValueError(f"coefficient for block {idx} is not symmetric")
        out[idx] = (m + m.T) / 2.0
    return out


@dataclass
class ConicProgram:
    """A minimization over PSD blocks with linear equalities/inequalities."""

    blocks: list[int]
    objective: list[dict[int, np.ndarray]] = field(default_factory=list)
    eq: list[tuple[dict[int, np.ndarray], float]] = field(default_factory=list)
    ineq: list[tuple[dict[int, np.ndarray], float]] = field(default_factory=list)

    def __post_init__(self):
        if not self.blocks or any(int(n) < 1 for n in self.blocks):
            raise ValueError("every block order must be a positive integer")
        self.blocks = [int(n) for n in self.blocks]
        self._objective: dict[int, np.ndarray] = {}

    def set_objective(self, coeffs: dict[int, np.ndarray]) -> None:
        self._objective = _check_coeffs(self.blocks, coeffs)

    def add_eq(self, coeffs: dict[int, np.ndarray], rhs: float) -> None:
        self.eq.append((_check_coeffs(self.blocks, coeffs), float(rhs)))

    def add_ineq(self, coeffs: dict[int, np.ndarray], rhs: float) -> None:
        self.ineq.append((_check_coeffs(self.blocks, coeffs), float(rhs)))

    def objective_matrices(self) -> dict[int, np.ndarray]:
        return self._objective


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
    y: np.ndarray                       # multipliers, equalities then inequalities
    dual_blocks: list[np.ndarray]       # dual slack S per declared block
    iterations: int = 0


# -- residual bookkeeping ----------------------------------------------------

def _program_arrays(program: ConicProgram):
    """Augment inequalities with 1x1 slack blocks; return dense solver data."""
    orders = list(program.blocks)
    n_decl = len(orders)
    cons: list[dict[int, np.ndarray]] = []
    rhs: list[float] = []
    for coeffs, r in program.eq:
        cons.append(dict(coeffs))
        rhs.append(r)
    for j, (coeffs, r) in enumerate(program.ineq):
        slack_idx = n_decl + j
        orders.append(1)
        aug = dict(coeffs)
        aug[slack_idx] = np.array([[1.0]])
        cons.append(aug)
        rhs.append(r)
    c_mats = {b: np.zeros((n, n)) for b, n in enumerate(orders)}
    for b, mat in program.objective_matrices().items():
        c_mats[b] = mat
    return orders, c_mats, cons, np.asarray(rhs, dtype=float), n_decl


def kkt_residuals(program: ConicProgram, sol: ConicSolution) -> KktResiduals:
    """Normalized primal/dual/gap residuals of a candidate primal-dual pair.

    Primal: worst constraint violation and cone violation of the primal
    blocks.  Dual: Frobenius residual of sum_j y_j A_j + S = C, cone
    violation of S, and the sign of inequality multipliers.  Gap: objective
    mismatch |primal - dual| and complementarity <X, S>, both relative to
    1 + |primal objective|.
    """
    xs = [np.asarray(x, dtype=float) for x in sol.blocks]
    ss = [np.asarray(s, dtype=float) for s in sol.dual_blocks]
    y = np.asarray(sol.y, dtype=float)
    m_eq = len(program.eq)

    pobj = sum(float(np.tensordot(c, xs[b], axes=2))
               for b, c in program.objective_matrices().items())

    primal = 0.0
    for (coeffs, rhs) in program.eq:
        val = sum(float(np.tensordot(a, xs[b], axes=2)) for b, a in coeffs.items())
        primal = max(primal, abs(val - rhs) / (1.0 + abs(rhs)))
    for (coeffs, rhs) in program.ineq:
        val = sum(float(np.tensordot(a, xs[b], axes=2)) for b, a in coeffs.items())
        primal = max(primal, max(0.0, val - rhs) / (1.0 + abs(rhs)))
    for x in xs:
        lam = np.linalg.eigvalsh((x + x.T) / 2.0).min()
        primal = max(primal, max(0.0, -lam) / (1.0 + np.linalg.norm(x)))

    c_norm = 1.0
    duals = []
    for b in range(len(program.blocks)):
        c = program.objective_matrices().get(b)
        d = -ss[b] if c is None else c - ss[b]
        duals.append(d)
        if c is not None:
            c_norm += np.linalg.norm(c)
    for j, (coeffs, _) in enumerate(list(program.eq) + list(program.ineq)):
        for b, a in coeffs.items():
            if b < len(program.blocks):
                duals[b] = duals[b] - y[j] * a
    dual = np.sqrt(sum(np.linalg.norm(d) ** 2 for d in duals)) / c_norm
    for s in ss:
        lam = np.linalg.eigvalsh((s + s.T) / 2.0).min()
        dual = max(dual, max(0.0, -lam) / (1.0 + np.linalg.norm(s)))
    if len(y) > m_eq:
        dual = max(dual, float(np.max(np.maximum(y[m_eq:], 0.0)))
                   / (1.0 + float(np.abs(y).max())))

    dobj = float(np.dot(y[:m_eq], [r for _, r in program.eq]))
    dobj += float(np.dot(y[m_eq:], [r for _, r in program.ineq]))
    compl = sum(float(np.tensordot(x, s, axes=2)) for x, s in zip(xs, ss))
    gap = max(abs(pobj - dobj), abs(compl)) / (1.0 + abs(pobj))
    return KktResiduals(primal=float(primal), dual=float(dual), gap=float(gap))


# -- the interior-point iteration -------------------------------------------

def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """Factor G of the NT scaling point W = G G^T, with the scaled spectrum.

    Built from Cholesky factors X = Lx Lx^T, S = Ls Ls^T and the SVD
    Ls^T Lx = U diag(sig) V^T as G = Lx V diag(sig^{-1/2}); then
    G^{-1} X G^{-T} = G^T S G = diag(sig).
    """
    lx = _chol(x)
    ls = _chol(s)
    _, sig, vt = np.linalg.svd(ls.T @ lx)
    g = lx @ vt.T / np.sqrt(sig)
    return g, sig


def _chol(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        n = mat.shape[0]
        base = max(np.trace(mat) / n, 1e-30)
        for jitter in (1e-14, 1e-11, 1e-8):
            try:
                return np.linalg.cholesky(mat + jitter * base * np.eye(n))
            except np.linalg.LinAlgError:
                continue
        raise


def _max_step(lam: np.ndarray, delta_scaled: np.ndarray) -> float:
    """Largest step keeping diag(lam) + alpha * delta positive definite."""
    root = 1.0 / np.sqrt(lam)
    ev_min = np.linalg.eigvalsh(root[:, None] * delta_scaled * root[None, :]).min()
    if ev_min >= -1e-14:
        return 1.0
    return min(1.0, -STEP_FRACTION / ev_min)


def _lyapunov_rhs(lam: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (U diag(lam) + diag(lam) U) / 2 = rhs for symmetric U."""
    return 2.0 * rhs / (lam[:, None] + lam[None, :])


def solve(program: ConicProgram, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> ConicSolution:
    """Run the NT predictor-corrector iteration on ``program``.

    On ``status == "optimal"`` every normalized KKT residual is at most
    ``tol``; in particular the objective mismatch between the primal and
    dual values is bounded by ``tol * (1 + |objective|)``, so
    ``[primal - gap, dual + gap]`` brackets the true optimum.
    """
    orders, c_mats, cons, rhs, n_decl = _program_arrays(program)
    m = len(cons)
    n_blocks = len(orders)

    a_norms = np.array([
        max((np.linalg.norm(a) for a in coeffs.values()), default=0.0)
        for coeffs in cons
    ])
    c_norm = max((np.linalg.norm(c) for c in c_mats.values()), default=0.0)
    if m:
        x0 = max(10.0, float(np.max((1.0 + np.abs(rhs)) / (1.0 + a_norms))))
    else:
        x0 = 10.0
    s0 = max(10.0, c_norm)

    xs = [x0 * np.eye(n) for n in orders]
    ss = [s0 * np.eye(n) for n in orders]
    y = np.zeros(m)
    n_tot = sum(orders)

    def apply_con(mats: list[np.ndarray]) -> np.ndarray:
        return np.array([
            sum(float(np.tensordot(a, mats[b], axes=2)) for b, a in coeffs.items())
            for coeffs in cons
        ])

    def adjoint(yv: np.ndarray) -> list[np.ndarray]:
        out = [np.zeros((n, n)) for n in orders]
        for j, coeffs in enumerate(cons):
            for b, a in coeffs.items():
                out[b] += yv[j] * a
        return out

    status: Literal["optimal", "max_iter", "infeasible"] = "max_iter"
    iterations = 0
    b_scale = 1.0 + np.linalg.norm(rhs)
    c_scale = 1.0 + c_norm
    best_metric = np.inf
    best_state = None

    for iterations in range(1, max_iter + 1):
        rp = rhs - apply_con(xs)
        aty = adjoint(y)
        rd = [c_mats[b] - ss[b] - aty[b] for b in range(n_blocks)]
        mu = sum(float(np.tensordot(xs[b], ss[b], axes=2)) for b in range(n_blocks)) / n_tot

        pobj = sum(float(np.tensordot(c_mats[b], xs[b], axes=2)) for b in range(n_blocks))
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
            best_state = ([x.copy() for x in xs], y.copy(), [s.copy() for s in ss])
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
            a_scaled = [
                {b: gs[b].T @ a @ gs[b] for b, a in coeffs.items()}
                for coeffs in cons
            ]
            rd_scaled = [gs[b].T @ rd[b] @ gs[b] for b in range(n_blocks)]

            schur = np.zeros((m, m))
            for j in range(m):
                for k in range(j, m):
                    val = sum(
                        float(np.tensordot(a_scaled[j][b], a_scaled[k][b], axes=2))
                        for b in a_scaled[j] if b in a_scaled[k]
                    )
                    schur[j, k] = schur[k, j] = val
            reg = 1e-14 * max(schur.diagonal().max(initial=0.0), 1.0)
            schur_cho = scipy.linalg.cho_factor(schur + reg * np.eye(m))

            def schur_solve(rhs_y: np.ndarray) -> np.ndarray:
                dy = scipy.linalg.cho_solve(schur_cho, rhs_y)
                for _ in range(2):   # iterative refinement against the raw matrix
                    dy = dy + scipy.linalg.cho_solve(schur_cho, rhs_y - schur @ dy)
                return dy

            def newton(theta: list[np.ndarray]):
                """Direction for a scaled centering residual theta (per block)."""
                rhs_y = rp - np.array([
                    sum(float(np.tensordot(a_scaled[j][b], theta[b] - rd_scaled[b], axes=2))
                        for b in a_scaled[j])
                    for j in range(m)
                ])
                dy = schur_solve(rhs_y)
                at_dy = adjoint(dy)
                ds = [rd[b] - at_dy[b] for b in range(n_blocks)]
                ds_scaled = [gs[b].T @ ds[b] @ gs[b] for b in range(n_blocks)]
                dx_scaled = [theta[b] - ds_scaled[b] for b in range(n_blocks)]
                dx = [gs[b] @ dx_scaled[b] @ gs[b].T for b in range(n_blocks)]
                return dy, ds, dx, dx_scaled, ds_scaled

            # Predictor: pure affine step (sigma = 0).
            theta_aff = [_lyapunov_rhs(lams[b], -np.diag(lams[b] ** 2))
                         for b in range(n_blocks)]
            _, _, _, dxs_aff, dss_aff = newton(theta_aff)
            alpha_p = min(_max_step(lams[b], dxs_aff[b]) for b in range(n_blocks))
            alpha_d = min(_max_step(lams[b], dss_aff[b]) for b in range(n_blocks))
            mu_aff = sum(
                float(np.tensordot(np.diag(lams[b]) + alpha_p * dxs_aff[b],
                                   np.diag(lams[b]) + alpha_d * dss_aff[b], axes=2))
                for b in range(n_blocks)
            ) / n_tot
            sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3)

            # Corrector with the Mehrotra second-order term.
            theta = []
            for b in range(n_blocks):
                cross = dxs_aff[b] @ dss_aff[b]
                resid = (sigma * mu * np.eye(orders[b]) - np.diag(lams[b] ** 2)
                         - (cross + cross.T) / 2.0)
                theta.append(_lyapunov_rhs(lams[b], resid))
            dy, ds, dx, dxs, dss = newton(theta)
            alpha_p = min(_max_step(lams[b], dxs[b]) for b in range(n_blocks))
            alpha_d = min(_max_step(lams[b], dss[b]) for b in range(n_blocks))
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            break    # numerical floor; fall back to the best iterate seen

        for b in range(n_blocks):
            xs[b] = xs[b] + alpha_p * dx[b]
            xs[b] = (xs[b] + xs[b].T) / 2.0
            ss[b] = ss[b] + alpha_d * ds[b]
            ss[b] = (ss[b] + ss[b].T) / 2.0
        y = y + alpha_d * dy

        if alpha_p < 1e-8 and alpha_d < 1e-8:
            break

    if status != "infeasible" and best_state is not None:
        xs, y, ss = best_state
    pobj = sum(float(np.tensordot(c_mats[b], xs[b], axes=2)) for b in range(n_blocks))
    sol = ConicSolution(
        blocks=[xs[b] for b in range(n_decl)],
        objective=float(pobj),
        status=status,
        kkt=KktResiduals(0.0, 0.0, 0.0),
        y=y.copy(),
        dual_blocks=[ss[b] for b in range(n_decl)],
        iterations=iterations,
    )
    sol.kkt = kkt_residuals(program, sol)
    if status != "infeasible":
        sol.status = "optimal" if sol.kkt.max() <= tol else "max_iter"
    return sol


# -- textual dump ------------------------------------------------------------

def dump_program(program: ConicProgram) -> str:
    """Sparse-triplet text form of a program, for external cross-checking.

    Line grammar (fields are whitespace separated, ``#`` starts a comment):

        blocks <order> <order> ...
        obj <block> <row> <col> <value>
        eq <index> <rhs>
        eqterm <index> <block> <row> <col> <value>
        ineq <index> <rhs>
        ineqterm <index> <block> <row> <col> <value>

    Only upper-triangle entries are emitted; off-diagonal entries are
    implied symmetric.
    """
    lines = ["# conic program, triplet format v1"]
    lines.append("blocks " + " ".join(str(n) for n in program.blocks))

    def triplets(tag: str, mats: dict[int, np.ndarray]):
        for b in sorted(mats):
            mat = mats[b]
            for i in range(mat.shape[0]):
                for j in range(i, mat.shape[1]):
                    if mat[i, j] != 0.0:
                        lines.append(f"{tag} {b} {i} {j} {float(mat[i, j])!r}")

    triplets("obj", program.objective_matrices())
    for idx, (coeffs, rhs) in enumerate(program.eq):
        lines.append(f"eq {idx} {float(rhs)!r}")
        for b in sorted(coeffs):
            mat = coeffs[b]
            for i in range(mat.shape[0]):
                for j in range(i, mat.shape[1]):
                    if mat[i, j] != 0.0:
                        lines.append(f"eqterm {idx} {b} {i} {j} {float(mat[i, j])!r}")
    for idx, (coeffs, rhs) in enumerate(program.ineq):
        lines.append(f"ineq {idx} {float(rhs)!r}")
        for b in sorted(coeffs):
            mat = coeffs[b]
            for i in range(mat.shape[0]):
                for j in range(i, mat.shape[1]):
                    if mat[i, j] != 0.0:
                        lines.append(f"ineqterm {idx} {b} {i} {j} {float(mat[i, j])!r}")
    return "\n".join(lines) + "\n"
