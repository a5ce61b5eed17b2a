import logging

import numpy as np
import pytest
from scipy.linalg import block_diag

from irscrb import conic
from irscrb.ao import irs_subproblem
from irscrb.arrays import target_steering
from irscrb.channel import rician_channel
from irscrb.conic import (ConicProgram, ConicSolution, KktResiduals, _adjoint,
                          _cholesky_solver, _inner, kkt_residuals, solve)
from irscrb.pointcrb import _info_kernels
from irscrb.sweep import reference_config

from oracles import dual_grid_sdp

RNG = np.random.default_rng(99)


def _random_symmetric(n, rng=RNG):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def _random_hermitian(n, rng=RNG):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def _eigen_sdp(c):
    return ConicProgram(c, np.eye(c.shape[0])[None], [1.0])


class TestSolve:
    def test_eigenvalue_sdp(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            c = _random_symmetric(5, rng)
            sol = solve(_eigen_sdp(c), tol=1e-9)
            lam, vec = np.linalg.eigh(c)
            assert sol.status == "optimal"
            assert sol.x.dtype == np.float64
            assert sol.objective == pytest.approx(lam[0], abs=1e-8)
            # solution is the eigenprojector of the smallest eigenvalue
            proj = np.outer(vec[:, 0], vec[:, 0])
            assert np.linalg.norm(sol.x - proj) < 1e-6

    def test_scalar_block_is_a_bounded_lp(self):
        # x <= 3 posed as x + s = 3 with a slack diagonal entry s
        sol = solve(ConicProgram(np.diag([-2.0, 0.0]), np.eye(2)[None], [3.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-6.0, abs=1e-8)

    def test_order_four_random_sdp_against_grid_oracle(self):
        # min tr(CX) s.t. tr(X) = 1, tr(AX) = tr(A)/4, X >= 0; the oracle
        # refines a 2-D grid over the dual and converges by strong duality
        for seed in (0, 1):
            rng = np.random.default_rng(100 + seed)
            c = _random_symmetric(4, rng)
            a = _random_symmetric(4, rng)
            b = float(np.trace(a)) / 4.0
            sol = solve(ConicProgram(c, np.array([np.eye(4), a]), [1.0, b]))
            assert sol.status == "optimal"
            oracle = dual_grid_sdp(c, a, b)
            assert sol.objective == pytest.approx(oracle, abs=1e-4)

    def test_hermitian_block_through_embedding(self):
        # complex data is solved on its native Hermitian block
        h = _random_hermitian(4)
        sol = solve(_eigen_sdp(h), tol=1e-9)
        assert sol.status == "optimal"
        assert sol.x.dtype == np.complex128
        assert sol.objective == pytest.approx(np.linalg.eigvalsh(h).min(), abs=1e-8)

    def test_certified_interval(self):
        c = _random_symmetric(4)
        sol = solve(_eigen_sdp(c))
        lam = np.linalg.eigvalsh(c).min()
        dual = float(sol.y[0])
        gap = abs(sol.objective - dual)
        assert sol.objective - gap - 1e-12 <= lam <= dual + gap + 1e-12

    def test_deterministic(self):
        c = _random_symmetric(5)
        sol1 = solve(_eigen_sdp(c))
        sol2 = solve(_eigen_sdp(c))
        assert sol1.iterations == sol2.iterations
        assert np.array_equal(sol1.x, sol2.x)
        assert np.array_equal(sol1.y, sol2.y)

    def test_iterations_logged_at_debug_level(self, caplog):
        c = _random_symmetric(4, np.random.default_rng(3))
        with caplog.at_level(logging.DEBUG, logger="irscrb.conic"):
            sol = solve(_eigen_sdp(c))
        lines = [r.getMessage() for r in caplog.records if r.name == "irscrb.conic"]
        assert len(lines) == sol.iterations
        assert lines[0].startswith("iter   1  mu ")

    def test_multiple_blocks(self):
        # block-diagonal eigenvalue problem: the mass moves to the block
        # with the smaller bottom eigenvalue
        rng = np.random.default_rng(7)
        c1, c2 = _random_symmetric(3, rng), _random_symmetric(4, rng)
        sol = solve(_eigen_sdp(block_diag(c1, c2)), tol=1e-9)
        expected = min(np.linalg.eigvalsh(c1).min(), np.linalg.eigvalsh(c2).min())
        assert sol.objective == pytest.approx(expected, abs=1e-8)

    def test_constraint_leaving_a_block_row_zero(self):
        # separable program: each equality touches one diagonal block, and
        # the inactive inequality tr X_1 <= 5 is posed with a slack diagonal
        # entry that only its own row touches
        rng = np.random.default_rng(8)
        c1, c2 = _random_symmetric(3, rng), _random_symmetric(4, rng)
        z3, z4, z1 = np.zeros((3, 3)), np.zeros((4, 4)), np.zeros((1, 1))
        p = ConicProgram(block_diag(c1, c2, z1),
                         np.array([block_diag(np.eye(3), z4, z1), block_diag(z3, np.eye(4), z1),
                                   block_diag(z3, np.eye(4), np.eye(1))]),
                         [1.0, 2.0, 5.0])
        sol = solve(p, tol=1e-9)
        assert sol.status == "optimal"
        expected = np.linalg.eigvalsh(c1).min() + 2.0 * np.linalg.eigvalsh(c2).min()
        assert sol.objective == pytest.approx(expected, abs=1e-8)
        assert sol.x.shape == (8, 8) and sol.y.shape == (3,)

    def test_infeasible_program(self):
        assert solve(ConicProgram(np.zeros((2, 2)), np.eye(2)[None], [-1.0])).status \
            == "infeasible"

_SKEWED_RNG = np.random.default_rng(12)
SKEWED = np.array([_random_hermitian(3, _SKEWED_RNG) for _ in range(3)])
SKEWED[1, 0, 2] += 1.0                          # one non-Hermitian row
EYE = np.eye(3)


class TestConicProgram:
    @pytest.mark.parametrize("objective, rows, rhs, message", [
        (EYE, np.array([[[0.0, 1.0, 0.0], [0.0] * 3, [0.0] * 3]]), [0.0],
         "coefficient matrix 0 of 1 is not Hermitian"),
        # symmetric but not Hermitian
        (EYE, np.array([[[1.0, 1j, 0.0], [1j, 0.0, 0.0], [0.0] * 3]]), [0.0],
         "coefficient matrix 0 of 1 is not Hermitian"),
        (EYE, SKEWED, np.zeros(3), "coefficient matrix 1 of 3 is not Hermitian"),
        (SKEWED[1], EYE[None], [1.0], "the objective is not Hermitian"),
        (EYE, np.zeros((3, 2, 2)), np.zeros(3), "got shape"),        # wrong order
        (EYE, np.zeros((1, 1, 3, 3)), np.zeros(1), "got shape"),     # not a stack
        (np.zeros((2, 3, 3)), EYE[None], [1.0], "got shape"),        # one objective
        (np.zeros((0, 0)), np.zeros((1, 0, 0)), [0.0], "got shape"),  # order 0
        (EYE, np.zeros((2, 3, 3)), np.zeros(3), "2 rows need 2 right-hand sides"),
        (EYE, EYE[None], 1.0, "1 rows need 1 right-hand sides"),
        (EYE, np.zeros((0, 3, 3)), [], r"got shape \(0, 3, 3\)"),   # no rows
        (np.diag([np.nan, 1.0, 1.0]), EYE[None], [1.0], "the objective has a non-finite entry"),
        (np.diag([np.inf, 0.0, 0.0]), EYE[None], [1.0], "the objective has a non-finite"),
        (EYE, np.array([EYE, np.diag([1.0, np.nan, 1.0])]), [1.0, 1.0],
         "coefficient matrix 1 of 2 has a non-finite entry"),
        (EYE, np.array([EYE, np.diag([0.0, -np.inf, 0.0])]), [1.0, 1.0],
         "coefficient matrix 1 of 2 has a non-finite entry"),
        (EYE, np.array([EYE, EYE]), [1.0, np.nan], "right-hand side 1 of 2 is not finite"),
        (EYE, EYE[None], [np.inf], "right-hand side 0 of 1 is not finite"),
    ], ids=["real_skewed", "complex_symmetric", "one_row_of_three", "objective_skewed",
            "wrong_order", "not_a_stack", "objective_stack", "order_0", "rhs_count",
            "rhs_scalar", "no_rows", "nan_objective", "inf_objective", "nan_row",
            "inf_row", "nan_rhs", "inf_rhs"])
    def test_constructor_refuses(self, objective, rows, rhs, message):
        with pytest.raises(ValueError, match=message):
            ConicProgram(objective, rows, rhs)

    def test_program_is_frozen_in_one_dtype(self):
        rows = SKEWED[[0, 2]]
        p = ConicProgram(np.eye(3), rows, [1, 2])
        assert p.objective.dtype == p.rows.dtype == np.complex128
        assert p.rhs.dtype == np.float64 and p.rhs.tolist() == [1.0, 2.0]
        assert np.array_equal(p.rows, rows) and np.array_equal(p.objective, np.eye(3))
        with pytest.raises(AttributeError):
            p.rhs = np.zeros(2)
        with pytest.raises(ValueError, match="read-only"):
            p.rows[0, 0, 0] = 1.0
        rows[0, 0, 0] = 5.0        # the program keeps its own copy
        assert p.rows[0, 0, 0] != 5.0
        assert ConicProgram(np.eye(3), EYE[None], [1]).rows.dtype == np.float64


class TestCholeskySolver:
    @pytest.mark.parametrize("m", [3, 11, 67])
    def test_spd_systems_are_solved_to_rounding(self, m):
        rng = np.random.default_rng(m)
        b = rng.standard_normal((m, m))
        mat = b @ b.T + m * np.eye(m)
        solve_with = _cholesky_solver(mat)
        for _ in range(3):   # one factor serves every right-hand side
            rhs = rng.standard_normal(m)
            x = solve_with(rhs)
            assert np.linalg.norm(mat @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_indefinite_matrix_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_solver(np.diag([2.0, -1.0, 3.0]))

    def test_non_finite_right_hand_side_raises(self):
        solve_with = _cholesky_solver(np.eye(3))
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_with(np.array([1.0, np.nan, 0.0]))

    @pytest.mark.parametrize("seed", [0, 2])
    def test_refined_solve_of_late_reflection_schur_matrices(self, monkeypatch, seed):
        # the Schur matrices of the last iterations of a reflection solve; after
        # newton's two refinement rounds against the matrix, the inverse-factor
        # solve is within 10x of an LU solve's residual
        cfg = reference_config(M=4, N=8, K=8)
        a = target_steering(np.deg2rad(60.0), cfg.N, cfg.spacing, cfg.wavelength)
        kernels = _info_kernels(rician_channel(cfg, seed=seed).G,
                                (cfg.P0 / cfg.M) * np.eye(cfg.M), a, cfg.K)
        mats = []

        def recording(mat):
            mats.append(mat.copy())
            return _cholesky_solver(mat)

        monkeypatch.setattr(conic, "_cholesky_solver", recording)
        irs_subproblem(kernels)
        late = mats[-3:]
        assert max(np.linalg.cond(mat) for mat in late) > 1e11
        rng = np.random.default_rng(seed)
        for mat in late:
            solve_with = _cholesky_solver(mat)
            rhs = rng.standard_normal((mat.shape[0], 8))
            x = np.stack([solve_with(r) for r in rhs.T], axis=1)
            for _ in range(2):
                x = x + np.stack([solve_with(r) for r in (rhs - mat @ x).T], axis=1)
            lu = np.linalg.norm(mat @ np.linalg.solve(mat, rhs) - rhs)
            assert np.linalg.norm(mat @ x - rhs) <= 10.0 * lu


class TestKktResiduals:
    def test_analytic_optimum_has_tiny_residuals(self):
        c = _random_symmetric(4)
        lam, vec = np.linalg.eigh(c)
        x = np.outer(vec[:, 0], vec[:, 0])
        s = c - lam[0] * np.eye(4)
        sol = ConicSolution(x=x, objective=lam[0], status="optimal",
                            kkt=KktResiduals(0, 0, 0), y=np.array([lam[0]]), s=s)
        res = kkt_residuals(_eigen_sdp(c), sol)
        assert res.max() <= 1e-10

    def test_perturbation_is_detected(self):
        c = _random_symmetric(4)
        lam, vec = np.linalg.eigh(c)
        x = np.outer(vec[:, 0], vec[:, 0]) + 1e-3 * np.eye(4)
        s = c - lam[0] * np.eye(4)
        sol = ConicSolution(x=x, objective=float(np.tensordot(c, x, 2)),
                            status="optimal", kkt=KktResiduals(0, 0, 0),
                            y=np.array([lam[0]]), s=s)
        res = kkt_residuals(_eigen_sdp(c), sol)
        assert res.max() > 1e-4

    def test_infeasible_point_has_primal_residual(self):
        c = _random_symmetric(3)
        sol = ConicSolution(x=2.0 * np.eye(3), objective=0.0,
                            status="optimal", kkt=KktResiduals(0, 0, 0),
                            y=np.zeros(1), s=np.eye(3))
        res = kkt_residuals(_eigen_sdp(c), sol)
        assert res.primal > 0.0


@pytest.mark.parametrize("complex_data", [False, True])
def test_contractions_match_explicit_traces(complex_data):
    rng = np.random.default_rng(5)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_data else x

    stack, y = draw(6, 4, 4), rng.standard_normal(6)
    for x in (draw(4, 4), draw(4, 4).T):        # contiguous and strided
        explicit = np.array([np.trace(a.conj().T @ x).real for a in stack])
        np.testing.assert_allclose(_inner(stack, x), explicit, rtol=1e-13, atol=1e-13)
        assert _inner(stack[2], x) == pytest.approx(explicit[2], rel=1e-13)
        adj = _adjoint(y, stack)
        np.testing.assert_allclose(adj, sum(y_j * a for y_j, a in zip(y, stack)),
                                   rtol=1e-13, atol=1e-13)
        # <A^*(y), X> = <y, A(X)>
        assert np.trace(adj.conj().T @ x).real == pytest.approx(y @ explicit, rel=1e-12)
