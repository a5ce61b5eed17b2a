import logging

import numpy as np
import pytest

from irscrb.conic import (ConicProgram, ConicSolution, KktResiduals, _adjoint,
                          _inner, kkt_residuals, solve)

from oracles import dual_grid_sdp

RNG = np.random.default_rng(99)


def _random_symmetric(n, rng=RNG):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def _random_hermitian(n, rng=RNG):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def _eigen_sdp(c):
    p = ConicProgram([c.shape[0]])
    p.set_objective({0: c})
    p.add_eq({0: np.eye(c.shape[0])}, 1.0)
    return p


class TestSolve:
    def test_eigenvalue_sdp(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            c = _random_symmetric(5, rng)
            sol = solve(_eigen_sdp(c), tol=1e-9)
            lam, vec = np.linalg.eigh(c)
            assert sol.status == "optimal"
            assert sol.blocks[0].dtype == np.float64
            assert sol.objective == pytest.approx(lam[0], abs=1e-8)
            # solution is the eigenprojector of the smallest eigenvalue
            proj = np.outer(vec[:, 0], vec[:, 0])
            assert np.linalg.norm(sol.blocks[0] - proj) < 1e-6

    def test_scalar_block_is_a_bounded_lp(self):
        # x <= 3 posed as x + s = 3 with a declared slack block s
        p = ConicProgram([1, 1])
        p.set_objective({0: np.array([[-2.0]])})
        p.add_eq({0: np.array([[1.0]]), 1: np.array([[1.0]])}, 3.0)
        sol = solve(p)
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
            p = ConicProgram([4])
            p.set_objective({0: c})
            p.add_eq({0: np.eye(4)}, 1.0)
            p.add_eq({0: a}, b)
            sol = solve(p)
            assert sol.status == "optimal"
            oracle = dual_grid_sdp(c, a, b)
            assert sol.objective == pytest.approx(oracle, abs=1e-4)

    def test_hermitian_block_through_embedding(self):
        # complex data is solved on its native Hermitian block
        h = _random_hermitian(4)
        p = ConicProgram([4])
        p.set_objective({0: h})
        p.add_eq({0: np.eye(4)}, 1.0)
        sol = solve(p, tol=1e-9)
        assert sol.status == "optimal"
        assert sol.blocks[0].dtype == np.complex128
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
        assert np.array_equal(sol1.blocks[0], sol2.blocks[0])
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
        p = ConicProgram([3, 4])
        p.set_objective({0: c1, 1: c2})
        p.add_eq({0: np.eye(3), 1: np.eye(4)}, 1.0)
        sol = solve(p, tol=1e-9)
        expected = min(np.linalg.eigvalsh(c1).min(), np.linalg.eigvalsh(c2).min())
        assert sol.objective == pytest.approx(expected, abs=1e-8)

    def test_constraint_leaving_a_block_row_zero(self):
        # separable program: each equality touches one block, and the
        # inactive inequality tr X_1 <= 5 is posed with a declared slack
        # block that only its own row touches
        rng = np.random.default_rng(8)
        c1, c2 = _random_symmetric(3, rng), _random_symmetric(4, rng)
        p = ConicProgram([3, 4, 1])
        p.set_objective({0: c1, 1: c2})
        p.add_eq({0: np.eye(3)}, 1.0)
        p.add_eq({1: np.eye(4)}, 2.0)
        p.add_eq({1: np.eye(4), 2: np.array([[1.0]])}, 5.0)
        sol = solve(p, tol=1e-9)
        assert sol.status == "optimal"
        expected = np.linalg.eigvalsh(c1).min() + 2.0 * np.linalg.eigvalsh(c2).min()
        assert sol.objective == pytest.approx(expected, abs=1e-8)
        assert len(sol.blocks) == 3 and sol.y.shape == (3,)

    def test_infeasible_program(self):
        p = ConicProgram([2])
        p.set_objective({0: np.zeros((2, 2))})
        p.add_eq({0: np.eye(2)}, -1.0)
        assert solve(p).status == "infeasible"

    def test_rejects_asymmetric_coefficients(self):
        # the complex coefficient is symmetric but not Hermitian
        p = ConicProgram([2])
        for coeff in (np.array([[0.0, 1.0], [0.0, 0.0]]),
                      np.array([[1.0, 1j], [1j, 0.0]])):
            with pytest.raises(ValueError, match="symmetric"):
                p.add_eq({0: coeff}, 0.0)

    def test_data_enters_only_through_the_checking_methods(self):
        with pytest.raises(TypeError):
            ConicProgram([1], objective=[{0: [[-2.0]]}])
        with pytest.raises(TypeError):
            ConicProgram([2], eq=[({0: [[1, 5], [0, 1]]}, 1.0)])

    def test_non_finite_data_raises(self):
        # a NaN objective reaches the Schur right-hand side and is refused there
        p = ConicProgram([2])
        p.set_objective({0: np.array([[np.nan, 0.0], [0.0, 1.0]])})
        p.add_eq({0: np.eye(2)}, 1.0)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(p)

    def test_rejects_bad_block_order(self):
        with pytest.raises(ValueError, match="block order"):
            ConicProgram([0])


class TestKktResiduals:
    def test_analytic_optimum_has_tiny_residuals(self):
        c = _random_symmetric(4)
        lam, vec = np.linalg.eigh(c)
        x = np.outer(vec[:, 0], vec[:, 0])
        s = c - lam[0] * np.eye(4)
        sol = ConicSolution(blocks=[x], objective=lam[0], status="optimal",
                            kkt=KktResiduals(0, 0, 0), y=np.array([lam[0]]),
                            dual_blocks=[s])
        res = kkt_residuals(_eigen_sdp(c), sol)
        assert res.max() <= 1e-10

    def test_perturbation_is_detected(self):
        c = _random_symmetric(4)
        lam, vec = np.linalg.eigh(c)
        x = np.outer(vec[:, 0], vec[:, 0]) + 1e-3 * np.eye(4)
        s = c - lam[0] * np.eye(4)
        sol = ConicSolution(blocks=[x], objective=float(np.tensordot(c, x, 2)),
                            status="optimal", kkt=KktResiduals(0, 0, 0),
                            y=np.array([lam[0]]), dual_blocks=[s])
        res = kkt_residuals(_eigen_sdp(c), sol)
        assert res.max() > 1e-4

    def test_infeasible_point_has_primal_residual(self):
        c = _random_symmetric(3)
        sol = ConicSolution(blocks=[2.0 * np.eye(3)], objective=0.0,
                            status="optimal", kkt=KktResiduals(0, 0, 0),
                            y=np.zeros(1), dual_blocks=[np.eye(3)])
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
        adj, = _adjoint(y, [stack])
        np.testing.assert_allclose(adj, sum(y_j * a for y_j, a in zip(y, stack)),
                                   rtol=1e-13, atol=1e-13)
        # <A^*(y), X> = <y, A(X)>
        assert np.trace(adj.conj().T @ x).real == pytest.approx(y @ explicit, rel=1e-12)
