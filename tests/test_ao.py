import logging
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import irscrb.ao
from irscrb import conic
from irscrb.ao import (CERTIFICATE_RTOL, MAX_REFLECTION_N, SUBPROBLEM_FLOOR,
                       SUBPROBLEM_TOL,
                       DegenerateObjectiveError, SubproblemError,
                       _checked, _dense, _reflect, _top_phases,
                       ao_minimize_crb, gaussian_randomization, irs_subproblem,
                       phase_ascent, sdr_objective, transmit_closed_form,
                       transmit_subproblem)
from irscrb.arrays import centered_index, target_steering
from irscrb.channel import rician_channel
from irscrb.config import PointTargetScene, SystemConfig, make_rng, point_scene
from irscrb.conic import ConicProgram, KktResiduals
from irscrb.pointcrb import (TransmitCovariance, _bound_from_info,
                             _info_kernels, _profile_scores, crb_point_closed,
                             single_antenna_optimum)
from irscrb.sweep import SCHEMES, load_config, reference_config, run_sweep

from oracles import (_alternate, dense_info_kernels, dense_phase_ascent,
                     exhaustive_phase_grid, parent_transmit_program, point_bracket,
                     random_covariance, random_unit_profile, randomization_by_loop,
                     steered_gram)


def _instance(m, n, k, seed=0, p0=1.0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    theta = float(rng.uniform(-1.2, 1.2))
    a = target_steering(theta, n, 0.1, 0.2)
    r_x = random_covariance(rng, m, p0)
    return g, a, r_x, theta


def _start_phases(g, a):
    # the optimizer's start: the phases of the top eigenvector of Q at R_x = I
    return _top_phases(_info_kernels(g, np.eye(np.shape(g)[1]), a, 1)[0])


def _random_phase_instance(m, n, seed):
    # the random-phase transmit program of the reference system at N = K = n
    cfg = reference_config(M=m, N=n, K=n)
    ch = rician_channel(cfg, seed=seed)
    a = target_steering(np.deg2rad(60.0), n, cfg.spacing, cfg.wavelength)
    v = np.exp(1j * make_rng(seed, 0, 2).uniform(0.0, 2.0 * np.pi, n))
    return v, a, ch.G, cfg.P0


def _parent_transmit_solve(v_lifted, a, g, k, p0):
    # the transmit step as it was solved at budget P0 with tr X <= P0
    program = parent_transmit_program(v_lifted, a, g, k, p0)
    sol = _checked(conic.solve(program, tol=SUBPROBLEM_TOL), "transmit subproblem")
    m = g.shape[1]
    return TransmitCovariance(matrix=sol.x[:m, :m], budget=p0), sol


class TestSdrObjective:
    def test_rank_one_profile_matches_bound_bracket(self):
        cfg = SystemConfig(M=3, N=5, K=4)
        for seed in range(10):
            g, a, r_x, theta = _instance(3, 5, 4, seed)
            v = random_unit_profile(np.random.default_rng(seed + 50), 5)
            k = 4
            f_val = sdr_objective(r_x, np.outer(v, v.conj()), a, g, k)
            assert k * f_val == pytest.approx(point_bracket(v, g, r_x, a, k),
                                              rel=1e-10)
            scene = PointTargetScene(theta=theta, alpha=0.5 + 0.3j)
            assert crb_point_closed(scene, r_x, v, g, cfg) == pytest.approx(
                _bound_from_info(scene, cfg, k * f_val), rel=1e-12)
            score = _profile_scores(_info_kernels(g, r_x, a, k), v[None, :])
            assert score[0] == pytest.approx(f_val, rel=1e-12)

    def test_maximizing_f_minimizes_the_bound(self):
        # perfect inverse rank ordering over random pairs
        g, a, r_x, theta = _instance(3, 4, 3, seed=1)
        cfg = SystemConfig(M=3, N=4, K=3, T=8)
        scene = PointTargetScene(theta=theta, alpha=0.5 + 0.3j)
        rng = np.random.default_rng(2)
        fs, crbs = [], []
        for _ in range(100):
            v = random_unit_profile(rng, 4)
            fs.append(sdr_objective(r_x, np.outer(v, v.conj()), a, g, 3))
            crbs.append(crb_point_closed(scene, r_x, v, g, cfg))
        order_f = np.argsort(fs)
        order_crb = np.argsort(crbs)[::-1]
        np.testing.assert_array_equal(order_f, order_crb)

    def test_homogeneous_in_transmit_scaling(self):
        g, a, r_x, _ = _instance(2, 4, 5, seed=3)
        v = random_unit_profile(np.random.default_rng(3), 4)
        lifted = np.outer(v, v.conj())
        f1 = sdr_objective(r_x, lifted, a, g, 5)
        f3 = sdr_objective(3.0 * r_x, lifted, a, g, 5)
        assert f3 == pytest.approx(3.0 * f1, rel=1e-12)

    def test_zero_power_is_degenerate(self):
        g, a, _, _ = _instance(2, 4, 5, seed=4)
        v = random_unit_profile(np.random.default_rng(4), 4)
        with pytest.raises(DegenerateObjectiveError):
            sdr_objective(np.zeros((2, 2), dtype=complex),
                          np.outer(v, v.conj()), a, g, 5)

    def test_non_hermitian_lift_is_rejected(self):
        # a grossly non-Hermitian lift leaves an imaginary trace residue
        g, a, r_x, _ = _instance(2, 4, 5, seed=4)
        bad = np.triu(np.ones((4, 4), dtype=complex) * (1 + 1j))
        with pytest.raises(ValueError, match="imaginary"):
            sdr_objective(r_x, bad, a, g, 5)


class TestTransmitSubproblem:
    def test_beats_random_feasible_covariances(self):
        g, a, _, _ = _instance(3, 4, 4, seed=5)
        v = random_unit_profile(np.random.default_rng(5), 4)
        lifted = np.outer(v, v.conj())
        r_star, _ = transmit_subproblem(lifted, a, g, 4, 1.0)
        f_star = sdr_objective(r_star, lifted, a, g, 4)
        rng = np.random.default_rng(6)
        for _ in range(50):
            r_rand = random_covariance(rng, 3, rng.uniform(0.2, 1.0))
            assert f_star >= sdr_objective(r_rand, lifted, a, g, 4) * (1 - 1e-9)

    def test_budget_binds(self):
        g, a, _, _ = _instance(3, 4, 4, seed=7)
        v = random_unit_profile(np.random.default_rng(7), 4)
        r_star, _ = transmit_subproblem(np.outer(v, v.conj()), a, g, 4, 2.5)
        assert np.real(np.trace(r_star.matrix)) == pytest.approx(2.5, rel=1e-6)

    def test_single_antenna_reduces_to_full_power(self):
        g, a, _, _ = _instance(1, 4, 4, seed=8)
        v = random_unit_profile(np.random.default_rng(8), 4)
        r_star, _ = transmit_subproblem(np.outer(v, v.conj()), a, g, 4, 1.7)
        assert r_star.matrix.shape == (1, 1)
        assert r_star.matrix[0, 0].real == pytest.approx(1.7, rel=1e-6)

    def test_one_eigendecomposition_per_solve(self, monkeypatch):
        # the solver's Hermitian block is the covariance as is; only
        # TransmitCovariance factors it
        calls = []

        def counting(mat, *args, **kwargs):
            calls.append(np.shape(mat))
            return eigh(mat, *args, **kwargs)

        eigh = np.linalg.eigh
        g, a, _, _ = _instance(3, 4, 4, seed=5)
        v = random_unit_profile(np.random.default_rng(5), 4)
        monkeypatch.setattr(np.linalg, "eigh", counting)
        transmit_subproblem(np.outer(v, v.conj()), a, g, 4, 1.0)
        assert calls == [(3, 3)]

    def test_rejects_bad_diagonal(self):
        g, a, _, _ = _instance(2, 3, 4, seed=9)
        with pytest.raises(ValueError, match="unit diagonal"):
            transmit_subproblem(2.0 * np.eye(3, dtype=complex), a, g, 4, 1.0)

    @staticmethod
    def _random_phase_program(m, seed):
        v, a, g, p0 = _random_phase_instance(m, 4, seed)
        r_x, sol = _parent_transmit_solve(np.outer(v, v.conj()), a, g, 4, p0)
        return r_x, sol, p0

    def test_solve_stalled_at_its_floor_is_kept(self):
        # the reflection program at M = 4, N = K = 8, channel seed 5 and an
        # isotropic R_x stalls just above the 1e-9 solver tolerance, and the
        # check shared by both subproblems keeps its solution
        cfg = SystemConfig(M=4, N=8, K=8, T=64, P0=1.0)
        g = rician_channel(cfg, seed=5).G
        a = target_steering(np.deg2rad(60.0), 8, cfg.spacing, cfg.wavelength)
        lifted, sol = irs_subproblem(_info_kernels(g, np.eye(4, dtype=complex) / 4, a, 8))
        assert sol.status == "max_iter"
        assert SUBPROBLEM_TOL < sol.kkt.max() <= SUBPROBLEM_FLOOR
        # the solver stops once <X, S> is no longer positive instead of
        # iterating past its floor until the step length collapses
        assert sol.iterations <= 20
        np.testing.assert_allclose(np.diag(lifted).real, 1.0, rtol=1e-6)
        # M = 2, seed 0 (`irscrb crb point --seed 0`) meets the tolerance only
        # with each row of the Schur block normalized on its own
        assert self._random_phase_program(2, 0)[1].status == "optimal"

    @pytest.mark.parametrize("seed", [2, 5])
    def test_unit_power_program_is_the_same_at_every_budget(self, seed):
        # under tr X <= P0 at P0 = 1e4 W these two programs end above the
        # acceptance floor (KKT residuals 1.7e-7 to 7.3e-7 under four exact
        # forms of the Schur solve); at unit power they meet it, and the
        # program and its solution do not depend on the budget
        v, a, g, _ = _random_phase_instance(16, 4, seed)
        lifted = np.outer(v, v.conj())
        with pytest.raises(SubproblemError):
            _parent_transmit_solve(lifted, a, g, 4, 1e4)
        blocks = []
        for p0 in (0.01, 1.0, 100.0, 1e4):
            r_x, sol = transmit_subproblem(lifted, a, g, 4, p0)
            assert sol.kkt.max() <= SUBPROBLEM_FLOOR
            assert np.trace(r_x.matrix).real == pytest.approx(p0, rel=1e-12)
            blocks.append(sol.x)
        assert all(np.array_equal(blocks[0], b) for b in blocks[1:])


class TestTransmitClosedForm:
    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_matches_the_transmit_program(self, m, n):
        for seed in range(10):
            v, a, g, p0 = _random_phase_instance(m, n, seed)
            lifted = np.outer(v, v.conj())
            r_x, regime = transmit_closed_form(v, a, g, n, p0)
            r_sdp, _ = transmit_subproblem(lifted, a, g, n, p0)
            f_val = sdr_objective(r_x, lifted, a, g, n)
            assert f_val >= sdr_objective(r_sdp, lifted, a, g, n) * (1 - 1e-9)

            ag = a[:, None] * g
            b = ag.conj().T @ v.conj()
            w = ag.conj().T @ (centered_index(n) * v.conj())
            b_sq = np.linalg.norm(b) ** 2
            w2_sq = np.linalg.norm(w) ** 2 - abs(np.vdot(b, w)) ** 2 / b_sq
            gamma = (n ** 2 - 1) / 3.0
            assert regime == ("attained" if gamma * b_sq >= w2_sq else "supremum")
            if regime == "supremum":
                assert f_val == pytest.approx(p0 * w2_sq, rel=1e-12)

            mat = r_x.matrix
            np.testing.assert_allclose(mat, mat.conj().T, rtol=0.0, atol=1e-15 * p0)
            assert np.linalg.eigvalsh(mat).min() >= -1e-12 * p0
            assert np.trace(mat).real == pytest.approx(p0, rel=1e-12)

    def test_profile_reflecting_no_power_is_degenerate(self):
        # v^T A G = 0: the two rows of G cancel under v = a = (1, 1)
        g = np.array([[1.0, 2.0], [-1.0, -2.0]], dtype=complex)
        with pytest.raises(DegenerateObjectiveError):
            transmit_closed_form(np.ones(2), np.ones(2), g, 4, 1.0)


class TestIrsSubproblem:
    def test_unit_diagonal(self):
        g, a, r_x, _ = _instance(3, 5, 4, seed=10)
        lifted, _ = irs_subproblem(_info_kernels(g, r_x, a, 4))
        np.testing.assert_allclose(np.diag(lifted).real, 1.0, atol=1e-8)
        np.testing.assert_allclose(np.diag(lifted).imag, 0.0, atol=1e-8)

    def test_relaxation_dominates_unit_modulus_profiles(self):
        g, a, r_x, _ = _instance(3, 5, 4, seed=11)
        lifted, _ = irs_subproblem(_info_kernels(g, r_x, a, 4))
        f_star = sdr_objective(r_x, lifted, a, g, 4)
        rng = np.random.default_rng(12)
        for _ in range(100):
            v = random_unit_profile(rng, 5)
            f_v = sdr_objective(r_x, np.outer(v, v.conj()), a, g, 4)
            assert f_star >= f_v * (1 - 1e-8)

    def test_single_element(self):
        g, a, r_x, _ = _instance(2, 1, 4, seed=13)
        lifted, _ = irs_subproblem(_info_kernels(g, r_x, a, 4))
        np.testing.assert_allclose(lifted, [[1.0]], atol=1e-8)
        direct = sdr_objective(r_x, np.array([[1.0 + 0j]]), a, g, 4)
        assert sdr_objective(r_x, lifted, a, g, 4) == pytest.approx(direct, rel=1e-8)

    def test_oversized_program_is_refused_before_it_is_built(self):
        # at N = 480 the constraint stack alone would take 1.8 GB a copy
        n = 480
        a, g, r_x = np.ones(n, dtype=complex), np.ones((n, 2), dtype=complex), np.eye(2)
        kernels = _info_kernels(g, r_x, a, 4)

        def solver(program, **kwargs):
            raise AssertionError("the program reached the solver")

        tracemalloc.start()
        try:
            with pytest.raises(SubproblemError, match=r"N = 480 > 128 needs 1\.8 GB"):
                irs_subproblem(kernels, solver=solver)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    # (channel seed, objective, iterations) of the reflection program at M = 4,
    # N = K = 8, isotropic R_x, 60 deg, as the former Schur solve (two
    # triangular solves per right-hand side) computed them
    FORMER_SOLVES = [
        (0, -18.368730738271534, 11), (1, -17.062665463252543, 11),
        (2, -14.44181734672949, 12), (3, -12.701172406658387, 12),
        (4, -9.976133516212606, 13), (5, -16.682941655738315, 19),
        (6, -14.172576938467545, 12), (7, -11.603311009492058, 12),
        (8, -11.893556814941023, 12), (9, -17.05945580304268, 12),
        (10, -14.165401438780792, 17), (11, -9.706689837168538, 13),
    ]

    @pytest.mark.parametrize("seed, objective, iterations", FORMER_SOLVES)
    def test_solves_match_the_former_schur_solve(self, seed, objective, iterations):
        # the status is not pinned: optimal or max_iter at SUBPROBLEM_TOL is
        # decided by rounding
        cfg = reference_config(M=4, N=8, K=8)
        a = target_steering(np.deg2rad(60.0), cfg.N, cfg.spacing, cfg.wavelength)
        kernels = _info_kernels(rician_channel(cfg, seed=seed).G,
                                (cfg.P0 / cfg.M) * np.eye(cfg.M), a, cfg.K)
        _, sol = irs_subproblem(kernels)
        assert sol.objective == pytest.approx(objective, rel=1e-8)
        assert sol.kkt.max() <= SUBPROBLEM_FLOOR
        assert abs(sol.iterations - iterations) <= 1

    def test_largest_accepted_program_reaches_the_solver(self):
        n = MAX_REFLECTION_N
        a, g, r_x = np.ones(n, dtype=complex), np.ones((n, 2), dtype=complex), np.eye(2)

        class Reached(Exception):
            pass

        def solver(program, **kwargs):
            assert program.rows.shape == (n + 3, n + 2, n + 2)
            raise Reached

        with pytest.raises(Reached):
            irs_subproblem(_info_kernels(g, r_x, a, 4), solver=solver)

    def test_program_lives_on_the_profile_and_schur_corners(self):
        # diag(V, U) of order N + 2 with N + 3 rows: every coefficient is zero
        # outside the N x N corner of V and the 2 x 2 corner of U, and the
        # last N rows are V_ii = 1
        n = 6
        g, a, r_x, _ = _instance(3, n, 4, seed=4)
        programs = []

        def recording(program, **kwargs):
            programs.append(program)
            return conic.solve(program, **kwargs)

        irs_subproblem(_info_kernels(g, r_x, a, 4), solver=recording)
        (program,) = programs
        assert program.rows.shape == (n + 3, n + 2, n + 2)
        corners = np.zeros((n + 2, n + 2), dtype=bool)
        corners[:n, :n] = corners[n:, n:] = True
        for coeffs in [program.objective, *program.rows]:
            assert not coeffs[~corners].any()
        for i, (row, rhs) in enumerate(zip(program.rows[3:], program.rhs[3:])):
            assert np.array_equal(row, np.diag(np.eye(n + 2)[i])) and rhs == 1.0


class TestGaussianRandomization:
    def test_rank_one_shortcut(self):
        g, a, r_x, _ = _instance(2, 5, 4, seed=14)
        v = random_unit_profile(np.random.default_rng(14), 5)
        profile = gaussian_randomization(np.outer(v, v.conj()),
                                         _info_kernels(g, r_x, a, 4), samples=10, seed=0)
        rotated = profile.v / profile.v[0] * v[0]
        np.testing.assert_allclose(rotated, v, atol=1e-8)

    def test_best_objective_grows_with_samples(self):
        g, a, r_x, _ = _instance(3, 5, 4, seed=15)
        lifted, _ = irs_subproblem(_info_kernels(g, r_x, a, 4))
        values = []
        for samples in (1, 5, 20, 100, 200):
            profile = gaussian_randomization(lifted, _info_kernels(g, r_x, a, 4),
                                             samples=samples, seed=21)
            values.append(sdr_objective(r_x, np.outer(profile.v, profile.v.conj()),
                                        a, g, 4))
        assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:]))

    def test_close_to_exhaustive_grid_at_small_size(self):
        # four elements, sixteen phase levels: the full grid is enumerable
        g, a, r_x, _ = _instance(3, 4, 4, seed=16)
        lifted, _ = irs_subproblem(_info_kernels(g, r_x, a, 4))

        def objective(v):
            return sdr_objective(r_x, np.outer(v, v.conj()), a, g, 4)

        grid_best = exhaustive_phase_grid(objective, 4, 16)
        profile = gaussian_randomization(lifted, _info_kernels(g, r_x, a, 4),
                                         samples=5000, seed=22)
        rand_best = objective(profile.v)
        assert rand_best >= grid_best * 0.97

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_matches_scoring_one_candidate_at_a_time(self, m, n):
        for seed in range(3):
            g, a, r_x, _ = _instance(m, n, 4, seed)
            rng = np.random.default_rng(seed + 100)
            factor = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            lifted = factor @ factor.conj().T                # rank 3
            scale = 1.0 / np.sqrt(np.diag(lifted).real)
            lifted = scale[:, None] * lifted * scale[None, :]   # unit diagonal

            def objective(v):
                return sdr_objective(r_x, np.outer(v, v.conj()), a, g, 4)

            # samples = 50 must draw the first 50 candidates of samples = 200;
            # against one draw the dominant eigenvector's phases often win
            for samples in (1, 50, 200):
                profile = gaussian_randomization(lifted, _info_kernels(g, r_x, a, 4),
                                                 samples, seed)
                np.testing.assert_array_equal(
                    profile.v, randomization_by_loop(lifted, objective, samples,
                                                     make_rng(seed)))

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="samples"):
            gaussian_randomization(np.eye(2, dtype=complex),
                                   _info_kernels(np.ones((2, 2)), np.eye(2), np.ones(2), 2),
                                   samples=0, seed=0)


class TestAlternatingMinimizer:
    def test_objective_trace_monotone(self):
        cfg = SystemConfig(M=4, N=4, K=4, T=16)
        scene = point_scene(cfg, 0.5)
        ch = rician_channel(cfg, seed=30)
        res = ao_minimize_crb(scene, ch.G, cfg, seed=3)
        trace = res.objective_trace
        assert len(trace) == 2
        assert all(b >= a * (1 - 1e-9) for a, b in zip(trace, trace[1:]))
        assert res.status in ("certified", "uncertified")
        np.testing.assert_allclose(np.abs(res.v.v), 1.0, atol=1e-10)

    def test_single_antenna_matches_closed_form(self):
        for seed in range(5):
            cfg = SystemConfig(M=1, N=6, K=4, T=16)
            scene = point_scene(cfg, np.deg2rad(50.0))
            ch = rician_channel(cfg, seed=seed)
            res = ao_minimize_crb(scene, ch.G, cfg, seed=seed)
            _, closed = single_antenna_optimum(scene, ch.G[:, 0], cfg)
            assert res.crb == pytest.approx(closed, rel=0.01)

    def test_monotone_in_power(self):
        crbs = []
        for p_dbm in (20.0, 25.0, 30.0):
            cfg = SystemConfig(M=4, N=4, K=4, T=16, P0=10 ** ((p_dbm - 30) / 10))
            scene = point_scene(cfg, 0.5)
            ch = rician_channel(cfg, seed=40)
            crbs.append(ao_minimize_crb(scene, ch.G, cfg, seed=4).crb)
        assert crbs[0] > crbs[1] > crbs[2]

    def test_never_worse_than_initialization(self):
        cfg = SystemConfig(M=3, N=5, K=4, T=16)
        scene = point_scene(cfg, -0.3)
        ch = rician_channel(cfg, seed=50)
        res = ao_minimize_crb(scene, ch.G, cfg, seed=5)
        a = target_steering(scene.theta, cfg.N, cfg.spacing, cfg.wavelength)
        init = _start_phases(ch.G, a)
        r_init, _ = transmit_closed_form(init, a, ch.G, cfg.K, cfg.P0)
        crb_init = crb_point_closed(scene, r_init, init, ch.G, cfg)
        assert res.crb <= crb_init * (1 + 1e-9)

    def test_solver_residuals_recorded(self):
        # K = 2 < N: the supremum branch does not certify and solves its SDR
        cfg = SystemConfig(M=2, N=3, K=2, T=16)
        scene = point_scene(cfg, 0.2)
        ch = rician_channel(cfg, seed=60)
        res = ao_minimize_crb(scene, ch.G, cfg, seed=6)
        assert 0.0 < res.solver_residual_max <= 1e-8
        assert res.iterations >= 1

    def test_optimizer_solves_no_transmit_program(self, monkeypatch):
        # every transmit step of the optimizer is in closed form
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return transmit_subproblem(*args, **kwargs)

        monkeypatch.setattr(irscrb.ao, "transmit_subproblem", counting)
        for seed in range(4):
            cfg = SystemConfig(M=4, N=8, K=8, T=64, P0=1.0)
            ch = rician_channel(cfg, seed=seed)
            ao_minimize_crb(point_scene(cfg, np.deg2rad(60.0)), ch.G, cfg, seed=0)
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 4])
    def test_sixty_four_elements_converge_to_the_bound_of_the_last_design(self, seed):
        # the trace holds f at Q's top phases and f of the returned
        # design, so its last row is the returned bound
        cfg = SystemConfig(M=8, N=64, K=8, T=64, P0=1.0)
        scene = point_scene(cfg, np.deg2rad(60.0))
        ch = rician_channel(cfg, seed=seed)
        res = ao_minimize_crb(scene, ch.G, cfg, seed=0)
        certified = res.objective_trace[-1] >= res.f_upper * (1 - CERTIFICATE_RTOL)
        assert res.status == ("certified" if certified else "uncertified")
        assert res.crb == pytest.approx(
            _bound_from_info(scene, cfg, cfg.K * res.objective_trace[-1]), rel=1e-12)

    @pytest.mark.parametrize("m, n, k, rician_factor",
                             [(4, 8, 8, 10 ** 0.5), (4, 16, 4, 0.0), (1, 16, 4, 0.0)])
    def test_bound_is_the_closed_form_at_the_returned_design(self, m, n, k, rician_factor):
        # crb comes from f of the winning design, not from a second evaluation
        cfg = reference_config(M=m, N=n, K=k, P0=1.0, rician_factor=rician_factor)
        scene = point_scene(cfg, np.deg2rad(60.0))
        for seed in range(3):
            g = rician_channel(cfg, seed=seed).G
            res = ao_minimize_crb(scene, g, cfg, seed=seed)
            assert res.crb == crb_point_closed(scene, res.R_x, res.v, g, cfg)

    def test_trace_row_zero_is_the_bound_at_the_initial_pair(self):
        cfg = SystemConfig(M=2, N=3, K=4, T=16)
        scene = point_scene(cfg, 0.2)
        ch = rician_channel(cfg, seed=61)
        res = ao_minimize_crb(scene, ch.G, cfg, seed=6)
        a = target_steering(scene.theta, cfg.N, cfg.spacing, cfg.wavelength)
        init = _start_phases(ch.G, a)
        r_init, _ = transmit_closed_form(init, a, ch.G, cfg.K, cfg.P0)
        f0 = res.objective_trace[0]
        assert f0 == pytest.approx(sdr_objective(r_init, np.outer(init, init.conj()),
                                                 a, ch.G, cfg.K), rel=1e-12)
        assert _bound_from_info(scene, cfg, cfg.K * f0) == pytest.approx(
            crb_point_closed(scene, r_init, init, ch.G, cfg), rel=1e-12)


class TestCertifiedOptimum:
    @staticmethod
    def _unit_diagonal_sdr(h):
        # max tr(H X) over diag X = 1, X PSD, posed directly at unit scale
        n, scale = h.shape[0], np.abs(h).max()
        program = ConicProgram(-h / scale, np.eye(n)[:, :, None] * np.eye(n), np.ones(n))
        sol = conic.solve(program, tol=1e-10)
        assert sol.status == "optimal"
        return -sol.objective * scale

    @pytest.mark.parametrize("ascent", [False, True])
    def test_fixed_point_bound_holds_from_any_start(self, monkeypatch, ascent):
        # with no ascent step the bound comes from a random start; after the
        # ascent it meets the relaxation wherever the fixed point certifies
        if not ascent:
            monkeypatch.setattr(irscrb.ao, "FIXED_POINT_MAX_ITER", 0)
        tight = 0
        for seed in range(6):
            cfg = reference_config(M=4, N=8, K=8,
                                   rician_factor=(10 ** 0.5, 0.0)[seed % 2])
            g = rician_channel(cfg, seed=seed).G
            a = target_steering(np.deg2rad(60.0), 8, cfg.spacing, cfg.wavelength)
            h = steered_gram(g, np.eye(4), a)
            start = random_unit_profile(np.random.default_rng(seed), 8)
            # the kernel (L, 1, 0) with h = L L^H: f = v^H h v and K(u) = h
            v, f, upper = phase_ascent((_info_kernels(g, np.eye(4), a, 1)[0], 1.0, 0.0),
                                       start)
            sdr = self._unit_diagonal_sdr(h)
            value = np.vdot(v, h @ v).real
            assert f == pytest.approx(value, rel=1e-12)
            assert value >= np.vdot(start, h @ start).real * (1 - 1e-12)
            assert upper >= sdr * (1 - 1e-8) and sdr >= value * (1 - 1e-8)
            tight += upper <= value * (1 + 1e-9)
        assert tight == (6 if ascent else 0)

    @pytest.mark.parametrize("rician_factor, seeds",
                             [(10 ** 0.5, (1, 4, 5)), (1.0, (4, 7))])
    def test_reference_size_runs_that_aborted_return(self, rician_factor, seeds):
        # each alternation aborted on a reflection solve stalled at a KKT
        # residual of 1.0e-8 to 2.1e-8; the fixed point certifies instead
        cfg = reference_config(M=16, N=16, K=16, P0=1.0, rician_factor=rician_factor)
        scene = point_scene(cfg, np.deg2rad(60.0))
        for seed in seeds:
            res = ao_minimize_crb(scene, rician_channel(cfg, seed=seed).G, cfg, seed=seed)
            assert np.isfinite(res.crb) and res.crb > 0
            assert res.iterations == 0 and res.status == "certified"

    @pytest.mark.parametrize("rician_factor", [10 ** 0.5, 0.0], ids=["rician5dB", "rician0"])
    @pytest.mark.parametrize("n, k", [(5, 4), (6, 4), (8, 8), (16, 4), (32, 8)])
    def test_single_antenna_designs_certify(self, n, k, rician_factor):
        # at M = 1, |w2|^2 = 0 for every profile, so f_upper = P0 gamma U_Q
        # with U_Q the bound of the branch-1 ascent, which is exact there
        cfg = reference_config(M=1, N=n, K=k, P0=1.0, rician_factor=rician_factor)
        scene = point_scene(cfg, np.deg2rad(60.0))
        a = target_steering(scene.theta, n, cfg.spacing, cfg.wavelength)
        for seed in range(4):
            g = rician_channel(cfg, seed=seed).G
            res = ao_minimize_crb(scene, g, cfg, seed=seed)
            power = (_info_kernels(g, np.eye(1), a, 1)[0], 1.0, 0.0)
            upper_q = phase_ascent(power, _start_phases(g, a))[2]
            assert res.f_upper == cfg.P0 * (k ** 2 - 1) / 3.0 * upper_q
            assert res.status == "certified" and res.iterations == 0

    @pytest.mark.parametrize("rician_factor", [10 ** 0.5, 0.0], ids=["rician5dB", "rician0"])
    def test_single_element_designs_certify(self, rician_factor):
        # at N = 1, D = 0, so |L^H D v|^2 = 0 for every v and U_DQD = 0: no
        # ascent runs on D L, whose step would divide 0 by 0; every profile
        # gives f = P0 gamma |G|^2, the value of the design and of f_upper
        cfg = reference_config(M=4, N=1, K=8, P0=1.0, rician_factor=rician_factor)
        scene = point_scene(cfg, np.deg2rad(60.0))
        gamma = (cfg.K ** 2 - 1) / 3.0
        for seed in range(4):
            g = rician_channel(cfg, seed=seed).G
            res = ao_minimize_crb(scene, g, cfg, seed=seed)
            f = cfg.P0 * gamma * np.linalg.norm(g) ** 2
            assert res.status == "certified" and res.iterations == 0
            assert res.f_upper == pytest.approx(f, rel=1e-12)
            assert res.crb == pytest.approx(_bound_from_info(scene, cfg, cfg.K * f),
                                            rel=1e-12)

    def test_certified_design_dominates_the_alternation(self):
        # the alternation the optimizer ran where its fixed point did not
        # certify, from the same start, does no better on the grid of the
        # two-branch design; alternations that abort are listed and skipped
        compared, aborted = 0, []
        for m, n, k in [(4, 8, 2), (4, 16, 2), (4, 16, 4), (8, 32, 4), (8, 16, 8),
                        (4, 8, 8), (8, 8, 8), (1, 6, 4)]:
            for rician_factor in (10 ** 0.5, 0.0):
                cfg = reference_config(M=m, N=n, K=k, P0=1.0, rician_factor=rician_factor)
                scene = point_scene(cfg, np.deg2rad(60.0))
                a = target_steering(scene.theta, n, cfg.spacing, cfg.wavelength)
                for seed in range(6):
                    g = rician_channel(cfg, seed=seed).G
                    res = ao_minimize_crb(scene, g, cfg, seed=seed)
                    try:
                        v, r_x, *_ = _alternate(_start_phases(g, a), a, g, k,
                                                cfg.P0, 200, seed)
                    except SubproblemError as exc:
                        aborted.append(f"({m}, {n}, {k}) Rician {rician_factor:.3g} "
                                       f"seed {seed}: {exc}")
                        continue
                    alternated = crb_point_closed(scene, r_x, v, g, cfg)
                    assert res.crb <= alternated * (1 + 1e-9)
                    compared += 1
        print(f"\n{compared} of 96 compared; aborted alternations:", *aborted, sep="\n")
        assert compared >= 90

    def test_shipped_point_config_takes_the_certified_path(self, monkeypatch):
        runs = []

        def recording(*args, **kwargs):
            runs.append(ao_minimize_crb(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(irscrb.sweep, "ao_minimize_crb", recording)
        config = Path(__file__).resolve().parents[1] / "configs" / "point_p0.ini"
        _, _, specs = load_config(str(config))
        run_sweep(next(s for s in specs if s.scheme == "proposed_ao"))
        assert len(runs) == 3
        assert all(res.iterations == 0 for res in runs)

    @pytest.mark.parametrize("m, n, k", [(4, 8, 2), (8, 16, 8), (8, 32, 4)])
    def test_alternation_stays_below_the_bound(self, m, n, k):
        # no line of sight and N > K: the supremum branch solves its SDR
        cfg = reference_config(M=m, N=n, K=k, P0=1.0, rician_factor=0.0)
        scene = point_scene(cfg, np.deg2rad(60.0))
        for seed in range(4):
            res = ao_minimize_crb(scene, rician_channel(cfg, seed=seed).G, cfg, seed=seed)
            assert res.iterations >= 1
            assert res.objective_trace[-1] <= res.f_upper * (1 + 1e-9)


class TestPhaseAscent:
    """The ascent on f at a fixed R_x and its dual bound."""

    @staticmethod
    def _isotropic(m, n, k, seed, rician_factor=10 ** 0.5):
        cfg = reference_config(M=m, N=n, K=k, P0=1.0, rician_factor=rician_factor)
        g = rician_channel(cfg, seed=seed).G
        a = target_steering(np.deg2rad(60.0), n, cfg.spacing, cfg.wavelength)
        r_iso = np.eye(m, dtype=complex) / m
        return r_iso, a, g, _info_kernels(g, r_iso, a, k)

    def test_bound_covers_the_exhaustive_grid(self):
        rng = np.random.default_rng(2024)
        for seed in range(10):
            g, a, r_x, _ = _instance(3, 4, 4, seed=seed)
            _, f, upper = phase_ascent(_info_kernels(g, r_x, a, 4),
                                       random_unit_profile(rng, 4))

            dense = dense_info_kernels(g, r_x, a, 4)

            def objective(v):
                w, c, q = (np.vdot(v, kern @ v) for kern in dense)
                return w.real - abs(c) ** 2 / q.real

            grid_best = exhaustive_phase_grid(objective, 4, 16)
            assert upper >= grid_best and upper >= f

    def test_certified_value_is_the_relaxation_value(self):
        certified = 0
        for m, n, k in [(4, 8, 8), (8, 8, 8), (2, 4, 4), (1, 8, 8)]:
            for seed in range(5):
                r_iso, a, g, kernels = self._isotropic(m, n, k, seed)
                _, f, upper = phase_ascent(kernels, _top_phases(kernels[0]))
                if f < upper * (1 - CERTIFICATE_RTOL):
                    continue
                certified += 1
                lifted, _ = irs_subproblem(_info_kernels(g, r_iso, a, k))
                assert f == pytest.approx(sdr_objective(r_iso, lifted, a, g, k),
                                          rel=1e-9)
        assert certified >= 10

    @pytest.mark.parametrize("m, n, k, rician_factor",
                             [(4, 8, 2, 0.0), (8, 16, 8, 0.0), (4, 8, 8, 10 ** 0.5)])
    def test_never_below_the_start(self, monkeypatch, m, n, k, rician_factor):
        rng = np.random.default_rng(31)
        for seed in range(5):
            _, _, _, kernels = self._isotropic(m, n, k, seed, rician_factor)
            start = random_unit_profile(rng, n)
            v, f, upper = phase_ascent(kernels, start)
            with monkeypatch.context() as patch:
                patch.setattr(irscrb.ao, "FIXED_POINT_MAX_ITER", 0)
                _, f_start, _ = phase_ascent(kernels, start)
            assert f_start == pytest.approx(
                _profile_scores(kernels, start[None, :])[0], rel=1e-12)
            assert f >= f_start
            assert f == pytest.approx(_profile_scores(kernels, v[None, :])[0],
                                      rel=1e-12)
            assert upper >= f
            # from where it stopped, the ascent takes no step that lowers f
            assert phase_ascent(kernels, v)[1] >= f


class TestFactorKernel:
    """The N x M factor kernel (L, gamma, d) against the dense kernels it replaced."""

    @pytest.mark.parametrize("rank", [4, 1, 2])
    def test_dense_kernels_match_the_formula(self, rank):
        rng = np.random.default_rng(rank)
        for seed in range(5):
            g, a, _, _ = _instance(4, 16, 4, seed)
            s = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            r_x = s @ s.conj().T
            for ours, formula in zip(_dense(_info_kernels(g, r_x, a, 4)),
                                     dense_info_kernels(g, r_x, a, 4)):
                np.testing.assert_allclose(ours, formula, rtol=0,
                                           atol=1e-12 * np.abs(formula).max())

    @pytest.mark.parametrize("rician_factor", [0.0, 10 ** 0.5], ids=["rician0", "rician5dB"])
    @pytest.mark.parametrize("m, n, k", [(2, 16, 4), (4, 64, 4), (8, 64, 8), (4, 8, 8)])
    def test_ascent_matches_the_dense_ascent(self, monkeypatch, m, n, k, rician_factor):
        # the optimizer's three kernels and the isotropic one.  A step, and
        # the bound at one v, agree to rounding.  Each ascent ends before the
        # first step that lowers f, and near a fixed point that is a
        # rounding-level decrease, which the two forms meet at different
        # steps: there f still agrees, v to about 1e-7
        cfg = reference_config(M=m, N=n, K=k, P0=1.0, rician_factor=rician_factor)
        a = target_steering(np.deg2rad(60.0), n, cfg.spacing, cfg.wavelength)
        r_iso = np.eye(m) / m
        for seed in range(6):
            g = rician_channel(cfg, seed=seed).G
            factor, _, d = _info_kernels(g, np.eye(m), a, 1)
            dqd, dq, q = dense_info_kernels(g, np.eye(m), a, 1)
            for kernel, dense in [((factor, 1.0, 0.0), (q, 0 * q, q)),
                                  ((d[:, None] * factor, 1.0, 0.0), (dqd, 0 * q, q)),
                                  ((factor, 0.0, d), (dqd, dq, q)),
                                  (_info_kernels(g, r_iso, a, k),
                                   dense_info_kernels(g, r_iso, a, k))]:
                start = _top_phases(kernel[0])
                v, f, _ = phase_ascent(kernel, start)
                assert f == pytest.approx(dense_phase_ascent(dense, start)[1], rel=1e-12)
                for begin, steps in ((start, 1), (v, 0)):
                    with monkeypatch.context() as patch:
                        patch.setattr(irscrb.ao, "FIXED_POINT_MAX_ITER", steps)
                        ours = phase_ascent(kernel, begin)
                    theirs = dense_phase_ascent(dense, begin, max_iter=steps)
                    np.testing.assert_allclose(ours[0], theirs[0], rtol=0, atol=1e-12)
                    np.testing.assert_allclose(ours[1:], theirs[1:], rtol=1e-12)


class TestDefaultProfile:
    def test_single_antenna_alignment_is_exact_optimum(self):
        cfg = SystemConfig(M=1, N=5, K=4, T=16)
        ch = rician_channel(cfg, seed=70)
        a = target_steering(0.4, 5, cfg.spacing, cfg.wavelength)
        combined = (_start_phases(ch.G, a) * a) @ ch.G[:, 0]
        assert abs(combined) == pytest.approx(np.sum(np.abs(ch.G[:, 0])), rel=1e-10)


def test_desk_scale_reflection_subproblem():
    # order-32 lifted profile stays within solver tolerance
    cfg = SystemConfig(M=8, N=32, K=8, T=64)
    ch = rician_channel(cfg, seed=1)
    a = target_steering(np.deg2rad(60.0), 32, cfg.spacing, cfg.wavelength)
    r_x = random_covariance(np.random.default_rng(0), 8, 1.0)
    lifted, sol = irs_subproblem(_info_kernels(ch.G, r_x, a, 8))
    assert sol.status == "optimal"
    assert sol.kkt.max() <= 1e-9
    np.testing.assert_allclose(np.diag(lifted).real, 1.0, atol=1e-8)


def test_reference_scale_alternating_run():
    cfg = SystemConfig(M=16, N=16, K=16, T=64)
    scene = point_scene(cfg, np.deg2rad(60.0))
    ch = rician_channel(cfg, seed=2)
    res = ao_minimize_crb(scene, ch.G, cfg, seed=0)
    assert res.status == "certified"
    assert res.solver_residual_max <= 1e-8
    assert np.isfinite(res.crb) and res.crb > 0


def test_subproblems_solve_native_hermitian_blocks():
    g, a, r_x, _ = _instance(3, 5, 4, seed=10)
    orders = []

    def recording(program, **kwargs):
        orders.append(len(program.objective))
        return conic.solve(program, **kwargs)

    v = random_unit_profile(np.random.default_rng(10), 5)
    transmit_subproblem(np.outer(v, v.conj()), a, g, 4, 1.0, solver=recording)
    irs_subproblem(_info_kernels(g, r_x, a, 4), solver=recording)
    assert orders == [5, 7]


def test_desk_scale_run_through_a_stalled_transmit_solve():
    # the transmit program at channel 0's start phases, posed with
    # tr X <= P0 at P0 = 1e4 W, stalls at a KKT residual of 3.0e-9 to 3.2e-9
    # under four exact forms of the Schur solve; the optimizer takes that
    # step in closed form
    cfg = SystemConfig(M=8, N=16, K=8, T=64, P0=1e4)
    scene = point_scene(cfg, np.deg2rad(60.0))
    ch = rician_channel(cfg, seed=0)
    a = target_steering(scene.theta, cfg.N, cfg.spacing, cfg.wavelength)
    init = _start_phases(ch.G, a)
    lifted = np.outer(init, init.conj())
    r_sdp, sol = _parent_transmit_solve(lifted, a, ch.G, cfg.K, cfg.P0)
    assert SUBPROBLEM_TOL < sol.kkt.max() <= SUBPROBLEM_FLOOR
    r_closed, _ = transmit_closed_form(init, a, ch.G, cfg.K, cfg.P0)
    assert sdr_objective(r_closed, lifted, a, ch.G, cfg.K) >= \
        sdr_objective(r_sdp, lifted, a, ch.G, cfg.K) * (1 - 1e-9)


@pytest.mark.parametrize("residual", [3e-9, 3e-8])
def test_optimizer_run_through_a_stalled_reflection_solve(monkeypatch, caplog, residual):
    # every reflection solve reports a stall at ``residual``: below the floor
    # the optimizer scores the solve's candidates and reports the residual;
    # above it the solve gives no candidate and the ascent profile is kept
    def stalled(program, **kwargs):
        sol = conic.solve(program, **kwargs)
        return replace(sol, status="max_iter",
                       kkt=KktResiduals(primal=residual, dual=0.0, gap=0.0))

    monkeypatch.setattr(irscrb.ao, "irs_subproblem",
                        lambda *args: irs_subproblem(*args, solver=stalled))
    # K = 2 < N: the supremum branch does not certify and solves its SDR
    cfg = SystemConfig(M=4, N=8, K=2, T=64, P0=1.0)
    ch = rician_channel(cfg, seed=7)
    scene = point_scene(cfg, np.deg2rad(60.0))
    with caplog.at_level(logging.WARNING, logger="irscrb.ao"):
        res = ao_minimize_crb(scene, ch.G, cfg, seed=0)
    assert np.isfinite(res.crb) and res.crb > 0
    if residual <= SUBPROBLEM_FLOOR:
        assert res.iterations == 1 and res.solver_residual_max == residual
        assert not caplog.records
        return
    assert res.iterations == 0 and res.solver_residual_max == 0.0
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage() == (
        "SDR fallback with randomization seed 0 failed, kept the ascent profile: "
        "SubproblemError: reflection subproblem at N = 8 ended with status max_iter "
        "(KKT residual 3e-08)")
    assert res.crb == _ascent_design_crb(scene, ch.G, cfg)


def _ascent_design_crb(scene, g, cfg):
    """Bound of the optimizer's design where no SDR fallback gives a
    candidate: the best of Q's top phases and the two ascent profiles from them."""
    a = target_steering(scene.theta, cfg.N, cfg.spacing, cfg.wavelength)
    factor, _, d = _info_kernels(g, np.eye(cfg.M), a, 1)
    top = _start_phases(g, a)
    return min(crb_point_closed(scene, transmit_closed_form(v, a, g, cfg.K, cfg.P0)[0],
                                v, g, cfg)
               for v in (phase_ascent((factor, 1.0, 0.0), top)[0],
                         phase_ascent((factor, 0.0, d), top)[0], top))


@pytest.mark.parametrize("failure", ["stall", "infeasible", "size"])
def test_failed_fallback_keeps_the_ascent_profile(monkeypatch, caplog, failure):
    # each way irs_subproblem raises: a stall above the floor, an infeasible
    # status, and the size refusal (here above N = 4)
    def failing(program, **kwargs):
        sol = conic.solve(program, **kwargs)
        if failure == "infeasible":
            return replace(sol, status="infeasible")
        return replace(sol, status="max_iter",
                       kkt=KktResiduals(primal=3e-8, dual=0.0, gap=0.0))

    if failure == "size":
        monkeypatch.setattr(irscrb.ao, "MAX_REFLECTION_N", 4)
    monkeypatch.setattr(irscrb.ao, "irs_subproblem",
                        lambda kernels: irs_subproblem(kernels, solver=failing))
    # K = 2 < N: neither the isotropic ascent nor the supremum branch certifies
    cfg = SystemConfig(M=4, N=8, K=2, T=64, P0=1.0)
    ch = rician_channel(cfg, seed=7)
    scene = point_scene(cfg, np.deg2rad(60.0))
    a = target_steering(scene.theta, cfg.N, cfg.spacing, cfg.wavelength)
    kernel = _info_kernels(ch.G, np.eye(cfg.M) / cfg.M, a, cfg.K)
    top = _top_phases(kernel[0])
    with caplog.at_level(logging.WARNING, logger="irscrb.ao"):
        v = _reflect(kernel, top, 3)[0]
        res = ao_minimize_crb(scene, ch.G, cfg, seed=3)
    np.testing.assert_array_equal(v, phase_ascent(kernel, top)[0])
    assert res.iterations == 0 and res.solver_residual_max == 0.0
    assert res.crb == _ascent_design_crb(scene, ch.G, cfg)
    # one WARNING per fallback: the isotropic design's, then the supremum branch's
    expected = {"stall": "status max_iter", "infeasible": "status infeasible",
                "size": "N = 8 > 4 needs"}[failure]
    assert len(caplog.records) == 2
    for record in caplog.records:
        message = record.getMessage()
        assert message.startswith("SDR fallback with randomization seed 3 failed")
        assert "SubproblemError" in message and expected in message
        assert message.count("N = 8") == 1


@pytest.mark.parametrize("scheme, m, n, k, rician_factor, seed", [
    ("isotropic_tx", 4, 16, 16, 10 ** 0.5, 1), ("proposed_ao", 16, 16, 16, 0.0, 4)])
def test_instances_whose_reflection_solve_stalled_return(caplog, scheme, m, n, k,
                                                          rician_factor, seed):
    # a reflection solve ended max_iter at a KKT residual of 1.58e-8
    # (isotropic_tx) or 1.01e-8 (the alternation), just above the floor, and
    # raised; a stalled solve now gives no candidate and the design returns
    cfg = reference_config(M=m, N=n, K=k, P0=1.0, rician_factor=rician_factor)
    scene = point_scene(cfg, np.deg2rad(60.0))
    ch = rician_channel(cfg, seed=seed)
    with caplog.at_level(logging.WARNING, logger="irscrb.ao"):
        if scheme == "isotropic_tx":
            crb = SCHEMES[scheme].evaluate(cfg, ch, scene.theta, seed, 0)
        else:
            crb = ao_minimize_crb(scene, ch.G, cfg, seed=seed).crb
    assert np.isfinite(crb) and crb > 0
    for record in caplog.records:
        assert f"N = {n}" in record.getMessage() and "max_iter" in record.getMessage()


# the optimizer's cases keep the bare size as their id
@pytest.mark.parametrize("n, scheme", [
    pytest.param(n, scheme, id=str(n) if scheme == "proposed_ao" else f"{scheme}-{n}")
    for scheme in ("proposed_ao", "isotropic_tx") for n in (4, 8, 16, 32, 64)])
def test_no_abort_on_the_desk_scale_grid(n, scheme):
    cfg = SystemConfig(M=8, N=n, K=8, T=64, P0=1.0)
    scene = point_scene(cfg, np.deg2rad(60.0))
    a = target_steering(scene.theta, n, cfg.spacing, cfg.wavelength)
    r_iso = np.eye(cfg.M, dtype=complex) / cfg.M
    for seed in range(3):
        ch = rician_channel(cfg, seed=seed)
        if scheme == "proposed_ao":
            res = ao_minimize_crb(scene, ch.G, cfg, seed=0)
            assert res.solver_residual_max <= SUBPROBLEM_FLOOR
            crb = res.crb
        else:
            kernel = _info_kernels(ch.G, r_iso, a, cfg.K)
            v = _reflect(kernel, _top_phases(kernel[0]), 0)[0]
            crb = crb_point_closed(scene, r_iso, v, ch.G, cfg)
        assert np.isfinite(crb) and crb > 0


def test_iteration_cost_scaling_logged():
    # informational: median reflection-solve cost over doubling sizes; the
    # expected growth is no worse than ~size^3.5 but it is not asserted
    times = {}
    for size in (4, 8):
        cfg = SystemConfig(M=size, N=size, K=size, T=16)
        ch = rician_channel(cfg, seed=80)
        a = target_steering(0.4, size, cfg.spacing, cfg.wavelength)
        r_iso = np.eye(size, dtype=complex) * (cfg.P0 / size)
        seconds = []
        for _ in range(3):
            tic = time.perf_counter()
            irs_subproblem(_info_kernels(ch.G, r_iso, a, size))
            seconds.append(time.perf_counter() - tic)
        times[size] = float(np.median(seconds))
    growth = times[8] / max(times[4], 1e-9)
    print(f"\nreflection-solve cost: size 4 -> {times[4]*1e3:.2f} ms, "
          f"size 8 -> {times[8]*1e3:.2f} ms (ratio {growth:.1f}, "
          f"cubic-and-a-half bound is {2**3.5:.1f})")
