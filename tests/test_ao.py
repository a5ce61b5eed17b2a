import numpy as np
import pytest

import irscrb.ao
from irscrb import conic
from irscrb.ao import (SUBPROBLEM_FLOOR, SUBPROBLEM_TOL,
                       DegenerateObjectiveError, SubproblemError, _checked,
                       _psd_clip, ao_minimize_crb, default_phase_profile,
                       gaussian_randomization, irs_subproblem, sdr_objective,
                       transmit_closed_form, transmit_eigen_form,
                       transmit_subproblem)
from irscrb.arrays import centered_index, target_steering
from irscrb.channel import rician_channel
from irscrb.config import PointTargetScene, SystemConfig, make_rng, point_scene
from irscrb.pointcrb import (TransmitCovariance, _bound_from_info,
                             crb_point_closed, single_antenna_optimum)
from irscrb.sweep import reference_config

from oracles import (exhaustive_phase_grid, parent_transmit_program,
                     point_bracket, random_covariance, random_unit_profile,
                     randomization_by_loop)

RNG = np.random.default_rng(7)


def _instance(m, n, k, seed=0, p0=1.0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    theta = float(rng.uniform(-1.2, 1.2))
    a = target_steering(theta, n, 0.1, 0.2)
    r_x = random_covariance(rng, m, p0)
    return g, a, r_x, theta


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
    sol = _checked(conic.solve(program, tol=SUBPROBLEM_TOL), "transmit")
    return TransmitCovariance(matrix=_psd_clip(sol.blocks[0]), budget=p0), sol


class TestSdrObjective:
    def test_rank_one_profile_matches_bound_bracket(self):
        for seed in range(10):
            g, a, r_x, _ = _instance(3, 5, 4, seed)
            v = random_unit_profile(np.random.default_rng(seed + 50), 5)
            k = 4
            f_val = sdr_objective(r_x, np.outer(v, v.conj()), a, g, k)
            assert k * f_val == pytest.approx(point_bracket(v, g, r_x, a, k),
                                              rel=1e-10)

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
        v = random_unit_profile(RNG, 4)
        lifted = np.outer(v, v.conj())
        f1 = sdr_objective(r_x, lifted, a, g, 5)
        f3 = sdr_objective(3.0 * r_x, lifted, a, g, 5)
        assert f3 == pytest.approx(3.0 * f1, rel=1e-12)

    def test_zero_power_is_degenerate(self):
        g, a, _, _ = _instance(2, 4, 5, seed=4)
        v = random_unit_profile(RNG, 4)
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
        # M = 16, seed 37 stalls just above the 1e-9 solver tolerance when
        # the budget is the inequality tr X <= P0
        r_x, sol, p0 = self._random_phase_program(16, 37)
        assert sol.status == "max_iter"
        assert SUBPROBLEM_TOL < sol.kkt.max() <= SUBPROBLEM_FLOOR
        # the solver stops once <X, S> is no longer positive instead of
        # iterating past its floor until the step length collapses
        assert sol.iterations <= 20
        assert np.real(np.trace(r_x.matrix)) == pytest.approx(p0, rel=1e-6)
        # M = 2, seed 0 (`irscrb crb point --seed 0`) meets the tolerance only
        # with each row of the Schur block normalized on its own
        assert self._random_phase_program(2, 0)[1].status == "optimal"

    @pytest.mark.parametrize("seed", [4, 5])
    def test_unit_power_program_is_the_same_at_every_budget(self, seed):
        # under tr X <= P0 at P0 = 100 W these two programs end above the
        # acceptance floor; at unit power they meet it, and the program and
        # its solution do not depend on the budget
        v, a, g, _ = _random_phase_instance(16, 4, seed)
        lifted = np.outer(v, v.conj())
        with pytest.raises(SubproblemError):
            _parent_transmit_solve(lifted, a, g, 4, 100.0)
        blocks = []
        for p0 in (0.01, 1.0, 100.0):
            r_x, sol = transmit_subproblem(lifted, a, g, 4, p0)
            assert sol.kkt.max() <= SUBPROBLEM_FLOOR
            assert np.trace(r_x.matrix).real == pytest.approx(p0, rel=1e-12)
            blocks.append(sol.blocks[0])
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
            # the eigenvalue form certifies exactly the attained optima
            r_eig = transmit_eigen_form(lifted, a, g, n, p0)
            if regime == "supremum":
                assert r_eig is None
            else:
                assert sdr_objective(r_eig, lifted, a, g, n) == \
                    pytest.approx(f_val, rel=1e-10)

            mat = r_x.matrix
            np.testing.assert_allclose(mat, mat.conj().T, rtol=0.0, atol=1e-15 * p0)
            assert np.linalg.eigvalsh(mat).min() >= -1e-12 * p0
            assert np.trace(mat).real == pytest.approx(p0, rel=1e-12)

    def test_profile_reflecting_no_power_is_degenerate(self):
        # v^T A G = 0: the two rows of G cancel under v = a = (1, 1)
        g = np.array([[1.0, 2.0], [-1.0, -2.0]], dtype=complex)
        with pytest.raises(DegenerateObjectiveError):
            transmit_closed_form(np.ones(2), np.ones(2), g, 4, 1.0)


class TestTransmitEigenForm:
    @pytest.mark.parametrize("p0", [1.0, 100.0])
    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_matches_the_transmit_program_on_lifted_profiles(self, m, n, p0):
        # lifted profiles of the optimizer's first reflection step
        for seed in range(3):
            cfg = SystemConfig(M=m, N=n, K=8, T=64, P0=p0)
            g = rician_channel(cfg, seed=seed).G
            a = target_steering(np.deg2rad(60.0), n, cfg.spacing, cfg.wavelength)
            r_init, _ = transmit_closed_form(default_phase_profile(g, a), a, g, 8, p0)
            lifted, _ = irs_subproblem(r_init, a, g, 8)
            r_eig = transmit_eigen_form(lifted, a, g, 8, p0)
            r_sdp, _ = transmit_subproblem(lifted, a, g, 8, p0)
            assert sdr_objective(r_eig, lifted, a, g, 8) >= \
                sdr_objective(r_sdp, lifted, a, g, 8) * (1 - 1e-9)

            mat = r_eig.matrix
            np.testing.assert_allclose(mat, mat.conj().T, rtol=0.0, atol=1e-15 * p0)
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() >= -1e-12 * p0
            assert eigs[-2] <= 1e-12 * eigs[-1]
            assert np.trace(mat).real == pytest.approx(p0, rel=1e-12)

    def test_optimizer_solves_no_transmit_program(self, monkeypatch):
        # at the shape of point_p0.ini every lifted transmit step is certified
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

    def test_optimizer_falls_back_to_the_transmit_program(self, monkeypatch):
        # without a certificate every lifted transmit step solves the program,
        # and the run repeats the values of an optimizer that always solved it
        # (there with tr X <= P0 at budget P0, which the stand-in solves)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _parent_transmit_solve(*args)

        monkeypatch.setattr(irscrb.ao, "transmit_eigen_form", lambda *args: None)
        monkeypatch.setattr(irscrb.ao, "transmit_subproblem", counting)
        cfg = SystemConfig(M=4, N=8, K=8, T=64, P0=1.0)
        ch = rician_channel(cfg, seed=7)
        res = ao_minimize_crb(point_scene(cfg, np.deg2rad(60.0)), ch.G, cfg, seed=0)
        assert len(calls) == res.iterations == 2
        assert res.crb == pytest.approx(0.019868817110810337, rel=1e-12)
        golden = [0.00012619140822647904, 0.00012619361728607707,
                  0.00012619374152238218, 0.00012619375054349316,
                  0.00012619375135312574]
        np.testing.assert_allclose(res.objective_trace, golden, rtol=1e-12)

        # the unit-power program, solved to its own tolerance, agrees
        monkeypatch.setattr(irscrb.ao, "transmit_subproblem", transmit_subproblem)
        res = ao_minimize_crb(point_scene(cfg, np.deg2rad(60.0)), ch.G, cfg, seed=0)
        assert res.iterations == 2
        np.testing.assert_allclose(res.objective_trace, golden, rtol=1e-10)


class TestIrsSubproblem:
    def test_unit_diagonal(self):
        g, a, r_x, _ = _instance(3, 5, 4, seed=10)
        lifted, _ = irs_subproblem(r_x, a, g, 4)
        np.testing.assert_allclose(np.diag(lifted).real, 1.0, atol=1e-8)
        np.testing.assert_allclose(np.diag(lifted).imag, 0.0, atol=1e-8)

    def test_relaxation_dominates_unit_modulus_profiles(self):
        g, a, r_x, _ = _instance(3, 5, 4, seed=11)
        lifted, _ = irs_subproblem(r_x, a, g, 4)
        f_star = sdr_objective(r_x, lifted, a, g, 4)
        rng = np.random.default_rng(12)
        for _ in range(100):
            v = random_unit_profile(rng, 5)
            f_v = sdr_objective(r_x, np.outer(v, v.conj()), a, g, 4)
            assert f_star >= f_v * (1 - 1e-8)

    def test_single_element(self):
        g, a, r_x, _ = _instance(2, 1, 4, seed=13)
        lifted, _ = irs_subproblem(r_x, a, g, 4)
        np.testing.assert_allclose(lifted, [[1.0]], atol=1e-8)
        direct = sdr_objective(r_x, np.array([[1.0 + 0j]]), a, g, 4)
        assert sdr_objective(r_x, lifted, a, g, 4) == pytest.approx(direct, rel=1e-8)


class TestGaussianRandomization:
    def test_rank_one_shortcut(self):
        g, a, r_x, _ = _instance(2, 5, 4, seed=14)
        v = random_unit_profile(np.random.default_rng(14), 5)
        profile = gaussian_randomization(np.outer(v, v.conj()), r_x, a, g, 4,
                                         samples=10, seed=0)
        rotated = profile.v / profile.v[0] * v[0]
        np.testing.assert_allclose(rotated, v, atol=1e-8)

    def test_best_objective_grows_with_samples(self):
        g, a, r_x, _ = _instance(3, 5, 4, seed=15)
        lifted, _ = irs_subproblem(r_x, a, g, 4)
        values = []
        for samples in (1, 5, 20, 100, 200):
            profile = gaussian_randomization(lifted, r_x, a, g, 4,
                                             samples=samples, seed=21)
            values.append(sdr_objective(r_x, np.outer(profile.v, profile.v.conj()),
                                        a, g, 4))
        assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:]))

    def test_close_to_exhaustive_grid_at_small_size(self):
        # four elements, sixteen phase levels: the full grid is enumerable
        g, a, r_x, _ = _instance(3, 4, 4, seed=16)
        lifted, _ = irs_subproblem(r_x, a, g, 4)

        def objective(v):
            return sdr_objective(r_x, np.outer(v, v.conj()), a, g, 4)

        grid_best = exhaustive_phase_grid(objective, 4, 16)
        profile = gaussian_randomization(lifted, r_x, a, g, 4,
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

            # samples = 50 must draw the first 50 candidates of samples = 200
            for samples in (50, 200):
                profile = gaussian_randomization(lifted, r_x, a, g, 4, samples, seed)
                np.testing.assert_array_equal(
                    profile.v, randomization_by_loop(lifted, objective, samples,
                                                     make_rng(seed)))

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="samples"):
            gaussian_randomization(np.eye(2, dtype=complex), np.eye(2),
                                   np.ones(2), np.ones((2, 2)), 2,
                                   samples=0, seed=0)


class TestAlternatingMinimizer:
    def test_objective_trace_monotone(self):
        cfg = SystemConfig(M=4, N=4, K=4, T=16)
        scene = point_scene(cfg, 0.5)
        ch = rician_channel(cfg, seed=30)
        res = ao_minimize_crb(scene, ch.G, cfg, seed=3)
        trace = res.objective_trace
        assert all(b >= a * (1 - 1e-9) for a, b in zip(trace, trace[1:]))
        assert res.status in ("converged", "max_iter")
        np.testing.assert_allclose(np.abs(res.v.v), 1.0, atol=1e-10)

    def test_single_antenna_matches_closed_form(self):
        for seed in range(5):
            cfg = SystemConfig(M=1, N=6, K=4, T=16)
            scene = point_scene(cfg, np.deg2rad(50.0))
            ch = rician_channel(cfg, seed=seed)
            res = ao_minimize_crb(scene, ch.G, cfg, seed=seed)
            _, _, closed = single_antenna_optimum(scene, ch.h_bi, cfg)
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
        init = default_phase_profile(ch.G,
                                     target_steering(scene.theta, cfg.N,
                                                     cfg.spacing, cfg.wavelength))
        res = ao_minimize_crb(scene, ch.G, cfg, init=init, seed=5)
        a = target_steering(scene.theta, cfg.N, cfg.spacing, cfg.wavelength)
        r_init, _ = transmit_closed_form(init.v, a, ch.G, cfg.K, cfg.P0)
        crb_init = crb_point_closed(scene, r_init, init.v, ch.G, cfg)
        assert res.crb <= crb_init * (1 + 1e-9)

    def test_solver_residuals_recorded(self):
        cfg = SystemConfig(M=2, N=3, K=4, T=16)
        scene = point_scene(cfg, 0.2)
        ch = rician_channel(cfg, seed=60)
        res = ao_minimize_crb(scene, ch.G, cfg, seed=6)
        assert 0.0 < res.solver_residual_max <= 1e-8
        assert len(res.iter_seconds) >= 2

    def test_trace_row_zero_is_the_bound_at_the_initial_pair(self):
        cfg = SystemConfig(M=2, N=3, K=4, T=16)
        scene = point_scene(cfg, 0.2)
        ch = rician_channel(cfg, seed=61)
        res = ao_minimize_crb(scene, ch.G, cfg, seed=6)
        a = target_steering(scene.theta, cfg.N, cfg.spacing, cfg.wavelength)
        init = default_phase_profile(ch.G, a)
        r_init, _ = transmit_closed_form(init.v, a, ch.G, cfg.K, cfg.P0)
        f0 = res.objective_trace[0]
        assert f0 == pytest.approx(sdr_objective(r_init, np.outer(init.v, init.v.conj()),
                                                 a, ch.G, cfg.K), rel=1e-12)
        assert _bound_from_info(scene, cfg, cfg.K * f0) == pytest.approx(
            crb_point_closed(scene, r_init, init.v, ch.G, cfg), rel=1e-12)


class TestDefaultProfile:
    def test_single_antenna_alignment_is_exact_optimum(self):
        cfg = SystemConfig(M=1, N=5, K=4, T=16)
        ch = rician_channel(cfg, seed=70)
        a = target_steering(0.4, 5, cfg.spacing, cfg.wavelength)
        prof = default_phase_profile(ch.G, a)
        combined = (prof.v * a) @ ch.h_bi
        assert abs(combined) == pytest.approx(np.sum(np.abs(ch.h_bi)), rel=1e-10)


def test_desk_scale_reflection_subproblem():
    # order-32 lifted profile stays within solver tolerance
    cfg = SystemConfig(M=8, N=32, K=8, T=64)
    ch = rician_channel(cfg, seed=1)
    a = target_steering(np.deg2rad(60.0), 32, cfg.spacing, cfg.wavelength)
    r_x = random_covariance(np.random.default_rng(0), 8, 1.0)
    lifted, sol = irs_subproblem(r_x, a, ch.G, 8)
    assert sol.status == "optimal"
    assert sol.kkt.max() <= 1e-9
    np.testing.assert_allclose(np.diag(lifted).real, 1.0, atol=1e-8)


def test_reference_scale_alternating_run():
    cfg = SystemConfig(M=16, N=16, K=16, T=64)
    scene = point_scene(cfg, np.deg2rad(60.0))
    ch = rician_channel(cfg, seed=2)
    res = ao_minimize_crb(scene, ch.G, cfg, seed=0)
    assert res.status == "converged"
    assert res.solver_residual_max <= 1e-8
    assert np.isfinite(res.crb) and res.crb > 0


def test_subproblems_solve_native_hermitian_blocks():
    g, a, r_x, _ = _instance(3, 5, 4, seed=10)
    orders = []

    def recording(program, **kwargs):
        orders.append(program.blocks)
        return conic.solve(program, **kwargs)

    v = random_unit_profile(np.random.default_rng(10), 5)
    transmit_subproblem(np.outer(v, v.conj()), a, g, 4, 1.0, solver=recording)
    irs_subproblem(r_x, a, g, 4, solver=recording)
    assert orders == [[3, 2], [5, 2]]


def test_desk_scale_run_through_a_stalled_transmit_solve():
    # the transmit program of channel 4's initial profile, posed with
    # tr X <= P0 at P0 = 100 W, stalls at a KKT residual near 5.1e-9; the
    # optimizer takes that step in closed form
    cfg = SystemConfig(M=8, N=16, K=8, T=64, P0=100.0)
    scene = point_scene(cfg, np.deg2rad(60.0))
    ch = rician_channel(cfg, seed=4)
    a = target_steering(scene.theta, cfg.N, cfg.spacing, cfg.wavelength)
    init = default_phase_profile(ch.G, a)
    lifted = np.outer(init.v, init.v.conj())
    r_sdp, sol = _parent_transmit_solve(lifted, a, ch.G, cfg.K, cfg.P0)
    assert SUBPROBLEM_TOL < sol.kkt.max() <= SUBPROBLEM_FLOOR
    r_closed, _ = transmit_closed_form(init.v, a, ch.G, cfg.K, cfg.P0)
    assert sdr_objective(r_closed, lifted, a, ch.G, cfg.K) >= \
        sdr_objective(r_sdp, lifted, a, ch.G, cfg.K) * (1 - 1e-9)

    # the optimizer's lifted transmit steps solve no program; at the shape of
    # point_p0.ini channel 7 passes through a reflection solve that stalls
    # near 2.9e-9, and the optimizer keeps that step and still converges
    cfg = SystemConfig(M=4, N=8, K=8, T=64, P0=1.0)
    ch = rician_channel(cfg, seed=7)
    res = ao_minimize_crb(point_scene(cfg, np.deg2rad(60.0)), ch.G, cfg, seed=0)
    assert res.status == "converged"
    assert SUBPROBLEM_TOL < res.solver_residual_max <= SUBPROBLEM_FLOOR
    assert np.isfinite(res.crb) and res.crb > 0


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_no_abort_on_the_desk_scale_grid(n):
    for seed in range(3):
        cfg = SystemConfig(M=8, N=n, K=8, T=64, P0=1.0)
        ch = rician_channel(cfg, seed=seed)
        res = ao_minimize_crb(point_scene(cfg, np.deg2rad(60.0)), ch.G, cfg, seed=0)
        assert res.solver_residual_max <= SUBPROBLEM_FLOOR
        assert np.isfinite(res.crb) and res.crb > 0


def test_sixty_four_element_run_returns():
    # returns only with each row of the Schur block normalized on its own;
    # under one shared scale a transmit solve stalls at a KKT residual of 1.3e-7
    cfg = SystemConfig(M=8, N=64, K=8, T=64, P0=1.0)
    ch = rician_channel(cfg, seed=1)
    res = ao_minimize_crb(point_scene(cfg, np.deg2rad(60.0)), ch.G, cfg, seed=0)
    assert res.solver_residual_max <= SUBPROBLEM_FLOOR
    assert np.isfinite(res.crb) and res.crb > 0


def test_iteration_cost_scaling_logged():
    # informational: median half-iteration cost over doubling sizes; the
    # expected growth is no worse than ~size^3.5 but it is not asserted
    times = {}
    for size in (4, 8):
        cfg = SystemConfig(M=size, N=size, K=size, T=16)
        scene = point_scene(cfg, 0.4)
        ch = rician_channel(cfg, seed=80)
        res = ao_minimize_crb(scene, ch.G, cfg, seed=8)
        times[size] = float(np.median(res.iter_seconds))
    growth = times[8] / max(times[4], 1e-9)
    print(f"\nhalf-iteration cost: size 4 -> {times[4]*1e3:.2f} ms, "
          f"size 8 -> {times[8]*1e3:.2f} ms (ratio {growth:.1f}, "
          f"cubic-and-a-half bound is {2**3.5:.1f})")
