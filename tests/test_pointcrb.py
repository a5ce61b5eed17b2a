import numpy as np
import pytest

from irscrb.arrays import centered_index, target_steering
from irscrb.channel import rician_channel
from irscrb.config import PointTargetScene, SystemConfig, point_scene
from irscrb.pointcrb import (PhaseProfile, TransmitCovariance,
                             crb_point_closed, effective_matrix,
                             effective_matrix_derivative, fim_point,
                             single_antenna_optimum)

from oracles import fd_fim_point, random_covariance, random_unit_profile, steered_gram

def _random_instance(rng, m, n):
    g = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    r_x = random_covariance(rng, m, 1.0)
    v = random_unit_profile(rng, n)
    theta = rng.uniform(-1.2, 1.2)
    return g, r_x, v, theta


class TestDomainTypes:
    def test_covariance_accepts_valid(self):
        r = random_covariance(np.random.default_rng(2024), 3, 2.0)
        TransmitCovariance(matrix=r, budget=2.0)

    def test_covariance_rejects_non_hermitian(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            TransmitCovariance(matrix=bad, budget=5.0)

    def test_covariance_rejects_indefinite(self):
        bad = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="indefinite"):
            TransmitCovariance(matrix=bad, budget=5.0)

    def test_covariance_rejects_over_budget(self):
        with pytest.raises(ValueError, match="budget"):
            TransmitCovariance(matrix=np.eye(2, dtype=complex), budget=1.0)

    def test_profile_rejects_non_unit_entries(self):
        with pytest.raises(ValueError, match="unit modulus"):
            PhaseProfile(v=np.array([1.0, 0.5], dtype=complex))

    def test_scene_rejects_beyond_endfire(self):
        with pytest.raises(ValueError):
            PointTargetScene(theta=2.0, alpha=1.0)

    def test_point_scene_factory_ties_alpha(self):
        cfg = SystemConfig()
        scene = point_scene(cfg, 0.5, alpha0=2.0 + 1j)
        from irscrb.arrays import path_gain

        beta0 = path_gain(cfg.d_it, cfg.rcs, cfg.wavelength)
        assert scene.alpha == pytest.approx((2.0 + 1j) * beta0)


class TestEffectiveMatrix:
    def test_rank_one(self):
        g, r_x, v, theta = _random_instance(np.random.default_rng(2025), 3, 5)
        a = target_steering(theta, 5, 0.1, 0.2)
        b = target_steering(theta, 4, 0.1, 0.2)
        e = effective_matrix(b, a, v, g)
        assert np.linalg.matrix_rank(e, tol=1e-10) == 1

    def test_single_antenna_coherent_alignment(self):
        rng = np.random.default_rng(2026)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a = target_steering(0.4, 6, 0.1, 0.2)
        v = np.exp(-1j * (np.angle(a) + np.angle(h)))
        combined = (v * a) @ h.reshape(6, 1)
        assert abs(combined[0]) == pytest.approx(np.sum(np.abs(h)), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            effective_matrix(np.ones(2), np.ones(3), np.ones(3), np.ones((4, 2)))

    def test_sensor_trace_identity(self):
        # tr(E R E^H) = K v^H Q v with Q the steered Gram matrix
        rng = np.random.default_rng(2027)
        for _ in range(10):
            g, r_x, v, theta = _random_instance(rng, 3, 5)
            a = target_steering(theta, 5, 0.1, 0.2)
            b = target_steering(theta, 4, 0.1, 0.2)
            e = effective_matrix(b, a, v, g)
            lhs = np.trace(e @ r_x @ e.conj().T)
            quad = steered_gram(g, r_x, a)
            rhs = 4 * (v.conj() @ quad @ v)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_trace_identities_with_derivative(self):
        d_hat, lam = 0.1, 0.2
        rng = np.random.default_rng(2028)
        for _ in range(10):
            g, r_x, v, theta = _random_instance(rng, 2, 4)
            a = target_steering(theta, 4, d_hat, lam)
            b = target_steering(theta, 3, d_hat, lam)
            e = effective_matrix(b, a, v, g)
            e_dot = effective_matrix_derivative(b, a, v, g, theta, d_hat, lam)
            quad = steered_gram(g, r_x, a)
            idx = centered_index(4).astype(float)
            factor = np.pi * (d_hat / lam) * np.cos(theta)
            k = 3.0

            cross = np.trace(e @ r_x @ e_dot.conj().T)
            expected = -1j * factor * k * (v.conj() @ (idx[:, None] * quad) @ v)
            assert cross == pytest.approx(expected, rel=1e-10)

            curv = np.trace(e_dot @ r_x @ e_dot.conj().T)
            taper_b = (k ** 3 - k) / 3.0
            expected = factor ** 2 * (
                taper_b * (v.conj() @ quad @ v)
                + k * (v.conj() @ (idx[:, None] * quad * idx[None, :]) @ v))
            assert curv == pytest.approx(expected, rel=1e-10)


class TestFimPoint:
    def _setup(self, m=2, n=3, k=2, seed=5):
        rng = np.random.default_rng(seed)
        cfg = SystemConfig(M=m, N=n, K=k, T=8)
        g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        r_x = random_covariance(rng, m, cfg.P0)
        v = random_unit_profile(rng, n)
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        scene = PointTargetScene(theta=0.6, alpha=alpha)
        return cfg, scene, g, r_x, v

    def test_linear_in_symbol_count(self):
        cfg, scene, g, r_x, v = self._setup()
        f1 = fim_point(scene, r_x, v, g, cfg)
        f2 = fim_point(scene, r_x, v, g, SystemConfig(
            M=cfg.M, N=cfg.N, K=cfg.K, T=2 * cfg.T))
        np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-12)

    def test_endfire_theta_information_vanishes(self):
        # cos(pi/2) is ~6e-17 in floats, so compare against the alpha block
        cfg, _, g, r_x, v = self._setup()
        scene = PointTargetScene(theta=np.pi / 2, alpha=1.0 + 0j)
        fim = fim_point(scene, r_x, v, g, cfg)
        assert fim[0, 0] <= 1e-25 * fim[1, 1]

    def test_alpha_block_is_scaled_identity(self):
        cfg, scene, g, r_x, v = self._setup()
        f_aa = fim_point(scene, r_x, v, g, cfg)[1:, 1:]
        assert f_aa[0, 0] == f_aa[1, 1]
        assert f_aa[0, 1] == 0.0
        assert f_aa[0, 0] >= 0.0

    def test_matches_finite_difference_oracle(self):
        cfg, scene, g, r_x, v = self._setup(m=1, n=2, k=2, seed=11)
        fim = fim_point(scene, r_x, v, g, cfg)
        fd = fd_fim_point(scene.theta, scene.alpha, r_x, v, g, cfg.K, cfg.T,
                          cfg.noise_power, cfg.spacing, cfg.wavelength)
        assert np.linalg.norm(fim - fd) <= 1e-6 * np.linalg.norm(fim)


class TestClosedFormBound:
    def test_matches_information_inverse(self):
        # Schur-complement route and the closed form agree to 1e-9
        rng = np.random.default_rng(17)
        for _ in range(500):
            m, n, k = rng.integers(1, 5), rng.integers(2, 6), rng.integers(2, 6)
            cfg = SystemConfig(M=int(m), N=int(n), K=int(k), T=8)
            g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            r_x = random_covariance(rng, int(m), cfg.P0)
            v = random_unit_profile(rng, int(n))
            alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
            scene = PointTargetScene(theta=float(rng.uniform(-1.2, 1.2)),
                                     alpha=alpha)
            closed = crb_point_closed(scene, r_x, v, g, cfg)
            inverse = np.linalg.inv(fim_point(scene, r_x, v, g, cfg))[0, 0]
            assert closed == pytest.approx(inverse, rel=1e-9)

    def test_decreasing_in_sensor_count(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        r_x = random_covariance(rng, 2, 1.0)
        v = random_unit_profile(rng, 4)
        scene = PointTargetScene(theta=0.7, alpha=0.3 + 0.1j)
        values = [crb_point_closed(scene, r_x, v, g,
                                   SystemConfig(M=2, N=4, K=k, T=8))
                  for k in range(2, 33, 2)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_proportional_to_noise_power(self):
        cfg = SystemConfig(M=2, N=3, K=4, T=8)
        half = SystemConfig(M=2, N=3, K=4, T=8, noise_power=cfg.noise_power / 2)
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        r_x = random_covariance(rng, 2, 1.0)
        v = random_unit_profile(rng, 3)
        scene = PointTargetScene(theta=0.2, alpha=1.0 + 0j)
        assert crb_point_closed(scene, r_x, v, g, half) == pytest.approx(
            crb_point_closed(scene, r_x, v, g, cfg) / 2.0, rel=1e-12)

    def test_inverse_in_symbols(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        r_x = random_covariance(rng, 2, 1.0)
        v = random_unit_profile(rng, 3)
        scene = PointTargetScene(theta=0.2, alpha=1.0 + 0j)
        crbs = [crb_point_closed(scene, r_x, v, g,
                                 SystemConfig(M=2, N=3, K=4, T=t))
                for t in (8, 16, 32)]
        assert crbs[1] == pytest.approx(crbs[0] / 2, rel=1e-12)
        assert crbs[2] == pytest.approx(crbs[0] / 4, rel=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        cfg = SystemConfig(M=2, N=5, K=3, T=8)
        g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        r_x = random_covariance(rng, 2, 1.0)
        v = random_unit_profile(rng, 5)
        scene = PointTargetScene(theta=-0.4, alpha=0.5 + 0.2j)
        ref = crb_point_closed(scene, r_x, v, g, cfg)
        for psi in rng.uniform(0, 2 * np.pi, 10):
            rotated = crb_point_closed(scene, r_x, np.exp(1j * psi) * v, g, cfg)
            assert rotated == pytest.approx(ref, rel=1e-12)

    def test_degenerate_geometry_returns_infinity(self):
        cfg = SystemConfig(M=2, N=3, K=4, T=8)
        # zero reflected power: the bound degenerates to the inf marker
        scene = PointTargetScene(theta=0.4, alpha=1.0 + 0j)
        value = crb_point_closed(scene, np.eye(2, dtype=complex) / 2.0,
                                 np.ones(3, dtype=complex),
                                 np.zeros((3, 2), dtype=complex), cfg)
        assert np.isinf(value)

    @pytest.mark.parametrize("r_x, match", [
        (np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), "Hermitian"),
        (np.diag([1.0, -0.5]).astype(complex), "indefinite")],
        ids=["non_hermitian", "indefinite"])
    def test_raw_covariance_is_checked(self, r_x, match):
        cfg = SystemConfig(M=2, N=3, K=4, T=8)
        scene = PointTargetScene(theta=0.4, alpha=1.0 + 0j)
        with pytest.raises(ValueError, match=match):
            crb_point_closed(scene, r_x, np.ones(3, dtype=complex),
                             np.ones((3, 2), dtype=complex), cfg)

    def test_transmit_covariance_is_not_checked_again(self, monkeypatch):
        rng = np.random.default_rng(6)
        cfg = SystemConfig(M=2, N=5, K=3, T=8)
        g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        r_x = random_covariance(rng, 2, 1.0)
        v = random_unit_profile(rng, 5)
        scene = PointTargetScene(theta=-0.4, alpha=0.5 + 0.2j)
        typed = TransmitCovariance(r_x, 1.0)
        checks = []
        check = TransmitCovariance.__post_init__
        monkeypatch.setattr(TransmitCovariance, "__post_init__",
                            lambda self: checks.append(1) or check(self))
        raw = crb_point_closed(scene, r_x, v, g, cfg)
        assert len(checks) == 1
        assert crb_point_closed(scene, typed, v, g, cfg) == pytest.approx(raw, rel=1e-12)
        assert len(checks) == 1

    def test_endfire_blowup(self):
        cfg = SystemConfig(M=2, N=3, K=4, T=8)
        g = np.ones((3, 2), dtype=complex)
        r_x = np.eye(2, dtype=complex) / 2.0
        v = np.ones(3, dtype=complex)
        near = crb_point_closed(PointTargetScene(theta=np.pi / 2, alpha=1.0 + 0j),
                                r_x, v, g, cfg)
        mid = crb_point_closed(PointTargetScene(theta=0.4, alpha=1.0 + 0j),
                               r_x, v, g, cfg)
        assert near > 1e15 * mid


class TestSingleAntennaOptimum:
    def test_rejects_multi_antenna(self):
        cfg = SystemConfig(M=2, N=4, K=4)
        scene = PointTargetScene(theta=0.1, alpha=1.0 + 0j)
        with pytest.raises(ValueError, match="M = 1"):
            single_antenna_optimum(scene, np.ones(4, dtype=complex), cfg)

    def test_quadratic_element_gain(self):
        # constant per-element magnitude, so doubling N quarters the bound
        scene = PointTargetScene(theta=0.3, alpha=0.7 + 0.1j)
        rng = np.random.default_rng(6)
        crbs = {}
        for n in (4, 8):
            cfg = SystemConfig(M=1, N=n, K=4)
            h = np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * 0.03
            crbs[n] = single_antenna_optimum(scene, h, cfg)[1]
        assert crbs[8] == pytest.approx(crbs[4] / 4.0, rel=1e-12)

    def test_inverse_power(self):
        scene = PointTargetScene(theta=0.3, alpha=0.7 + 0.1j)
        h = np.ones(4, dtype=complex) * 0.02
        crb1 = single_antenna_optimum(scene, h, SystemConfig(M=1, N=4, K=4, P0=1.0))[1]
        crb2 = single_antenna_optimum(scene, h, SystemConfig(M=1, N=4, K=4, P0=2.0))[1]
        assert crb2 == pytest.approx(crb1 / 2.0, rel=1e-12)

    def test_matches_general_bound_at_optimum(self):
        # aligned phases plugged into the general closed form reproduce the
        # single-antenna expression for arbitrary channels
        rng = np.random.default_rng(7)
        for _ in range(100):
            n, k = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            cfg = SystemConfig(M=1, N=n, K=k, T=16)
            h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.05
            scene = PointTargetScene(
                theta=float(rng.uniform(-1.2, 1.2)),
                alpha=complex(rng.standard_normal() + 1j * rng.standard_normal()))
            phases, crb = single_antenna_optimum(scene, h, cfg)
            general = crb_point_closed(
                scene, np.array([[cfg.P0]], dtype=complex),
                np.exp(1j * phases), h.reshape(n, 1), cfg)
            assert crb == pytest.approx(general, rel=1e-9)

    def test_channel_draw_consistency(self):
        cfg = SystemConfig(M=1, N=6, K=4)
        scene = point_scene(cfg, np.deg2rad(60.0))
        ch = rician_channel(cfg, seed=31)
        phases, crb = single_antenna_optimum(scene, ch.G[:, 0], cfg)
        assert np.isfinite(crb) and crb > 0
        assert phases.shape == (6,)
