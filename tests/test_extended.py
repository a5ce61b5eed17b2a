import numpy as np
import pytest

from irscrb.extended import (EstimabilityError, crb_extended, crb_extended_iso,
                             crb_extended_opt, crb_fully_passive, fim_extended,
                             gap_db, optimal_transmit_extended,
                             semi_passive_preferred)
from irscrb.pointcrb import TransmitCovariance

from oracles import projected_gradient_extended, random_covariance, random_unit_profile

RNG = np.random.default_rng(11)


def _channel(n, m, rng=RNG):
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _fixed_singular_values(n, m, values, rng=RNG):
    u, _ = np.linalg.qr(_channel(n, n, rng))
    q, _ = np.linalg.qr(_channel(m, m, rng))
    sigma = np.zeros((n, m))
    sigma[:n, :n] = np.diag(values)
    return u @ sigma @ q.conj().T


class TestFimExtended:
    def test_diagonal_blocks_equal(self):
        g = _channel(3, 4)
        r_x = random_covariance(RNG, 4, 1.0)
        v = random_unit_profile(RNG, 3)
        f = fim_extended(r_x, v, g, k=2, t=8, sigma2=0.3)
        kn = 2 * 3
        np.testing.assert_array_equal(f[:kn, :kn], f[kn:, kn:])
        np.testing.assert_array_equal(f[kn:, :kn], -f[:kn, kn:])

    def test_real_diagonal_data_has_no_cross_block(self):
        g = np.diag([1.0, 2.0, 0.5]).astype(complex)
        r_x = np.diag([0.3, 0.5, 0.2]).astype(complex)
        v = np.ones(3, dtype=complex)
        f = fim_extended(r_x, v, g, k=2, t=8, sigma2=0.3)
        kn = 6
        np.testing.assert_allclose(f[kn:, :kn], 0.0, atol=1e-15)

    def test_inverse_trace_matches_closed_form(self):
        g = _channel(3, 5)
        r_x = random_covariance(RNG, 5, 2.0)
        v = random_unit_profile(RNG, 3)
        f = fim_extended(r_x, v, g, k=3, t=16, sigma2=0.7)
        report = crb_extended(r_x, g, k=3, t=16, sigma2=0.7)
        assert np.trace(np.linalg.inv(f)) == pytest.approx(report.crb, rel=1e-8)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            fim_extended(np.eye(2, dtype=complex), np.ones(600, dtype=complex),
                         np.ones((600, 2), dtype=complex), k=2, t=8, sigma2=1.0)


class TestGenericBound:
    def test_scaled_identity_channel(self):
        # G = sqrt(g) I and isotropic power: sigma^2 K N M / (T g P0)
        n = m = 4
        gain, p0, k, t, s2 = 2.5, 1.5, 3, 16, 0.3
        g = np.sqrt(gain) * np.eye(n, dtype=complex)
        r_x = (p0 / m) * np.eye(m, dtype=complex)
        report = crb_extended(r_x, g, k, t, s2)
        assert report.crb == pytest.approx(s2 * k * n * m / (t * gain * p0),
                                           rel=1e-12)

    def test_profile_cancels(self):
        # evaluating the pre-cancellation form with explicit profiles gives
        # the same number for every profile
        g = _channel(3, 4)
        r_x = random_covariance(RNG, 4, 1.0)
        k, t, s2 = 2, 8, 0.4
        base = crb_extended(r_x, g, k, t, s2).crb
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_unit_profile(rng, 3)
            phi_g = v[:, None] * g
            explicit = s2 * k / t * np.trace(
                np.linalg.inv(phi_g @ r_x.conj().T @ phi_g.conj().T)).real
            assert explicit == pytest.approx(base, rel=1e-10)

    def test_linear_in_sensor_count(self):
        g = _channel(3, 4)
        r_x = random_covariance(RNG, 4, 1.0)
        crb1 = crb_extended(r_x, g, 2, 8, 0.4).crb
        crb2 = crb_extended(r_x, g, 4, 8, 0.4).crb
        assert crb2 == pytest.approx(2.0 * crb1, rel=1e-12)

    def test_rank_deficiency_reports_infinite(self):
        g = np.ones((3, 4), dtype=complex)   # rank one
        r_x = random_covariance(RNG, 4, 1.0)
        report = crb_extended(r_x, g, 2, 8, 0.4)
        assert np.isinf(report.crb)
        assert report.rank_deficiency == 2


class TestOptimalTransmit:
    def test_equal_singular_values_gives_isotropic(self):
        g = _fixed_singular_values(4, 4, [2.0] * 4)
        r_x = optimal_transmit_extended(g, p0=1.2)
        np.testing.assert_allclose(r_x.matrix, 0.3 * np.eye(4), atol=1e-12)

    def test_trace_hits_budget(self):
        g = _channel(3, 6)
        r_x = optimal_transmit_extended(g, p0=2.0)
        assert np.real(np.trace(r_x.matrix)) == pytest.approx(2.0, rel=1e-14)

    def test_beats_isotropic(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            g = _channel(3, 5, rng)
            opt = crb_extended(optimal_transmit_extended(g, 1.0), g, 2, 8, 0.4)
            iso = crb_extended((1.0 / 5) * np.eye(5, dtype=complex), g, 2, 8, 0.4)
            assert opt.crb <= iso.crb * (1 + 1e-12)

    def test_matches_projected_gradient_oracle(self):
        g = _channel(4, 6, np.random.default_rng(13))
        r_star = optimal_transmit_extended(g, 1.0)
        r_pg = projected_gradient_extended(g, 1.0)
        crb_star = crb_extended(r_star, g, 2, 8, 0.4).crb
        crb_pg = crb_extended(TransmitCovariance(r_pg, 1.0), g, 2, 8, 0.4).crb
        assert crb_star == pytest.approx(crb_pg, rel=1e-5)
        assert crb_star <= crb_pg * (1 + 1e-9)

    def test_first_order_optimality(self):
        # on the support of the optimum, the bound's gradient is a negative
        # multiple of the identity (the trace constraint's multiplier)
        g = _channel(4, 6, np.random.default_rng(14))
        r_star = optimal_transmit_extended(g, 1.0).matrix
        gram = g @ r_star @ g.conj().T
        grad = -g.conj().T @ np.linalg.matrix_power(np.linalg.inv(gram), 2) @ g
        w, q = np.linalg.eigh(r_star)
        support = q[:, w > 1e-12 * w.max()]
        s = support.conj().T @ grad @ support
        nu = -np.mean(np.diag(s)).real
        assert np.linalg.norm(s + nu * np.eye(s.shape[0])) <= 1e-7 * np.linalg.norm(grad)
        assert np.linalg.eigvalsh(grad + nu * np.eye(6)).min() >= -1e-7 * np.linalg.norm(grad)

    def test_wide_or_deficient_channels_rejected(self):
        with pytest.raises(EstimabilityError):
            optimal_transmit_extended(_channel(4, 3), 1.0)
        with pytest.raises(EstimabilityError):
            optimal_transmit_extended(np.ones((3, 4), dtype=complex), 1.0)


class TestClosedFormBounds:
    def test_two_singular_values(self):
        # singular values {1, 1/2}: (1 + 2)^2 = 9 times the unit bound
        g = _fixed_singular_values(2, 4, [1.0, 0.5])
        p0, k, t, s2 = 1.0, 3, 16, 0.25
        report = crb_extended_opt(g, p0, k, t, s2)
        assert report.crb == pytest.approx(9.0 * s2 * k / (p0 * t), rel=1e-10)

    def test_constructive_path_agreement(self):
        rng = np.random.default_rng(15)
        for n in (2, 4, 6):
            for _ in range(20):
                g = _channel(n, 8, rng)
                closed = crb_extended_opt(g, 1.0, 2, 8, 0.4).crb
                built = crb_extended(optimal_transmit_extended(g, 1.0),
                                     g, 2, 8, 0.4).crb
                assert closed == pytest.approx(built, rel=1e-9)

    def test_growing_the_array_increases_the_bound(self):
        sv = [3.0, 2.0, 1.0]
        small = crb_extended_opt(_fixed_singular_values(3, 8, sv), 1.0, 2, 8, 0.4)
        big = crb_extended_opt(_fixed_singular_values(4, 8, sv + [0.5]),
                               1.0, 2, 8, 0.4)
        assert big.crb > small.crb

    def test_isotropic_closed_form(self):
        rng = np.random.default_rng(16)
        g = _channel(3, 5, rng)
        report = crb_extended_iso(g, 1.0, 5, 2, 8, 0.4)
        brute = crb_extended((1.0 / 5) * np.eye(5, dtype=complex), g, 2, 8, 0.4)
        assert report.crb == pytest.approx(brute.crb, rel=1e-9)

    def test_isotropic_equals_optimal_for_flat_spectrum(self):
        g = _fixed_singular_values(4, 4, [1.7] * 4)
        opt = crb_extended_opt(g, 1.0, 2, 8, 0.4)
        iso = crb_extended_iso(g, 1.0, 4, 2, 8, 0.4)
        assert iso.crb == pytest.approx(opt.crb, rel=1e-12)

    def test_isotropic_never_below_optimal(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            g = _channel(3, 6, rng)
            opt = crb_extended_opt(g, 1.0, 2, 8, 0.4)
            iso = crb_extended_iso(g, 1.0, 6, 2, 8, 0.4)
            assert iso.crb >= opt.crb * (1 - 1e-12)

    def test_unequal_spectrum_has_a_strict_gap(self):
        g = _fixed_singular_values(3, 3, [3.0, 1.0, 0.5])
        opt = crb_extended_opt(g, 1.0, 2, 8, 0.4)
        iso = crb_extended_iso(g, 1.0, 3, 2, 8, 0.4)
        assert iso.crb > opt.crb * (1 + 1e-6)

    def test_linearities(self):
        g = _channel(3, 5)
        base = crb_extended_opt(g, 1.0, 2, 8, 0.4).crb
        assert crb_extended_opt(g, 2.0, 2, 8, 0.4).crb == pytest.approx(base / 2, rel=1e-12)
        assert crb_extended_opt(g, 1.0, 4, 8, 0.4).crb == pytest.approx(2 * base, rel=1e-12)
        assert crb_extended_opt(g, 1.0, 2, 16, 0.4).crb == pytest.approx(base / 2, rel=1e-12)
        assert crb_extended_opt(g, 1.0, 2, 8, 0.8).crb == pytest.approx(2 * base, rel=1e-12)


class TestRankRule:
    """Every bound counts a singular value at most RANK_RTOL * s_max as zero."""

    @pytest.mark.parametrize("ratio", [1e-3, 1e-6, 1e-8, 1e-11])
    def test_generic_bound_agrees_with_the_closed_forms(self, ratio):
        g = _fixed_singular_values(4, 6, [1.0, 0.5, 0.2, ratio],
                                   np.random.default_rng(19))
        p0, k, t, s2 = 1.0, 2, 8, 0.4
        pairs = [(crb_extended((p0 / 6) * np.eye(6, dtype=complex), g, k, t, s2),
                  crb_extended_iso(g, p0, 6, k, t, s2))]
        if ratio > 1e-10:
            pairs.append((crb_extended(optimal_transmit_extended(g, p0), g, k, t, s2),
                          crb_extended_opt(g, p0, k, t, s2)))
        else:
            with pytest.raises(EstimabilityError):
                optimal_transmit_extended(g, p0)
            assert np.isinf(crb_extended_opt(g, p0, k, t, s2).crb)
        for generic, closed in pairs:
            assert np.isfinite(generic.crb) == np.isfinite(closed.crb)
            assert generic.rank_deficiency == closed.rank_deficiency
            if ratio >= 1e-6:
                assert generic.crb == pytest.approx(closed.crb, rel=1e-9)

    def test_optimal_bound_is_infinite_where_not_estimable(self):
        wide = crb_extended_opt(_channel(4, 3), 1.0, 2, 8, 0.4)
        assert np.isinf(wide.crb) and wide.rank_deficiency == 1
        rank_one = crb_extended_opt(np.ones((3, 4), dtype=complex), 1.0, 2, 8, 0.4)
        assert np.isinf(rank_one.crb) and rank_one.rank_deficiency == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_one_covariance_gives_an_infinite_bound(self, seed):
        rng = np.random.default_rng(seed)
        g = _channel(4, 6, rng)
        u = _channel(6, 1, rng)[:, 0]
        r_x = np.outer(u, u.conj()) / np.vdot(u, u).real
        report = crb_extended(r_x, g, 2, 8, 0.4)
        assert np.isinf(report.crb) and report.rank_deficiency == 3
        assert np.isinf(crb_fully_passive(r_x, g, _channel(5, 4, rng), 8, 0.4))


class TestGap:
    def test_flat_square_spectrum_has_no_gap(self):
        g = _fixed_singular_values(3, 3, [2.0] * 3)
        assert gap_db(g, 3) == pytest.approx(0.0, abs=1e-12)

    def test_flat_doubled_antennas(self):
        g = _fixed_singular_values(3, 6, [2.0] * 3)
        assert gap_db(g, 6) == pytest.approx(10.0 * np.log10(2.0), abs=1e-12)

    def test_constant_across_power_and_sensors(self):
        g = _channel(3, 6)
        ref = gap_db(g, 6)
        for p0 in (0.01, 0.1, 1.0):
            for k in (4, 8, 16):
                opt = crb_extended_opt(g, p0, k, 8, 0.4)
                iso = crb_extended_iso(g, p0, 6, k, 8, 0.4)
                assert 10 * np.log10(iso.crb / opt.crb) == pytest.approx(ref, abs=1e-9)


class TestFullyPassive:
    def test_scaled_identity_return(self):
        g = _channel(3, 5)
        r_x = random_covariance(RNG, 5, 1.0)
        gain = 1.8
        q, _ = np.linalg.qr(_channel(6, 3))
        g_r = np.sqrt(gain) * q
        expected = (3 / gain) * (0.4 / 8) * np.trace(
            np.linalg.inv(g @ r_x.conj().T @ g.conj().T)).real
        assert crb_fully_passive(r_x, g, g_r, 8, 0.4) == pytest.approx(
            expected, rel=1e-10)

    def test_preference_rule_matches_direct_comparison(self):
        rng = np.random.default_rng(18)
        disagreements = 0
        for _ in range(100):
            n = int(rng.integers(2, 5))
            g = _channel(n, n + 2, rng)
            k = int(rng.integers(2, 7))
            scale = float(rng.uniform(0.3, 3.0))
            g_r = scale * _channel(n + 1, n, rng)
            r_x = random_covariance(rng, n + 2, 1.0)
            semi = crb_extended(r_x, g, k, 8, 0.4).crb
            full = crb_fully_passive(r_x, g, g_r, 8, 0.4)
            if semi_passive_preferred(k, g_r) != (semi < full):
                disagreements += 1
        assert disagreements == 0

    def test_too_few_receive_antennas(self):
        g = _channel(4, 6)
        r_x = random_covariance(RNG, 6, 1.0)
        assert np.isinf(crb_fully_passive(r_x, g, _channel(2, 4), 8, 0.4))
