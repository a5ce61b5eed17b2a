import math

import numpy as np
import pytest

from irscrb.arrays import centered_index, large_scale_path_loss, target_steering, ula_steering
from irscrb.config import path_gain


class TestUlaSteering:
    def test_zero_direction_is_all_ones(self):
        np.testing.assert_allclose(ula_steering(0.0, 4), np.ones(4), atol=0)

    def test_two_element_unit_direction(self):
        np.testing.assert_allclose(ula_steering(1.0, 2), [-1j, 1j], atol=1e-15)

    def test_centroid_symmetry(self):
        v = ula_steering(0.37, 8)
        np.testing.assert_allclose(v, np.conj(v[::-1]), atol=1e-15)

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = ula_steering(rng.uniform(-2, 2), rng.integers(1, 40))
            np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-14)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            ula_steering(0.3, 0)


class TestTargetSteering:
    def test_broadside_all_ones(self):
        np.testing.assert_allclose(target_steering(0.0, 6, 0.1, 0.2), np.ones(6))

    def test_half_wavelength_30_degrees(self):
        v = target_steering(np.pi / 6, 2, 0.1, 0.2)
        np.testing.assert_allclose(
            v, [np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)], atol=1e-15)

    def test_norm_squared_equals_count(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            k = int(rng.integers(1, 30))
            v = target_steering(rng.uniform(-1.4, 1.4), k, 0.1, 0.2)
            assert np.linalg.norm(v) ** 2 == pytest.approx(k, rel=1e-14)


def _central_difference(theta, count, d, lam, step=1e-6):
    return (target_steering(theta + step, count, d, lam)
            - target_steering(theta - step, count, d, lam)) / (2.0 * step)


class TestSteeringDerivative:
    def test_endfire_derivative_vanishes(self):
        v_dot = _central_difference(np.pi / 2, 8, 0.1, 0.2)
        np.testing.assert_allclose(v_dot, 0.0, atol=1e-8)

    def test_matches_scaled_index_product(self):
        # the closed forms take dv/dtheta = i pi (d/lambda) cos(theta) diag(idx) v
        theta, count, d, lam = 0.3, 7, 0.08, 0.2
        v = target_steering(theta, count, d, lam)
        taper = np.diag(centered_index(count).astype(float))
        expected = 1j * np.pi * (d / lam) * np.cos(theta) * (taper @ v)
        np.testing.assert_allclose(_central_difference(theta, count, d, lam), expected,
                                   rtol=1e-8, atol=1e-8)

    def test_orthogonality_to_response(self):
        # centroid referencing makes v_dot^H v exactly zero for any angle; the
        # angular derivative is a multiple of centered_index(count) * v
        rng = np.random.default_rng(2)
        for _ in range(1000):
            theta = rng.uniform(-np.pi / 2, np.pi / 2)
            count = int(rng.integers(1, 24))
            v = target_steering(theta, count, 0.1, 0.2)
            v_dot = centered_index(count) * v
            for prod in (v_dot.conj() @ v, v.conj() @ v_dot):
                assert abs(prod) < 1e-12 * count

    def test_taper_norm_closed_form(self):
        for k in range(2, 65):
            b = target_steering(0.4, k, 0.1, 0.2)
            assert np.linalg.norm(centered_index(k) * b) ** 2 == pytest.approx(
                (k ** 3 - k) / 3.0, rel=1e-12)

    def test_two_sensor_taper(self):
        np.testing.assert_allclose(centered_index(2), [-1.0, 1.0])


class TestCenteredIndex:
    def test_values(self):
        np.testing.assert_array_equal(centered_index(4), [-3, -1, 1, 3])
        np.testing.assert_array_equal(centered_index(1), [0])


class TestPathGain:
    def test_inverse_square_distance_in_amplitude(self):
        assert path_gain(40.0, 2.0, 0.2) == pytest.approx(
            path_gain(20.0, 2.0, 0.2) / 4.0, rel=1e-14)

    def test_reference_value(self):
        # frozen from a 60-digit evaluation of sqrt(l^2 k / (64 pi^3 d^4))
        assert path_gain(20.0, 10 ** 0.7, 0.2) == pytest.approx(
            2.5127842907266522e-05, rel=1e-14)


class TestLargeScalePathLoss:
    def test_reference_distance(self):
        assert large_scale_path_loss(1.0, 2.5, 1e-3) == 1e-3

    def test_sixty_meter_link(self):
        assert large_scale_path_loss(60.0, 2.5, 1e-3) == pytest.approx(
            1e-3 * 60.0 ** -2.5, rel=1e-15)

    def test_zero_exponent_is_flat(self):
        for d in (1.0, 7.0, 123.0):
            assert large_scale_path_loss(d, 0.0, 1e-3) == 1e-3

    def test_below_reference_warns_but_computes(self):
        with pytest.warns(UserWarning):
            value = large_scale_path_loss(0.5, 2.0, 1e-3)
        assert value == pytest.approx(1e-3 * 0.5 ** -2.0)


# each argument with the values its domain refuses; a path-loss exponent of
# 0 is a flat link, so alpha_d takes 0
_VALID_ARGS = {path_gain: (20.0, 2.0, 0.2), large_scale_path_loss: (60.0, 2.5, 1e-3),
               centered_index: (4,)}
_REFUSED = (math.nan, math.inf, 0.0, -5.0)
_CASES = [
    *[(path_gain, i, name, bad) for i, name in enumerate(("d_it", "kappa", "lambda_r"))
      for bad in _REFUSED],
    *[(large_scale_path_loss, i, name, bad) for i, name in enumerate(("d", "alpha_d", "c0"))
      for bad in _REFUSED if not (name == "alpha_d" and bad == 0.0)],
    *[(centered_index, 0, "count", bad) for bad in (0, 2.5, math.nan)],
]


@pytest.mark.parametrize("fn, pos, name, bad", _CASES,
                         ids=[f"{fn.__name__}-{name}-{bad}" for fn, _, name, bad in _CASES])
def test_argument_outside_its_domain_is_refused_by_name(fn, pos, name, bad):
    args = list(_VALID_ARGS[fn])
    args[pos] = bad
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        fn(*args)
