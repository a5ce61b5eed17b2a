"""Uniform-linear-array responses, their derivatives and link gains.

The phase reference of every steering vector is the array centroid, so the
m-th entry (0-based) of a length-``count`` response in normalized direction
``u`` is exp(j * (2m - count + 1) * pi * u / 2).  Centering makes the
response and its angular derivative exactly orthogonal for every direction,
which the estimation bounds downstream rely on.
"""

from __future__ import annotations

import warnings

import numpy as np


def ula_steering(direction: float, count: int) -> np.ndarray:
    """Centered ULA response for a normalized direction.

    ``direction`` is the normalized spatial frequency (2 * spacing *
    sin(angle) / wavelength for a physical angle).  Entries are unit modulus.
    """
    return np.exp(1j * centered_index(count) * (np.pi * direction / 2.0))


def target_steering(theta: float, count: int, d_hat: float,
                    lambda_r: float) -> np.ndarray:
    """ULA response toward a physical angle ``theta`` (radians)."""
    return ula_steering(2.0 * d_hat * np.sin(theta) / lambda_r, count)


def steering_derivative(theta: float, count: int, d_hat: float,
                        lambda_r: float) -> np.ndarray:
    """Angular derivative of the centered response toward ``theta``:
    j * pi * (d_hat / lambda_r) * cos(theta) * centered_index(count) * v(theta).
    """
    v = target_steering(theta, count, d_hat, lambda_r)
    return 1j * np.pi * (d_hat / lambda_r) * np.cos(theta) * centered_index(count) * v


def centered_index(count: int) -> np.ndarray:
    """Centered element indices -(count-1), -(count-3), ..., count-1."""
    if count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    return 2 * np.arange(count) - count + 1


def path_gain(d_it: float, kappa: float, lambda_r: float) -> float:
    """Round-trip amplitude gain of the IRS-target-sensor hop.

    sqrt(lambda^2 * kappa / (64 * pi^3 * d_it^4)): radar-equation amplitude
    for a scatterer of cross section ``kappa`` at distance ``d_it``.
    """
    if d_it <= 0 or kappa <= 0 or lambda_r <= 0:
        raise ValueError("d_it, kappa and lambda_r must all be positive")
    return float(np.sqrt(lambda_r ** 2 * kappa / (64.0 * np.pi ** 3 * d_it ** 4)))


def large_scale_path_loss(d: float, alpha_d: float, c0: float) -> float:
    """Linear power gain c0 * d^{-alpha_d} relative to the 1 m reference."""
    if d < 1.0:
        warnings.warn(
            f"distance {d} m is below the 1 m reference; extrapolating",
            UserWarning,
            stacklevel=2,
        )
    return float(c0 * d ** (-alpha_d))
