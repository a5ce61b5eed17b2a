"""Uniform-linear-array responses, centered element indices and the BS-IRS
link gain.

The phase reference of every steering vector is the array centroid, so the
m-th entry (0-based) of a length-``count`` response in normalized direction
``u`` is exp(j * (2m - count + 1) * pi * u / 2).  Centering makes the
response and its angular derivative exactly orthogonal for every direction,
which the estimation bounds downstream rely on.  Counts and link-gain
arguments pass ``config.check`` in the domains of the fields they stand for.
"""

from __future__ import annotations

import warnings

import numpy as np

from .config import check, link_gain


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


def centered_index(count: int) -> np.ndarray:
    """Centered element indices -(count-1), -(count-3), ..., count-1."""
    check("count", count, "N")
    return 2 * np.arange(count) - count + 1


def large_scale_path_loss(d: float, alpha_d: float, c0: float) -> float:
    """``config.link_gain``: power gain c0 * d^{-alpha_d} relative to the 1 m reference."""
    check("d", d, "d_bi")
    check("alpha_d", alpha_d, "alpha_bi")
    check("c0", c0)
    if d < 1.0:
        warnings.warn(
            f"distance {d} m is below the 1 m reference; extrapolating",
            UserWarning,
            stacklevel=2,
        )
    return float(link_gain(d, alpha_d, c0))
