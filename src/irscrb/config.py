"""System parameters, scene descriptions and channel containers.

All quantities are stored in linear SI units (watts, meters, radians).
Conversion helpers for the dB-style units used in configuration files live
at the bottom of this module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


class SpacingWarning(UserWarning):
    """Raised when an array spacing exceeds half a wavelength."""


@dataclass(frozen=True)
class SystemConfig:
    """Physical and signalling parameters of the sensing setup."""

    M: int = 4                  # BS transmit antennas
    N: int = 4                  # IRS reflecting elements
    K: int = 4                  # IRS active sensors (>= 2)
    T: int = 64                 # probing symbols per coherent block
    P0: float = 1.0             # W, transmit power budget
    wavelength: float = 0.2     # m, carrier wavelength
    spacing: float = 0.1        # m, shared inter-element/inter-sensor spacing
    noise_power: float = 1e-12  # W, sensor noise power
    d_bi: float = 60.0          # m, BS-IRS distance
    d_it: float = 20.0          # m, IRS-target distance
    c0: float = 1e-3            # linear power gain at the 1 m reference distance
    alpha_bi: float = 2.5       # BS-IRS path-loss exponent
    rician_factor: float = 10 ** 0.5  # linear Rician factor of the BS-IRS link
    rcs: float = 10 ** 0.7      # m^2, target radar cross section
    los_aod: float = 0.0        # rad, departure angle of the BS-IRS LoS ray
    los_aoa: float = 0.0        # rad, arrival angle of the BS-IRS LoS ray

    def __post_init__(self):
        for name in ("M", "N", "K", "T"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.K < 2:
            raise ValueError(f"K must be at least 2, got {self.K}")
        for name in ("P0", "wavelength", "spacing", "noise_power", "d_bi",
                     "d_it", "c0", "rcs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.rician_factor < 0:
            raise ValueError("rician_factor must be nonnegative")
        if self.spacing_warning:
            warnings.warn(
                f"spacing {self.spacing} m exceeds half the wavelength "
                f"({self.wavelength / 2} m); grating lobes possible",
                SpacingWarning,
                stacklevel=2,
            )

    @property
    def spacing_warning(self) -> bool:
        """True when the spacing violates the half-wavelength rule."""
        return self.spacing > self.wavelength / 2


@dataclass(frozen=True)
class PointTargetScene:
    """A single point scatterer described by its DoA and channel coefficient.

    ``alpha`` is the round-trip coefficient, the product of the small-scale
    draw ``alpha0`` and the deterministic round-trip amplitude gain.  Use
    :func:`point_scene` to build a scene consistent with a config.
    """

    theta: float                # rad, DoA seen from the IRS
    alpha: complex              # round-trip channel coefficient
    alpha0: complex = 1.0 + 0j  # small-scale fading draw, CN(0, 1)

    def __post_init__(self):
        if not abs(self.theta) <= np.pi / 2:
            raise ValueError(
                f"theta must lie in [-pi/2, pi/2] (got {self.theta}); the "
                f"DoA bound is infinite at the endfire endpoints"
            )


def point_scene(config: SystemConfig, theta: float,
                alpha0: complex = 1.0 + 0j) -> PointTargetScene:
    """Build a scene whose coefficient matches the config geometry."""
    from .arrays import path_gain

    beta0 = path_gain(config.d_it, config.rcs, config.wavelength)
    return PointTargetScene(theta=theta, alpha=alpha0 * beta0, alpha0=alpha0)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the BS-to-IRS channel.

    ``h_bi`` is only populated for a single-antenna BS, where it equals the
    single column of ``G``.
    """

    G: np.ndarray               # [N, M] complex
    seed: int
    h_bi: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.G.ndim != 2:
            raise ValueError("G must be a matrix")
        if self.G.shape[1] == 1:
            if self.h_bi is None:
                object.__setattr__(self, "h_bi", self.G[:, 0].copy())
            elif not np.array_equal(self.h_bi, self.G[:, 0]):
                raise ValueError("h_bi must equal the single column of G")
        elif self.h_bi is not None:
            raise ValueError("h_bi is only defined for a single-antenna BS")


def _seed_sequence(seed: int, stream: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for the given seed and stream indices.

    Every random draw in the library goes through this helper (or
    :func:`derive_seed`) so that each (seed, stream) pair owns an
    independent, reproducible stream; there is no hidden global state.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, stream)))


def derive_seed(seed: int, *stream: int) -> int:
    """64-bit integer seed of the (seed, stream) pair, for seeded callees."""
    return int(_seed_sequence(seed, stream).generate_state(1, np.uint64)[0])


# -- unit conversions --------------------------------------------------------

def db_to_linear(value_db: float) -> float:
    """Power ratio in dB to linear."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    return 10.0 * np.log10(value)


def dbm_to_watt(value_dbm: float) -> float:
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def watt_to_dbm(value: float) -> float:
    return 10.0 * np.log10(value) + 30.0
