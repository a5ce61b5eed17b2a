"""System parameters, the one domain rule of every numeric input (``check``),
scene descriptions and channel containers.  It imports no other irscrb module.

All quantities are stored in linear SI units (watts, meters, radians).
Conversion helpers for the dB-style units used in configuration files live
at the bottom of this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class SpacingWarning(UserWarning):
    """Raised when an array spacing exceeds half a wavelength."""


class Domain(NamedTuple):
    """The values one numeric input may take; ``check`` refuses the rest."""

    says: str = "finite"        # the refusal reads "{key} must be {says}"
    low: float = -math.inf      # least value taken
    high: float = math.inf      # greatest value taken
    whole: bool = False         # an int, not a float with a whole value


_POSITIVE = Domain("strictly positive", math.ulp(0.0))     # the least positive float
# every numeric input: the SystemConfig and SweepSpec fields, the scene's
# theta, a config file's theta_deg and the step of an exhaustive allocation
DOMAINS = {
    **dict.fromkeys(("M", "N", "T"), Domain("positive", 1, whole=True)),
    "K": Domain("at least 2", 2, whole=True),
    **dict.fromkeys(("P0", "wavelength", "spacing", "noise_power", "d_bi", "d_it", "c0",
                     "rcs", "q_tot", "w_i", "w_s", "step"), _POSITIVE),
    # a negative path-loss exponent would gain with distance
    **dict.fromkeys(("alpha_bi", "rician_factor"), Domain("nonnegative", 0.0)),
    "values": Domain(),
    "theta": Domain("within +-pi/2", -math.pi / 2, math.pi / 2),
    # +-90 degrees is endfire, where the DoA bound is finite only by rounding
    "theta_deg": Domain("within +-89 degrees", -89.0, 89.0),
    **dict.fromkeys(("trials", "alpha_draws"), Domain("at least 1", 1, whole=True)),
    "seed": Domain("nonnegative", 0, whole=True),
}


def check(key: str, value, domain: str | None = None):
    """``value`` if it lies in ``DOMAINS[domain or key]``, else a
    ``ValueError`` naming ``key``; NaN fails the finiteness test first."""
    dom = DOMAINS[domain or key]
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer or math.isfinite(value)):
        raise ValueError(f"{key} must be finite, got {value}")
    if dom.whole and not integer:
        raise ValueError(f"{key} must be an integer, i.e. a whole number, got {value!r}")
    if not dom.low <= value <= dom.high:
        raise ValueError(f"{key} must be {dom.says}, got {value}")
    return value


@dataclass(frozen=True)
class SystemConfig:
    """Physical and signalling parameters of the sensing setup."""

    M: int = 4                  # BS transmit antennas
    N: int = 4                  # IRS reflecting elements
    K: int = 4                  # IRS active sensors (>= 2)
    T: int = 64                 # probing symbols per coherent block
    P0: float = 1.0             # W, transmit power budget
    wavelength: float = 0.2     # m, carrier wavelength
    spacing: float | None = None  # m, shared inter-element/inter-sensor spacing;
                                  # wavelength / 2 when not given
    noise_power: float = 1e-12  # W, sensor noise power
    d_bi: float = 60.0          # m, BS-IRS distance
    d_it: float = 20.0          # m, IRS-target distance
    c0: float = 1e-3            # linear power gain at the 1 m reference distance
    alpha_bi: float = 2.5       # BS-IRS path-loss exponent
    rician_factor: float = 10 ** 0.5  # linear Rician factor of the BS-IRS link
    rcs: float = 10 ** 0.7      # m^2, target radar cross section

    def __post_init__(self):
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2)
        for name in self.__dataclass_fields__:
            check(name, getattr(self, name))
        if not 0.0 < (gain := link_gain(self.d_bi, self.alpha_bi, self.c0)) < math.inf:
            raise ValueError(f"the BS-IRS gain c0 * d_bi^-alpha_bi = {self.c0:g} * {self.d_bi:g}"
                             f"^-{self.alpha_bi:g} must be positive and finite, got {gain:g}")
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

    ``alpha`` is the round-trip coefficient, the product of a small-scale
    draw and the deterministic round-trip amplitude gain.  Use
    :func:`point_scene` to build a scene consistent with a config.
    """

    theta: float                # rad, DoA seen from the IRS
    alpha: complex              # round-trip channel coefficient

    def __post_init__(self):
        check("theta", self.theta)


def link_gain(d: float, alpha: float, c0: float) -> float:
    """Power gain c0 * d^-alpha relative to the 1 m reference, inf past the float range."""
    return c0 * _power(d, -alpha)


def path_gain(d_it: float, kappa: float, lambda_r: float) -> float:
    """Round-trip amplitude gain of the IRS-target-sensor hop.

    sqrt(lambda^2 * kappa / (64 * pi^3 * d_it^4)): radar-equation amplitude
    for a scatterer of cross section ``kappa`` at distance ``d_it``.
    """
    check("d_it", d_it)
    check("kappa", kappa, "rcs")
    check("lambda_r", lambda_r, "wavelength")
    return float(np.sqrt(lambda_r ** 2 * kappa / (64.0 * np.pi ** 3 * d_it ** 4)))


def point_scene(config: SystemConfig, theta: float) -> PointTargetScene:
    """Build a unit-draw scene (alpha0 = 1) whose coefficient is the
    round-trip gain of the config geometry."""
    return PointTargetScene(theta=theta,
                            alpha=complex(path_gain(config.d_it, config.rcs, config.wavelength)))


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the BS-to-IRS channel."""

    G: np.ndarray               # [N, M] complex

    def __post_init__(self):
        if self.G.ndim != 2:
            raise ValueError("G must be a matrix")


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

def _power(base: float, exponent: float) -> float:
    """base ** exponent, inf past the float range for a check to refuse."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def db_to_linear(value_db: float) -> float:
    """Power ratio in dB to linear."""
    return _power(10.0, value_db / 10.0)


def dbm_to_watt(value_dbm: float) -> float:
    return _power(10.0, (value_dbm - 30.0) / 10.0)
