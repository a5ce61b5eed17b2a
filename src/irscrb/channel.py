"""Rician BS-to-IRS channel draws."""

from __future__ import annotations

import numpy as np

from .arrays import large_scale_path_loss, target_steering
from .config import ChannelRealization, SystemConfig, make_rng

DRAW_FIELDS = ("M", "N", "wavelength", "spacing", "d_bi", "c0", "alpha_bi",
               "rician_factor", "los_aod", "los_aoa")


def rician_channel(config: SystemConfig, seed: int) -> ChannelRealization:
    """Draw the BS-IRS channel G = rho * (sqrt(b/(b+1)) * LoS + sqrt(1/(b+1)) * NLoS).

    ``rho**2`` is the large-scale gain of the BS-IRS link, the LoS component
    is the rank-one outer product of the IRS arrival and BS departure
    responses (angles from the config, zero by default), and the NLoS
    component has i.i.d. standard circular Gaussian entries.  The draw is a
    pure function of ``seed`` and ``DRAW_FIELDS``: M, N, the wavelength and
    spacing, d_bi, c0, alpha_bi, the Rician factor and the LoS angles.
    """
    rho = np.sqrt(large_scale_path_loss(config.d_bi, config.alpha_bi, config.c0))
    a_irs = target_steering(config.los_aoa, config.N, config.spacing, config.wavelength)
    a_bs = target_steering(config.los_aod, config.M, config.spacing, config.wavelength)
    los = np.outer(a_irs, a_bs)

    rng = make_rng(seed)
    nlos = (rng.standard_normal((config.N, config.M))
            + 1j * rng.standard_normal((config.N, config.M))) / np.sqrt(2.0)

    beta = config.rician_factor
    g = rho * (np.sqrt(beta / (beta + 1.0)) * los
               + np.sqrt(1.0 / (beta + 1.0)) * nlos)
    return ChannelRealization(G=g)
