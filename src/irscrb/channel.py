"""Rician BS-to-IRS channel draws."""

from __future__ import annotations

import numpy as np

from .arrays import large_scale_path_loss
from .config import ChannelRealization, SystemConfig, make_rng

DRAW_FIELDS = ("M", "N", "d_bi", "c0", "alpha_bi", "rician_factor")


def rician_channel(config: SystemConfig, seed: int) -> ChannelRealization:
    """Draw the BS-IRS channel G = rho * (sqrt(b/(b+1)) + sqrt(1/(b+1)) * NLoS).

    ``rho**2`` is the large-scale gain of the BS-IRS link and the NLoS
    component has i.i.d. standard circular Gaussian entries.  The LoS
    component is the broadside dyad, all ones.  Its angles are not a
    parameter because no bound depends on them: a LoS ray off broadside is
    the broadside one rotated, G -> D1 G D2 with diagonal unitaries D1 (N)
    and D2 (M), that rotation leaves the NLoS law unchanged, and every
    bound absorbs it exactly (v -> D1 v, R_x -> D2^H R_x D2).  The draw is
    a pure function of ``seed`` and ``DRAW_FIELDS``: M, N, d_bi, c0,
    alpha_bi and the Rician factor.
    """
    rho = np.sqrt(large_scale_path_loss(config.d_bi, config.alpha_bi, config.c0))
    rng = make_rng(seed)
    nlos = (rng.standard_normal((config.N, config.M))
            + 1j * rng.standard_normal((config.N, config.M))) / np.sqrt(2.0)

    beta = config.rician_factor
    g = rho * (np.sqrt(beta / (beta + 1.0)) + np.sqrt(1.0 / (beta + 1.0)) * nlos)
    return ChannelRealization(G=g)
