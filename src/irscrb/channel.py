"""Rician BS-to-IRS channel draws."""

from __future__ import annotations

import numpy as np

from .arrays import large_scale_path_loss
from .config import ChannelRealization, SystemConfig, make_rng

DRAW_FIELDS = ("M", "N", "d_bi", "c0", "alpha_bi", "rician_factor")


def channel_from_normals(config: SystemConfig, normals: np.ndarray) -> np.ndarray:
    """G [..., N, M] from standard normals [..., L] with L >= 2NM.

    The NLoS real parts are the first NM normals and the imaginary parts the
    next NM, each block in row-major order; the rest are not read.  So one
    stream of normals gives a trial's channel at every M and N up to its
    length, each draw a prefix of it.
    """
    n, m = config.N, config.M
    rho = np.sqrt(large_scale_path_loss(config.d_bi, config.alpha_bi, config.c0))
    shape = (*np.shape(normals)[:-1], n, m)
    nlos = (normals[..., :n * m].reshape(shape)
            + 1j * normals[..., n * m:2 * n * m].reshape(shape)) / np.sqrt(2.0)

    beta = config.rician_factor
    return rho * (np.sqrt(beta / (beta + 1.0)) + np.sqrt(1.0 / (beta + 1.0)) * nlos)


def rician_channel(config: SystemConfig, seed: int) -> ChannelRealization:
    """Draw the BS-IRS channel G = rho * (sqrt(b/(b+1)) + sqrt(1/(b+1)) * NLoS).

    ``rho**2`` is the large-scale gain of the BS-IRS link and the NLoS
    component has i.i.d. standard circular Gaussian entries.  The LoS
    component is the broadside dyad, all ones.  Its angles are not a
    parameter because no bound depends on them: a LoS ray off broadside is
    the broadside one rotated, G -> D1 G D2 with diagonal unitaries D1 (N)
    and D2 (M), that rotation leaves the NLoS law unchanged, and every
    bound absorbs it exactly (v -> D1 v, R_x -> D2^H R_x D2).  The draw is
    :func:`channel_from_normals` of the first 2NM normals of
    ``make_rng(seed)``, a pure function of ``seed`` and ``DRAW_FIELDS``:
    M, N, d_bi, c0, alpha_bi and the Rician factor.
    """
    normals = make_rng(seed).standard_normal(2 * config.N * config.M)
    return ChannelRealization(G=channel_from_normals(config, normals))
