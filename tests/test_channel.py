from dataclasses import fields, replace

import numpy as np
import pytest

from irscrb.arrays import large_scale_path_loss
from irscrb.channel import DRAW_FIELDS, rician_channel
from irscrb.config import SystemConfig


def _config(**kw):
    base = dict(M=3, N=5, K=2, T=8)
    base.update(kw)
    return SystemConfig(**base)


def test_los_only_limit():
    cfg = _config(rician_factor=1e9)
    ch = rician_channel(cfg, seed=4)
    rho = np.sqrt(large_scale_path_loss(cfg.d_bi, cfg.alpha_bi, cfg.c0))
    # default LoS angles are zero, so the LoS factor is the all-ones dyad
    np.testing.assert_allclose(ch.G / rho, np.ones((cfg.N, cfg.M)), atol=1e-4)


def test_nlos_variance_monte_carlo():
    # with no LoS power, entries are CN(0, rho^2); pool entries across draws
    cfg = _config(rician_factor=0.0)
    rho2 = large_scale_path_loss(cfg.d_bi, cfg.alpha_bi, cfg.c0)
    draws = 7000  # 7000 * 15 entries > 1e5 samples
    entries = np.concatenate([
        rician_channel(cfg, seed=s).G.ravel() for s in range(draws)
    ])
    sample_var = np.mean(np.abs(entries) ** 2)
    assert sample_var == pytest.approx(rho2, rel=0.02)


def test_same_seed_bitwise_identical():
    cfg = _config()
    g1 = rician_channel(cfg, seed=123).G
    g2 = rician_channel(cfg, seed=123).G
    assert np.array_equal(g1, g2)


def test_different_seeds_differ():
    cfg = _config()
    assert not np.array_equal(rician_channel(cfg, 1).G, rician_channel(cfg, 2).G)


def test_single_antenna_column_alias():
    cfg = _config(M=1)
    ch = rician_channel(cfg, seed=9)
    assert ch.h_bi is not None
    np.testing.assert_array_equal(ch.h_bi, ch.G[:, 0])


def test_multi_antenna_has_no_column_alias():
    ch = rician_channel(_config(M=2), seed=9)
    assert ch.h_bi is None


def test_los_angles_shift_the_dyad():
    cfg = _config(rician_factor=1e9, los_aoa=0.3, los_aod=-0.2)
    ch = rician_channel(cfg, seed=4)
    assert abs(ch.G[0, 0] / ch.G[1, 1]) == pytest.approx(1.0, rel=1e-3)
    assert not np.allclose(ch.G[0, 0], ch.G[1, 0], atol=1e-12)


def test_draw_reads_exactly_its_fields():
    # a sweep reuses one draw across configs equal on DRAW_FIELDS; off
    # broadside, the LoS dyad depends on the wavelength and the spacing
    cfg = _config(los_aod=0.3, los_aoa=-0.2)
    g = rician_channel(cfg, seed=3).G
    read = dict(M=4, N=6, wavelength=0.22, spacing=0.09, d_bi=70.0, c0=2e-3,
                alpha_bi=2.2, rician_factor=2.0, los_aod=0.1, los_aoa=0.4)
    unread = dict(K=3, T=16, P0=2.0, noise_power=1e-10, d_it=30.0, rcs=2.0)
    assert tuple(read) == DRAW_FIELDS
    assert set(read) | set(unread) == {f.name for f in fields(SystemConfig)}
    for name, value in read.items():
        other = rician_channel(replace(cfg, **{name: value}), seed=3).G
        assert other.shape != g.shape or not np.array_equal(other, g), name
    for name, value in unread.items():
        assert np.array_equal(rician_channel(replace(cfg, **{name: value}), seed=3).G,
                              g), name
