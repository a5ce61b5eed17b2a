import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from irscrb.ao import ao_minimize_crb
from irscrb.arrays import large_scale_path_loss
from irscrb.channel import DRAW_FIELDS, channel_from_normals, rician_channel
from irscrb.config import SystemConfig, make_rng, point_scene
from irscrb.extended import crb_extended_iso, crb_extended_opt, crb_fully_passive_opt
from irscrb.pointcrb import crb_point_closed, single_antenna_optimum

from oracles import random_covariance, random_unit_profile


def _config(**kw):
    base = dict(M=3, N=5, K=2, T=8)
    base.update(kw)
    return SystemConfig(**base)


def test_los_only_limit():
    cfg = _config(rician_factor=1e9)
    ch = rician_channel(cfg, seed=4)
    rho = np.sqrt(large_scale_path_loss(cfg.d_bi, cfg.alpha_bi, cfg.c0))
    # the LoS factor is the broadside all-ones dyad
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


def test_draw_reads_exactly_its_fields():
    # the draw reads exactly DRAW_FIELDS; the broadside LoS dyad reads
    # neither the wavelength nor the spacing
    cfg = _config()
    g = rician_channel(cfg, seed=3).G
    read = dict(M=4, N=6, d_bi=70.0, c0=2e-3, alpha_bi=2.2, rician_factor=2.0)
    unread = dict(K=3, T=16, P0=2.0, wavelength=0.22, spacing=0.09, noise_power=1e-10,
                  d_it=30.0, rcs=2.0)
    assert tuple(read) == DRAW_FIELDS
    assert set(read) | set(unread) == {f.name for f in fields(SystemConfig)}
    for name, value in read.items():
        other = rician_channel(replace(cfg, **{name: value}), seed=3).G
        assert other.shape != g.shape or not np.array_equal(other, g), name
    for name, value in unread.items():
        assert np.array_equal(rician_channel(replace(cfg, **{name: value}), seed=3).G,
                              g), name


# SHA-256 of G.tobytes(); G.tobytes() carries no shape, so (4, 8) and (8, 4)
# hash alike and the shape is asserted on its own
_DRAW_SHA256 = {
    (4, 8, 0.0, 0): "f3a450f782b1f3422ef576f628875d58e5fc2829491da58ee38776f7ff665d94",
    (4, 8, 0.0, 2**63 - 1): "ca6d307b6e1868f30ac90fd3dabac1d70a3a29441c148c2120d4e113d0f289a0",
    (4, 8, 1e9, 0): "88943ef9ea3885ef9b17f62f136d3786b68bde8971d3d8b4b7ddcea1885b9dea",
    (4, 8, 1e9, 2**63 - 1): "cffa1690f35963fa5c6c5a67d159d7e9c92d6c642bf5937174028153ecb1db9e",
    (4, 8, 10 ** 0.5, 0): "e5f248f1f9c987ac769d07330f27cecb2bc6abcbb02f325f87e1b9f76048d968",
    (8, 4, 0.0, 0): "f3a450f782b1f3422ef576f628875d58e5fc2829491da58ee38776f7ff665d94",
    (8, 4, 1e9, 2**63 - 1): "cffa1690f35963fa5c6c5a67d159d7e9c92d6c642bf5937174028153ecb1db9e",
    (4, 480, 0.0, 0): "a130b82957e72149447b1963c3d5b63996f256b73c605a13bf2a7a3629fc406b",
    (4, 480, 0.0, 2**63 - 1): "1b4f65380159627f4ed931854e5d64e36cbd0f1f880c6f90355e77ffa7b780be",
    (4, 480, 1e9, 0): "4662eae375afba01cdc6a20edd36ee84f23a071535844332fd70a90b2e5e92b1",
    (4, 480, 1e9, 2**63 - 1): "49e77b6d663801074981d30fde96279458a532d5398195d04615cd28ef54d0a1",
}


@pytest.mark.parametrize("m, n, beta, seed", list(_DRAW_SHA256))
def test_draw_bytes_are_pinned(m, n, beta, seed):
    # golden rows pin draws only through the bounds, at 1e-9; this pins every bit
    g = rician_channel(SystemConfig(M=m, N=n, rician_factor=beta), seed).G
    assert g.shape == (n, m)
    assert hashlib.sha256(g.tobytes()).hexdigest() == _DRAW_SHA256[m, n, beta, seed]


@pytest.mark.parametrize("m, n", [(1, 1), (1, 8), (4, 8), (8, 4), (8, 32), (1, 480),
                                  (4, 480)])
@pytest.mark.parametrize("changed", [{}, {"d_bi": 35.0}, {"rician_factor": 0.0},
                                     {"rician_factor": 1e9},
                                     {"c0": 2e-3, "alpha_bi": 2.2}])
def test_draw_is_a_prefix_of_a_longer_stream(m, n, changed):
    # a sweep slices every row group's channels from one stream per trial,
    # drawn at the sweep's largest N * M
    cfg = SystemConfig(M=m, N=n, **changed)
    length = 2 * 480 * 8
    for seed in (0, 9, 2**63 - 1):
        g = channel_from_normals(cfg, make_rng(seed).standard_normal(length))
        fresh = rician_channel(cfg, seed).G
        assert g.shape == fresh.shape == (n, m) and g.tobytes() == fresh.tobytes()
    # a stack of streams gives the stack of draws
    streams = np.stack([make_rng(seed).standard_normal(length) for seed in range(3)])
    fresh = np.stack([rician_channel(cfg, seed).G for seed in range(3)])
    g = channel_from_normals(cfg, streams)
    assert g.shape == fresh.shape and g.tobytes() == fresh.tobytes()


class TestRotationInvariance:
    """A LoS ray off broadside is the broadside dyad rotated, G -> D1 G D2
    with diagonal unitaries D1 (N) and D2 (M).  The rotation leaves the NLoS
    law unchanged and every bound absorbs it exactly, which is why the draw
    has no LoS angles."""

    TOL = 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_point_bound(self, seed):
        cfg = SystemConfig(M=4, N=8, K=8)
        scene = point_scene(cfg, 0.7)
        rng = np.random.default_rng(seed)
        g = rician_channel(cfg, seed).G
        d1, d2 = random_unit_profile(rng, cfg.N), random_unit_profile(rng, cfg.M)
        r_x = random_covariance(rng, cfg.M, cfg.P0)
        v = random_unit_profile(rng, cfg.N)
        rotated = crb_point_closed(scene, d2.conj()[:, None] * r_x * d2, v,
                                   d1[:, None] * g * d2, cfg)
        assert rotated == pytest.approx(crb_point_closed(scene, r_x, d1 * v, g, cfg),
                                        rel=self.TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_extended_bounds(self, seed):
        cfg = SystemConfig(M=8, N=4, K=4)
        rng = np.random.default_rng(seed)
        g = rician_channel(cfg, seed).G
        g_r = rician_channel(SystemConfig(M=cfg.K, N=cfg.N), seed + 100).G.T
        d1, d2 = random_unit_profile(rng, cfg.N), random_unit_profile(rng, cfg.M)
        d3 = random_unit_profile(rng, cfg.K)
        g_rot = d1[:, None] * g * d2
        args = (cfg.P0, cfg.K, cfg.T, cfg.noise_power)
        for bound in (crb_extended_opt, crb_extended_iso):
            assert bound(g_rot, *args).crb == pytest.approx(bound(g, *args).crb,
                                                            rel=self.TOL)
        args = (cfg.P0, cfg.T, cfg.noise_power)
        assert crb_fully_passive_opt(g_rot, d3[:, None] * g_r * d1.conj(), *args) \
            == pytest.approx(crb_fully_passive_opt(g, g_r, *args), rel=self.TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_single_antenna_optimum(self, seed):
        cfg = SystemConfig(M=1, N=8, K=8)
        scene = point_scene(cfg, 0.7)
        rng = np.random.default_rng(seed)
        h = rician_channel(cfg, seed).G[:, 0]
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rotated = phase * random_unit_profile(rng, cfg.N) * h
        assert single_antenna_optimum(scene, rotated, cfg)[1] \
            == pytest.approx(single_antenna_optimum(scene, h, cfg)[1], rel=self.TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_optimizer(self, seed):
        cfg = SystemConfig(M=4, N=8, K=8)
        scene = point_scene(cfg, 0.7)
        rng = np.random.default_rng(seed)
        g = rician_channel(cfg, seed).G
        d1, d2 = random_unit_profile(rng, cfg.N), random_unit_profile(rng, cfg.M)
        base = ao_minimize_crb(scene, g, cfg, seed=seed)
        rotated = ao_minimize_crb(scene, d1[:, None] * g * d2, cfg, seed=seed)
        assert base.status == rotated.status == "certified"
        assert rotated.crb == pytest.approx(base.crb, rel=self.TOL)
