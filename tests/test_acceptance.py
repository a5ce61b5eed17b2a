"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including wall times against the stated budgets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from irscrb.allocation import (allocate_exhaustive, allocate_optimal,
                               allocate_suboptimal)
from irscrb.ao import (ao_minimize_crb, gaussian_randomization,
                       irs_subproblem, sdr_objective, transmit_subproblem)
from irscrb.arrays import target_steering
from irscrb.channel import rician_channel
from irscrb.cli import TRENDS
from irscrb.config import (PointTargetScene, SystemConfig, derive_seed, make_rng,
                           point_scene)
from irscrb.conic import ConicProgram, solve
from irscrb.extended import (crb_extended, crb_extended_iso, crb_extended_opt,
                             crb_fully_passive, gap_db, optimal_transmit_extended,
                             semi_passive_preferred)
from irscrb.pointcrb import _info_kernels, crb_point_closed, single_antenna_optimum
from irscrb.sweep import _CHANNEL, SCHEMES, SweepSpec, reference_config, run_sweep

from oracles import (fd_fim_point, exhaustive_phase_grid, fim_extended, fim_point,
                     projected_gradient_extended, random_covariance,
                     random_unit_profile)


def _report(number: int, detail: str, elapsed: float, budget: float) -> None:
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")
    assert elapsed < budget


# -- shared heavy runs (also audited by criterion 10) -------------------------

@pytest.fixture(scope="module")
def single_antenna_runs():
    runs = []
    for seed in range(20):
        cfg = SystemConfig(M=1, N=6, K=4, T=64)
        scene = point_scene(cfg, np.deg2rad(60.0))
        ch = rician_channel(cfg, seed=seed)
        res = ao_minimize_crb(scene, ch.G, cfg, seed=seed)
        phases, closed = single_antenna_optimum(scene, ch.G[:, 0], cfg)
        eval_at_optimum = crb_point_closed(
            scene, np.array([[cfg.P0]], dtype=complex), np.exp(1j * phases),
            ch.G, cfg)
        runs.append((res, closed, eval_at_optimum))
    return runs


@pytest.fixture(scope="module")
def ao_instances():
    runs = []
    for size in (4, 8):
        for seed in range(10):
            cfg = SystemConfig(M=size, N=size, K=size, T=64)
            scene = point_scene(cfg, np.deg2rad(60.0))
            ch = rician_channel(cfg, seed=100 + seed)
            res = ao_minimize_crb(scene, ch.G, cfg, seed=seed)
            rng = make_rng(7000 + seed, size)
            v_rand = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
            a = target_steering(scene.theta, size, cfg.spacing, cfg.wavelength)
            r_rand, sol = transmit_subproblem(np.outer(v_rand, v_rand.conj()),
                                              a, ch.G, size, cfg.P0)
            crb_rand = crb_point_closed(scene, r_rand, v_rand, ch.G, cfg)
            baseline_kkt = sol.kkt.max()
            runs.append((res, crb_rand, baseline_kkt))
    return runs


@pytest.fixture(scope="module")
def sdr_probes():
    probes = []
    for seed in range(3):
        rng = np.random.default_rng(500 + seed)
        g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        theta = float(rng.uniform(-1.0, 1.0))
        a = target_steering(theta, 4, 0.1, 0.2)
        r_x = random_covariance(rng, 3, 1.0)
        lifted, sol = irs_subproblem(_info_kernels(g, r_x, a, 4))
        kkt = sol.kkt.max()

        def objective(v, r_x=r_x, a=a, g=g):
            return sdr_objective(r_x, np.outer(v, v.conj()), a, g, 4)

        grid_best = exhaustive_phase_grid(objective, 4, 16)
        profile = gaussian_randomization(lifted, _info_kernels(g, r_x, a, 4),
                                         samples=5000, seed=seed)
        probes.append((objective(profile.v), grid_best, kkt))
    return probes


# -- criteria -----------------------------------------------------------------

def test_criterion_1_fim_consistency():
    tic = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_closed, worst_fd = 0.0, 0.0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        k = int(rng.integers(2, 7))
        cfg = SystemConfig(M=m, N=n, K=k, T=8)
        g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        r_x = random_covariance(rng, m, cfg.P0)
        v = random_unit_profile(rng, n)
        alpha = complex(rng.standard_normal() + 1j * rng.standard_normal())
        scene = PointTargetScene(theta=float(rng.uniform(-1.2, 1.2)), alpha=alpha)

        fim = fim_point(scene, r_x, v, g, cfg)
        closed = crb_point_closed(scene, r_x, v, g, cfg)
        inverse = np.linalg.inv(fim)[0, 0]
        worst_closed = max(worst_closed, abs(closed - inverse) / abs(inverse))

        fd = fd_fim_point(scene.theta, scene.alpha, r_x, v, g, k, cfg.T,
                          cfg.noise_power, cfg.spacing, cfg.wavelength)
        worst_fd = max(worst_fd,
                       np.linalg.norm(fim - fd) / np.linalg.norm(fim))
    assert worst_closed <= 1e-9
    assert worst_fd <= 1e-6
    _report(1, f"closed-vs-inverse {worst_closed:.2e} (<=1e-9), "
               f"fim-vs-finite-difference {worst_fd:.2e} (<=1e-6), "
               f"200 instances", time.perf_counter() - tic, 30.0)


def test_criterion_2_single_antenna_optimum(single_antenna_runs):
    tic = time.perf_counter()
    worst_ao, worst_eval = 0.0, 0.0
    for res, closed, eval_at_optimum in single_antenna_runs:
        worst_ao = max(worst_ao, abs(res.crb - closed) / closed)
        worst_eval = max(worst_eval, abs(eval_at_optimum - closed) / closed)
    assert worst_ao <= 0.01
    assert worst_eval <= 1e-9
    _report(2, f"AO vs closed form {worst_ao:.2e} (<=1e-2), closed form vs "
               f"general bound {worst_eval:.2e} (<=1e-9), 20 channels",
            time.perf_counter() - tic, 120.0)


def test_criterion_3_allocation():
    tic = time.perf_counter()
    worst_gap = 0.0
    for q_tot in (400.0, 600.0):
        for w_i in (0.2, 0.5, 1.0, 2.0):
            opt = allocate_optimal(q_tot, w_i, 1.0)
            sub = allocate_suboptimal(q_tot, w_i, 1.0)
            ex = allocate_exhaustive(q_tot, w_i, 1.0, 0.25)
            assert opt.objective >= ex.objective * (1.0 - 0.005)
            assert sub.objective >= opt.objective * (1.0 - 0.02)
            worst_gap = max(worst_gap, 1.0 - sub.objective / opt.objective)
    for q_tot in (400.0, 600.0):
        r = allocate_optimal(q_tot, 1.0, 1.0)
        assert r.k_cont > r.n_cont
    _report(3, f"optimal >= exhaustive-0.5%, suboptimal gap {worst_gap:.2e} "
               f"(<=2e-2), sensors dominate at unit weights",
            time.perf_counter() - tic, 60.0)


def test_criterion_4_ao_monotone_and_dominant(ao_instances):
    tic = time.perf_counter()
    for res, crb_rand, _ in ao_instances:
        trace = res.objective_trace
        assert all(b >= a * (1.0 - 1e-9) for a, b in zip(trace, trace[1:]))
        assert res.crb <= crb_rand
    _report(4, f"objective trace non-decreasing and AO <= random-phase "
               f"baseline on {len(ao_instances)} paired instances",
            time.perf_counter() - tic, 600.0)


def test_criterion_5_sdr_tightness(sdr_probes):
    tic = time.perf_counter()
    worst = 1.0
    for rand_best, grid_best, _ in sdr_probes:
        assert rand_best >= grid_best * 0.97
        worst = min(worst, rand_best / grid_best)
    _report(5, f"best-of-5000 randomization vs 16-level grid ratio "
               f"{worst:.4f} (>=0.97)", time.perf_counter() - tic, 300.0)


def test_criterion_6_extended_closed_forms():
    tic = time.perf_counter()
    rng = np.random.default_rng(6)
    worst_pair = 0.0
    count = 0
    for n in (2, 4, 6):
        for _ in (range(34) if n < 6 else range(32)):
            g = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
            closed = crb_extended_opt(g, 1.0, 4, 64, 1e-3).crb
            built = crb_extended(optimal_transmit_extended(g, 1.0),
                                 g, 4, 64, 1e-3).crb
            worst_pair = max(worst_pair, abs(closed - built) / closed)
            count += 1
    assert count == 100 and worst_pair <= 1e-9

    worst_pg = 0.0
    for seed in range(3):
        g = (np.random.default_rng(60 + seed).standard_normal((4, 6))
             + 1j * np.random.default_rng(600 + seed).standard_normal((4, 6)))
        closed = crb_extended_opt(g, 1.0, 4, 64, 1e-3).crb
        r_pg = projected_gradient_extended(g, 1.0)
        pg = crb_extended(r_pg, g, 4, 64, 1e-3).crb
        worst_pg = max(worst_pg, abs(closed - pg) / closed)
    assert worst_pg <= 1e-5

    g = np.random.default_rng(61).standard_normal((3, 6)) \
        + 1j * np.random.default_rng(62).standard_normal((3, 6))
    ref = gap_db(g)
    for p0 in (0.01, 0.1, 1.0):
        for k in (4, 8, 16):
            opt = crb_extended_opt(g, p0, k, 64, 1e-3).crb
            iso = crb_extended_iso(g, p0, k, 64, 1e-3).crb
            assert 10 * np.log10(iso / opt) == pytest.approx(ref, abs=1e-9)
    u, _ = np.linalg.qr(np.random.default_rng(63).standard_normal((3, 3)))
    q, _ = np.linalg.qr(np.random.default_rng(64).standard_normal((6, 6)))
    flat = u @ np.hstack([2.0 * np.eye(3), np.zeros((3, 3))]) @ q.T
    assert gap_db(flat) == pytest.approx(10 * np.log10(2.0), abs=1e-9)
    _report(6, f"closed vs constructive {worst_pair:.2e} (<=1e-9) on 100 "
               f"channels, vs projected gradient {worst_pg:.2e} (<=1e-5), "
               f"gap power/sensor-invariant and 3.0103 dB at doubled antennas",
            time.perf_counter() - tic, 120.0)


def test_criterion_7_phase_independence_and_estimability():
    tic = time.perf_counter()
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    r_x = random_covariance(rng, 6, 1.0)
    base = crb_extended(r_x, g, 4, 64, 1e-3).crb
    worst = 0.0
    for _ in range(50):
        v = random_unit_profile(rng, 4)
        phi_g = v[:, None] * g
        explicit = 1e-3 * 4 / 64 * np.trace(
            np.linalg.inv(phi_g @ r_x.conj().T @ phi_g.conj().T)).real
        worst = max(worst, abs(explicit - base) / base)
    assert worst <= 1e-10

    deficient = np.ones((4, 6), dtype=complex)
    report = crb_extended(r_x, deficient, 4, 64, 1e-3)
    assert np.isinf(report.crb) and report.rank_deficiency == 3
    _report(7, f"profile independence {worst:.2e} (<=1e-10) over 50 "
               f"profiles; rank-deficient channel reports the infinite bound",
            time.perf_counter() - tic, 60.0)


def test_criterion_8_fully_passive_comparison():
    tic = time.perf_counter()
    rng = np.random.default_rng(8)
    disagreements = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = n + int(rng.integers(1, 4))
        k = int(rng.integers(2, 9))
        g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        scale = float(rng.uniform(0.2, 4.0))
        g_r = scale * (rng.standard_normal((n + 1, n))
                       + 1j * rng.standard_normal((n + 1, n)))
        r_x = random_covariance(rng, m, 1.0)
        semi = crb_extended(r_x, g, k, 64, 1e-3).crb
        full = crb_fully_passive(r_x, g, g_r, 64, 1e-3)
        if semi_passive_preferred(k, g_r) != (semi < full):
            disagreements += 1
    assert disagreements == 0
    _report(8, "sensor-count rule predicts the bound ordering on 100 "
               "instances with zero disagreements",
            time.perf_counter() - tic, 60.0)


def test_criterion_9_trend_suite():
    tic = time.perf_counter()
    theta = np.deg2rad(60.0)
    base = reference_config(M=8, N=8, K=8)

    def crbs(vary, values, scheme, cfg=base, trials=3):
        spec = SweepSpec(base=cfg, theta=theta, vary=vary, values=values,
                         scheme=scheme, trials=trials, seed=9,
                         alpha_draws=50)
        return np.array([rec.crb_mean for rec in run_sweep(spec)])

    # power slope on the log-log axis
    closed = crbs("P0", (10.0, 20.0, 30.0), "single_antenna_closed",
                  cfg=reference_config(M=1, N=8, K=8))
    slopes = np.diff(10.0 * np.log10(closed)) / 10.0
    assert np.all(np.abs(slopes + 1.0) <= 1e-3)
    ao = crbs("P0", (20.0, 25.0, 30.0), "proposed_ao")
    ao_slopes = np.diff(10.0 * np.log10(ao)) / 5.0
    assert np.all(np.abs(ao_slopes + 1.0) <= 0.05)

    # the shared trend table: point bound falls with power, antennas,
    # elements and sensors; extended bound grows with sensors and elements and
    # falls with antennas and power
    trend_crbs = {}
    for trend in TRENDS:
        scheme = trend.scheme or "proposed_ao"
        vals = crbs(trend.vary, trend.values, scheme, cfg=replace(base, **trend.overrides),
                    trials=2 if SCHEMES[scheme].target == "extended" else 3)
        sign = -1.0 if trend.direction == "down" else 1.0
        assert np.all(sign * np.diff(vals) > 0.0), (trend.label, vals)
        trend_crbs[trend.label] = vals

    # extended bound: linear in sensors with zero intercept.  The sweep
    # scales one evaluation per trial by K, so the linearity is checked on
    # the inverse of the dense information matrix at each K, on the sweep's
    # channels, and the sweep rows are checked against it.
    trend = next(t for t in TRENDS if t.label == "extended crb vs K")
    cfg = replace(base, **trend.overrides)
    dense = np.zeros(len(trend.values))
    for trial in range(2):          # the two trials of an extended trend
        g = rician_channel(cfg, seed=derive_seed(9, trial, _CHANNEL)).G
        r_x = optimal_transmit_extended(g, cfg.P0)
        dense += [np.trace(np.linalg.inv(fim_extended(
            r_x, np.ones(cfg.N), g, k, cfg.T, cfg.noise_power))) for k in trend.values]
    dense /= 2
    ratios = dense / np.array([4.0, 8.0, 16.0])
    assert np.max(np.abs(ratios - ratios[0])) <= 1e-9 * ratios[0]
    rows = trend_crbs[trend.label]
    assert np.all(np.abs(rows - dense) <= 1e-9 * dense)
    _report(9, f"power slope {slopes.mean():+.6f} (closed) / "
               f"{ao_slopes.mean():+.4f} (AO); {len(TRENDS)} trends of the "
               f"selftest table strictly monotone; extended bound linear in K",
            time.perf_counter() - tic, 1200.0)


def test_criterion_10_conic_solver(single_antenna_runs, ao_instances,
                                   sdr_probes):
    tic = time.perf_counter()
    rng = np.random.default_rng(10)
    worst_eig = 0.0
    for _ in range(10):
        c = rng.standard_normal((5, 5))
        c = (c + c.T) / 2.0
        sol = solve(ConicProgram(c, np.eye(5)[None], [1.0]), tol=1e-9)
        assert sol.status == "optimal"
        worst_eig = max(worst_eig,
                        abs(sol.objective - np.linalg.eigvalsh(c).min()))
    assert worst_eig <= 1e-8

    residuals = [res.solver_residual_max for res, _, _ in single_antenna_runs]
    residuals += [res.solver_residual_max for res, _, _ in ao_instances]
    residuals += [baseline_kkt for _, _, baseline_kkt in ao_instances]
    residuals += [kkt for _, _, kkt in sdr_probes]
    worst_kkt = max(residuals)
    assert worst_kkt <= 1e-8
    _report(10, f"eigenvalue-SDP error {worst_eig:.2e} (<=1e-8); worst KKT "
                f"residual over criteria 2-5 subproblems {worst_kkt:.2e} "
                f"(<=1e-8)", time.perf_counter() - tic, 120.0)
