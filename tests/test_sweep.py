import logging
import re
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import irscrb.ao
import irscrb.sweep
from irscrb.ao import RANDOMIZATION_SAMPLES, SubproblemError, _top_phases, phase_ascent
from irscrb.arrays import target_steering
from irscrb.channel import rician_channel
from irscrb.config import SystemConfig, dbm_to_watt, derive_seed, point_scene
from irscrb.extended import EstimabilityError, crb_extended, optimal_transmit_extended
from irscrb.pointcrb import _info_kernels, crb_point_closed
from irscrb.sweep import (_CHANNEL, _RANDOMIZE, SCHEMES, Scheme,
                          SweepRecord, SweepSpec, _config_for, _trial_runner,
                          emit_csv, load_config, read_csv, reference_config,
                          run_sweep)

from golden_rows import golden_mismatches
from oracles import parent_fully_passive, parent_isotropic_profile

THETA = np.deg2rad(60.0)
ROOT = Path(__file__).resolve().parents[1]


def _shipped_rows(name: str, tmp_path) -> dict[str, list[SweepRecord]]:
    """Each scheme's rows of the shipped config ``name``, once every row is
    checked ``ok`` and their CSV matches its golden rows in tests/golden."""
    rows = {spec.scheme: run_sweep(spec)
            for spec in load_config(str(ROOT / "configs" / name))[2]}
    assert all(r.status == "ok" for scheme_rows in rows.values() for r in scheme_rows)
    out = tmp_path / "sweep.csv"
    emit_csv([r for scheme_rows in rows.values() for r in scheme_rows], str(out))
    assert golden_mismatches(out, ROOT / "tests" / "golden" / f"{Path(name).stem}.csv") == []
    return rows


def _spec(**kw):
    base = dict(base=reference_config(), theta=THETA, vary="P0",
                values=(10.0, 20.0, 30.0), scheme="single_antenna_closed",
                trials=2, seed=11, alpha_draws=10)
    base.update(kw)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_empty_values(self):
        with pytest.raises(ValueError, match="non-empty"):
            _spec(values=())

    def test_non_increasing_values(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _spec(values=(10.0, 10.0))

    def test_non_finite_fields(self):
        # NaN passes every ordering check; a P0 sweep value inf once gave an
        # ok row with bound 0
        for value in (np.nan, np.inf):
            for key, kw in (("theta", dict(theta=value)), ("values", dict(values=(10.0, value))),
                            ("q_tot", dict(q_tot=value)), ("w_i", dict(w_i=value)),
                            ("w_s", dict(w_s=value))):
                with pytest.raises(ValueError, match=f"{key} must be finite"):
                    _spec(**kw)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            _spec(scheme="magic")

    def test_unknown_vary(self):
        with pytest.raises(ValueError, match="vary"):
            _spec(vary="Z")

    def test_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            _spec(trials=0)

    @pytest.mark.parametrize("key", ["alpha_draws"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_no_draws(self, key, count):
        # alpha_draws = 0 once wrote every row inf, status rank_deficient
        with pytest.raises(ValueError, match=f"{key} must be at least 1, got {count}"):
            _spec(**{key: count})

    def test_allocation_sweep_needs_point_model(self):
        with pytest.raises(ValueError, match="point-target"):
            _spec(vary="W_I", values=(0.5, 1.0), scheme="extended_opt")

    def test_target_is_derived_from_scheme(self):
        assert _spec().target == "point"
        assert _spec(scheme="extended_opt", base=reference_config(M=8)).target \
            == "extended"


class TestRunSweep:
    def test_closed_form_power_slope_is_exact(self):
        # seeds are paired across values, so the dB curve drops by exactly
        # 10 dB per 10 dBm of extra power
        spec = _spec(base=reference_config(M=1, N=4, K=4))
        records = run_sweep(spec)
        assert all(r.status == "ok" for r in records)
        drops = [a.crb_db - b.crb_db for a, b in zip(records, records[1:])]
        np.testing.assert_allclose(drops, 10.0, atol=1e-9)

    def test_proposed_beats_random_phase_pairwise(self):
        base = reference_config(M=4, N=4, K=4)
        kw = dict(base=base, values=(20.0, 30.0), trials=2, alpha_draws=5)
        ao = run_sweep(_spec(scheme="proposed_ao", **kw))
        rand = run_sweep(_spec(scheme="random_phase", **kw))
        for r_ao, r_rand in zip(ao, rand):
            assert r_ao.crb_mean <= r_rand.crb_mean

    def test_extended_bound_linear_in_sensors(self):
        # the sweep scales one evaluation per trial by K, so the linearity is
        # checked on the generic bound at the optimal covariance at each K
        spec = _spec(base=reference_config(M=8, N=4), vary="K",
                     values=(4.0, 8.0, 16.0), scheme="extended_opt", trials=2)
        sensors = np.array(spec.values)
        cfg = spec.base
        direct = np.zeros(len(sensors))
        for trial in range(spec.trials):
            g = rician_channel(cfg, seed=derive_seed(spec.seed, trial, _CHANNEL)).G
            r_x = optimal_transmit_extended(g, cfg.P0)
            direct += [crb_extended(r_x, g, int(k), cfg.T, cfg.noise_power).crb
                       for k in sensors]
        direct /= spec.trials
        ratio = direct / sensors
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)
        crbs = np.array([r.crb_mean for r in run_sweep(spec)])
        np.testing.assert_allclose(crbs, direct, rtol=1e-9)

    def test_allocation_driven_sweep(self):
        spec = _spec(base=reference_config(M=1, N=4, K=4), vary="W_I",
                     values=(0.5, 1.0, 2.0), trials=1)
        records = run_sweep(spec)
        assert len(records) == 3
        assert all(r.status == "ok" for r in records)
        # higher element weight shifts the split toward sensors
        cfg_low = _config_for(spec, 0.5)
        cfg_high = _config_for(spec, 2.0)
        assert cfg_low.N > cfg_high.N

    def test_rank_deficient_extended_point(self):
        # more elements than antennas: the response matrix is unidentifiable
        spec = _spec(base=reference_config(M=2, N=4), vary="K",
                     values=(2.0, 4.0), scheme="extended_opt", trials=1)
        records = run_sweep(spec)
        assert all(r.status == "rank_deficient" for r in records)
        assert all(np.isinf(r.crb_mean) for r in records)

    def test_deterministic_records(self):
        spec = _spec(base=reference_config(M=1, N=4, K=4))
        r1 = run_sweep(spec)
        r2 = run_sweep(spec)
        for a, b in zip(r1, r2):
            assert (a.vary, a.value, a.scheme, a.crb_mean, a.crb_db,
                    a.trials_used, a.status) == \
                   (b.vary, b.value, b.scheme, b.crb_mean, b.crb_db,
                    b.trials_used, b.status)

    def test_trial_draws_are_independent(self):
        # the draws of trial 0 do not depend on how many trials run
        spec2 = _spec(base=reference_config(M=1, N=4, K=4), trials=2)
        spec5 = _spec(base=reference_config(M=1, N=4, K=4), trials=5)
        cfg = _config_for(spec2, 30.0)
        assert _trial_runner(spec2)(cfg, 0) == _trial_runner(spec5)(cfg, 0)
        assert _trial_runner(spec2)(cfg, 1) == _trial_runner(spec5)(cfg, 1)

    def test_shipped_point_config_random_phase_at_25_dbm(self):
        # configs/point_p0.ini, trial 1: random_phase takes its transmit
        # step in closed form, so the trial solves no program
        spec = _spec(base=reference_config(M=4, N=8, K=8), values=(25.0,),
                     scheme="random_phase", trials=3, seed=1234)
        crb, status = _trial_runner(spec)(_config_for(spec, 25.0), 1)
        assert status == "ok" and np.isfinite(crb)

    def test_rician_factor_sweep_runs(self):
        spec = _spec(base=reference_config(M=2, N=4, K=4), vary="beta_BI",
                     values=(0.0, 5.0, 10.0), scheme="isotropic_tx",
                     trials=1, alpha_draws=5)
        records = run_sweep(spec)
        assert [r.status for r in records] == ["ok"] * 3
        assert all(np.isfinite(r.crb_mean) for r in records)

    def test_alpha_averaging_changes_the_level_not_the_slope(self):
        kw = dict(base=reference_config(M=1, N=4, K=4), trials=1)
        avg = run_sweep(_spec(alpha_draws=20, **kw))
        single = run_sweep(_spec(alpha_draws=1, **kw))
        assert avg[0].crb_mean != single[0].crb_mean
        slope_a = avg[0].crb_db - avg[-1].crb_db
        slope_s = single[0].crb_db - single[-1].crb_db
        assert slope_a == pytest.approx(slope_s, abs=1e-9)


def _counted(monkeypatch, name):
    """Calls of ``irscrb.sweep.<name>`` from now on, one entry each."""
    calls = []
    fn = getattr(irscrb.sweep, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(irscrb.sweep, name, counted)
    return calls


# Per vary: the swept values, and the base config of each kind of scheme.
_VALUES = {"P0": (10.0, 20.0, 40.0), "M": (4.0, 8.0), "N": (2.0, 4.0, 8.0),
           "K": (4.0, 8.0, 12.0, 16.0), "beta_BI": (-5.0, 0.0, 5.0), "W_I": (0.5, 1.0, 2.0),
           "Q_tot": (10.0, 20.0, 30.0)}
_BASES = {"point": reference_config(M=2, N=4, K=4),
          "single_antenna_closed": reference_config(M=1, N=4, K=4),
          "extended": reference_config(M=8, N=4, K=8)}


class TestUnitPower:
    SMALL = dict(base=reference_config(M=2, N=4, K=4), alpha_draws=5)

    def test_p0_sweep_runs_one_ao_per_trial(self, monkeypatch):
        calls = _counted(monkeypatch, "ao_minimize_crb")
        records = run_sweep(_spec(scheme="proposed_ao", **self.SMALL))
        assert len(calls) == 2          # one per trial, not one per value
        assert [r.status for r in records] == ["ok"] * 3

    @pytest.mark.parametrize("scheme, bound", [("extended_opt", "crb_extended_opt"),
                                               ("extended_iso", "crb_extended_iso")])
    def test_k_sweep_evaluates_each_trial_once(self, monkeypatch, scheme, bound):
        # both bounds are exactly proportional to K
        calls = _counted(monkeypatch, bound)
        spec = _spec(base=_BASES["extended"], vary="K", values=(2.0, 4.0, 12.0, 16.0),
                     scheme=scheme, trials=3)
        assert [r.status for r in run_sweep(spec)] == ["ok"] * 4
        assert len(calls) == spec.trials

    def test_k_sweep_draws_each_trial_channel_once(self, monkeypatch):
        # K does not enter the channel draw
        calls = _counted(monkeypatch, "rician_channel")
        spec = _spec(base=_BASES["extended"], vary="K", values=(2.0, 4.0, 8.0, 16.0),
                     scheme="extended_opt", trials=3)
        assert [r.status for r in run_sweep(spec)] == ["ok"] * 4
        assert len(calls) == spec.trials

    def test_n_sweep_draws_each_trial_fading_factor_once(self, monkeypatch):
        calls = _counted(monkeypatch, "_alpha_factor")
        spec = _spec(base=_BASES["single_antenna_closed"], vary="N",
                     values=(2.0, 4.0, 8.0, 16.0), trials=3)
        assert [r.status for r in run_sweep(spec)] == ["ok"] * 4
        assert len(calls) == spec.trials

    @pytest.mark.parametrize("scheme, base", [
        ("proposed_ao", reference_config(M=2, N=4, K=4)),
        ("random_phase", reference_config(M=2, N=4, K=4)),
        ("isotropic_tx", reference_config(M=2, N=4, K=4)),
        ("single_antenna_closed", reference_config(M=1, N=4, K=4)),
        ("extended_opt", reference_config(M=8, N=4, K=4)),
        ("extended_iso", reference_config(M=8, N=4, K=4)),
        ("fully_passive", reference_config(M=8, N=4, K=4)),
    ])
    def test_bound_times_power_is_the_same_on_every_row(self, scheme, base):
        records = run_sweep(_spec(scheme=scheme, base=base, alpha_draws=5))
        assert [r.status for r in records] == ["ok"] * 3
        scaled = [r.crb_mean * dbm_to_watt(r.value) for r in records]
        np.testing.assert_allclose(scaled, scaled[-1], rtol=1e-12)

    @pytest.mark.parametrize("scheme, vary", [
        (scheme, vary) for scheme in SCHEMES for vary in _VALUES
        if SCHEMES[scheme].target == "point" or vary not in ("W_I", "Q_tot")])
    def test_matches_evaluation_at_each_value_own_power(self, scheme, vary):
        # a row equals trials evaluated on their own, each with fresh draws:
        # bitwise at 1 W (and the base K for a bound linear in K), and to
        # rounding at the row's own power and K
        kind = scheme if scheme == "single_antenna_closed" else SCHEMES[scheme].target
        values = (1.0,) if (kind, vary) == ("single_antenna_closed", "M") else _VALUES[vary]
        spec = _spec(scheme=scheme, base=_BASES[kind], vary=vary, values=values,
                     alpha_draws=5, q_tot=20.0)
        records = run_sweep(spec)
        assert [r.status for r in records] == ["ok"] * len(values)
        for record in records:
            cfg = _config_for(spec, record.value)
            unit_cfg = replace(cfg, P0=1.0,
                               K=spec.base.K if SCHEMES[scheme].linear_in_k else cfg.K)
            unit = [_trial_runner(spec)(unit_cfg, t) for t in range(spec.trials)]
            assert [status for _, status in unit] == ["ok"] * spec.trials
            assert record.crb_mean == (float(np.mean([crb for crb, _ in unit]))
                                       * (cfg.K / unit_cfg.K) / cfg.P0)
            direct = [_trial_runner(spec)(cfg, t) for t in range(spec.trials)]
            assert [status for _, status in direct] == ["ok"] * spec.trials
            expected = np.mean([crb for crb, _ in direct])
            assert record.crb_mean == pytest.approx(expected, rel=1e-6)

    @staticmethod
    def _failing(monkeypatch):
        def evaluate(cfg, ch, theta, seed, trial):
            raise SubproblemError("transmit solve ended max_iter, kkt 3.0e-07")

        monkeypatch.setitem(SCHEMES, "random_phase", Scheme("point", evaluate))

    def test_error_status_reaches_every_row(self, monkeypatch):
        self._failing(monkeypatch)
        records = run_sweep(_spec(scheme="random_phase", **self.SMALL))
        assert [r.status for r in records] == ["error:SubproblemError"] * 3
        assert all(np.isnan(r.crb_mean) for r in records)

    def test_rank_deficient_status_reaches_every_row(self):
        records = run_sweep(_spec(scheme="extended_opt",
                                  base=reference_config(M=2, N=4, K=4)))
        assert [r.status for r in records] == ["rank_deficient"] * 3
        assert all(np.isinf(r.crb_mean) for r in records)

    def test_failed_trial_logs_the_exception_and_its_instance(self, monkeypatch,
                                                             caplog):
        def failing_draw(cfg, seed):
            raise FloatingPointError("overflow in the NLoS draw")

        spec = _spec(scheme="random_phase", trials=1, **self.SMALL)
        for fail, text in [
                (lambda: self._failing(monkeypatch),
                 "SubproblemError: transmit solve ended max_iter, kkt 3.0e-07"),
                (lambda: monkeypatch.setattr(irscrb.sweep, "rician_channel",
                                             failing_draw),
                 "FloatingPointError: overflow in the NLoS draw")]:
            fail()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="irscrb.sweep"):
                crb, status = _trial_runner(spec)(_config_for(spec, 20.0), 0)
            assert np.isnan(crb) and status == "error:" + text.split(":")[0]
            (record,) = [r for r in caplog.records if r.name == "irscrb.sweep"]
            assert record.levelno == logging.WARNING
            assert record.getMessage() == (
                "random_phase failed at P0=0.1 M=2 N=4 K=4, seed 11, trial 0: " + text)

    def test_oversized_reflection_program_keeps_the_ascent_profile(self, caplog):
        # the allocation gives N = 480, K = 360; the reflection program is
        # refused before its constraint stack is built, and the trial keeps
        # the ascent profile
        spec = _spec(scheme="isotropic_tx", base=reference_config(M=2, N=4, K=4),
                     vary="W_I", values=(0.5,), q_tot=600.0, trials=1, seed=0,
                     alpha_draws=5)
        assert (_config_for(spec, 0.5).N, _config_for(spec, 0.5).K) == (480, 360)
        with caplog.at_level(logging.WARNING):
            (record,) = run_sweep(spec)
        assert record.status == "ok" and np.isfinite(record.crb_mean)
        (warning,) = caplog.records
        assert warning.name == "irscrb.ao" and warning.levelno == logging.WARNING
        message = warning.getMessage()
        assert message.count("N = 480") == 1 and "GB" in message
        assert "SubproblemError" in message and "ascent profile" in message


class TestIsotropicTx:
    """isotropic_tx: certified phase ascent, the SDR only where it fails."""

    @pytest.mark.parametrize("m, n, k", [(4, 8, 8), (8, 8, 8), (4, 8, 2),
                                         (8, 16, 8), (2, 4, 4), (1, 8, 8)])
    def test_never_worse_than_the_relaxation_and_randomization(self, m, n, k):
        for rician_factor in (10 ** 0.5, 0.0):
            cfg = reference_config(M=m, N=n, K=k, P0=1.0, rician_factor=rician_factor)
            a = target_steering(THETA, n, cfg.spacing, cfg.wavelength)
            r_iso = np.eye(m, dtype=complex) / m
            for seed in range(5):
                ch = rician_channel(cfg, seed=seed)
                crb = SCHEMES["isotropic_tx"].evaluate(cfg, ch, THETA, seed, 0)
                v = parent_isotropic_profile(r_iso, a, ch.G, k, RANDOMIZATION_SAMPLES,
                                             derive_seed(seed, 0, _RANDOMIZE))
                parent = crb_point_closed(point_scene(cfg, THETA), r_iso, v, ch.G, cfg)
                assert crb <= parent * (1 + 1e-9)
                # the fallback keeps the ascent profile when it scores higher
                kernel = _info_kernels(ch.G, r_iso, a, k)
                v = phase_ascent(kernel, _top_phases(kernel[0]))[0]
                ascent = crb_point_closed(point_scene(cfg, THETA), r_iso, v, ch.G, cfg)
                assert crb <= ascent * (1 + 1e-12)

    @staticmethod
    def _solves(monkeypatch, spec, trial):
        calls = []
        solve = irscrb.ao.irs_subproblem

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(irscrb.ao, "irs_subproblem", counted)
        crb, status = _trial_runner(spec)(replace(spec.base, P0=1.0), trial)
        assert status == "ok" and np.isfinite(crb)
        return len(calls)

    def test_certified_trial_solves_no_program(self, monkeypatch, caplog):
        config = Path(__file__).resolve().parents[1] / "configs" / "point_p0.ini"
        _, _, specs = load_config(str(config))
        spec = next(s for s in specs if s.scheme == "isotropic_tx")
        with caplog.at_level(logging.DEBUG, logger="irscrb.ao"):
            assert self._solves(monkeypatch, spec, 2) == 0
        assert not [r for r in caplog.records if r.name == "irscrb.ao"]

    def test_uncertified_trial_solves_one_program_and_logs_its_gap(self, monkeypatch,
                                                                   caplog):
        spec = _spec(scheme="isotropic_tx", base=reference_config(M=4, N=8, K=2))
        with caplog.at_level(logging.DEBUG, logger="irscrb.ao"):
            assert self._solves(monkeypatch, spec, 0) == 1
        messages = [r.getMessage() for r in caplog.records if r.name == "irscrb.ao"]
        assert len(messages) == 1 and "SDR fallback" in messages[0]
        gap = float(messages[0].split("gap ")[1].split(";")[0])
        assert 0.0 < gap < 1.0


class TestFullyPassive:
    """fully_passive: the transmit factor in closed form."""

    @staticmethod
    def _bound(evaluate) -> float:
        # the oracle raises EstimabilityError where the scheme's bound is infinite
        try:
            return evaluate()
        except EstimabilityError:
            return float("inf")

    # (8, 4, 2): a return channel of rank 2 < N; (2, 4, 4): M < N
    @pytest.mark.parametrize("m, n, k", [(8, 4, 8), (8, 4, 4), (4, 4, 16), (8, 8, 32),
                                         (8, 4, 2), (2, 4, 4)])
    def test_matches_the_bound_at_the_optimal_covariance(self, m, n, k):
        finite = (m, n, k) not in ((8, 4, 2), (2, 4, 4))
        for rician_factor in (10 ** 0.5, 0.0):
            for p0 in (1.0, 0.25):
                cfg = reference_config(M=m, N=n, K=k, P0=p0, rician_factor=rician_factor)
                for seed in range(5):
                    ch = rician_channel(cfg, seed=seed)
                    crb = SCHEMES["fully_passive"].evaluate(cfg, ch, THETA, seed, 1)
                    parent = self._bound(lambda: parent_fully_passive(cfg, ch.G, seed, 1))
                    assert np.isfinite(crb) == np.isfinite(parent) == finite
                    if finite:
                        assert crb == pytest.approx(parent, rel=1e-12)

    def test_rank_deficient_channel(self):
        cfg = reference_config(M=8, N=4, K=8)
        ch = rician_channel(cfg, seed=0)
        deficient = replace(ch, G=np.outer(ch.G[:, 0], ch.G[0]))
        assert np.isinf(SCHEMES["fully_passive"].evaluate(cfg, deficient, THETA, 0, 0))
        assert np.isinf(self._bound(lambda: parent_fully_passive(cfg, deficient.G, 0, 0)))


class TestProposedAo:
    """proposed_ao against its baselines, on the same channels and seeds."""

    @pytest.mark.parametrize("m, n, k", [(4, 8, 2), (4, 16, 2), (8, 32, 4), (8, 16, 8)])
    def test_never_worse_than_its_baselines(self, m, n, k):
        for rician_factor in (10 ** 0.5, 0.0):
            cfg = reference_config(M=m, N=n, K=k, P0=1.0, rician_factor=rician_factor)
            for seed in range(6):
                ch = rician_channel(cfg, seed=seed)
                crb = {scheme: SCHEMES[scheme].evaluate(cfg, ch, THETA, seed, 0)
                       for scheme in ("proposed_ao", "random_phase", "isotropic_tx")}
                assert crb["proposed_ao"] <= min(crb["random_phase"],
                                                 crb["isotropic_tx"]), (seed, crb)

    @pytest.mark.parametrize("name", sorted(
        path.name for path in (Path(__file__).resolve().parents[1] / "configs").glob("*.ini")
        if load_config(str(path))[2][0].target == "point"))
    def test_shipped_point_config_rows_are_ok_and_ordered(self, name, tmp_path):
        rows = _shipped_rows(name, tmp_path)
        for row, *baselines in zip(rows["proposed_ao"], rows["random_phase"],
                                   rows["isotropic_tx"]):
            assert all(row.crb_mean <= b.crb_mean for b in baselines), (row, baselines)


class TestCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text(encoding="utf-8") == \
            "vary,value,scheme,crb,crb_db,trials,status,wall_ms\n"

    def test_round_trip(self, tmp_path):
        spec = _spec(base=reference_config(M=1, N=4, K=4))
        records = run_sweep(spec)
        path = tmp_path / "sweep.csv"
        emit_csv(records, str(path))
        parsed = read_csv(str(path))
        assert parsed == records

    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        emit_csv(run_sweep(_spec(base=reference_config(M=1, N=4, K=4))), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = ",".join(lines[2].split(",")[:5])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3 has 5 fields"):
            read_csv(str(path))

    def test_infinite_bound_serialization(self, tmp_path):
        rec = SweepRecord(vary="K", value=4.0, scheme="extended_opt",
                          crb_mean=float("inf"), crb_db=float("inf"),
                          trials_used=1, wall_ms=1.0, status="rank_deficient")
        path = tmp_path / "inf.csv"
        emit_csv([rec], str(path))
        text = path.read_text(encoding="utf-8")
        assert ",inf,inf," in text
        assert "rank_deficient" in text
        assert read_csv(str(path))[0].crb_mean == float("inf")

    def test_line_endings_are_lf(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv([], str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_reproducible_payload(self, tmp_path):
        # identical config and seed: all columns except wall_ms match bitwise
        spec = _spec(base=reference_config(M=1, N=4, K=4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(spec), str(p1))
        emit_csv(run_sweep(spec), str(p2))

        def strip_wall(path):
            lines = path.read_text().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_wall(p1) == strip_wall(p2)


class TestConfigFile:
    CONFIG = """
[system]
m = 1
n = 4
k = 4
t = 64
p0_dbm = 30
wavelength_m = 0.2
noise_dbm = -90
rician_db = 5

[scene]
theta_deg = 89

[sweep]
target = point
vary = P0
values = 10, 20
schemes = single_antenna_closed
trials = 2
seed = 3
alpha_draws = 5
"""

    def test_load_and_run(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(self.CONFIG)
        base, theta, specs = load_config(str(path))
        assert base.M == 1 and base.N == 4
        assert base.P0 == pytest.approx(dbm_to_watt(30.0))
        assert base.spacing == pytest.approx(0.1)   # defaults to lambda/2
        assert theta == pytest.approx(np.deg2rad(89.0))
        assert len(specs) == 1
        records = run_sweep(specs[0])
        assert len(records) == 2
        # 95 degrees was once clamped to 89 without a word
        path.write_text(self.CONFIG.replace("theta_deg = 89", "theta_deg = 95"))
        with pytest.raises(ValueError, match=r"theta_deg must be within \+-89 degrees, got 95"):
            load_config(str(path))

    def test_target_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(self.CONFIG.replace("target = point", "target = extended"))
        with pytest.raises(ValueError, match="target"):
            load_config(str(path))

    def test_defaults_are_the_system_defaults(self, tmp_path):
        assert reference_config() == SystemConfig()
        path = tmp_path / "cfg.ini"
        path.write_text("[sweep]\nvalues = 10\nschemes = random_phase\n")
        base, theta, specs = load_config(str(path))
        assert base == SystemConfig()
        # trials, seed, alpha_draws, q_tot, w_i, w_s too
        assert specs == [SweepSpec(base=base, theta=theta, vary="P0", values=(10.0,),
                                   scheme="random_phase")]

    def test_seed_is_read_as_an_integer(self, tmp_path):
        # above 2**53 a float round-trip would land on a neighbouring seed
        path = tmp_path / "cfg.ini"
        path.write_text(self.CONFIG.replace("seed = 3", f"seed = {2**53 + 1}"))
        assert load_config(str(path))[2][0].seed == 2**53 + 1

    def test_count_sweep_refuses_a_fractional_value(self, tmp_path):
        # such a sweep once evaluated N = 4 in a row labelled 4.5
        path = tmp_path / "cfg.ini"
        sweep = self.CONFIG.replace("vary = P0", "vary = N")
        path.write_text(sweep.replace("values = 10, 20", "values = 4, 4.5"))
        with pytest.raises(ValueError, match=r"whole number, got 4\.5"):
            load_config(str(path))
        path.write_text(sweep.replace("values = 10, 20", "values = 4, 8.0"))
        (spec,) = load_config(str(path))[2]
        assert [_config_for(spec, value).N for value in spec.values] == [4, 8]

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/cfg.ini")

    @pytest.mark.parametrize("old, new, message", [
        ("[system]", "[systen]", r"unknown section \[systen\]"),
        ("alpha_draws = 5", "alpha_draw = 5", r"unknown key 'alpha_draw' in section \[sweep\]"),
        ("seed = 3", "seed = 3\nao_sample = 10", r"unknown key 'ao_sample' in section \[sweep\]"),
        ("theta_deg = 89", "theta = 89", r"unknown key 'theta' in section \[scene\]"),
        ("values = 10, 20", "value = 10, 20", r"section \[sweep\] needs the key 'values'"),
        ("seed = 3", "seed = 3\naverage_alpha = false",
         r"unknown key 'average_alpha' in section \[sweep\]"),
        ("seed = 3", "seed = 3\nao_samples = 50",
         r"unknown key 'ao_samples' in section \[sweep\]"),
        ("schemes = single_antenna_closed", "schemes = single_antenna_closed, "
         "random_phase,single_antenna_closed",
         r"scheme 'single_antenna_closed' is listed twice in section \[sweep\]"),
    ], ids=["section", "sweep_key", "added_key", "scene_key", "missing_key",
            "average_alpha", "ao_samples", "repeated_scheme"])
    def test_unknown_and_missing_keys_are_refused(self, tmp_path, old, new, message):
        # each of these once ran silently with the defaults in its place
        path = tmp_path / "cfg.ini"
        path.write_text(self.CONFIG.replace(old, new))
        with pytest.raises(ValueError, match=message) as info:
            load_config(str(path))
        assert str(path) in str(info.value)


@pytest.mark.parametrize("name", sorted(
    path.name for path in (ROOT / "configs").glob("*.ini")
    if load_config(str(path))[2][0].target == "extended"))
def test_shipped_extended_config_rows_are_ok_and_ordered(name, tmp_path):
    # the optimal covariance never loses to the isotropic one when M >= N
    rows = _shipped_rows(name, tmp_path)
    for opt, iso in zip(rows["extended_opt"], rows["extended_iso"], strict=True):
        assert opt.crb_mean <= iso.crb_mean, (opt, iso)


@pytest.mark.parametrize("name", sorted(path.name for path in (ROOT / "configs").glob("*.ini")))
def test_shipped_config_loads(name):
    _, _, specs = load_config(str(ROOT / "configs" / name))
    assert specs


def _documented_config(source):
    if source == "README.md":
        blocks = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    else:
        blocks = re.findall(r"::\n\n((?:    .*\n|\n)+)", irscrb.sweep.__doc__)
    assert len(blocks) == 1
    return textwrap.dedent(blocks[0])


@pytest.mark.parametrize("source", ["README.md", "irscrb.sweep"])
def test_documented_config_example_loads(tmp_path, source):
    # every key the example documents is one the loader reads
    path = tmp_path / "example.ini"
    path.write_text(_documented_config(source))
    base, _, specs = load_config(str(path))
    assert (base.M, base.N, base.K) == (8, 8, 8)
    assert specs and specs[0].scheme == "proposed_ao"
