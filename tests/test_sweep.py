import logging

import numpy as np
import pytest

import irscrb.sweep
from irscrb.ao import SubproblemError
from irscrb.config import SystemConfig, dbm_to_watt
from irscrb.sweep import (AO_SAMPLES, SCHEMES, Scheme, SweepRecord, SweepSpec,
                          _config_for, _run_trial, emit_csv, load_config,
                          read_csv, reference_config, run_sweep)

THETA = np.deg2rad(60.0)


def _spec(**kw):
    base = dict(base=reference_config(), theta=THETA, vary="P0",
                values=(10.0, 20.0, 30.0), scheme="single_antenna_closed",
                trials=2, seed=11, average_alpha=True, alpha_draws=10)
    base.update(kw)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_empty_values(self):
        with pytest.raises(ValueError, match="non-empty"):
            _spec(values=())

    def test_non_increasing_values(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _spec(values=(10.0, 10.0))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            _spec(scheme="magic")

    def test_unknown_vary(self):
        with pytest.raises(ValueError, match="vary"):
            _spec(vary="Z")

    def test_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            _spec(trials=0)

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
        kw = dict(base=base, values=(20.0, 30.0), trials=2, alpha_draws=5,
                  ao_samples=50)
        ao = run_sweep(_spec(scheme="proposed_ao", **kw))
        rand = run_sweep(_spec(scheme="random_phase", **kw))
        for r_ao, r_rand in zip(ao, rand):
            assert r_ao.crb_mean <= r_rand.crb_mean

    def test_extended_bound_linear_in_sensors(self):
        spec = _spec(base=reference_config(M=8, N=4), vary="K",
                     values=(4.0, 8.0, 16.0), scheme="extended_opt", trials=2)
        records = run_sweep(spec)
        crbs = np.array([r.crb_mean for r in records])
        ratio = crbs / np.array([4.0, 8.0, 16.0])
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

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
        assert _run_trial(spec2, cfg, 0) == _run_trial(spec5, cfg, 0)
        assert _run_trial(spec2, cfg, 1) == _run_trial(spec5, cfg, 1)

    def test_shipped_point_config_random_phase_at_25_dbm(self):
        # configs/point_p0.ini, trial 1: random_phase takes its transmit
        # step in closed form, so the trial solves no program
        spec = _spec(base=reference_config(M=4, N=8, K=8), values=(25.0,),
                     scheme="random_phase", trials=3, seed=1234)
        crb, status = _run_trial(spec, _config_for(spec, 25.0), 1)
        assert status == "ok" and np.isfinite(crb)

    def test_rician_factor_sweep_runs(self):
        spec = _spec(base=reference_config(M=2, N=4, K=4), vary="beta_BI",
                     values=(0.0, 5.0, 10.0), scheme="isotropic_tx",
                     trials=1, alpha_draws=5, ao_samples=50)
        records = run_sweep(spec)
        assert [r.status for r in records] == ["ok"] * 3
        assert all(np.isfinite(r.crb_mean) for r in records)

    def test_alpha_averaging_changes_the_level_not_the_slope(self):
        kw = dict(base=reference_config(M=1, N=4, K=4), trials=1)
        avg = run_sweep(_spec(average_alpha=True, alpha_draws=20, **kw))
        single = run_sweep(_spec(average_alpha=False, **kw))
        assert avg[0].crb_mean != single[0].crb_mean
        slope_a = avg[0].crb_db - avg[-1].crb_db
        slope_s = single[0].crb_db - single[-1].crb_db
        assert slope_a == pytest.approx(slope_s, abs=1e-9)


class TestUnitPower:
    SMALL = dict(base=reference_config(M=2, N=4, K=4), alpha_draws=5, ao_samples=50)

    def test_p0_sweep_runs_one_ao_per_trial(self, monkeypatch):
        calls = []
        solve = irscrb.sweep.ao_minimize_crb

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(irscrb.sweep, "ao_minimize_crb", counted)
        records = run_sweep(_spec(scheme="proposed_ao", **self.SMALL))
        assert len(calls) == 2          # one per trial, not one per value
        assert [r.status for r in records] == ["ok"] * 3

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
        records = run_sweep(_spec(scheme=scheme, base=base, alpha_draws=5,
                                  ao_samples=50))
        assert [r.status for r in records] == ["ok"] * 3
        scaled = [r.crb_mean * dbm_to_watt(r.value) for r in records]
        np.testing.assert_allclose(scaled, scaled[-1], rtol=1e-12)

    def test_matches_evaluation_at_each_value_own_power(self):
        spec = _spec(scheme="random_phase", values=(10.0, 20.0, 40.0), **self.SMALL)
        for record in run_sweep(spec):
            cfg = _config_for(spec, record.value)
            direct = [_run_trial(spec, cfg, t) for t in range(spec.trials)]
            assert [status for _, status in direct] == ["ok"] * spec.trials
            expected = np.mean([crb for crb, _ in direct])
            assert record.crb_mean == pytest.approx(expected, rel=1e-6)

    @staticmethod
    def _failing(monkeypatch):
        def evaluate(cfg, ch, theta, seed, trial, samples):
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
        self._failing(monkeypatch)
        spec = _spec(scheme="random_phase", trials=1, **self.SMALL)
        with caplog.at_level(logging.WARNING, logger="irscrb.sweep"):
            crb, status = _run_trial(spec, _config_for(spec, 20.0), 0)
        assert np.isnan(crb) and status == "error:SubproblemError"
        (record,) = [r for r in caplog.records if r.name == "irscrb.sweep"]
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (
            "random_phase failed at P0=0.1 M=2 N=4 K=4, seed 11, trial 0: "
            "SubproblemError: transmit solve ended max_iter, kkt 3.0e-07")


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
theta_deg = 95

[sweep]
target = point
vary = P0
values = 10, 20
schemes = single_antenna_closed
trials = 2
seed = 3
average_alpha = true
alpha_draws = 5
"""

    def test_load_and_run(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(self.CONFIG)
        base, theta, specs = load_config(str(path))
        assert base.M == 1 and base.N == 4
        assert base.P0 == pytest.approx(dbm_to_watt(30.0))
        assert base.spacing == pytest.approx(0.1)   # defaults to lambda/2
        # out-of-range angle is clamped to 89 degrees
        assert theta == pytest.approx(np.deg2rad(89.0))
        assert len(specs) == 1
        records = run_sweep(specs[0])
        assert len(records) == 2

    def test_target_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(self.CONFIG.replace("target = point", "target = extended"))
        with pytest.raises(ValueError, match="target"):
            load_config(str(path))

    def test_defaults_are_the_system_defaults(self, tmp_path):
        assert reference_config() == SystemConfig()
        path = tmp_path / "cfg.ini"
        path.write_text("[sweep]\nvalues = 10\nschemes = random_phase\n")
        base, _, specs = load_config(str(path))
        assert base == SystemConfig()
        assert specs[0].ao_samples == AO_SAMPLES

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/cfg.ini")
