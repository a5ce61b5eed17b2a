import logging
import re
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import irscrb.ao
import irscrb.sweep
from irscrb.ao import RANDOMIZATION_SAMPLES, SubproblemError, _top_phases, phase_ascent
from irscrb.arrays import target_steering
from irscrb.channel import rician_channel
from irscrb.config import (SpacingWarning, SystemConfig, dbm_to_watt, derive_seed,
                           point_scene)
from irscrb.extended import (EstimabilityError, crb_extended, crb_extended_opt,
                             optimal_transmit_extended)
from irscrb.pointcrb import _info_kernels, crb_point_closed, single_antenna_optimum
from irscrb.sweep import (_CHANNEL, _RANDOMIZE, _RETURN, SCHEMES, SweepRecord, SweepSpec,
                          _alpha_factor, _config_for, _normals, _row_runner, emit_csv,
                          load_config, read_csv, reference_config, run_sweep)

from golden_rows import golden_mismatches
from oracles import parent_fully_passive, parent_isotropic_profile, parent_return_link

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


def _returns(cfg, seed, trials):
    """The return streams [T, 2NK] of the sweep's ``(seed, trial)`` substreams."""
    return np.stack([_normals(seed, trial, _RETURN, 2 * cfg.N * cfg.K) for trial in trials])


def _one_trial(spec, cfg, trial):
    """Trial ``trial`` of ``spec`` at ``cfg`` evaluated on its own, as a
    one-trial batch on a fresh draw, times its fading factor at a point target."""
    scheme = SCHEMES[spec.scheme]
    g = rician_channel(cfg, seed=derive_seed(spec.seed, trial, _CHANNEL)).G
    returns = {"returns": _returns(cfg, spec.seed, [trial])} if scheme.return_link else {}
    (crb,) = scheme.evaluate(cfg, g[None], spec.theta, spec.seed, [trial], **returns)
    return crb * (_alpha_factor(spec, trial) if scheme.target == "point" else 1.0)


def _runner(spec):
    """The sweep's row runner over the configs of every value of ``spec``."""
    return _row_runner(spec, [_config_for(spec, value) for value in spec.values])


def _spec(**kw):
    base = dict(base=reference_config(M=1), theta=THETA, vary="P0",
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

    def test_single_antenna_closed_needs_one_antenna(self):
        # such a sweep once failed only at its first row, after every earlier
        # scheme of its file had run
        refused = r"scheme 'single_antenna_closed' requires M = 1, got M = "
        with pytest.raises(ValueError, match=refused + "4$"):
            _spec(base=reference_config(M=4))
        with pytest.raises(ValueError, match=refused + "2$"):
            _spec(vary="M", values=(1.0, 2.0))
        assert _spec(base=reference_config(M=1)).base.M == 1
        assert _spec(base=reference_config(M=4), vary="M", values=(1.0,)).values == (1.0,)

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

    @pytest.mark.parametrize("scheme", ["proposed_ao", "random_phase", "isotropic_tx"])
    def test_point_bound_times_gain_is_exact(self, scheme):
        # every point bound is proportional to 1/gain; two intermediates once
        # squared a gain-sized number, so below a gain of about 1e-154 the
        # rows drifted from it while still reading ok
        gains = (1e-7, 1e-50, 1e-100, 1e-160, 1e-200, 1e-250)
        scaled = []
        for gain in gains:
            records = run_sweep(_spec(scheme=scheme, base=reference_config(
                M=4, N=8, K=2, d_bi=1.0, c0=gain), alpha_draws=5))
            assert all(r.status == "ok" for r in records)
            scaled.append([r.crb_mean * gain for r in records])
        np.testing.assert_allclose(scaled, [scaled[0]] * len(gains), rtol=1e-9, atol=0)

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
        (crbs2, status2), (crbs5, status5) = _runner(spec2)(cfg), _runner(spec5)(cfg)
        assert status2 == status5 == "ok"
        assert crbs2[0] == crbs5[0]
        assert crbs2[1] == crbs5[1]

    def test_shipped_point_config_random_phase_at_25_dbm(self):
        # configs/point_p0.ini, trial 1: random_phase takes its transmit
        # step in closed form, so the trial solves no program
        spec = _spec(base=reference_config(M=4, N=8, K=8), values=(25.0,),
                     scheme="random_phase", trials=3, seed=1234)
        crbs, status = _runner(spec)(_config_for(spec, 25.0))
        assert status == "ok" and np.isfinite(crbs[1])

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
    """Calls of ``irscrb.sweep.<name>`` from now on, one entry each: the
    positional arguments of the call."""
    calls = []
    fn = getattr(irscrb.sweep, name)

    def counted(*args, **kwargs):
        calls.append(args)
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
# input -> the exponent of every bound in it; d_bi enters the BS-IRS gain as
# d_bi^-alpha_bi, and fully_passive's bound takes the gain twice
_EXPONENTS = {"P0": -1.0, "c0": -1.0, "d_bi": _BASES["point"].alpha_bi, "noise_power": 1.0,
              "T": -1.0, "rcs": -1.0, "K": 1.0}


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
        # both bounds are exactly proportional to K; one call takes the
        # stacked channels of every trial
        calls = _counted(monkeypatch, bound)
        spec = _spec(base=_BASES["extended"], vary="K", values=(2.0, 4.0, 12.0, 16.0),
                     scheme=scheme, trials=3)
        assert [r.status for r in run_sweep(spec)] == ["ok"] * 4
        assert [np.shape(g) for g, *_ in calls] == [(spec.trials, 4, 8)]

    def test_k_sweep_draws_each_trial_channel_once(self, monkeypatch):
        # K does not enter the channel draw
        calls = _counted(monkeypatch, "_normals")
        spec = _spec(base=_BASES["extended"], vary="K", values=(2.0, 4.0, 8.0, 16.0),
                     scheme="extended_opt", trials=3)
        assert [r.status for r in run_sweep(spec)] == ["ok"] * 4
        assert len(calls) == spec.trials
        assert calls == [(spec.seed, trial, _CHANNEL, 2 * 4 * 8) for trial in range(3)]

    @pytest.mark.parametrize("scheme, vary", [
        ("single_antenna_closed", "N"), ("random_phase", "Q_tot"), ("extended_iso", "M"),
        ("isotropic_tx", "beta_BI"), ("fully_passive", "K"), ("fully_passive", "N")])
    def test_sweep_draws_each_trial_stream_once(self, monkeypatch, scheme, vary):
        # one channel stream per trial per call, long enough for every value,
        # and one return stream per trial for fully_passive
        calls = _counted(monkeypatch, "_normals")
        kind = scheme if scheme == "single_antenna_closed" else SCHEMES[scheme].target
        spec = _spec(scheme=scheme, base=_BASES[kind], vary=vary, values=_VALUES[vary],
                     trials=3, alpha_draws=5, q_tot=20.0)
        assert [r.status for r in run_sweep(spec)] == ["ok"] * len(spec.values)
        configs = [_config_for(spec, value) for value in spec.values]
        expected = [(spec.seed, trial, _CHANNEL, 2 * max(c.N * c.M for c in configs))
                    for trial in range(spec.trials)]
        if scheme == "fully_passive":
            expected += [(spec.seed, trial, _RETURN, 2 * max(c.N * c.K for c in configs))
                         for trial in range(spec.trials)]
        assert sorted(calls) == sorted(expected)

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
        # a row equals its row group's bounds at 1 W and unit BS-IRS gain
        # (and the base K for a bound linear in K), scaled one factor at a
        # time, bitwise, and, to rounding, the trials at the row's own
        # power, gain and K evaluated on their own, each with fresh draws
        kind = scheme if scheme == "single_antenna_closed" else SCHEMES[scheme].target
        values = (1.0,) if (kind, vary) == ("single_antenna_closed", "M") else _VALUES[vary]
        spec = _spec(scheme=scheme, base=_BASES[kind], vary=vary, values=values,
                     alpha_draws=5, q_tot=20.0)
        records = run_sweep(spec)
        assert [r.status for r in records] == ["ok"] * len(values)
        for record in records:
            cfg = _config_for(spec, record.value)
            unit_cfg = replace(cfg, P0=1.0, d_bi=1.0, c0=1.0,
                               K=spec.base.K if SCHEMES[scheme].linear_in_k else cfg.K)
            unit, status = _runner(spec)(unit_cfg)
            assert status == "ok" and len(unit) == spec.trials
            gain = cfg.c0 * cfg.d_bi ** -cfg.alpha_bi
            scaled = float(np.mean(unit)) * (cfg.K / unit_cfg.K) / cfg.P0 / gain
            if SCHEMES[scheme].return_link:
                scaled /= gain
            assert record.crb_mean == scaled
            direct = [_one_trial(spec, cfg, t) for t in range(spec.trials)]
            assert np.isfinite(direct).all()
            expected = np.mean(direct)
            assert record.crb_mean == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("scheme, field", [
        (scheme, field) for scheme in SCHEMES for field in _EXPONENTS
        if (field != "rcs" or SCHEMES[scheme].target == "point")
        and (field != "K" or SCHEMES[scheme].linear_in_k)])
    def test_every_row_scales_exactly(self, scheme, field):
        # doubling one input of the base config scales every row of a sweep
        # over another input by 2 ** exponent
        kind = scheme if scheme == "single_antenna_closed" else SCHEMES[scheme].target
        base = _BASES[kind]
        assert base.alpha_bi == _EXPONENTS["d_bi"]
        spec = _spec(scheme=scheme, base=base, vary="beta_BI", values=_VALUES["beta_BI"],
                     alpha_draws=5)
        doubled = replace(spec, base=replace(base, **{field: 2 * getattr(base, field)}))
        twice = SCHEMES[scheme].return_link and field in ("c0", "d_bi")
        exponent = _EXPONENTS[field] * (2 if twice else 1)
        rows, scaled = run_sweep(spec), run_sweep(doubled)
        assert [r.status for r in rows + scaled] == ["ok"] * 2 * len(spec.values)
        np.testing.assert_allclose([r.crb_mean for r in scaled],
                                   [r.crb_mean * 2.0 ** exponent for r in rows],
                                   rtol=1e-12, atol=0)

    def test_bound_past_the_float_range_fails_its_row(self, caplog):
        # rows are evaluated at unit BS-IRS gain and scaled; a subnormal gain
        # once ended the sweep in a RuntimeWarning, and fully_passive's bound
        # once read inf with status rank_deficient on a full-rank channel
        subnormal = reference_config(M=4, N=8, K=8, d_bi=1e12, alpha_bi=26.0)
        tiny = replace(_BASES["extended"], d_bi=1.0, c0=1e-200)
        specs = [_spec(scheme="proposed_ao", base=subnormal, trials=1, alpha_draws=5),
                 _spec(scheme="extended_opt", base=tiny),
                 _spec(scheme="fully_passive", base=tiny)]
        with caplog.at_level(logging.WARNING, logger="irscrb.sweep"):
            designed, opt, passive = (run_sweep(spec) for spec in specs)
        assert [r.status for r in designed] == ["error:OverflowError", "ok", "ok"]
        assert np.isnan(designed[0].crb_mean) and 1e306 < designed[2].crb_mean < np.inf
        assert [r.status for r in opt] == ["ok"] * 3
        assert [r.status for r in passive] == ["error:OverflowError"] * 3
        assert all(np.isnan(r.crb_mean) for r in passive)
        messages = [r.getMessage() for r in caplog.records if r.name == "irscrb.sweep"]
        assert len(messages) == 4
        assert messages[0].startswith("proposed_ao failed at P0=0.01 M=4 N=8 K=8, seed 11, "
                                      "trial 0: OverflowError: bound ")
        assert messages[1].startswith("fully_passive failed at P0=0.01 M=8 N=4 K=8, seed 11, "
                                      "trials 0, 1: OverflowError: bound ")

    @staticmethod
    def _failing(monkeypatch):
        def evaluate(cfg, g, theta, seed, trials):
            raise SubproblemError("transmit solve ended max_iter, kkt 3.0e-07")

        monkeypatch.setitem(SCHEMES, "random_phase",
                            SCHEMES["random_phase"]._replace(evaluate=evaluate))

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
            (crb,), status = _runner(spec)(_config_for(spec, 20.0))
        assert np.isnan(crb) and status == "error:SubproblemError"
        (record,) = [r for r in caplog.records if r.name == "irscrb.sweep"]
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (
            "random_phase failed at P0=0.1 M=2 N=4 K=4, seed 11, trial 0: "
            "SubproblemError: transmit solve ended max_iter, kkt 3.0e-07")

    def test_linalg_error_fails_its_rows_and_the_other_schemes_still_run(
            self, monkeypatch, caplog, tmp_path):
        # a LinAlgError is a ValueError; it once ended the whole command as a
        # usage error, with no CSV
        def evaluate(cfg, g, theta, seed, trials):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setitem(SCHEMES, "random_phase",
                            SCHEMES["random_phase"]._replace(evaluate=evaluate))
        specs = [_spec(scheme=scheme, trials=1, **self.SMALL)
                 for scheme in ("random_phase", "isotropic_tx")]
        with caplog.at_level(logging.WARNING, logger="irscrb.sweep"):
            out = tmp_path / "sweep.csv"
            emit_csv([r for spec in specs for r in run_sweep(spec)], str(out))
        rows = read_csv(str(out))
        assert [r.status for r in rows] == ["error:LinAlgError"] * 3 + ["ok"] * 3
        assert all(np.isnan(r.crb_mean) for r in rows[:3])
        assert all(np.isfinite(r.crb_mean) for r in rows[3:])
        (record,) = [r for r in caplog.records if r.name == "irscrb.sweep"]
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (
            "random_phase failed at P0=1 M=2 N=4 K=4, seed 11, trial 0: "
            "LinAlgError: Eigenvalues did not converge")

    def test_failed_batch_logs_one_warning_naming_its_trials(self, monkeypatch, caplog):
        # a closed-form row group is one call, so a failure fails every trial
        def evaluate(cfg, g, theta, seed, trials):
            raise FloatingPointError("overflow in the NLoS draw")

        monkeypatch.setitem(SCHEMES, "single_antenna_closed",
                            SCHEMES["single_antenna_closed"]._replace(evaluate=evaluate))
        spec = _spec(base=_BASES["single_antenna_closed"], trials=3)
        with caplog.at_level(logging.WARNING, logger="irscrb.sweep"):
            records = run_sweep(spec)
        assert [r.status for r in records] == ["error:FloatingPointError"] * 3
        assert all(np.isnan(r.crb_mean) for r in records)
        (record,) = [r for r in caplog.records if r.name == "irscrb.sweep"]
        assert record.getMessage() == (
            "single_antenna_closed failed at P0=1 M=1 N=4 K=4, seed 11, trials 0, 1, 2: "
            "FloatingPointError: overflow in the NLoS draw")

    def test_failed_trial_fails_the_row_and_the_other_trials_still_run(self, monkeypatch,
                                                                       caplog):
        # an optimizing scheme is called one trial at a time
        evaluated = []
        evaluate = SCHEMES["random_phase"].evaluate

        def failing_trial_1(cfg, g, theta, seed, trials):
            evaluated.extend(trials)
            if trials == [1]:
                raise SubproblemError("transmit solve ended max_iter, kkt 3.0e-07")
            return evaluate(cfg, g, theta, seed, trials)

        monkeypatch.setitem(SCHEMES, "random_phase",
                            SCHEMES["random_phase"]._replace(evaluate=failing_trial_1))
        spec = _spec(scheme="random_phase", values=(20.0,), trials=3, **self.SMALL)
        with caplog.at_level(logging.WARNING, logger="irscrb.sweep"):
            (record,) = run_sweep(spec)
        assert record.status == "error:SubproblemError" and np.isnan(record.crb_mean)
        assert evaluated == [0, 1, 2]
        (warning,) = [r for r in caplog.records if r.name == "irscrb.sweep"]
        assert warning.levelno == logging.WARNING
        assert warning.getMessage().endswith(
            ", trial 1: SubproblemError: transmit solve ended max_iter, kkt 3.0e-07")
        crbs, status = _runner(spec)(replace(_config_for(spec, 20.0), P0=1.0))
        assert status == record.status
        assert np.isfinite(crbs[[0, 2]]).all() and np.isnan(crbs[1])

    def test_one_rank_deficient_trial_makes_the_row_rank_deficient(self, monkeypatch):
        spec = _spec(scheme="extended_opt", base=_BASES["extended"], trials=3)
        draw = irscrb.sweep._normals

        def rank_one_trial_1(seed, trial, tag, length):
            # no NLoS term: trial 1's channel is the rank-one LoS dyad
            normals = draw(seed, trial, tag, length)
            return np.zeros_like(normals) if (trial, tag) == (1, _CHANNEL) else normals

        monkeypatch.setattr(irscrb.sweep, "_normals", rank_one_trial_1)
        records = run_sweep(spec)
        assert [r.status for r in records] == ["rank_deficient"] * 3
        assert all(r.crb_mean == np.inf for r in records)
        crbs, _ = _runner(spec)(replace(spec.base, P0=1.0))
        assert np.isinf(crbs).tolist() == [False, True, False]

    @pytest.mark.parametrize("scheme, vary", [
        ("single_antenna_closed", "P0"), ("extended_opt", "P0"), ("extended_iso", "P0"),
        ("fully_passive", "P0"), ("extended_opt", "K")])
    def test_closed_form_sweep_calls_its_evaluator_once(self, monkeypatch, scheme, vary):
        calls = []
        evaluate = SCHEMES[scheme].evaluate

        def counted(cfg, g, theta, seed, trials, **kwargs):
            calls.append(list(trials))
            return evaluate(cfg, g, theta, seed, trials, **kwargs)

        monkeypatch.setitem(SCHEMES, scheme, SCHEMES[scheme]._replace(evaluate=counted))
        kind = scheme if scheme == "single_antenna_closed" else SCHEMES[scheme].target
        spec = _spec(scheme=scheme, base=_BASES[kind], vary=vary, values=_VALUES[vary],
                     trials=3)
        assert [r.status for r in run_sweep(spec)] == ["ok"] * len(_VALUES[vary])
        assert calls == [[0, 1, 2]]

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


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStreams:
    """A sweep draws one channel stream (and one return stream) per trial and
    slices every row group's draws from it; each equals a fresh draw."""

    @pytest.mark.parametrize("scheme, vary", [
        ("single_antenna_closed", "N"), ("extended_opt", "M"), ("random_phase", "beta_BI"),
        ("single_antenna_closed", "W_I"), ("random_phase", "Q_tot"), ("proposed_ao", "N"),
        ("isotropic_tx", "M")])
    def test_row_group_channels_are_fresh_draws(self, monkeypatch, scheme, vary):
        seen = []
        evaluate = SCHEMES[scheme].evaluate

        def recorded(cfg, g, theta, seed, trials, **kwargs):
            seen.append((cfg, g, list(trials)))
            return evaluate(cfg, g, theta, seed, trials, **kwargs)

        monkeypatch.setitem(SCHEMES, scheme, SCHEMES[scheme]._replace(evaluate=recorded))
        kind = scheme if scheme == "single_antenna_closed" else SCHEMES[scheme].target
        spec = _spec(scheme=scheme, base=_BASES[kind], vary=vary, values=_VALUES[vary],
                     trials=3, alpha_draws=5, q_tot=20.0)
        assert [r.status for r in run_sweep(spec)] == ["ok"] * len(spec.values)
        assert len({cfg for cfg, _, _ in seen}) == len(spec.values)
        assert len({cfg.N * cfg.M for cfg, _, _ in seen}) > 1 or vary == "beta_BI"
        for cfg, g, trials in seen:
            fresh = np.stack([rician_channel(cfg, derive_seed(spec.seed, t, _CHANNEL)).G
                              for t in trials])
            assert _same_bits(g, fresh), (cfg, trials)

    @pytest.mark.parametrize("vary", ["K", "N"])
    def test_return_links_are_fresh_draws(self, monkeypatch, vary):
        seen = []
        bound = irscrb.sweep.crb_fully_passive_opt

        def recorded(g, g_r, *args):
            seen.append(g_r)
            return bound(g, g_r, *args)

        monkeypatch.setattr(irscrb.sweep, "crb_fully_passive_opt", recorded)
        spec = _spec(scheme="fully_passive", base=_BASES["extended"], vary=vary,
                     values=_VALUES[vary], trials=3)
        assert [r.status for r in run_sweep(spec)] == ["ok"] * len(spec.values)
        configs = [_config_for(spec, value) for value in spec.values]
        assert len(seen) == len(configs)
        for cfg, g_r in zip(configs, seen):
            unit = replace(cfg, P0=1.0, d_bi=1.0, c0=1.0)   # the row's unit config
            oracle = np.stack([parent_return_link(unit, spec.seed, t) for t in range(3)])
            assert _same_bits(g_r, oracle), cfg
        # called on its own with trial 2's return stream, the scheme scales
        # the same return link
        seen.clear()
        cfg = configs[-1]
        g = rician_channel(cfg, derive_seed(spec.seed, 2, _CHANNEL)).G
        SCHEMES["fully_passive"].evaluate(cfg, g[None], THETA, spec.seed, [2],
                                          returns=_returns(cfg, spec.seed, [2]))
        assert _same_bits(seen[0][0], parent_return_link(cfg, spec.seed, 2))

    # (N, channels): a stack and its channels one at a time round alike
    @pytest.mark.parametrize("n, count", [(8, 900), (32, 600), (200, 20)])
    def test_closed_forms_agree_alone_and_stacked(self, n, count):
        cfg = SystemConfig(M=n, N=n, K=8)
        g = np.stack([rician_channel(cfg, seed).G for seed in range(count)])
        stacked = crb_extended_opt(g, 1.0, cfg.K, cfg.T, cfg.noise_power).crb
        alone = [crb_extended_opt(g_t, 1.0, cfg.K, cfg.T, cfg.noise_power).crb for g_t in g]
        assert _same_bits(stacked, alone)
        cfg = SystemConfig(M=1, N=n, K=8)
        scene = point_scene(cfg, THETA)
        h = np.stack([rician_channel(cfg, seed).G[:, 0] for seed in range(1000)])
        stacked = single_antenna_optimum(scene, h, cfg)[1]
        alone = [single_antenna_optimum(scene, h_t, cfg)[1] for h_t in h]
        assert _same_bits(stacked, alone)


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
                (crb,) = SCHEMES["isotropic_tx"].evaluate(cfg, ch.G[None], THETA, seed, [0])
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
        assert np.isfinite(_one_trial(spec, replace(spec.base, P0=1.0), trial))
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
                    (crb,) = SCHEMES["fully_passive"].evaluate(
                        cfg, ch.G[None], THETA, seed, [1], returns=_returns(cfg, seed, [1]))
                    parent = self._bound(lambda: parent_fully_passive(cfg, ch.G, seed, 1))
                    assert np.isfinite(crb) == np.isfinite(parent) == finite
                    if finite:
                        assert crb == pytest.approx(parent, rel=1e-12)

    def test_rank_deficient_channel(self):
        cfg = reference_config(M=8, N=4, K=8)
        ch = rician_channel(cfg, seed=0)
        deficient = np.outer(ch.G[:, 0], ch.G[0])
        (crb,) = SCHEMES["fully_passive"].evaluate(cfg, deficient[None], THETA, 0, [0],
                                                   returns=_returns(cfg, 0, [0]))
        assert np.isinf(crb)
        assert np.isinf(self._bound(lambda: parent_fully_passive(cfg, deficient, 0, 0)))


class TestProposedAo:
    """proposed_ao against its baselines, on the same channels and seeds."""

    @pytest.mark.parametrize("m, n, k", [(4, 8, 2), (4, 16, 2), (8, 32, 4), (8, 16, 8)])
    def test_never_worse_than_its_baselines(self, m, n, k):
        for rician_factor in (10 ** 0.5, 0.0):
            cfg = reference_config(M=m, N=n, K=k, P0=1.0, rician_factor=rician_factor)
            for seed in range(6):
                ch = rician_channel(cfg, seed=seed)
                crb = {scheme: SCHEMES[scheme].evaluate(cfg, ch.G[None], THETA, seed, [0])[0]
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

    def test_spacing_defaults_to_half_the_wavelength_on_both_routes(self, tmp_path):
        # the library once kept 0.1 m, with a SpacingWarning, where a file got 0.05 m
        path = tmp_path / "cfg.ini"
        path.write_text(self.CONFIG.replace("wavelength_m = 0.2", "wavelength_m = 0.1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", SpacingWarning)
            library = SystemConfig(wavelength=0.1)
            base = load_config(str(path))[0]
        assert library.spacing == base.spacing == 0.05
        assert SystemConfig(wavelength=0.1, spacing=0.04).spacing == 0.04
        assert replace(library, wavelength=0.2).spacing == 0.05

    @pytest.mark.parametrize("vary, values", [("P0", "10, 20"), ("W_I", "0.5, 1"),
                                              ("Q_tot", "100, 200")])
    @pytest.mark.parametrize("key", ["q_tot", "w_i", "w_s"])
    def test_allocation_keys_are_refused_where_no_sweep_reads_them(self, tmp_path, vary,
                                                                   values, key):
        path = tmp_path / "cfg.ini"
        path.write_text(self.CONFIG.replace("vary = P0", f"vary = {vary}")
                        .replace("values = 10, 20", f"values = {values}\n{key} = 600"))
        read = {"q_tot": ("W_I",), "w_i": ("Q_tot",), "w_s": ("W_I", "Q_tot")}[key]
        if vary in read:
            assert getattr(load_config(str(path))[2][0], key) == 600.0
            return
        with pytest.raises(ValueError, match=rf"key '{key}' in section \[sweep\] is read "
                                             "by none of its sweeps") as info:
            load_config(str(path))
        assert str(path) in str(info.value)

    def test_alpha_draws_is_refused_where_every_scheme_is_extended(self, tmp_path):
        path = tmp_path / "cfg.ini"
        extended = self.CONFIG.replace("m = 1", "m = 8")
        path.write_text(extended.replace("single_antenna_closed", "extended_opt, fully_passive"))
        with pytest.raises(ValueError, match=r"key 'alpha_draws' in section \[sweep\]"):
            load_config(str(path))
        path.write_text(extended.replace("single_antenna_closed", "extended_opt, random_phase"))
        assert [spec.alpha_draws for spec in load_config(str(path))[2]] == [5, 5]

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
        ("m = 1", "m = one", r"key 'm' in section \[system\] has a malformed value: "
         r"could not convert string to float: 'one'"),
        ("theta_deg = 89", "theta_deg = sixty", r"key 'theta_deg' in section \[scene\] has "
         r"a malformed value: could not convert string to float: 'sixty'"),
        ("values = 10, 20", "values = 10, 20,", r"key 'values' in section \[sweep\] has a "
         r"malformed value: could not convert string to float: ''"),
    ], ids=["section", "sweep_key", "added_key", "scene_key", "missing_key",
            "average_alpha", "ao_samples", "repeated_scheme", "malformed_system",
            "malformed_scene", "malformed_sweep"])
    def test_unknown_and_missing_keys_are_refused(self, tmp_path, old, new, message):
        # each of these once ran silently with the defaults in its place, or,
        # a malformed value, was refused without naming its file, section or key
        path = tmp_path / "cfg.ini"
        path.write_text(self.CONFIG.replace(old, new))
        with pytest.raises(ValueError, match=message) as info:
            load_config(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("old, new, message", [
        ("values = 10, 20", "values = 10, 10", "values must be strictly increasing"),
        ("trials = 2", "trials = 0", "trials must be at least 1, got 0"),
        ("m = 1", "m = 0", "M must be positive, got 0"),
        ("vary = P0", "vary = Q", "unknown vary 'Q'"),
        ("m = 1", "m = 4", "scheme 'single_antenna_closed' requires M = 1, got M = 4"),
        ("rician_db = 5", "rician_db = 5\nd_bi_m = 1e12\nalpha_bi = 40",
         "the BS-IRS gain c0 * d_bi^-alpha_bi = 0.001 * 1e+12^-40 must be positive and "
         "finite, got 0"),
        ("rician_db = 5", "rician_db = 5\nd_bi_m = 0.5\nalpha_bi = 1100",
         "the BS-IRS gain c0 * d_bi^-alpha_bi = 0.001 * 0.5^-1100 must be positive and "
         "finite, got inf"),
    ], ids=["values", "trials", "m", "vary", "single_antenna_closed", "zero_gain",
            "infinite_gain"])
    def test_field_refusals_start_with_the_path(self, tmp_path, old, new, message):
        # SweepSpec and SystemConfig refusals once named neither the file nor
        # its section; a gain of 0 once gave a usage error from an eigenvalue
        # solver mid-sweep, and an infinite one error:OverflowError rows
        path = tmp_path / "cfg.ini"
        path.write_text(self.CONFIG.replace(old, new))
        with pytest.raises(ValueError) as info:
            load_config(str(path))
        assert str(info.value).startswith(f"{path}: {message}"), info.value



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
