import ast
from pathlib import Path

import numpy as np
import pytest

import irscrb.config
from irscrb.config import (SpacingWarning, SystemConfig, db_to_linear,
                           dbm_to_watt, derive_seed, make_rng)


class TestSystemConfig:
    def test_defaults_are_valid(self):
        cfg = SystemConfig()
        assert not cfg.spacing_warning

    def test_wide_spacing_sets_the_flag_and_warns(self):
        with pytest.warns(SpacingWarning):
            cfg = SystemConfig(spacing=0.15, wavelength=0.2)
        assert cfg.spacing_warning

    def test_counts_must_be_integers(self):
        with pytest.raises(ValueError, match="integer"):
            SystemConfig(M=2.5)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SystemConfig(N=0)

    def test_fewer_than_two_sensors_rejected(self):
        with pytest.raises(ValueError, match="K"):
            SystemConfig(K=1)

    def test_dimensional_fields_positive(self):
        for field in ("P0", "wavelength", "noise_power", "d_bi", "d_it", "rcs"):
            with pytest.raises(ValueError):
                SystemConfig(**{field: 0.0})

    def test_reference_gain_positive(self):
        # c0 <= 0 would give an all-zero or all-NaN channel
        for c0 in (0.0, -1e-3):
            with pytest.raises(ValueError, match="c0"):
                SystemConfig(c0=c0)

    def test_non_finite_fields_rejected(self):
        # NaN passes every sign check; p0_dbm = nan once wrote ok rows
        for field in ("P0", "wavelength", "spacing", "noise_power", "d_bi", "d_it", "c0",
                      "alpha_bi", "rician_factor", "rcs", "los_aod", "los_aoa"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    SystemConfig(**{field: value})

    def test_negative_rician_factor_rejected(self):
        with pytest.raises(ValueError, match="rician"):
            SystemConfig(rician_factor=-0.1)


class TestRng:
    def test_same_stream_is_reproducible(self):
        a = make_rng(5, 1, 2).standard_normal(8)
        b = make_rng(5, 1, 2).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_independent(self):
        a = make_rng(5, 1).standard_normal(8)
        b = make_rng(5, 2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_pinned_draws(self):
        # every sweep's channel and scheme draws depend on these values
        assert derive_seed(1234, 0, 0) == 3390605987580608350
        assert derive_seed(1234, 0, 5) == 6784569483849476395
        assert derive_seed(1234, 1, 0) == 16274685030245454228
        assert derive_seed(1234, 2, 1) == 13268625995465548875
        assert derive_seed(1234, 2, 5) == 5967699405446740694
        assert make_rng(1234, 0, 4).standard_normal(2).tolist() == \
            [-0.12493815363234342, 1.7631375607643325]


class TestUnits:
    def test_db_reference_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-15)
        assert db_to_linear(7.3) == pytest.approx(5.370317963702527, rel=1e-15)

    def test_dbm_reference_points(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0)
        assert dbm_to_watt(0.0) == pytest.approx(1e-3)
        assert dbm_to_watt(-90.0) == pytest.approx(1e-12, rel=1e-15)


def test_config_imports_nothing_from_the_package():
    # config is the bottom layer: every other module may import its check
    tree = ast.parse(Path(irscrb.config.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports if node.level > 0] == []
    assert not any((node.module or "").startswith("irscrb") for node in imports)
