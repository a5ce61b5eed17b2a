import re

from irscrb.channel import rician_channel
from irscrb.cli import cli_main
from irscrb.sweep import AO_SAMPLES, SCHEMES, load_config

POINT_CONFIG = """
[system]
m = 1
n = 4
k = 4
p0_dbm = 30

[scene]
theta_deg = 60

[sweep]
vary = P0
values = 20, 30
schemes = single_antenna_closed
trials = 2
seed = 5
alpha_draws = 5
"""

DEFICIENT_EXTENDED_CONFIG = """
[system]
m = 2
n = 4
k = 4
p0_dbm = 30
"""


def test_allocate_prints_both_solutions(capsys):
    rc = cli_main(["allocate", "--qtot", "600", "--wi", "1", "--ws", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    values = re.findall(r"N =\s+([\d.]+)\s+K =\s+([\d.]+)", out)
    assert len(values) == 2
    for n, k in values:
        assert float(k) > float(n)


def test_allocate_exhaustive_flag(capsys):
    rc = cli_main(["allocate", "--qtot", "600", "--wi", "1", "--ws", "1",
                   "--exhaustive", "--step", "0.5"])
    assert rc == 0
    assert "exhaustive" in capsys.readouterr().out


def test_allocate_infeasible_budget_is_rejected(capsys):
    rc = cli_main(["allocate", "--qtot", "2", "--wi", "1", "--ws", "1"])
    assert rc == 1   # rejected as an invalid budget before any numerics


def test_sweep_writes_one_row_per_value_and_scheme(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG.replace(
        "schemes = single_antenna_closed",
        "schemes = single_antenna_closed, random_phase"))
    out = tmp_path / "out.csv"
    rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2


def test_sweep_missing_config_is_usage_error(tmp_path):
    rc = cli_main(["sweep", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_crb_point_single_antenna(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG)
    rc = cli_main(["crb", "point", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "crb =" in out and "rad^2" in out


def test_crb_point_optimizing_schemes(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG.replace("m = 1", "m = 2"))
    for scheme in ("proposed_ao", "isotropic_tx", "random_phase"):
        rc = cli_main(["crb", "point", "--config", str(cfg),
                       "--scheme", scheme])
        assert rc == 0
        assert "crb =" in capsys.readouterr().out


def test_crb_point_random_phase_uses_the_seeded_channel(tmp_path, capsys):
    # every point scheme evaluates rician_channel(base, seed=--seed)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG.replace("m = 1", "m = 2"))
    base, theta, _ = load_config(str(cfg))
    for seed in range(4):
        rc = cli_main(["crb", "point", "--config", str(cfg),
                       "--scheme", "random_phase", "--seed", str(seed)])
        assert rc == 0
        ch = rician_channel(base, seed=seed)
        crb = SCHEMES["random_phase"].evaluate(base, ch, theta, seed, 0, AO_SAMPLES)
        assert f"crb = {crb:.6e} rad^2" in capsys.readouterr().out


def test_crb_point_bad_scheme_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG)
    assert cli_main(["crb", "point", "--config", str(cfg),
                     "--scheme", "nonsense"]) == 1


def test_crb_extended_rank_deficient_prints_inf(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEFICIENT_EXTENDED_CONFIG)
    rc = cli_main(["crb", "extended", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "inf" in out


def test_crb_extended_full_rank(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEFICIENT_EXTENDED_CONFIG.replace("m = 2", "m = 6"))
    rc = cli_main(["crb", "extended", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "crb_opt" in out and "gap" in out


def test_unknown_flag_is_usage_error(capsys):
    rc = cli_main(["allocate", "--qtot", "600", "--wi", "1", "--ws", "1",
                   "--bogus"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert cli_main(["allocate", "--qtot", "600"]) == 1


def test_selftest_fast(capsys):
    rc = cli_main(["selftest", "--fast"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "selftest: PASS" in out
