import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import irscrb
from irscrb.channel import rician_channel
from irscrb.cli import _build_parser, cli_main
from irscrb.extended import EstimabilityError
from irscrb.sweep import SCHEMES, load_config, run_sweep

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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

# isotropic_tx trial 0 of this config solves one reflection SDR
ISOTROPIC_TX_CONFIG = """
[system]
m = 4
n = 8
k = 2
p0_dbm = 30

[scene]
theta_deg = 60

[sweep]
vary = P0
values = 30
schemes = isotropic_tx
trials = 1
seed = 11
alpha_draws = 5
"""

# Counts the reflection SDRs of one sweep and lists scipy modules loaded by it.
SWEEP_WITHOUT_SCIPY = """
import sys
import irscrb.ao
from irscrb.cli import cli_main

solve, calls = irscrb.ao.irs_subproblem, []

def counted(*args, **kwargs):
    calls.append(1)
    return solve(*args, **kwargs)

irscrb.ao.irs_subproblem = counted
rc = cli_main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2]])
print(rc, len(calls), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

# `python -m irscrb.cli` with every import of scipy refused
RUN_CLI_WITHOUT_SCIPY = """
import runpy, sys
sys.modules["scipy"] = None
runpy.run_module("irscrb.cli", run_name="__main__", alter_sys=True)
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


@pytest.mark.parametrize("flags, step", [(["--exhaustive"], "0.25"),
                                         (["--exhaustive", "0.5"], "0.5"),
                                         (["--exhaustive=0.5"], "0.5")])
def test_allocate_exhaustive_flag(capsys, flags, step):
    rc = cli_main(["allocate", "--qtot", "600", "--wi", "1", "--ws", "1", *flags])
    assert rc == 0
    assert re.search(rf"^exhaustive .*\(step {step}\)$", capsys.readouterr().out, re.M)


@pytest.mark.parametrize("argv, name", [
    (["selftest", "--fast"], "--fast"),
    (["allocate", "--qtot", "600", "--wi", "1", "--ws", "1", "--step", "0.5"], "--step"),
    (["allocate", "--qtot", "600", "--wi", "1", "--ws", "1", "--exhaustive", "--step", "0.5"],
     "--step"),
])
def test_removed_flags_are_refused_by_name(capsys, argv, name):
    # --fast swapped the point scheme of three trends; --step is --exhaustive's value
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert not out and err.startswith("usage error:") and name in err, err


def test_removed_target_key_is_refused_by_name(tmp_path, capsys):
    # the scheme table fixes each scheme's target
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(_edited("sweep", {"target": "point"}))
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    out, err = capsys.readouterr()
    assert not out and "unknown key 'target' in section [sweep]" in err, err
    assert not (tmp_path / "x.csv").exists()


def test_allocate_infeasible_budget_is_rejected(capsys):
    rc = cli_main(["allocate", "--qtot", "2", "--wi", "1", "--ws", "1"])
    assert rc == 1   # rejected as an invalid budget before any numerics


@pytest.mark.parametrize("qtot, wi", [("1e200", "1"), ("600", "1e-300")])
def test_allocate_overflow_names_the_inputs(capsys, qtot, wi):
    # inputs in their domains whose allocation the floats cannot hold: exit 2,
    # once with the bare "(34, 'Numerical result out of range')"
    rc = cli_main(["allocate", "--qtot", qtot, "--wi", wi, "--ws", "1"])
    out, err = capsys.readouterr()
    assert rc == 2 and not out
    assert err.startswith("numerical failure:"), err
    assert all(re.search(rf"\b{name} = ", err) for name in ("q_tot", "w_i", "w_s")), err


@pytest.mark.parametrize("out", ["a_directory", "missing/x.csv"])
def test_unwritable_out_is_refused_before_the_sweep(tmp_path, monkeypatch, capsys, out):
    # both once swept every scheme, then failed on writing the CSV
    calls = []

    def counting(spec):
        calls.append(spec.scheme)
        return run_sweep(spec)

    monkeypatch.setattr("irscrb.cli.run_sweep", counting)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG)
    (tmp_path / "a_directory").mkdir()
    rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert rc == 1 and calls == []
    assert err.startswith("usage error:") and str(tmp_path / out) in err, err
    assert not (tmp_path / "missing").exists()


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


def test_sweep_config_with_a_typo_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG.replace("alpha_draws = 5", "alpha_draw = 5"))
    rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "alpha_draw" in err and str(cfg) in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key, line", [("average_alpha", "average_alpha = false"),
                                       ("ao_samples", "ao_samples = 50")],
                         ids=["average_alpha", "ao_samples"])
def test_sweep_config_with_a_removed_key_is_usage_error(tmp_path, capsys, key, line):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG + line + "\n")
    rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"unknown key {key!r}" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key", ["alpha_draws"])
def test_sweep_without_draws_is_usage_error(tmp_path, capsys, key):
    # alpha_draws = 0 once wrote every row inf, status rank_deficient, exit 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG.replace("alpha_draws = 5", f"{key} = 0"))
    rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"{key} must be at least 1" in err
    assert not (tmp_path / "x.csv").exists()


# (config section or command, key or argument, name its refusal gives,
# values out of its range besides nan, inf, 0 and -1)
NUMERIC_INPUTS = [
    ("system", "m", "M", ["2.5"]), ("system", "n", "N", ["2.5"]), ("system", "k", "K", ["1"]),
    ("system", "t", "T", ["64.5"]), ("system", "p0_dbm", "P0", []),
    ("system", "wavelength_m", "wavelength", []), ("system", "spacing_m", "spacing", []),
    ("system", "noise_dbm", "noise_power", []), ("system", "d_bi_m", "d_bi", []),
    ("system", "d_it_m", "d_it", []), ("system", "c0_loss_db", "c0", []),
    ("system", "alpha_bi", "alpha_bi", ["-3"]), ("system", "rician_db", "rician_factor", []),
    ("system", "rcs_dbsm", "rcs", []), ("scene", "theta_deg", "theta_deg", ["95", "-120"]),
    ("sweep", "values", "values", []), ("sweep", "trials", "trials", ["2.5"]),
    ("sweep", "seed", "seed", ["2.5"]), ("sweep", "alpha_draws", "alpha_draws", ["2.5"]),
    ("sweep", "q_tot", "q_tot", []), ("sweep", "w_i", "w_i", []), ("sweep", "w_s", "w_s", []),
    ("allocate", "--qtot", "q_tot", []), ("allocate", "--wi", "w_i", []),
    ("allocate", "--ws", "w_s", []), ("allocate", "--exhaustive", "step", ["1e-9"]),
    ("crb", "--seed", "seed", ["2.5"]),
]
# (where, edits, name, expected): an out-of-range value is "refused" by
# name; nan, inf, 0 and -1 are "either" refused by name or run without a nan
FUZZ_CASES = [(where, {key: value}, name, "either") for where, key, name, _ in NUMERIC_INPUTS
              for value in ("nan", "inf", "0", "-1")] + [
    (where, {key: value}, name, "refused") for where, key, name, extra in NUMERIC_INPUTS
    for value in extra] + [
    ("sweep", {"vary": "N", "values": "0, 4"}, "values", "refused"),
    ("sweep", {"vary": "K", "values": "1, 4"}, "values", "refused"),
]
# ([system] key, value, field): a dB value whose linear value is past the float range
OVERFLOW_DB = [("p0_dbm", "4000", "P0"), ("noise_dbm", "4000", "noise_power"),
               ("rician_db", "4000", "rician_factor"), ("rcs_dbsm", "4000", "rcs"),
               ("c0_loss_db", "-4000", "c0")]


def _edited(section: str, edits: dict) -> str:
    """POINT_CONFIG with each ``key = value`` of ``edits`` in ``[section]``."""
    lines = [line for line in POINT_CONFIG.splitlines()
             if line.split(" =")[0] not in edits]
    at = lines.index(f"[{section}]") + 1
    return "\n".join(lines[:at] + [f"{k} = {v}" for k, v in edits.items()] + lines[at:]) + "\n"


@pytest.mark.parametrize("where, edits, name, expected", [
    ("system", {"p0_dbm": "nan"}, "P0", "finite"),
    ("system", {"noise_dbm": "nan"}, "noise_power", "finite"),
    ("sweep", {"values": "20, inf"}, "values", "finite"),
    ("scene", {"theta_deg": "inf"}, "theta_deg", "finite"),
    # dB values past the float range convert to inf, not an OverflowError
    *[("system", {key: value}, name, "finite") for key, value, name in OVERFLOW_DB],
    ("sweep", {"values": "20, 4000"}, "values", "finite"),
    ("sweep", {"vary": "beta_BI", "values": "5, 4000"}, "values", "finite"),
    # a BS-IRS gain c0 d_bi^-alpha_bi of 0, and one past the float range
    ("system", {"d_bi_m": "1e12", "alpha_bi": "40"}, "d_bi", "refused"),
    ("system", {"d_bi_m": "0.5", "alpha_bi": "1100"}, "alpha_bi", "refused"),
    *FUZZ_CASES,
], ids=["p0_dbm", "noise_dbm", "values", "theta_deg",
        *[f"{key}={value}" for key, value, _ in OVERFLOW_DB],
        "values=20, 4000", "vary=beta_BI values=5, 4000",
        "d_bi_m=1e12 alpha_bi=40", "d_bi_m=0.5 alpha_bi=1100",
        *[" ".join(f"{k}={v}" for k, v in edits.items()) for _, edits, _, _ in FUZZ_CASES]])
def test_non_finite_config_value_is_usage_error(tmp_path, capsys, where, edits, name, expected):
    # the first four once wrote rows with status ok or rank_deficient and
    # exit 0; every case is refused by name or runs without a nan
    cfg, csv = tmp_path / "cfg.ini", tmp_path / "x.csv"
    cfg.write_text(_edited(where, edits) if where not in ("allocate", "crb") else POINT_CONFIG)
    argv = {"allocate": ["allocate", "--qtot=600", "--wi=1", "--ws=1", "--exhaustive"],
            "crb": ["crb", "point", "--config", str(cfg)]}.get(
        where, ["sweep", "--config", str(cfg), "--out", str(csv)])
    rc = cli_main(argv + [f"{k}={v}" for k, v in edits.items() if where in ("allocate", "crb")])
    out, err = capsys.readouterr()
    if expected != "either":
        assert rc == 1 and (expected == "refused" or f"{name} must be finite" in err)
    if rc == 0:
        assert "nan" not in out and "nan" not in (csv.read_text() if csv.exists() else "")
    else:
        assert rc == 1 and not out and not csv.exists()
        assert err.startswith("usage error:") and re.search(rf"\b{name}\b", err), err


@pytest.mark.parametrize("text, out", [
    (POINT_CONFIG.replace("n = 4\n", "n = 4\nn = 8\n"), "x.csv"),
    (POINT_CONFIG.replace("[system]\n", ""), "x.csv"),
    (POINT_CONFIG.replace("p0_dbm = 30", "p0_dbm = 30%"), "x.csv"),
    (POINT_CONFIG, "."),
], ids=["duplicate_key", "no_section_header", "percent_in_value", "out_is_a_directory"])
def test_unreadable_config_or_unwritable_out_is_usage_error(tmp_path, capsys, text, out):
    # each once ended in a configparser error or an IsADirectoryError traceback
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and str(cfg if out != "." else tmp_path) in err, err
    assert not (tmp_path / "x.csv").exists()


def test_fractional_count_sweep_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG.replace("vary = P0", "vary = N")
                   .replace("values = 20, 30", "values = 4, 4.5"))
    rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "4.5" in err
    assert not (tmp_path / "x.csv").exists()


def test_estimability_error_is_numerical_failure(monkeypatch, capsys):
    # EstimabilityError is a ValueError; it must not read as a usage error
    def rank_deficient(*args):
        raise EstimabilityError("response matrix is rank-deficient")
    monkeypatch.setattr("irscrb.cli.allocate_optimal", rank_deficient)
    assert cli_main(["allocate", "--qtot", "600", "--wi", "1", "--ws", "1"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_linalg_error_is_numerical_failure(monkeypatch, capsys):
    # LinAlgError is a ValueError too; crb point once read it as a usage error
    def unconverged(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setitem(SCHEMES, "proposed_ao",
                        SCHEMES["proposed_ao"]._replace(evaluate=unconverged))
    assert cli_main(["crb", "point", "--config", str(CONFIGS / "point_p0.ini")]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("numerical failure: Eigenvalues did not converge"), err


def test_crb_point_past_the_float_range_is_numerical_failure(tmp_path, capsys):
    # at a subnormal BS-IRS gain and 0 dBm the bound passes the float range
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG.replace("p0_dbm = 30", "p0_dbm = 30\nd_bi_m = 1e12\n"
                                        "alpha_bi = 26"))
    assert cli_main(["crb", "point", "--config", str(cfg)]) == 0
    assert re.fullmatch(r"crb = \S+e\+30\d rad\^2  \(\S+ dB\)\n", capsys.readouterr().out)
    cfg.write_text(cfg.read_text().replace("p0_dbm = 30", "p0_dbm = 0"))
    assert cli_main(["crb", "point", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("numerical failure: bound "), err


@pytest.mark.parametrize("command", ["sweep", "crb"])
def test_bs_irs_distance_below_one_meter_warns(tmp_path, command):
    # the rows are evaluated at d_bi = 1, so the warning comes from the gain
    # the bounds are scaled by
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG.replace("p0_dbm = 30", "p0_dbm = 30\nd_bi_m = 0.5"))
    argv = {"sweep": ["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
            "crb": ["crb", "point", "--config", str(cfg)]}[command]
    with pytest.warns(UserWarning, match="distance 0.5 m is below the 1 m reference"):
        assert cli_main(argv) == 0


def test_crb_point_single_antenna(tmp_path, capsys):
    # at M = 1 the default proposed_ao prints the closed-form optimum's line
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG)
    for seed in range(5):
        lines = []
        for scheme in ([], ["--scheme", "single_antenna_closed"]):
            assert cli_main(["crb", "point", "--config", str(cfg), "--seed", str(seed),
                             *scheme]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1] and re.fullmatch(r"crb = \S+ rad\^2  \(\S+ dB\)\n",
                                                     lines[0]), lines


def test_crb_point_optimizing_schemes(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    # crb point reads no [sweep] key, but the file's sweep must be valid at M = 2
    cfg.write_text(POINT_CONFIG.replace("m = 1", "m = 2")
                   .replace("schemes = single_antenna_closed", "schemes = random_phase"))
    for scheme in ("proposed_ao", "isotropic_tx", "random_phase"):
        rc = cli_main(["crb", "point", "--config", str(cfg),
                       "--scheme", scheme])
        assert rc == 0
        assert "crb =" in capsys.readouterr().out


def test_crb_point_random_phase_uses_the_seeded_channel(tmp_path, capsys):
    # every point scheme's bound is that on rician_channel(base, seed=--seed)
    cfg = tmp_path / "cfg.ini"
    # crb point reads no [sweep] key, but the file's sweep must be valid at M = 2
    cfg.write_text(POINT_CONFIG.replace("m = 1", "m = 2")
                   .replace("schemes = single_antenna_closed", "schemes = random_phase"))
    base, theta, _ = load_config(str(cfg))
    for seed in range(4):
        rc = cli_main(["crb", "point", "--config", str(cfg),
                       "--scheme", "random_phase", "--seed", str(seed)])
        assert rc == 0
        ch = rician_channel(base, seed=seed)
        (crb,) = SCHEMES["random_phase"].evaluate(base, ch.G[None], theta, seed, [0])
        assert f"crb = {crb:.6e} rad^2" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["crb", "sweep"])
def test_single_antenna_closed_on_a_multi_antenna_config_is_usage_error(
        tmp_path, capsys, command):
    # the sweep spec refuses the scheme at M = 4 before any row runs, and
    # single_antenna_optimum refuses it for crb point
    cfg, csv = tmp_path / "cfg.ini", tmp_path / "x.csv"
    cfg.write_text(POINT_CONFIG.replace("m = 1", "m = 4"))
    argv = {"crb": ["crb", "point", "--config", str(CONFIGS / "point_p0.ini"),
                    "--scheme", "single_antenna_closed"],
            "sweep": ["sweep", "--config", str(cfg), "--out", str(csv)]}[command]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("usage error:") and "M = 1" in err, err
    assert not out and not csv.exists()


def test_crb_point_bad_scheme_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG)
    for scheme in ("nonsense", "extended_opt"):
        assert cli_main(["crb", "point", "--config", str(cfg),
                         "--scheme", scheme]) == 1
        out, err = capsys.readouterr()
        assert not out and "--scheme" in err and scheme in err, err


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


def test_crb_extended_scheme_is_usage_error(capsys):
    # once ignored with exit 0
    rc = cli_main(["crb", "extended", "--config", str(CONFIGS / "extended_k.ini"),
                   "--scheme", "proposed_ao"])
    out, err = capsys.readouterr()
    assert rc == 1 and not out
    assert "--scheme" in err


def test_unknown_flag_is_usage_error(capsys):
    rc = cli_main(["allocate", "--qtot", "600", "--wi", "1", "--ws", "1",
                   "--bogus"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert cli_main(["allocate", "--qtot", "600"]) == 1


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # a usage error, then two sweeps: each call gives what a fresh parser gives
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(POINT_CONFIG)
    calls = [["sweep", "--config", str(cfg)],
             ["sweep", "--config", str(cfg), "--out", str(tmp_path / "a.csv")],
             ["sweep", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]]

    def run(argv):
        rc = cli_main(argv)
        captured = capsys.readouterr()
        contract = [row.split(",")[:7] for row in
                    Path(argv[-1]).read_text().splitlines()] if rc == 0 else None
        return rc, captured.out, captured.err, contract

    _build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [rc for rc, *_ in shared] == [1, 0, 0]
    assert "--out" in shared[0][2] and "b.csv" in shared[2][1]
    assert shared[1][3] == shared[2][3]


def test_selftest(capsys):
    rc = cli_main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "selftest: PASS" in out


def _src_env() -> dict:
    """The environment with the imported irscrb's source tree first on PYTHONPATH."""
    src = str(Path(irscrb.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_runs_without_runpy_warning():
    # the package must not import irscrb.cli, or `python -m irscrb.cli`
    # finds it in sys.modules and warns before running it
    proc = subprocess.run(
        [sys.executable, "-m", "irscrb.cli", "allocate", "--qtot", "600",
         "--wi", "1", "--ws", "1"],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0
    assert "optimal" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", str(CONFIGS / "point_qtot.ini"), "--out", "out.csv"],
    ["crb", "extended", "--config", str(CONFIGS / "extended_k.ini")],
    ["allocate", "--qtot", "600", "--wi", "1", "--ws", "1"],
], ids=["sweep", "crb_extended", "allocate"])
def test_cli_runs_with_scipy_blocked(tmp_path, argv):
    # numpy is the only runtime dependency: with scipy unimportable, each
    # command still exits 0
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI_WITHOUT_SCIPY, *argv],
        capture_output=True, text=True, env=_src_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sweep_solving_an_sdp_never_imports_scipy(tmp_path):
    # the package depends on numpy alone; loading scipy.linalg would add
    # about 0.3 s and 20 MiB to every irscrb process
    cfg = tmp_path / "iso.ini"
    cfg.write_text(ISOTROPIC_TX_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_WITHOUT_SCIPY, str(cfg), str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    # exit code 0, one reflection SDR solved, no scipy module loaded
    assert proc.stdout.splitlines()[-1] == "0 1 []"
