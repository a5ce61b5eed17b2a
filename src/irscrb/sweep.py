"""Config-driven parameter sweeps over the estimation bounds.

A sweep varies one system quantity over a value list, draws seeded channel
(and fading) realizations per point, evaluates one bounding scheme and
averages over trials.  Draw seeds depend only on ``(seed, trial)``, never on
the swept value or the scheme, so curves over the same seed are paired
point-by-point and dropping a trial leaves the others untouched.

Configuration files are INI-style with three sections; powers are given in
dBm, ratios in dB and angles in degrees, mirroring how the quantities are
usually plotted::

    [system]
    m = 8               ; BS antennas
    n = 8               ; IRS elements
    k = 8               ; IRS sensors
    t = 64              ; probing symbols
    p0_dbm = 30
    wavelength_m = 0.2
    spacing_m = 0.1     ; defaults to wavelength/2
    noise_dbm = -90
    d_bi_m = 60
    d_it_m = 20
    c0_loss_db = 30     ; path loss at the 1 m reference
    alpha_bi = 2.5
    rician_db = 5
    rcs_dbsm = 7

    [scene]
    theta_deg = 60      ; clamped to +-89 degrees

    [sweep]
    target = point      ; point | extended
    vary = P0           ; P0 | M | N | K | beta_BI | W_I | Q_tot
    values = 10, 20, 30 ; dBm for P0, dB for beta_BI, plain otherwise
    schemes = proposed_ao, random_phase
    trials = 3
    seed = 1234
    average_alpha = true
    alpha_draws = 50
    ao_samples = 200    ; Gaussian randomization draws per AO / isotropic_tx
    q_tot = 600         ; only for W_I / Q_tot sweeps
    w_i = 1
    w_s = 1

Sweeps over ``W_I`` or ``Q_tot`` first solve the element/sensor allocation
for each value, round the continuous split to integers and then evaluate
the scheme with those counts.

Every bound is homogeneous of degree -1 in the transmit budget, so each
trial is evaluated at ``P0 = 1 W`` and a row's mean is scaled by ``1/P0``.
Consecutive values with the same unit-power config reuse the trial results:
a ``P0`` sweep solves each trial once, and its later rows' ``wall_ms``
counts only their scaling, so the solve time sits on the first row.

The CSV contract: header ``vary,value,scheme,crb,crb_db,trials,status,
wall_ms``, one row per (value, scheme), floats in full-precision scientific
notation, infinite bounds spelled ``inf`` with status ``rank_deficient``,
UTF-8 with LF line endings.  All columns except ``wall_ms`` are
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import configparser
import csv
import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .allocation import allocate_optimal
# transmit_subproblem is not called here; perfbench/tracing.py patches this name
from .ao import (ao_minimize_crb, gaussian_randomization, irs_subproblem,
                 transmit_closed_form, transmit_subproblem)
from .arrays import target_steering
from .channel import rician_channel
from .config import (SystemConfig, db_to_linear, dbm_to_watt, derive_seed,
                     make_rng, point_scene)
from .extended import (EstimabilityError, FullyPassiveConfig, crb_extended_iso,
                       crb_extended_opt, crb_fully_passive,
                       optimal_transmit_extended)
from .pointcrb import crb_point_closed, single_antenna_optimum

VARY_CHOICES = ("P0", "M", "N", "K", "beta_BI", "W_I", "Q_tot")

CSV_HEADER = ("vary", "value", "scheme", "crb", "crb_db", "trials", "status",
              "wall_ms")
AO_SAMPLES = 200                    # Gaussian randomization draws per instance

_log = logging.getLogger(__name__)

# stream tags for the per-trial substreams
_CHANNEL, _AO, _PHASE, _RANDOMIZE, _ALPHA, _RETURN = range(6)


def reference_config(**overrides) -> SystemConfig:
    """The desk-scale ``SystemConfig`` defaults with ``overrides`` applied."""
    return SystemConfig(**overrides)


@dataclass(frozen=True)
class SweepSpec:
    base: SystemConfig
    theta: float                    # rad
    vary: str
    values: tuple[float, ...]       # file-level units (dBm / dB / counts)
    scheme: str
    trials: int = 1
    seed: int = 0
    average_alpha: bool = True
    alpha_draws: int = 50
    q_tot: float = 600.0            # allocation-driven sweeps only
    w_i: float = 1.0
    w_s: float = 1.0
    ao_samples: int = AO_SAMPLES

    def __post_init__(self):
        if self.vary not in VARY_CHOICES:
            raise ValueError(f"unknown vary {self.vary!r}; choose from {VARY_CHOICES}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if len(self.values) == 0:
            raise ValueError("value list must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.vary in ("W_I", "Q_tot") and self.target == "extended":
            raise ValueError("allocation sweeps apply to the point-target model")

    @property
    def target(self) -> str:
        return SCHEMES[self.scheme].target


@dataclass(frozen=True)
class SweepRecord:
    vary: str
    value: float
    scheme: str
    crb_mean: float
    crb_db: float
    trials_used: int
    wall_ms: float
    status: str


def _config_for(spec: SweepSpec, value: float) -> SystemConfig:
    base = spec.base
    if spec.vary == "P0":
        return replace(base, P0=dbm_to_watt(value))
    if spec.vary == "M":
        return replace(base, M=int(value))
    if spec.vary == "N":
        return replace(base, N=int(value))
    if spec.vary == "K":
        return replace(base, K=int(value))
    if spec.vary == "beta_BI":
        return replace(base, rician_factor=db_to_linear(value))
    if spec.vary == "W_I":
        split = allocate_optimal(spec.q_tot, value, spec.w_s)
    else:  # Q_tot
        split = allocate_optimal(value, spec.w_i, spec.w_s)
    n = max(1, round(split.n_cont))
    k = max(2, round(split.k_cont))
    return replace(base, N=n, K=k)


# -- schemes ------------------------------------------------------------------

class Scheme(NamedTuple):
    """A bounding scheme: the target model it applies to and its evaluator.

    ``evaluate(cfg, ch, theta, seed, trial, samples)`` returns the bound for
    the channel draw ``ch``; point-target bounds are for a unit small-scale
    draw (alpha0 = 1).  Any further randomness comes from the (seed, trial)
    substreams.
    """

    target: str                         # "point" | "extended"
    evaluate: Callable[..., float]


def _proposed_ao(cfg, ch, theta, seed, trial, samples) -> float:
    return ao_minimize_crb(point_scene(cfg, theta), ch.G, cfg, samples=samples,
                           seed=derive_seed(seed, trial, _AO)).crb


def _random_phase(cfg, ch, theta, seed, trial, samples) -> float:
    a = target_steering(theta, cfg.N, cfg.spacing, cfg.wavelength)
    v = np.exp(1j * make_rng(seed, trial, _PHASE).uniform(0.0, 2.0 * np.pi, cfg.N))
    r_x, _ = transmit_closed_form(v, a, ch.G, cfg.K, cfg.P0)
    return crb_point_closed(point_scene(cfg, theta), r_x, v, ch.G, cfg)


def _isotropic_tx(cfg, ch, theta, seed, trial, samples) -> float:
    a = target_steering(theta, cfg.N, cfg.spacing, cfg.wavelength)
    r_iso = (cfg.P0 / cfg.M) * np.eye(cfg.M, dtype=complex)
    lifted, _ = irs_subproblem(r_iso, a, ch.G, cfg.K)
    profile = gaussian_randomization(lifted, r_iso, a, ch.G, cfg.K, samples,
                                     derive_seed(seed, trial, _RANDOMIZE))
    return crb_point_closed(point_scene(cfg, theta), r_iso, profile.v, ch.G, cfg)


def _single_antenna_closed(cfg, ch, theta, seed, trial, samples) -> float:
    if cfg.M != 1:
        raise ValueError("single_antenna_closed requires a config with M = 1")
    return single_antenna_optimum(point_scene(cfg, theta), ch.h_bi, cfg)[2]


def _extended_opt(cfg, ch, theta, seed, trial, samples) -> float:
    return crb_extended_opt(ch.G, cfg.P0, cfg.K, cfg.T, cfg.noise_power).crb


def _extended_iso(cfg, ch, theta, seed, trial, samples) -> float:
    return crb_extended_iso(ch.G, cfg.P0, cfg.M, cfg.K, cfg.T, cfg.noise_power).crb


def _fully_passive(cfg, ch, theta, seed, trial, samples) -> float:
    # echoes return through the IRS to K BS receive antennas; the transmit
    # side reuses the optimal covariance.
    back_cfg = replace(cfg, M=cfg.K)
    g_r = rician_channel(back_cfg, seed=derive_seed(seed, trial, _RETURN)).G.T
    fp = FullyPassiveConfig(m_r=cfg.K, g_r=g_r)
    r_x = optimal_transmit_extended(ch.G, cfg.P0)
    return crb_fully_passive(r_x, ch.G, fp, cfg.T, cfg.noise_power)


SCHEMES = {
    "proposed_ao": Scheme("point", _proposed_ao),
    "random_phase": Scheme("point", _random_phase),
    "isotropic_tx": Scheme("point", _isotropic_tx),
    "single_antenna_closed": Scheme("point", _single_antenna_closed),
    "extended_opt": Scheme("extended", _extended_opt),
    "extended_iso": Scheme("extended", _extended_iso),
    "fully_passive": Scheme("extended", _fully_passive),
}
POINT_SCHEMES = tuple(name for name, s in SCHEMES.items() if s.target == "point")


def _alpha_factor(spec: SweepSpec, trial: int) -> float:
    """Scale from the unit-draw bound to the fading-aware bound.

    The bound is exactly proportional to 1/|alpha0|^2, so averaging over
    fading draws multiplies the unit-draw bound by mean(1/|alpha0|^2).
    """
    rng = make_rng(spec.seed, trial, _ALPHA)
    draws = spec.alpha_draws if spec.average_alpha else 1
    a0 = (rng.standard_normal(draws) + 1j * rng.standard_normal(draws)) / np.sqrt(2.0)
    return float(np.mean(1.0 / np.abs(a0) ** 2))


def _run_trial(spec: SweepSpec, cfg: SystemConfig, trial: int) -> tuple[float, str]:
    scheme = SCHEMES[spec.scheme]
    try:
        ch = rician_channel(cfg, seed=derive_seed(spec.seed, trial, _CHANNEL))
        crb = scheme.evaluate(cfg, ch, spec.theta, spec.seed, trial, spec.ao_samples)
        if scheme.target == "point" and np.isfinite(crb):
            crb *= _alpha_factor(spec, trial)
    except EstimabilityError:
        return float("inf"), "rank_deficient"
    except (ArithmeticError, RuntimeError) as exc:
        _log.warning("%s failed at P0=%g M=%d N=%d K=%d, seed %d, trial %d: %s: %s",
                     spec.scheme, cfg.P0, cfg.M, cfg.N, cfg.K, spec.seed, trial,
                     type(exc).__name__, exc)
        return float("nan"), f"error:{type(exc).__name__}"
    if not np.isfinite(crb):
        return float("inf"), "rank_deficient"
    return float(crb), "ok"


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the scheme over all (value, trial) items at 1 W, average, scale by 1/P0."""
    records = []
    unit_cfg = results = None
    for value in spec.values:
        cfg = _config_for(spec, value)
        tic = time.perf_counter()
        unit = replace(cfg, P0=1.0)
        if unit != unit_cfg:
            unit_cfg = unit
            results = [_run_trial(spec, unit_cfg, trial) for trial in range(spec.trials)]
        statuses = [status for _, status in results]
        if any(s.startswith("error") for s in statuses):
            status = next(s for s in statuses if s.startswith("error"))
            mean = float("nan")
        elif any(s == "rank_deficient" for s in statuses):
            status = "rank_deficient"
            mean = float("inf")
        else:
            status = "ok"
            mean = float(np.mean([crb for crb, _ in results])) / cfg.P0
        crb_db = 10.0 * np.log10(mean) if mean > 0 else float("nan")
        records.append(SweepRecord(
            vary=spec.vary, value=float(value), scheme=spec.scheme,
            crb_mean=mean, crb_db=float(crb_db), trials_used=spec.trials,
            wall_ms=(time.perf_counter() - tic) * 1e3, status=status,
        ))
    return records


# -- CSV ----------------------------------------------------------------------

def _fmt(x: float) -> str:
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    if np.isnan(x):
        return "nan"
    return f"{x:.17e}"


def emit_csv(records: list[SweepRecord], path: str) -> None:
    """Write records under the documented CSV contract."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for rec in records:
            fh.write(",".join([
                rec.vary,
                _fmt(rec.value),
                rec.scheme,
                _fmt(rec.crb_mean),
                _fmt(rec.crb_db),
                str(rec.trials_used),
                rec.status,
                _fmt(rec.wall_ms),
            ]) + "\n")


def read_csv(path: str) -> list[SweepRecord]:
    """Parse a file produced by :func:`emit_csv`."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"line {reader.line_num} has {len(row)} fields, "
                                 f"expected {len(CSV_HEADER)}")
            records.append(SweepRecord(
                vary=row[0], value=float(row[1]), scheme=row[2],
                crb_mean=float(row[3]), crb_db=float(row[4]),
                trials_used=int(row[5]), status=row[6], wall_ms=float(row[7]),
            ))
    return records


# -- config files -------------------------------------------------------------

def load_config(path: str) -> tuple[SystemConfig, float, list[SweepSpec]]:
    """Read an INI config; returns (system, theta, one spec per scheme)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)

    sys_sec = parser["system"] if parser.has_section("system") else {}
    wavelength = float(sys_sec.get("wavelength_m", 0.2))
    base = reference_config(
        M=int(sys_sec.get("m", 4)),
        N=int(sys_sec.get("n", 4)),
        K=int(sys_sec.get("k", 4)),
        T=int(sys_sec.get("t", 64)),
        P0=dbm_to_watt(float(sys_sec.get("p0_dbm", 30.0))),
        wavelength=wavelength,
        spacing=float(sys_sec.get("spacing_m", wavelength / 2.0)),
        noise_power=dbm_to_watt(float(sys_sec.get("noise_dbm", -90.0))),
        d_bi=float(sys_sec.get("d_bi_m", 60.0)),
        d_it=float(sys_sec.get("d_it_m", 20.0)),
        c0=db_to_linear(-float(sys_sec.get("c0_loss_db", 30.0))),
        alpha_bi=float(sys_sec.get("alpha_bi", 2.5)),
        rician_factor=db_to_linear(float(sys_sec.get("rician_db", 5.0))),
        rcs=db_to_linear(float(sys_sec.get("rcs_dbsm", 7.0))),
    )

    scene_sec = parser["scene"] if parser.has_section("scene") else {}
    theta_deg = float(scene_sec.get("theta_deg", 60.0))
    theta_deg = float(np.clip(theta_deg, -89.0, 89.0))
    theta = float(np.deg2rad(theta_deg))

    specs: list[SweepSpec] = []
    if parser.has_section("sweep"):
        sweep_sec = parser["sweep"]
        values = tuple(float(x) for x in sweep_sec["values"].split(","))
        schemes = [s.strip() for s in sweep_sec["schemes"].split(",")]
        for scheme in schemes:
            specs.append(SweepSpec(
                base=base,
                theta=theta,
                vary=sweep_sec.get("vary", "P0").strip(),
                values=values,
                scheme=scheme,
                trials=int(sweep_sec.get("trials", 1)),
                seed=int(sweep_sec.get("seed", 0)),
                average_alpha=sweep_sec.get("average_alpha", "true").strip().lower()
                in ("1", "true", "yes", "on"),
                alpha_draws=int(sweep_sec.get("alpha_draws", 50)),
                q_tot=float(sweep_sec.get("q_tot", 600.0)),
                w_i=float(sweep_sec.get("w_i", 1.0)),
                w_s=float(sweep_sec.get("w_s", 1.0)),
                ao_samples=int(sweep_sec.get("ao_samples", AO_SAMPLES)),
            ))
        target = sweep_sec.get("target")
        if target is not None:
            for spec in specs:
                if spec.target != target.strip():
                    raise ValueError(
                        f"scheme {spec.scheme!r} does not match target {target!r}"
                    )
    return base, theta, specs
