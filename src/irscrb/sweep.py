"""Config-driven parameter sweeps over the estimation bounds.

A sweep varies one system quantity over a value list, draws seeded channel
(and fading) realizations per trial, evaluates one bounding scheme and
averages over trials.  Draw seeds depend only on ``(seed, trial)``, never on
the swept value or the scheme, so curves over the same seed are paired
point-by-point and dropping a trial leaves the others untouched.

Configuration files are INI-style with three sections; powers are given in
dBm, ratios in dB and angles in degrees, mirroring how the quantities are
usually plotted.  An absent key takes the ``SystemConfig`` or ``SweepSpec``
default; any other section or key is refused::

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
    theta_deg = 60      ; within +-89 degrees

    [sweep]
    target = point      ; point | extended
    vary = P0           ; P0 | M | N | K | beta_BI | W_I | Q_tot
    values = 10, 20, 30 ; dBm for P0, dB for beta_BI, whole numbers for M, N, K
    schemes = proposed_ao, random_phase
    trials = 3
    seed = 1234
    alpha_draws = 50    ; fading draws averaged per trial, 1 for a single draw
    q_tot = 600         ; only for W_I / Q_tot sweeps
    w_i = 1
    w_s = 1

Sweeps over ``W_I`` or ``Q_tot`` first solve the element/sensor allocation
for each value, round the continuous split to integers and then evaluate
the scheme with those counts.

Every bound is homogeneous of degree -1 in the transmit budget, so each
trial is evaluated at ``P0 = 1 W`` and a row's mean is scaled by ``1/P0``.
The ``extended_opt`` and ``extended_iso`` bounds are also exactly
proportional to K, so they are evaluated at the base config's K and scaled
by ``K / K_base`` too; ``fully_passive`` is not, since its return channel
has K rows.  Values with the same unit config reuse the trial results, so a
``P0`` sweep, and a ``K`` sweep of those two schemes, solves each trial
once.  ``fully_passive`` is ``crb_fully_passive_opt``, the ``extended_opt``
bound at K = 1 times the return-channel factor ``tr((G_r^H G_r)^{-1})``.  Each
trial's channel seed and fading factor are drawn once per sweep, and its
channel once per distinct ``DRAW_FIELDS`` (once for a ``K`` sweep), by the
first row that needs it; ``wall_ms`` counts a row's own draws, solves and
scaling, so rows after the first that reuse its results report near-zero
times.

The CSV contract: header ``vary,value,scheme,crb,crb_db,trials,status,
wall_ms``, one row per (value, scheme), floats in full-precision scientific
notation, infinite bounds spelled ``inf`` with status ``rank_deficient``,
UTF-8 with LF line endings.  All columns except ``wall_ms`` are
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import configparser
import csv
import functools
import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .allocation import allocate_optimal
# only perfbench/tracing.py uses the subproblems and the randomization here
from .ao import (_reflect, _top_phases, ao_minimize_crb, gaussian_randomization,
                 irs_subproblem, transmit_closed_form, transmit_subproblem)
from .arrays import target_steering
from .channel import DRAW_FIELDS, rician_channel
from .config import (SystemConfig, check, db_to_linear, dbm_to_watt, derive_seed,
                     make_rng, point_scene)
# only perfbench/tracing.py uses crb_fully_passive and optimal_transmit_extended here
from .extended import (crb_extended_iso, crb_extended_opt, crb_fully_passive,
                       crb_fully_passive_opt, optimal_transmit_extended)
from .pointcrb import (TransmitCovariance, _info_kernels, crb_point_closed,
                       single_antenna_optimum)


def _count(value: float | str) -> int | float:
    """A whole number as an int, exactly for an integer literal; anything
    else as a float, which the domain check of its key then refuses."""
    if isinstance(value, str) and value.strip().lstrip("+-").isdecimal():
        return int(value)
    value = float(value)
    return int(value) if value.is_integer() else value


# [system] key -> (SystemConfig field, parse from the file's unit)
_SYSTEM_KEYS = {
    "m": ("M", _count),
    "n": ("N", _count),
    "k": ("K", _count),
    "t": ("T", _count),
    "p0_dbm": ("P0", dbm_to_watt),
    "wavelength_m": ("wavelength", float),
    "spacing_m": ("spacing", float),
    "noise_dbm": ("noise_power", dbm_to_watt),
    "d_bi_m": ("d_bi", float),
    "d_it_m": ("d_it", float),
    "c0_loss_db": ("c0", lambda loss_db: db_to_linear(-loss_db)),
    "alpha_bi": ("alpha_bi", float),
    "rician_db": ("rician_factor", db_to_linear),
    "rcs_dbsm": ("rcs", db_to_linear),
}
# vary -> (field, parse) of its [system] key; W_I and Q_tot allocate N and K
_SWEPT = {vary: _SYSTEM_KEYS[key] for vary, key in
          (("P0", "p0_dbm"), ("M", "m"), ("N", "n"), ("K", "k"), ("beta_BI", "rician_db"))}
# vary -> (domain, parse) of each of its values
_VALUES = {**_SWEPT, "W_I": ("w_i", float), "Q_tot": ("q_tot", float)}
VARY_CHOICES = tuple(_VALUES)
# [sweep] key -> parse of the SweepSpec field of the same name
_SWEEP_KEYS = {"vary": str, "values": lambda text: tuple(float(x) for x in text.split(",")),
               "trials": _count, "seed": _count, "alpha_draws": _count, "q_tot": float,
               "w_i": float, "w_s": float}
_SECTION_KEYS = {"system": _SYSTEM_KEYS, "scene": ("theta_deg",),
                 "sweep": (*_SWEEP_KEYS, "schemes", "target")}
THETA_DEG = 60.0                    # target DoA when [scene] gives none

CSV_HEADER = ("vary", "value", "scheme", "crb", "crb_db", "trials", "status",
              "wall_ms")

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
    alpha_draws: int = 50
    q_tot: float = 600.0            # allocation-driven sweeps only
    w_i: float = 1.0
    w_s: float = 1.0

    def __post_init__(self):
        if self.vary not in VARY_CHOICES:
            raise ValueError(f"unknown vary {self.vary!r}; choose from {VARY_CHOICES}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if len(self.values) == 0:
            raise ValueError("value list must be non-empty")
        for key in ("theta", "trials", "seed", "alpha_draws", "q_tot", "w_i", "w_s"):
            check(key, getattr(self, key))
        domain, parse = _VALUES[self.vary]
        for value in self.values:       # in file units, then as the swept field
            check("values", parse(check("values", value)), domain)
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
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
    if spec.vary in _SWEPT:
        field, parse = _SWEPT[spec.vary]
        return replace(spec.base, **{field: parse(value)})
    if spec.vary == "W_I":
        split = allocate_optimal(spec.q_tot, value, spec.w_s)
    else:  # Q_tot
        split = allocate_optimal(value, spec.w_i, spec.w_s)
    n = max(1, round(split.n_cont))
    k = max(2, round(split.k_cont))
    return replace(spec.base, N=n, K=k)


# -- schemes ------------------------------------------------------------------

class Scheme(NamedTuple):
    """A bounding scheme: the target model it applies to and its evaluator.

    ``evaluate(cfg, ch, theta, seed, trial)`` returns the bound for the
    channel draw ``ch``; point-target bounds are for a unit small-scale draw
    (alpha0 = 1).  Any further randomness comes from the (seed, trial)
    substreams.  ``linear_in_k`` marks a bound exactly proportional to K.
    """

    target: str                         # "point" | "extended"
    evaluate: Callable[..., float]
    linear_in_k: bool = False


def _proposed_ao(cfg, ch, theta, seed, trial) -> float:
    return ao_minimize_crb(point_scene(cfg, theta), ch.G, cfg,
                           seed=derive_seed(seed, trial, _AO)).crb


def _random_phase(cfg, ch, theta, seed, trial) -> float:
    a = target_steering(theta, cfg.N, cfg.spacing, cfg.wavelength)
    v = np.exp(1j * make_rng(seed, trial, _PHASE).uniform(0.0, 2.0 * np.pi, cfg.N))
    r_x, _ = transmit_closed_form(v, a, ch.G, cfg.K, cfg.P0)
    return crb_point_closed(point_scene(cfg, theta), r_x, v, ch.G, cfg)


def _isotropic_tx(cfg, ch, theta, seed, trial) -> float:
    a = target_steering(theta, cfg.N, cfg.spacing, cfg.wavelength)
    r_iso = TransmitCovariance((cfg.P0 / cfg.M) * np.eye(cfg.M, dtype=complex), cfg.P0)
    kernel = _info_kernels(ch.G, r_iso, a, cfg.K)
    v = _reflect(kernel, _top_phases(kernel[0]), derive_seed(seed, trial, _RANDOMIZE))[0]
    return crb_point_closed(point_scene(cfg, theta), r_iso, v, ch.G, cfg)


def _single_antenna_closed(cfg, ch, theta, seed, trial) -> float:
    return single_antenna_optimum(point_scene(cfg, theta), ch.G[:, 0], cfg)[1]


def _extended_opt(cfg, ch, theta, seed, trial) -> float:
    return crb_extended_opt(ch.G, cfg.P0, cfg.K, cfg.T, cfg.noise_power).crb


def _extended_iso(cfg, ch, theta, seed, trial) -> float:
    return crb_extended_iso(ch.G, cfg.P0, cfg.K, cfg.T, cfg.noise_power).crb


def _fully_passive(cfg, ch, theta, seed, trial) -> float:
    # echoes return through the IRS to K BS receive antennas
    back_cfg = replace(cfg, M=cfg.K)
    g_r = rician_channel(back_cfg, seed=derive_seed(seed, trial, _RETURN)).G.T
    return crb_fully_passive_opt(ch.G, g_r, cfg.P0, cfg.T, cfg.noise_power)


SCHEMES = {
    "proposed_ao": Scheme("point", _proposed_ao),
    "random_phase": Scheme("point", _random_phase),
    "isotropic_tx": Scheme("point", _isotropic_tx),
    "single_antenna_closed": Scheme("point", _single_antenna_closed),
    "extended_opt": Scheme("extended", _extended_opt, linear_in_k=True),
    "extended_iso": Scheme("extended", _extended_iso, linear_in_k=True),
    "fully_passive": Scheme("extended", _fully_passive),
}
POINT_SCHEMES = tuple(name for name, s in SCHEMES.items() if s.target == "point")


def _alpha_factor(spec: SweepSpec, trial: int) -> float:
    """Scale from the unit-draw bound to the fading-aware bound.

    The bound is exactly proportional to 1/|alpha0|^2, so averaging over
    fading draws multiplies the unit-draw bound by mean(1/|alpha0|^2).
    This mean does not converge: for alpha0 ~ CN(0, 1), |alpha0|^2 is
    Exp(1) and E[1/|alpha0|^2] is infinite, so the factor grows with
    ``alpha_draws`` and is heavy-tailed across seeds (ROADMAP item 8).
    """
    rng = make_rng(spec.seed, trial, _ALPHA)
    a0 = (rng.standard_normal(spec.alpha_draws)
          + 1j * rng.standard_normal(spec.alpha_draws)) / np.sqrt(2.0)
    return float(np.mean(1.0 / np.abs(a0) ** 2))


def _trial_runner(spec: SweepSpec) -> Callable[[SystemConfig, int], tuple[float, str]]:
    """``run(cfg, trial)`` for one sweep, keeping results and draws: a trial's
    channel seed and fading factor, and its channel per ``DRAW_FIELDS``."""
    channels = {}
    seed = functools.cache(lambda trial: derive_seed(spec.seed, trial, _CHANNEL))
    alpha = functools.cache(lambda trial: _alpha_factor(spec, trial))
    @functools.cache
    def run(cfg: SystemConfig, trial: int) -> tuple[float, str]:
        scheme = SCHEMES[spec.scheme]
        try:
            key = (trial, *(getattr(cfg, name) for name in DRAW_FIELDS))
            if key not in channels:
                channels[key] = rician_channel(cfg, seed=seed(trial))
            crb = scheme.evaluate(cfg, channels[key], spec.theta, spec.seed, trial)
            if scheme.target == "point" and np.isfinite(crb):
                crb *= alpha(trial)
        except (ArithmeticError, RuntimeError) as exc:
            _log.warning("%s failed at P0=%g M=%d N=%d K=%d, seed %d, trial %d: %s: %s",
                         spec.scheme, cfg.P0, cfg.M, cfg.N, cfg.K, spec.seed, trial,
                         type(exc).__name__, exc)
            return float("nan"), f"error:{type(exc).__name__}"
        if not np.isfinite(crb):
            return float("inf"), "rank_deficient"
        return float(crb), "ok"
    return run


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the scheme over all (value, trial) items at 1 W (and at the
    base K for a bound linear in K), average, and scale by 1/P0 (and K)."""
    records = []
    run = _trial_runner(spec)
    linear_in_k = SCHEMES[spec.scheme].linear_in_k
    for value in spec.values:
        cfg = _config_for(spec, value)
        tic = time.perf_counter()
        unit = replace(cfg, P0=1.0, K=spec.base.K if linear_in_k else cfg.K)
        results = [run(unit, trial) for trial in range(spec.trials)]
        statuses = [status for _, status in results]
        status = next((s for s in statuses if s.startswith("error")),
                      "rank_deficient" if "rank_deficient" in statuses else "ok")
        # a failed trial is nan and a rank-deficient one inf, and so is the mean
        mean = float(np.mean([crb for crb, _ in results])) * (cfg.K / unit.K) / cfg.P0
        crb_db = 10.0 * np.log10(mean) if mean > 0 else float("nan")
        records.append(SweepRecord(
            vary=spec.vary, value=float(value), scheme=spec.scheme,
            crb_mean=mean, crb_db=float(crb_db), trials_used=spec.trials,
            wall_ms=(time.perf_counter() - tic) * 1e3, status=status,
        ))
    return records


# -- CSV ----------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17e}"          # inf, -inf and nan as such


def emit_csv(records: list[SweepRecord], path: str) -> None:
    """Write records under the documented CSV contract."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([rec.vary, _fmt(rec.value), rec.scheme, _fmt(rec.crb_mean),
                          _fmt(rec.crb_db), rec.trials_used, rec.status, _fmt(rec.wall_ms)]
                         for rec in records)


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
    """Read an INI config; returns (system, theta, one spec per scheme).

    A section or key outside the key tables, a ``[sweep]`` without
    ``values`` or ``schemes``, or a scheme listed twice is refused with a
    ``ValueError`` naming the file, the section and the key or scheme, and a
    file ``configparser`` cannot read (a duplicate key, a bare ``%``) with
    one naming the file.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path):
            raise FileNotFoundError(path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for key in ("values", "schemes"):
        if "sweep" in sections and key not in sections["sweep"]:
            raise ValueError(f"{path}: section [sweep] needs the key {key!r}")
    for name in parser:
        if name != parser.default_section and name not in _SECTION_KEYS:
            raise ValueError(f"{path}: unknown section [{name}]")
        for key in parser[name]:
            if key not in _SECTION_KEYS.get(name, ()):
                raise ValueError(f"{path}: unknown key {key!r} in section [{name}]")

    system = sections.get("system", {})
    fields = {field: parse(float(system[key]))
              for key, (field, parse) in _SYSTEM_KEYS.items() if key in system}
    if "wavelength" in fields:
        fields.setdefault("spacing", fields["wavelength"] / 2.0)
    base = SystemConfig(**fields)
    theta_deg = check("theta_deg", float(sections.get("scene", {}).get("theta_deg", THETA_DEG)))
    theta = float(np.deg2rad(theta_deg))

    if "sweep" not in sections:
        return base, theta, []
    sweep = sections["sweep"]
    settings = {key: parse(sweep[key]) for key, parse in _SWEEP_KEYS.items() if key in sweep}
    settings.setdefault("vary", "P0")
    schemes = [scheme.strip() for scheme in sweep["schemes"].split(",")]
    repeated = [scheme for i, scheme in enumerate(schemes) if scheme in schemes[:i]]
    if repeated:
        raise ValueError(f"{path}: scheme {repeated[0]!r} is listed twice in section [sweep]")
    specs = [SweepSpec(base=base, theta=theta, scheme=scheme, **settings) for scheme in schemes]
    target = sweep.get("target")
    for spec in specs:
        if target is not None and spec.target != target:
            raise ValueError(f"scheme {spec.scheme!r} does not match target {target!r}")
    return base, theta, specs
