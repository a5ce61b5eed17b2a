"""Config-driven parameter sweeps over the estimation bounds.

A sweep varies one system quantity over a value list, draws seeded channel
(and fading) realizations per trial, evaluates one bounding scheme and
averages over trials.  Draw seeds depend only on ``(seed, trial)``, never on
the swept value or the scheme, so curves over the same seed are paired
point-by-point and dropping a trial leaves the others untouched.

Configuration files are INI-style with three sections; powers are given in
dBm, ratios in dB and angles in degrees, mirroring how the quantities are
usually plotted.  An absent key takes the ``SystemConfig`` or ``SweepSpec``
default; any other section or key is refused, and so is a ``[sweep]`` key
that none of the file's sweeps reads::

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
    vary = P0           ; P0 | M | N | K | beta_BI | W_I | Q_tot
    values = 10, 20, 30 ; dBm for P0, dB for beta_BI, whole numbers for M, N, K
    schemes = proposed_ao, random_phase
    trials = 3
    seed = 1234
    alpha_draws = 50    ; point schemes only: fading draws averaged per trial
    ; q_tot = 600       ; W_I sweeps only
    ; w_i = 1           ; Q_tot sweeps only
    ; w_s = 1           ; W_I and Q_tot sweeps only

Sweeps over ``W_I`` or ``Q_tot`` first solve the element/sensor allocation
for each value, round the continuous split to integers and then evaluate
the scheme with those counts.

Every bound is exactly proportional to ``1/P0`` and to ``1/g_BI``, the
BS-IRS gain ``c0 d_bi^-alpha_bi`` (``fully_passive`` to ``1/g_BI^2``), so
each row is evaluated at 1 W and unit gain and scaled (:func:`unit_scaling`).
``extended_opt`` and ``extended_iso`` are also exactly proportional to K, so
they are evaluated at the base config's K and scaled by ``K / K_base`` too;
``fully_passive`` is not, since its return channel has K rows.
``fully_passive`` is ``crb_fully_passive_opt``, the ``extended_opt`` bound
at K = 1 times the return-channel factor ``tr((G_r^H G_r)^{-1})``.

The unit of evaluation is a row group: one distinct unit config and all of
its trials.  Its trials are evaluated as one batch: the closed-form schemes
make one call on the stacked trial channels, since their bounds accept a
stack of channels, while ``proposed_ao``, ``random_phase`` and
``isotropic_tx`` are called one trial at a time, so that a failing trial
fails alone.  Values with the same unit config reuse the group's bounds, so
a ``P0`` sweep, and a ``K`` sweep of ``extended_opt`` or ``extended_iso``,
evaluates each trial once.  Each trial's fading factor and its channel
stream, ``2 N M`` standard normals of its channel substream at the sweep's
largest ``N M``, are drawn once per sweep, before its first row.  Every row
group's channel is a prefix of that stream, scaled, and equals bit for bit
the channel ``rician_channel`` draws on its own.  ``fully_passive`` gets its
return channels the same way, from one return stream per trial at the
sweep's largest ``N K``.  ``wall_ms`` counts a row's own work: the slicing
and scaling of its group's channels, its solves and its scaling; the first
row also counts the draws for every row, and rows that reuse its group
report near-zero times.  A row owns every failure of its evaluation and
scaling (an ``OverflowError`` past the float range too): the spec checked
each input, so an ``ArithmeticError``, ``RuntimeError`` or ``ValueError``
(``LinAlgError`` too) is numerical, makes the row ``error:<type>`` and logs
one warning, and the sweep goes on.

The CSV contract: header ``vary,value,scheme,crb,crb_db,trials,status,
wall_ms``, one row per (value, scheme), floats in full-precision scientific
notation, status ``ok``, ``rank_deficient`` (crb ``inf``) or ``error:<type>``
(crb ``nan``), UTF-8 with LF line endings.  All columns except ``wall_ms``
are deterministic for a fixed config and seed.
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
# only perfbench/tracing.py uses the subproblems and the randomization here
from .ao import (_reflect, _top_phases, ao_minimize_crb, gaussian_randomization,
                 irs_subproblem, transmit_closed_form, transmit_subproblem)
from .arrays import large_scale_path_loss, target_steering
from .channel import channel_from_normals
# only perfbench/tracing.py uses rician_channel here
from .channel import rician_channel
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
                 "sweep": (*_SWEEP_KEYS, "schemes")}
# [sweep] key -> whether a spec reads it; the other keys every spec reads
_READ_BY = {"q_tot": lambda spec: spec.vary == "W_I",
            "w_i": lambda spec: spec.vary == "Q_tot",
            "w_s": lambda spec: spec.vary in ("W_I", "Q_tot"),
            "alpha_draws": lambda spec: spec.target == "point"}
THETA_DEG = 60.0                    # target DoA when [scene] gives none

CSV_HEADER = ("vary", "value", "scheme", "crb", "crb_db", "trials", "status",
              "wall_ms")

_log = logging.getLogger(__name__)

# stream tags for the per-trial substreams
_CHANNEL, _AO, _PHASE, _RANDOMIZE, _ALPHA, _RETURN = range(6)


def reference_config(**overrides) -> SystemConfig:
    """``SystemConfig(**overrides)``; kept only because perfbench/workloads.py
    imports it."""
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
        antennas = self.values if self.vary == "M" else (self.base.M,)
        if self.scheme == "single_antenna_closed" and any(m != 1 for m in antennas):
            raise ValueError(f"scheme 'single_antenna_closed' requires M = 1, got M = "
                             f"{max(antennas):g}")

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

    ``evaluate(cfg, g, theta, seed, trials)`` returns one bound per trial
    for the stacked channel draws ``g`` ([T, N, M]) of the trials ``trials``;
    point-target bounds are for a unit small-scale draw (alpha0 = 1).  Any
    further randomness comes from the (seed, trial) substreams.
    ``per_trial`` marks a scheme the sweep evaluates one trial at a time, so
    that a failing trial fails alone; ``linear_in_k`` marks a bound exactly
    proportional to K; ``return_link`` marks an evaluator that also takes
    ``returns``, the trials' return streams (see :func:`_fully_passive`).
    """

    target: str                         # "point" | "extended"
    evaluate: Callable[..., np.ndarray]
    per_trial: bool = False
    linear_in_k: bool = False
    return_link: bool = False


def _each_trial(evaluate: Callable[..., float]) -> Callable[..., np.ndarray]:
    """The batch evaluator of ``evaluate(cfg, G, theta, seed, trial)``."""
    return lambda cfg, g, theta, seed, trials: np.array(
        [evaluate(cfg, g_t, theta, seed, trial) for g_t, trial in zip(g, trials)])


@_each_trial
def _proposed_ao(cfg, g, theta, seed, trial) -> float:
    return ao_minimize_crb(point_scene(cfg, theta), g, cfg,
                           seed=derive_seed(seed, trial, _AO)).crb


@_each_trial
def _random_phase(cfg, g, theta, seed, trial) -> float:
    a = target_steering(theta, cfg.N, cfg.spacing, cfg.wavelength)
    v = np.exp(1j * make_rng(seed, trial, _PHASE).uniform(0.0, 2.0 * np.pi, cfg.N))
    r_x, _ = transmit_closed_form(v, a, g, cfg.K, cfg.P0)
    return crb_point_closed(point_scene(cfg, theta), r_x, v, g, cfg)


@_each_trial
def _isotropic_tx(cfg, g, theta, seed, trial) -> float:
    a = target_steering(theta, cfg.N, cfg.spacing, cfg.wavelength)
    r_iso = TransmitCovariance((cfg.P0 / cfg.M) * np.eye(cfg.M, dtype=complex), cfg.P0)
    kernel = _info_kernels(g, r_iso, a, cfg.K)
    v = _reflect(kernel, _top_phases(kernel[0]), derive_seed(seed, trial, _RANDOMIZE))[0]
    return crb_point_closed(point_scene(cfg, theta), r_iso, v, g, cfg)


def _single_antenna_closed(cfg, g, theta, seed, trials) -> np.ndarray:
    return single_antenna_optimum(point_scene(cfg, theta), g[..., 0], cfg)[1]


def _extended_opt(cfg, g, theta, seed, trials) -> np.ndarray:
    return crb_extended_opt(g, cfg.P0, cfg.K, cfg.T, cfg.noise_power).crb


def _extended_iso(cfg, g, theta, seed, trials) -> np.ndarray:
    return crb_extended_iso(g, cfg.P0, cfg.K, cfg.T, cfg.noise_power).crb


def _fully_passive(cfg, g, theta, seed, trials, returns) -> np.ndarray:
    """Echoes return through the IRS to K BS receive antennas over G_r [K, N],
    the transpose of the N x K channel scaled from ``returns`` [T, >= 2NK],
    each trial's ``_RETURN`` stream."""
    g_r = np.swapaxes(channel_from_normals(replace(cfg, M=cfg.K), returns), -1, -2)
    return crb_fully_passive_opt(g, g_r, cfg.P0, cfg.T, cfg.noise_power)


SCHEMES = {
    "proposed_ao": Scheme("point", _proposed_ao, per_trial=True),
    "random_phase": Scheme("point", _random_phase, per_trial=True),
    "isotropic_tx": Scheme("point", _isotropic_tx, per_trial=True),
    "single_antenna_closed": Scheme("point", _single_antenna_closed),
    "extended_opt": Scheme("extended", _extended_opt, linear_in_k=True),
    "extended_iso": Scheme("extended", _extended_iso, linear_in_k=True),
    "fully_passive": Scheme("extended", _fully_passive, return_link=True),
}
POINT_SCHEMES = tuple(name for name, s in SCHEMES.items() if s.target == "point")


def unit_scaling(kind: Scheme, cfg: SystemConfig, base_k: int) -> tuple[SystemConfig, Callable]:
    """The unit config of a row at ``cfg`` (1 W, ``d_bi = c0 = 1`` for unit
    BS-IRS gain, ``base_k`` for a bound linear in K) and the map from a bound
    there to one at ``cfg``: times ``K / base_k``, over ``P0``, over the gain
    (twice for a return link), a factor at a time, ``OverflowError`` past the float range."""
    unit = replace(cfg, P0=1.0, d_bi=1.0, c0=1.0, K=base_k if kind.linear_in_k else cfg.K)
    gain = large_scale_path_loss(cfg.d_bi, cfg.alpha_bi, cfg.c0)    # warns below 1 m

    def scale(bound: float) -> float:   # on Python floats, which overflow to inf with no warning
        scaled = float(bound) * (cfg.K / unit.K) / float(cfg.P0) / gain
        scaled = scaled / gain if kind.return_link else scaled
        if scaled == np.inf and bound != np.inf:
            raise OverflowError(f"bound {bound:g} over gain {gain:g} passes the float range")
        return scaled
    return unit, scale


def _normals(seed: int, trial: int, tag: int, length: int) -> np.ndarray:
    """``length`` standard normals of the stream that ``rician_channel``
    draws from at ``derive_seed(seed, trial, tag)``."""
    return make_rng(derive_seed(seed, trial, tag)).standard_normal(length)


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


def _failed(spec: SweepSpec, cfg: SystemConfig, trials: list[int], exc: Exception) -> str:
    """The status of a row whose ``trials`` at ``cfg`` raised ``exc``, logged once."""
    _log.warning("%s failed at P0=%g M=%d N=%d K=%d, seed %d, trial%s %s: %s: %s", spec.scheme,
                 cfg.P0, cfg.M, cfg.N, cfg.K, spec.seed, "s" if len(trials) > 1 else "",
                 ", ".join(map(str, trials)), type(exc).__name__, exc)
    return f"error:{type(exc).__name__}"


def _row_runner(spec: SweepSpec, configs: list[SystemConfig]
                ) -> Callable[[SystemConfig], tuple[np.ndarray, str]]:
    """``run(unit)`` for one sweep over the row configs ``configs``: the bound
    of every trial at the unit config ``unit`` and their status, kept per
    unit config; ``run_sweep`` scales them to each row's config.

    Each trial's fading factor, its channel stream and, where the scheme
    takes one, its return stream are drawn once, here, each stream long
    enough for every config in ``configs``; each row group's channels are a
    prefix of each stream, scaled in one call.  A trial that raises (the row
    owns every ``ArithmeticError``, ``RuntimeError`` and ``ValueError``) is
    nan and a rank-deficient one inf; the status is the first error, else
    ``rank_deficient`` if a trial is, else ``ok``.
    """
    scheme = SCHEMES[spec.scheme]
    trials = range(spec.trials)
    alpha = (np.array([_alpha_factor(spec, trial) for trial in trials])
             if scheme.target == "point" else np.ones(spec.trials))

    def streams(tag: int, size: int) -> np.ndarray:    # [trials, 2 * size]
        return np.stack([_normals(spec.seed, trial, tag, 2 * size) for trial in trials])

    channels = streams(_CHANNEL, max(cfg.N * cfg.M for cfg in configs))
    returns = (streams(_RETURN, max(cfg.N * cfg.K for cfg in configs))
               if scheme.return_link else None)
    rows = {}

    def evaluate(cfg: SystemConfig, batch: list[int]) -> tuple[np.ndarray, str]:
        try:
            g = channel_from_normals(cfg, channels[batch])
            extra = {"returns": returns[batch]} if scheme.return_link else {}
            crb = scheme.evaluate(cfg, g, spec.theta, spec.seed, batch,
                                  **extra) * alpha[batch]
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            return np.full(len(batch), np.nan), _failed(spec, cfg, batch, exc)
        return np.where(np.isfinite(crb), crb, np.inf), "ok"

    def run(unit: SystemConfig) -> tuple[np.ndarray, str]:
        if unit not in rows:
            batches = [[trial] for trial in trials] if scheme.per_trial else [list(trials)]
            results = [evaluate(unit, batch) for batch in batches]
            crbs = np.concatenate([crb for crb, _ in results])
            status = next((s for _, s in results if s != "ok"),
                          "rank_deficient" if np.isinf(crbs).any() else "ok")
            rows[unit] = crbs, status
        return rows[unit]
    return run


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the scheme on each row group, one unit config and all of its
    trials (see :func:`unit_scaling`), average, and scale to the row."""
    records = []
    configs = [_config_for(spec, value) for value in spec.values]
    tic = time.perf_counter()       # the first row's clock counts the draws
    run = _row_runner(spec, configs)
    for value, cfg in zip(spec.values, configs):
        unit, scale = unit_scaling(SCHEMES[spec.scheme], cfg, spec.base.K)
        crbs, status = run(unit)
        try:    # a failed trial is nan and a rank-deficient one inf, and so is the mean
            mean = scale(float(np.mean(crbs)))
        except OverflowError as exc:
            mean, status = float("nan"), _failed(spec, cfg, list(range(spec.trials)), exc)
        crb_db = 10.0 * np.log10(mean) if mean > 0 else float("nan")
        records.append(SweepRecord(
            vary=spec.vary, value=float(value), scheme=spec.scheme,
            crb_mean=mean, crb_db=float(crb_db), trials_used=spec.trials,
            wall_ms=(time.perf_counter() - tic) * 1e3, status=status,
        ))
        tic = time.perf_counter()
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

def _parsed(section: str, key: str, text: str, parse: Callable):
    """``parse(text)``; a value it cannot read is refused with a
    ``ValueError`` naming the section and the key."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"key {key!r} in section [{section}] has a malformed value: "
                         f"{exc}") from exc


def load_config(path: str) -> tuple[SystemConfig, float, list[SweepSpec]]:
    """Read an INI config; returns (system, theta, one spec per scheme).

    Its own refusals name the section and the key or scheme (a section or
    key outside the key tables, a value that is not a number, a ``[sweep]``
    without ``values`` or ``schemes``, a scheme listed twice, a ``[sweep]``
    key no spec reads); those of ``check``, ``SystemConfig`` and
    ``SweepSpec`` name the field.  One handler raises each of them, and each
    ``configparser`` error, again as a ``ValueError`` led by the file's path.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        sections = {name: dict(parser[name]) for name in parser.sections()}
        for key in ("values", "schemes"):
            if "sweep" in sections and key not in sections["sweep"]:
                raise ValueError(f"section [sweep] needs the key {key!r}")
        for name in parser:
            if name != parser.default_section and name not in _SECTION_KEYS:
                raise ValueError(f"unknown section [{name}]")
            for key in parser[name]:
                if key not in _SECTION_KEYS.get(name, ()):
                    raise ValueError(f"unknown key {key!r} in section [{name}]")
        system = sections.get("system", {})
        fields = {field: parse(_parsed("system", key, system[key], float))
                  for key, (field, parse) in _SYSTEM_KEYS.items() if key in system}
        base = SystemConfig(**fields)
        scene = sections.get("scene", {})
        theta_deg = check("theta_deg", _parsed("scene", "theta_deg",
                                               scene.get("theta_deg", THETA_DEG), float))
        theta = float(np.deg2rad(theta_deg))
        if "sweep" not in sections:
            return base, theta, []
        sweep = sections["sweep"]
        settings = {key: _parsed("sweep", key, sweep[key], parse)
                    for key, parse in _SWEEP_KEYS.items() if key in sweep}
        settings.setdefault("vary", "P0")
        schemes = [scheme.strip() for scheme in sweep["schemes"].split(",")]
        repeated = [scheme for i, scheme in enumerate(schemes) if scheme in schemes[:i]]
        if repeated:
            raise ValueError(f"scheme {repeated[0]!r} is listed twice in section [sweep]")
        specs = [SweepSpec(base=base, theta=theta, scheme=scheme, **settings)
                 for scheme in schemes]
        for key, reads in _READ_BY.items():     # after the specs check each value
            if key in sweep and not any(reads(spec) for spec in specs):
                raise ValueError(f"key {key!r} in section [sweep] is read by none of its sweeps")
        return base, theta, specs
    except (configparser.Error, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
