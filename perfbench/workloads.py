"""Benchmark workloads: recorded instance pools, seeded passes and output checks.

Each workload draws its jobs from a fixed pool of distinct inputs whose
bounds, as the seed commit computed them, are recorded in ``reference.json``
and, for closed_forms, ``reference_closed_forms.npy``.  A run walks through the pool one pass after another, so a job's inputs
repeat only after every other pool member has run.  A pass keeps the pool's
blocks of ``BLOCK`` keys in order and shuffles each block by the workload
seed.  A workload whose pool has failing members runs whole blocks
(:func:`fixed_keys`), so every run attempts the same jobs and fails the same
rows; the others run for a given time.  Failing pool members stay in the
pool and are counted, never skipped.

Import only after :func:`env.pin_environment`.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import io
import json
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

import irscrb.ao
import irscrb.cli
import irscrb.sweep
from irscrb.channel import rician_channel
from irscrb.config import point_scene
from irscrb.pointcrb import crb_point_closed
from irscrb.sweep import SweepSpec, load_config, read_csv, reference_config

from env import ROOT

WORKLOADS = ("ao_design", "sweep_p0", "closed_forms")
POOL_SEED = 20240203
REFERENCE_PATH = ROOT / "perfbench" / "reference.json"
CLOSED_BOUNDS_PATH = ROOT / "perfbench" / "reference_closed_forms.npy"
WORK_ROOT = ROOT / ".perfbench_work"
WORK_DIR = WORK_ROOT / str(os.getpid())     # one per process: runs may overlap

# Reference comparison.  Closed forms must repeat to rounding; the random
# phase scheme is one convex transmit SDP (solver tolerance 1e-9), so its
# value is unique up to that tolerance; the AO and isotropic schemes are
# nonconvex, so a better optimum passes and only a worse one is limited.
CLOSED_FORM = frozenset({"single_antenna_closed", "extended_opt",
                         "extended_iso", "fully_passive"})
CONVEX = frozenset({"random_phase"})
CLOSED_RTOL = 1e-9
CONVEX_RTOL = 1e-6
ITEM_EXCESS_DB = 0.5      # worst allowed loss on any one optimizer item
MEAN_EXCESS_DB = 1e-3     # absolute bound on crb_excess_db
AO_CHECK_RTOL = 1e-9      # recomputed bound against AoResult.crb
UNIT_MODULUS_ATOL = 1e-9
POWER_RTOL = 1e-6

STATUS_RE = re.compile(r"ok|rank_deficient|error:[A-Za-z_][A-Za-z0-9_]*")

# Pool keys shuffled together in a pass.  A run over a seeded order of all
# 40 sweep_p0 invocations spread items_per_s by 0.18 over six seeds; runs of
# whole blocks all reach the same cost mix.  Small, so that a fixed-size run
# of sweep_p0 fills --seconds to within two invocations.
BLOCK = 4

# Jobs replayed by the traced run: the first pool members, in the order of
# the first pass; fixed so its counts repeat exactly, whatever the seed.
TRACE_JOBS = {"ao_design": 12, "sweep_p0": 3, "closed_forms": 300}

PLAIN = SimpleNamespace(ao_minimize_crb=irscrb.ao.ao_minimize_crb,
                        cli_main=irscrb.cli.cli_main,
                        run_sweep=irscrb.sweep.run_sweep)


def derive(*key: int) -> int:
    """32-bit seed for one pool member, a pure function of the key."""
    ss = np.random.SeedSequence(entropy=POOL_SEED, spawn_key=key)
    return int(ss.generate_state(1, np.uint32)[0])


def remove_work_dir() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()


def load_reference() -> dict:
    """Recorded rows per pool key; closed_forms keeps only its bounds, in a
    float array indexed by (family, seed, value)."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    reference["workloads"]["closed_forms"] = {"bounds": np.load(CLOSED_BOUNDS_PATH)}
    return reference


def pass_blocks(workload, seed: int, index: int) -> list[list[str]]:
    """Pool keys of pass ``index``, block by block, each block in seeded order."""
    pool = workload.pool
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(index,))))
    return [[pool[start + i] for i in rng.permutation(min(BLOCK, len(pool) - start))]
            for start in range(0, len(pool), BLOCK)]


def pass_keys(workload, seed: int, index: int) -> list[str]:
    return [key for block in pass_blocks(workload, seed, index) for key in block]


def fixed_keys(workload, seed: int, seconds: float) -> list[str] | None:
    """The jobs of one run of a workload that has failing pool members, or
    None for a workload that runs for ``seconds``.

    The run makes whole blocks, as many as ``seconds`` hold at the seed
    commit's cost of ``workload.job_s`` a job.  A block's members do not
    depend on the seed, so every run with the same ``seconds`` attempts the
    same jobs and fails the same rows, on a fast host or a slow one; the
    seed orders them.
    """
    if workload.job_s is None:
        return None
    count = max(1, round(seconds / (BLOCK * workload.job_s)))
    blocks: list[list[str]] = []
    index = 0
    while len(blocks) < count:
        blocks.extend(pass_blocks(workload, seed, index))
        index += 1
    return [key for block in blocks[:count] for key in block]


def trace_keys(workload, seed: int) -> list[str]:
    first = set(workload.pool[:TRACE_JOBS[workload.name]])
    return [key for key in pass_keys(workload, seed, 0) if key in first]


@dataclass
class Job:
    key: str
    inputs: dict


# Rows are the unit of checking: (value, scheme, status, crb, trials).

def _rows_from_records(records) -> list[tuple]:
    return [(float(r.value), r.scheme, r.status, float(r.crb_mean), int(r.trials_used))
            for r in records]


def check_ao_result(scene, g, config, result) -> list[str]:
    """Invariants of one AoResult, recomputed from what it returned."""
    errors = []
    v = np.asarray(result.v.v)
    if np.abs(np.abs(v) - 1.0).max() > UNIT_MODULUS_ATOL:
        errors.append("reflection profile is not unit modulus")
    power = float(np.real(np.trace(result.R_x.matrix)))
    if power > config.P0 * (1.0 + POWER_RTOL):
        errors.append(f"tr R_x = {power!r} exceeds P0 = {config.P0!r}")
    again = crb_point_closed(scene, result.R_x, result.v, g, config)
    if not math.isclose(again, result.crb, rel_tol=AO_CHECK_RTOL):
        errors.append(f"recomputed bound {again!r} differs from AoResult.crb {result.crb!r}")
    return errors


class Workload:
    name: str
    pool_size: int
    job_s: float | None = None      # seconds a job at the seed commit; see fixed_keys

    @functools.cached_property
    def pool(self) -> list[str]:
        return [f"{self.name}/{i}" for i in range(self.pool_size)]

    def reference_rows(self, reference: dict, key: str) -> list[list]:
        return reference["workloads"][self.name]["items"][key]["rows"]


class AoDesign(Workload):
    """Back-to-back ao_minimize_crb instances, M = K = 8, P0 = 1 W, 60 degrees.

    Instance cost spans 0.25-7.4 s at the seed commit, so a run that does
    not cover the whole pool has a throughput that depends on the seed.
    """

    name = "ao_design"
    sizes = (16, 24)
    pool_size = 12
    job_s = 3.0

    def prepare(self, key: str) -> Job:
        i = int(key.rsplit("/", 1)[1])
        cfg = reference_config(M=8, N=self.sizes[i % 2], K=8, P0=1.0)
        scene = point_scene(cfg, float(np.deg2rad(60.0)))
        g = rician_channel(cfg, seed=derive(0, i, 0)).G
        return Job(key, dict(scene=scene, g=g, cfg=cfg, seed=derive(0, i, 1)))

    def call(self, job: Job, fns):
        x = job.inputs
        try:
            return fns.ao_minimize_crb(x["scene"], x["g"], x["cfg"], seed=x["seed"])
        except (RuntimeError, ArithmeticError) as exc:
            return exc

    def job_failed(self, raw) -> bool:
        return isinstance(raw, Exception)

    def rows(self, job: Job, raw) -> tuple[list[tuple], list[str]]:
        n = float(job.inputs["cfg"].N)
        if isinstance(raw, Exception):
            return [(n, "proposed_ao", f"error:{type(raw).__name__}", math.nan, 1)], []
        x = job.inputs
        status = "ok" if math.isfinite(raw.crb) else "rank_deficient"
        return ([(n, "proposed_ao", status, float(raw.crb), 1)],
                check_ao_result(x["scene"], x["g"], x["cfg"], raw))


class SweepP0(Workload):
    """``irscrb sweep`` in-process on the shipped point_p0.ini, the whole
    config per invocation, with its ``[sweep] seed`` replaced by a pool seed.

    Every pool member draws other channels, so no invocation in a run
    repeats the inputs of another unless the whole pool has run.
    """

    name = "sweep_p0"
    config = ROOT / "configs" / "point_p0.ini"
    pool_size = 40
    job_s = 3.4

    def _parser(self) -> configparser.ConfigParser:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        if not parser.read(self.config):
            raise FileNotFoundError(self.config)
        return parser

    def prepare(self, key: str) -> Job:
        i = int(key.rsplit("/", 1)[1])
        parser = self._parser()
        sweep = parser["sweep"]
        sweep["seed"] = str(derive(1, i))
        rows = len(sweep["values"].split(",")) * len(sweep["schemes"].split(","))
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        stem = key.replace("/", "-")
        config_path = WORK_DIR / f"{stem}.ini"
        with open(config_path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        return Job(key, dict(config=str(config_path), out=str(WORK_DIR / f"{stem}.csv"),
                             expected_rows=rows))

    def call(self, job: Job, fns):
        x = job.inputs
        with contextlib.redirect_stdout(io.StringIO()):
            return fns.cli_main(["sweep", "--config", x["config"], "--out", x["out"]])

    def job_failed(self, raw) -> bool:
        return raw != 0

    def rows(self, job: Job, raw) -> tuple[list[tuple], list[str]]:
        if raw != 0:
            return [], [f"irscrb sweep exited with code {raw}"]
        try:
            records = read_csv(job.inputs["out"])
        except (ValueError, IndexError) as exc:
            return [], [f"CSV does not parse: {exc}"]
        errors = []
        if len(records) != job.inputs["expected_rows"]:
            errors.append(f"CSV has {len(records)} rows, expected "
                          f"{job.inputs['expected_rows']}")
        return _rows_from_records(records), errors


def _closed_families() -> dict[str, SweepSpec]:
    """run_sweep specs without an SDP: the extended config's three schemes
    and single-antenna closed-form sweeps over Q_tot, W_I, N and P0.

    Seven families put the median job inside the cost cluster of the
    middle two (N and P0, about 4 ms each); with six it fell between two
    clusters and moved with their relative speed.
    """
    _, _, extended = load_config(str(ROOT / "configs" / "extended_k.ini"))
    base, theta, _ = load_config(str(ROOT / "configs" / "point_p0.ini"))
    single = dict(base=replace(base, M=1), theta=theta,
                  scheme="single_antenna_closed", trials=5)
    families = {spec.scheme: spec for spec in extended}
    families["sa_qtot"] = SweepSpec(vary="Q_tot", values=(200.0, 400.0, 600.0, 800.0),
                                    **single)
    families["sa_wi"] = SweepSpec(vary="W_I", values=(0.5, 1.0, 2.0, 4.0), **single)
    families["sa_n"] = SweepSpec(vary="N", values=(4.0, 8.0, 16.0, 32.0), **single)
    families["sa_p0"] = SweepSpec(vary="P0", values=(10.0, 20.0, 30.0, 40.0), **single)
    return families


class ClosedForms(Workload):
    """Short run_sweep calls over closed-form schemes only."""

    name = "closed_forms"
    pool_per_family = 3000

    def __init__(self):
        self.families = _closed_families()
        self.index = {family: i for i, family in enumerate(self.families)}

    @functools.cached_property
    def pool(self) -> list[str]:
        """Seed-major, so every block mixes the families."""
        return [f"{self.name}/{family}/{j}" for j in range(self.pool_per_family)
                for family in self.families]

    def prepare(self, key: str) -> Job:
        _, family, j = key.split("/")
        spec = replace(self.families[family], seed=derive(2, self.index[family], int(j)))
        return Job(key, dict(spec=spec))

    def reference_rows(self, reference: dict, key: str) -> list[list]:
        """Rows rebuilt from the recorded bounds: a finite bound was ``ok``,
        an infinite one ``rank_deficient`` and NaN an error."""
        _, family, j = key.split("/")
        spec = self.families[family]
        bounds = reference["workloads"][self.name]["bounds"][self.index[family], int(j)]
        rows = []
        for value, crb in zip(spec.values, bounds.tolist()):
            status = ("ok" if math.isfinite(crb) else
                      "rank_deficient" if crb == math.inf else "error:Recorded")
            rows.append([value, spec.scheme, status, repr(crb), spec.trials])
        return rows

    def call(self, job: Job, fns):
        return fns.run_sweep(job.inputs["spec"])

    def job_failed(self, raw) -> bool:
        return False

    def rows(self, job: Job, raw) -> tuple[list[tuple], list[str]]:
        errors = []
        if len(raw) != len(job.inputs["spec"].values):
            errors.append(f"{len(raw)} records for {len(job.inputs['spec'].values)} values")
        return _rows_from_records(raw), errors


def make(name: str):
    return {"ao_design": AoDesign, "sweep_p0": SweepP0,
            "closed_forms": ClosedForms}[name]()


# -- running and checking -----------------------------------------------------

def encode_rows(rows: list[tuple]) -> list[list]:
    """JSON form of rows; bounds as repr strings so inf and nan survive."""
    return [[value, scheme, status, repr(crb), trials]
            for value, scheme, status, crb, trials in rows]


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass
class Tally:
    """What a sequence of jobs did, as seen from outside the program.

    Throughput counts every call.  Latencies are the first call of each
    distinct job, so a result kept from an earlier call with the same inputs
    cannot lower them.  Only what the metrics need is kept, so that the
    run's peak memory does not grow with the number of calls; ``bounds``
    keeps the repr of every bound when it is given a list.
    """

    jobs: int = 0
    busy_s: float = 0.0
    first_ms: dict[str, float] = field(default_factory=dict)
    items: int = 0
    items_ok: int = 0
    units: int = 0
    failed_units: int = 0
    excess_sum_db: float = 0.0
    compared: int = 0
    errors: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    bounds: list[str] | None = None

    def add(self, key: str, rows: list[tuple], ref_rows: list[list],
            invariant_errors: list[str]) -> None:
        self.errors.extend(f"{key}: {e}" for e in invariant_errors)
        ref = [(float(v), s, st, float(c), t) for v, s, st, c, t in ref_rows]
        if [r[:2] for r in rows] != [r[:2] for r in ref]:
            self.errors.append(f"{key}: rows {[r[:2] for r in rows]} do not match "
                               f"the reference {[r[:2] for r in ref]}")
            ref = [None] * len(rows)
        for row, ref_row in zip(rows, ref):
            self._add_row(key, row, ref_row)

    def time_job(self, key: str, seconds: float, returned: bool) -> None:
        self.jobs += 1
        self.busy_s += seconds
        if returned and key not in self.first_ms:
            self.first_ms[key] = seconds * 1e3

    @property
    def items_per_s(self) -> float:
        """Successful items of every call per second of job time."""
        return self.items_ok / self.busy_s

    @property
    def latencies_ms(self) -> list[float]:
        """First latency of every distinct job that returned."""
        return list(self.first_ms.values())

    def _add_row(self, key: str, row: tuple, ref_row: tuple | None) -> None:
        value, scheme, status, crb, trials = row
        where = f"{key} {scheme} value={value:g}"
        self.units += 1
        self.items += trials
        if self.bounds is not None:
            self.bounds.append(repr(crb))
        if not STATUS_RE.fullmatch(status):
            self.errors.append(f"{where}: unknown status {status!r}")
            return
        if status.startswith("error:"):
            self.failed_units += 1
            self.failures.append(f"{where}: {status}")
            return
        self.items_ok += trials
        if status == "rank_deficient" and crb != math.inf:
            self.errors.append(f"{where}: rank_deficient with bound {crb!r}")
        if ref_row is None or ref_row[2].startswith("error:"):
            return
        if status != ref_row[2]:
            self.errors.append(f"{where}: status {status}, reference {ref_row[2]}")
            return
        if status != "ok":
            return
        ref_crb = ref_row[3]
        if not (math.isfinite(crb) and crb > 0.0):
            self.errors.append(f"{where}: status ok with bound {crb!r}")
            return
        excess = _db(crb) - _db(ref_crb)
        self.excess_sum_db += excess
        self.compared += 1
        if scheme in CLOSED_FORM:
            ok = math.isclose(crb, ref_crb, rel_tol=CLOSED_RTOL)
        elif scheme in CONVEX:
            ok = math.isclose(crb, ref_crb, rel_tol=CONVEX_RTOL)
        else:
            ok = excess <= ITEM_EXCESS_DB
        if not ok:
            self.errors.append(f"{where}: bound {crb!r}, reference {ref_crb!r} "
                               f"({excess:+.3g} dB)")

    @property
    def crb_excess_db(self) -> float:
        return self.excess_sum_db / self.compared if self.compared else 0.0

    def check_excess(self) -> None:
        if self.crb_excess_db > MEAN_EXCESS_DB:
            self.errors.append(f"crb_excess_db {self.crb_excess_db:.4g} dB exceeds "
                               f"{MEAN_EXCESS_DB} dB")


def run_jobs(workload, jobs: list[Job], reference: dict, fns=PLAIN,
             tally: Tally | None = None, on_job=None) -> Tally:
    """Call each job's public entry point, timing only that call, then check."""
    tally = tally or Tally()
    for job in jobs:
        if on_job is not None:
            on_job(tally.jobs)
        tic = time.perf_counter()
        raw = workload.call(job, fns)
        seconds = time.perf_counter() - tic
        tally.time_job(job.key, seconds, returned=not workload.job_failed(raw))
        rows, invariant_errors = workload.rows(job, raw)
        tally.add(job.key, rows, workload.reference_rows(reference, job.key),
                  invariant_errors)
    return tally
