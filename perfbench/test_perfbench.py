"""Self-checks of the benchmark: determinism of counts and bounds, seeded
passes, and refusal to run without the program's sources.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from env import ROOT, pin_environment

pin_environment()

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

REFERENCE = wl.load_reference()


@pytest.fixture(autouse=True, scope="module")
def _remove_work_dir():
    yield
    wl.remove_work_dir()


def traced_counts(name: str, keys: list[str]):
    """Count metrics, failed fraction and bounds of one traced pass."""
    workload = wl.make(name)
    jobs = [workload.prepare(key) for key in keys]
    tracer = Tracer()
    with tracer.installed() as fns:
        tally = wl.run_jobs(workload, jobs, REFERENCE, fns=fns, tally=wl.Tally(bounds=[]),
                            on_job=tracer.set_job)
    counts = {k: v for k, (v, unit) in tracer.layer_metrics(tally.items).items()
              if unit != "s"}
    return counts, tally.failed_units / tally.units, tally.bounds, tally.errors


def _cheapest(name: str, count: int) -> list[str]:
    items = REFERENCE["workloads"][name]["items"]
    return sorted(items, key=lambda key: items[key]["seconds"])[:count]


@pytest.mark.parametrize("name, keys", [
    ("ao_design", _cheapest("ao_design", 3)),
    ("sweep_p0", wl.pass_keys(wl.make("sweep_p0"), 1, 0)[:1]),
    ("closed_forms", wl.pass_keys(wl.make("closed_forms"), 1, 0)[:12]),
])
def test_same_seed_repeats_counts_and_bounds(name, keys):
    first = traced_counts(name, keys)
    second = traced_counts(name, keys)
    assert first[3] == [] and second[3] == []
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]          # repr of every bound, so bitwise
    assert first[0]["conic.transmit.calls"] + first[0]["conic.irs.calls"] > 0 \
        or name == "closed_forms"


def test_passes_shuffle_each_block_of_the_pool():
    for name in wl.WORKLOADS:
        workload = wl.make(name)
        keys = wl.pass_keys(workload, 1, 0)
        assert keys == wl.pass_keys(workload, 1, 0)
        assert sorted(keys) == sorted(workload.pool)
        assert set(keys[:wl.BLOCK]) == set(workload.pool[:wl.BLOCK])
        assert keys != wl.pass_keys(workload, 2, 0)
        assert keys != wl.pass_keys(workload, 1, 1)


def test_fixed_runs_and_traced_runs_attempt_the_same_jobs_whatever_the_seed():
    for name in wl.WORKLOADS:
        workload = wl.make(name)
        traced = [wl.trace_keys(workload, seed) for seed in (1, 2, 7919)]
        assert all(sorted(keys) == sorted(workload.pool[:wl.TRACE_JOBS[name]])
                   for keys in traced)
        if workload.job_s is None:
            assert wl.fixed_keys(workload, 1, 50) is None
            continue
        for seconds in (1, 50, 500):
            runs = [wl.fixed_keys(workload, seed, seconds) for seed in (1, 2, 7919)]
            assert sorted(runs[0]) == sorted(runs[1]) == sorted(runs[2])
            assert runs[0] == wl.fixed_keys(workload, 1, seconds)
    sweep = wl.make("sweep_p0")
    assert sorted(wl.fixed_keys(sweep, 1, 50)) == sorted(sweep.pool[:16])
    assert wl.fixed_keys(sweep, 1, 50) != wl.fixed_keys(sweep, 2, 50)


def test_reference_covers_every_pool_member():
    for name in ("ao_design", "sweep_p0"):
        recorded = REFERENCE["workloads"][name]["items"]
        assert sorted(recorded) == sorted(wl.make(name).pool)
    closed = wl.make("closed_forms")
    assert REFERENCE["workloads"]["closed_forms"]["bounds"].shape \
        == (len(closed.families), closed.pool_per_family, 4)


def test_refuses_to_run_without_sources(tmp_path: Path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_forms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    per_layer = set(tracer.layer_metrics(items=1)) | {"bench.items",
                                                      "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
