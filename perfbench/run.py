"""Layered benchmark for irscrb.

    python3 perfbench/run.py --workload {ao_design,sweep_p0,closed_forms,all}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` runs jobs from seeded passes over the workload's pool until
``--seconds`` have passed, or as many whole blocks of the pool as that time
holds at the seed commit's speed where the pool has failing members, and
reports the end-to-end metrics; ``--trace 1``
replays a fixed number of jobs with and without tracing and reports
per-layer metrics and the tracing overhead.  A report goes to stdout
first; its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an output check failed and 2 when the
checkout cannot be benchmarked.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from env import ROOT, check_sources, describe, pin_environment

pin_environment()

SETUP_REPEATS = 7
# A fixed-size run starts no job after this many times --seconds, so that a
# much slower program still ends within the time a run is given.
OVERRUN = 2.5
WORKLOAD_CHOICES = ("ao_design", "sweep_p0", "closed_forms", "all")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_CHOICES)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; 7919 is held out)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def setup_probe(name: str, seed: int) -> int:
    """Import the package, load configs and build the first job's inputs."""
    import workloads as wl

    try:
        workload = wl.make(name)
        workload.prepare(wl.pass_keys(workload, seed, 0)[0])
        print("ready", flush=True)
    finally:
        wl.remove_work_dir()
    return 0


def measure_setup(name: str, seed: int) -> float:
    """Median time from a fresh interpreter to the first job being ready."""
    times = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        tic = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - tic
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe for {name} failed with code {code}")
        times.append(elapsed)
    return statistics.median(times)


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_plain(wl, name: str, seed: int, seconds: float, reference: dict) -> dict:
    setup_s = measure_setup(name, seed)
    workload = wl.make(name)
    tally = wl.Tally()
    start = time.perf_counter()

    def run_job(key: str) -> None:
        wl.run_jobs(workload, [workload.prepare(key)], reference, tally=tally)

    fixed = wl.fixed_keys(workload, seed, seconds)
    if fixed is not None:
        for key in fixed:
            if tally.jobs and time.perf_counter() - start > OVERRUN * seconds:
                break
            run_job(key)
        made = f"{tally.jobs} of a fixed {len(fixed)} jobs"
    else:
        passes = 0
        keys: list[str] = []
        while tally.jobs == 0 or time.perf_counter() - start < seconds:
            if not keys:
                keys = wl.pass_keys(workload, seed, passes)[::-1]
                passes += 1
            run_job(keys.pop())
        made = f"{tally.jobs} jobs in {passes} passes"
    tally.check_excess()
    latencies = tally.latencies_ms
    metrics = {
        "items_per_s": (tally.items_per_s, "items/s"),
        "job_ms_p50": (statistics.median(latencies), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB"),
    }
    extra = {
        "failed_frac": (tally.failed_units / tally.units, "ratio"),
        "crb_excess_db": (tally.crb_excess_db, "dB"),
    }
    if len(latencies) >= 100:
        extra["job_ms_p90"] = (_quantile(latencies, 90), "ms")
    counts = (f"{made} over a pool of "
              f"{len(workload.pool)}, {len(latencies)} distinct jobs returned, "
              f"{tally.units} units ({tally.failed_units} failed), "
              f"{tally.compared} compared with the reference")
    return dict(name=name, tally=tally, metrics=metrics, extra=extra, counts=counts)


def run_traced(wl, name: str, seed: int, reference: dict) -> dict:
    from tracing import Tracer

    workload = wl.make(name)
    jobs = [workload.prepare(key) for key in wl.trace_keys(workload, seed)]
    tracer = Tracer()
    plain, traced = wl.Tally(bounds=[]), wl.Tally(bounds=[])

    def run_traced_job(job):
        with tracer.installed() as fns:
            wl.run_jobs(workload, [job], reference, fns=fns, tally=traced,
                        on_job=tracer.set_job)

    # Alternate which side runs first so drift and warm-up cost fall on both.
    for i, job in enumerate(jobs):
        if i % 2:
            run_traced_job(job)
        wl.run_jobs(workload, [job], reference, tally=plain)
        if not i % 2:
            run_traced_job(job)

    for scene, g, config, result, _ in tracer.ao_runs:
        traced.errors.extend(f"traced AoResult: {e}"
                             for e in wl.check_ao_result(scene, g, config, result))
    if plain.bounds != traced.bounds:
        traced.errors.append("tracing changed the bounds")
    traced.errors.extend(plain.errors)
    traced.check_excess()
    metrics = tracer.layer_metrics(items=traced.items)
    metrics["bench.items"] = (traced.items, "count")
    metrics["trace.overhead_frac"] = (traced.busy_s / plain.busy_s - 1.0, "ratio")
    spans = ROOT / ".perfbench_out" / f"spans-{name}-{seed}.jsonl"
    tracer.write(spans)
    counts = (f"{len(jobs)} jobs traced, {traced.units} units, "
              f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    return dict(name=name, tally=traced, metrics=metrics, extra={}, counts=counts)


def _metric_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def report(result: dict) -> None:
    tally = result["tally"]
    print(f"== {result['name']}: {result['counts']}")
    for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"{name:<44} {value!r} {unit}")
    for failure, count in Counter(tally.failures).items():
        print(f"failed: {failure} ({count}x)")
    for error in tally.errors:
        print(f"CHECK FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    problem = check_sources()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import workloads as wl

    reference = wl.load_reference()
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    print("environment " + json.dumps(describe()))
    results = []
    try:
        for name in names:
            result = (run_traced(wl, name, args.seed, reference) if args.trace
                      else run_plain(wl, name, args.seed, args.seconds, reference))
            report(result)
            results.append(result)
    finally:
        wl.remove_work_dir()

    if len(results) == 1:
        metrics = _metric_json(results[0]["metrics"])
    else:
        metrics = {f"{r['name']}.{k}": v for r in results
                   for k, v in _metric_json(r["metrics"]).items()}
    correct = not any(r["tally"].errors for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["tally"].units for r in results),
        "failed": sum(r["tally"].failed_units for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
