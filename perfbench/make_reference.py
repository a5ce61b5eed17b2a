"""Record the benchmark's reference bounds.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs every pool member of each workload once and writes, per member, the
rows (value, scheme, status, bound, trials) and, for information, the wall
time to ``perfbench/reference.json``.  The 21 000 closed_forms members keep
only their bounds, as a float array in
``perfbench/reference_closed_forms.npy``.  Run it on the commit whose bounds
the benchmark should hold later commits to; the files checked in were
recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from env import check_sources, describe, pin_environment

pin_environment()
problem = check_sources()
if problem:
    sys.exit(f"error: {problem}")

import workloads as wl  # noqa: E402


def record(name: str) -> dict:
    workload = wl.make(name)
    items = {}
    for key in workload.pool:
        job = workload.prepare(key)
        tic = time.perf_counter()
        raw = workload.call(job, wl.PLAIN)
        seconds = time.perf_counter() - tic
        rows, errors = workload.rows(job, raw)
        if errors:
            raise SystemExit(f"{key}: {errors}")
        items[key] = {"seconds": round(seconds, 4), "rows": wl.encode_rows(rows)}
        if name != "closed_forms":
            print(f"{key} {seconds:.3f}s {[r[2] for r in rows]}", file=sys.stderr)
    return {"items": items}


def closed_bounds(workload, items: dict) -> np.ndarray:
    """The closed_forms rows as bounds[family, seed, value]."""
    bounds = np.full((len(workload.families), workload.pool_per_family,
                      max(len(spec.values) for spec in workload.families.values())),
                     np.nan)
    for key, item in items.items():
        _, family, j = key.split("/")
        for v, (_, _, status, crb, _) in enumerate(item["rows"]):
            bounds[workload.index[family], int(j), v] = (
                float(crb) if status in ("ok", "rank_deficient") else np.nan)
        if workload.reference_rows({"workloads": {"closed_forms": {"bounds": bounds}}},
                                   key) != item["rows"]:
            raise SystemExit(f"{key}: rows do not survive the bound array")
    return bounds


def dump(reference: dict, fh) -> None:
    """JSON with one line per pool member."""
    fh.write("{\n")
    for name, value in reference.items():
        if name != "workloads":
            fh.write(f" {json.dumps(name)}: {json.dumps(value)},\n")
    fh.write(' "workloads": {\n')
    blocks = []
    for name, workload in reference["workloads"].items():
        lines = ",\n".join(f"   {json.dumps(key)}: {json.dumps(item)}"
                           for key, item in workload["items"].items())
        blocks.append(f'  {json.dumps(name)}: {{"items": {{\n{lines}\n  }}}}')
    fh.write(",\n".join(blocks) + "\n }\n}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    args = parser.parse_args()
    try:
        with open(wl.REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {"workloads": {}}
    reference["workloads"].pop("closed_forms", None)
    reference["pool_seed"] = wl.POOL_SEED
    reference["environment"] = describe()
    try:
        for name in args.workload or wl.WORKLOADS:
            recorded = record(name)
            if name == "closed_forms":
                np.save(wl.CLOSED_BOUNDS_PATH,
                        closed_bounds(wl.make(name), recorded["items"]))
            else:
                reference["workloads"][name] = recorded
            with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
                dump(reference, fh)
    finally:
        wl.remove_work_dir()


if __name__ == "__main__":
    main()
