"""Spans and counts recorded around each layer's public functions.

The program's modules bind each other's functions at import time, so a
wrapper is installed on the name where its caller looks it up (the
``PATCHES`` table), never on the defining module alone.  ``conic.solve`` is
bound as the subproblems' default ``solver`` argument when ``ao`` loads, so
patching it would record nothing; the subproblem wrappers pass a timed
solver instead and read ``iterations``, ``status`` and ``kkt`` from what it
returns.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import irscrb.ao
import irscrb.cli
import irscrb.conic
import irscrb.sweep
from irscrb.ao import SubproblemError

PATCHES = (
    (irscrb.sweep, ("ao_minimize_crb", "transmit_subproblem", "irs_subproblem",
                    "gaussian_randomization", "crb_point_closed",
                    "single_antenna_optimum", "crb_extended_opt",
                    "crb_extended_iso", "crb_fully_passive",
                    "optimal_transmit_extended", "rician_channel",
                    "allocate_optimal")),
    (irscrb.ao, ("transmit_subproblem", "irs_subproblem", "gaussian_randomization",
                 "sdr_objective", "crb_point_closed")),
    (irscrb.cli, ("run_sweep", "load_config", "emit_csv")),
)

_SUBPROBLEM_KIND = {"transmit_subproblem": "transmit", "irs_subproblem": "irs"}


def span_name(fn) -> str:
    """``<layer>.<function>``, the layer being the defining module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, job]
        self._open: list[int] = []
        self.job = -1
        self.solves = {"transmit": [], "irs": []}   # (iterations, status, kkt max)
        self.subproblem_errors = 0
        self.ao_runs: list[tuple] = []       # (scene, g, config, result, randomized)
        self._ao_frames: list[dict] = []

    def set_job(self, job: int) -> None:
        self.job = job

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn):
        kind = _SUBPROBLEM_KIND.get(fn.__name__)
        if kind is not None:
            return self._wrap_subproblem(fn, kind)
        if fn.__name__ == "ao_minimize_crb":
            return self._wrap_ao(fn)
        name = span_name(fn)
        randomization = fn.__name__ == "gaussian_randomization"

        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if randomization and self._ao_frames:
                self._ao_frames[-1]["randomized"] = out
            return out
        return traced

    def _wrap_subproblem(self, fn, kind: str):
        name = span_name(fn)
        solve_name = f"conic.{kind}"

        def traced(*args, solver=None, **kwargs):
            inner = solver or irscrb.conic.solve

            def timed_solver(program, **solve_kwargs):
                index = self._enter(solve_name)
                try:
                    sol = inner(program, **solve_kwargs)
                finally:
                    self._exit(index)
                self.solves[kind].append((sol.iterations, sol.status, sol.kkt.max()))
                return sol

            index = self._enter(name)
            try:
                return fn(*args, solver=timed_solver, **kwargs)
            except SubproblemError:
                self.subproblem_errors += 1
                raise
            finally:
                self._exit(index)
        return traced

    def _wrap_ao(self, fn):
        name = span_name(fn)

        def traced(scene, g, config, *args, **kwargs):
            frame = {"randomized": None}
            self._ao_frames.append(frame)
            index = self._enter(name)
            try:
                result = fn(scene, g, config, *args, **kwargs)
            finally:
                self._exit(index)
                self._ao_frames.pop()
            self.ao_runs.append((scene, g, config, result, frame["randomized"]))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site; yield the traced entry points."""
        saved = []
        try:
            for module, names in PATCHES:
                for attr in names:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(original))
            yield SimpleNamespace(
                ao_minimize_crb=self.wrap(irscrb.ao.ao_minimize_crb),
                cli_main=self.wrap(irscrb.cli.cli_main),
                run_sweep=self.wrap(irscrb.sweep.run_sweep))
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _span_totals(self):
        """Per span name: calls, busy seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[i]
        return totals

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; every ratio is listed next to its base count."""
        totals = self._span_totals()

        def calls(name):
            return (totals.get(name, (0, 0.0, 0.0))[0], "count")

        def busy(name):
            return (totals.get(name, (0, 0.0, 0.0))[1], "s")

        def own(name):
            return (totals.get(name, (0, 0.0, 0.0))[2], "s")

        def mean(values):
            return float(np.mean(values)) if values else 0.0

        tx, irs = self.solves["transmit"], self.solves["irs"]
        solves = tx + irs
        results = [run[3] for run in self.ao_runs]
        wins = sum(1 for *_, result, randomized in self.ao_runs
                   if randomized is not None
                   and np.array_equal(result.v.v, randomized.v))
        channel_calls = calls("channel.rician_channel")[0]
        return {
            "conic.transmit.calls": (len(tx), "count"),
            "conic.transmit.busy_s": busy("conic.transmit"),
            "conic.transmit.ipm_iters_mean": (mean([s[0] for s in tx]), "iter/call"),
            "conic.irs.calls": (len(irs), "count"),
            "conic.irs.busy_s": busy("conic.irs"),
            "conic.irs.ipm_iters_mean": (mean([s[0] for s in irs]), "iter/call"),
            "conic.nonoptimal": (sum(s[1] != "optimal" for s in solves), "count"),
            "conic.kkt_max": (max((s[2] for s in solves if s[1] == "optimal"),
                                  default=0.0), "residual"),
            "ao.ao_minimize_crb.calls": calls("ao.ao_minimize_crb"),
            "ao.ao_minimize_crb.busy_s": busy("ao.ao_minimize_crb"),
            "ao.returns": (len(results), "count"),
            "ao.iters_mean": (mean([r.iterations for r in results]), "iter/run"),
            "ao.transmit_subproblem.self_s": own("ao.transmit_subproblem"),
            "ao.irs_subproblem.self_s": own("ao.irs_subproblem"),
            "ao.gaussian_randomization.calls": calls("ao.gaussian_randomization"),
            "ao.gaussian_randomization.busy_s": busy("ao.gaussian_randomization"),
            "ao.sdr_objective.calls": calls("ao.sdr_objective"),
            "ao.sdr_objective.busy_s": busy("ao.sdr_objective"),
            "ao.subproblem_errors": (self.subproblem_errors, "count"),
            "ao.randomization_win_frac": (wins / len(results) if results else 0.0,
                                          "ratio"),
            "pointcrb.crb_point_closed.calls": calls("pointcrb.crb_point_closed"),
            "pointcrb.crb_point_closed.busy_s": busy("pointcrb.crb_point_closed"),
            "pointcrb.single_antenna_optimum.busy_s":
                busy("pointcrb.single_antenna_optimum"),
            "extended.crb_extended_opt.busy_s": busy("extended.crb_extended_opt"),
            "extended.crb_extended_iso.busy_s": busy("extended.crb_extended_iso"),
            "extended.crb_fully_passive.busy_s": busy("extended.crb_fully_passive"),
            "extended.optimal_transmit_extended.busy_s":
                busy("extended.optimal_transmit_extended"),
            "allocation.allocate_optimal.calls": calls("allocation.allocate_optimal"),
            "allocation.allocate_optimal.busy_s": busy("allocation.allocate_optimal"),
            "channel.rician_channel.calls": (channel_calls, "count"),
            "channel.rician_channel.busy_s": busy("channel.rician_channel"),
            "channel.rician_channel.calls_per_item":
                (channel_calls / items if items else 0.0, "calls/item"),
            "sweep.run_sweep.calls": calls("sweep.run_sweep"),
            "sweep.run_sweep.self_s": own("sweep.run_sweep"),
            "sweep.load_config.busy_s": busy("sweep.load_config"),
            "sweep.emit_csv.busy_s": busy("sweep.emit_csv"),
            "cli.cli_main.self_s": own("cli.cli_main"),
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "job": job}) + "\n")
