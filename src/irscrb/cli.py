"""Command-line front end.

Subcommands::

    irscrb sweep --config FILE --out CSV
    irscrb allocate --qtot X --wi X --ws X [--exhaustive [STEP]]
    irscrb crb point --config FILE [--scheme NAME] [--seed N]
    irscrb crb extended --config FILE [--seed N]
    irscrb selftest

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .allocation import allocate_exhaustive, allocate_optimal, allocate_suboptimal
from .channel import rician_channel
from .config import SystemConfig, check
from .extended import EstimabilityError, gap_db
from .sweep import (POINT_SCHEMES, SCHEMES, SweepSpec, emit_csv, load_config, run_sweep,
                    unit_scaling)

USAGE_EXIT = 1
NUMERICAL_EXIT = 2
EXHAUSTIVE_STEP = 0.25


class _Parser(argparse.ArgumentParser):
    """argparse that raises a usage problem, and its usage line, as a
    ``ValueError``: exit code 1."""

    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")


@functools.cache       # one parser per process: parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="irscrb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a configured parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_alloc = sub.add_parser("allocate", help="element/sensor split for a budget")
    p_alloc.add_argument("--qtot", type=float, required=True)
    p_alloc.add_argument("--wi", type=float, required=True)
    p_alloc.add_argument("--ws", type=float, required=True)
    p_alloc.add_argument("--exhaustive", nargs="?", type=float, const=EXHAUSTIVE_STEP,
                         metavar="STEP", help="also search the grid of this step; "
                                              f"{EXHAUSTIVE_STEP} when none is given")

    p_crb = sub.add_parser("crb", help="evaluate the bound for one setup")
    p_crb.add_argument("target", choices=["point", "extended"])
    p_crb.add_argument("--config", required=True)
    p_crb.add_argument("--scheme", choices=POINT_SCHEMES, default=None,
                       help="point target only; defaults to proposed_ao")
    p_crb.add_argument("--seed", type=int, default=0,
                       help="channel seed; a scheme's own draws derive from "
                            "it as in trial 0 of a sweep")

    sub.add_parser("selftest", help="run the monotone-trend checks")
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "allocate":
            return _cmd_allocate(args)
        if args.command == "crb":
            return _cmd_crb(args)
        return _cmd_selftest(args)
    except (EstimabilityError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def _cmd_sweep(args) -> int:
    _, _, specs = load_config(args.config)
    if not specs:
        raise ValueError(f"{args.config} has no [sweep] section")
    # refused before the sweep, created only by emit_csv: a failure leaves no file
    parent = os.path.dirname(args.out) or "."
    writable = os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)
    if os.path.isdir(args.out) or not writable:
        raise ValueError(f"cannot write --out {args.out}: it is a directory, or its "
                         f"parent directory is missing or not writable")
    records = []
    for spec in specs:
        records.extend(run_sweep(spec))
    emit_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def _cmd_allocate(args) -> int:
    rows = {"optimal    ": allocate_optimal(args.qtot, args.wi, args.ws),
            "sub-optimal": allocate_suboptimal(args.qtot, args.wi, args.ws)}
    if args.exhaustive is not None:     # a refused step stops the command before any output
        rows["exhaustive "] = allocate_exhaustive(args.qtot, args.wi, args.ws, args.exhaustive)
    for label, r in rows.items():
        note = f"  (step {args.exhaustive})" if r.mode == "exhaustive" else ""
        print(f"{label} N = {r.n_cont:12.4f}  K = {r.k_cont:12.4f}  "
              f"objective = {r.objective:.6e}{note}")
    return 0


def _cmd_crb(args) -> int:
    if args.target == "extended" and args.scheme is not None:
        raise ValueError("--scheme applies only to crb point")
    base, theta, _ = load_config(args.config)

    def bound(scheme: str) -> tuple[float, np.ndarray]:    # trial 0 of a row, unit-gain G
        unit, scale = unit_scaling(SCHEMES[scheme], base, base.K)
        g = rician_channel(unit, seed=check("seed", args.seed)).G
        return scale(SCHEMES[scheme].evaluate(unit, g[None], theta, args.seed, [0])[0]), g

    if args.target == "extended":
        opt, g = bound("extended_opt")
        if not np.isfinite(opt):
            print("crb_opt = inf  (rank-deficient channel)")
            return 0
        iso, _ = bound("extended_iso")
        print(f"crb_opt = {opt:.6e}  ({10 * np.log10(opt):.3f} dB)")
        print(f"crb_iso = {iso:.6e}  ({10 * np.log10(iso):.3f} dB)")
        print(f"gap     = {gap_db(g):.4f} dB")
        return 0

    crb, _ = bound(args.scheme or "proposed_ao")
    if np.isfinite(crb):
        print(f"crb = {crb:.6e} rad^2  ({10 * np.log10(crb):.3f} dB)")
    else:
        print("crb = inf")
    return 0


class Trend(NamedTuple):
    """A monotone trend of a sweep's mean bound, checked by ``irscrb selftest``
    and by acceptance criterion 9 on their own base configs and seeds."""

    label: str
    vary: str
    values: tuple[int, ...]
    scheme: str
    overrides: dict             # applied to the base config
    direction: str              # "down" | "up"


TRENDS = (
    Trend("point crb vs P0 (dBm)", "P0", (10, 20, 30), "proposed_ao", {}, "down"),
    Trend("point crb vs M", "M", (2, 4, 8), "proposed_ao", {}, "down"),
    Trend("point crb vs N", "N", (2, 4, 8), "proposed_ao", {}, "down"),
    Trend("point crb vs K", "K", (2, 4, 8), "proposed_ao", {}, "down"),
    Trend("extended crb vs K", "K", (4, 8, 16), "extended_opt", {"M": 8}, "up"),
    Trend("extended crb vs N", "N", (2, 4, 6), "extended_opt", {"M": 8}, "up"),
    Trend("extended crb vs M", "M", (8, 12, 16), "extended_opt", {}, "down"),
    Trend("extended crb vs P0 (dBm)", "P0", (10, 20, 30), "extended_opt", {"M": 8}, "down"),
)


def _cmd_selftest(args) -> int:
    base = SystemConfig(M=4, N=4, K=4)
    ok = True
    for trend in TRENDS:
        spec = SweepSpec(base=replace(base, **trend.overrides), theta=np.deg2rad(60.0),
                         vary=trend.vary, values=trend.values, scheme=trend.scheme,
                         trials=2, seed=7, alpha_draws=10)
        crbs = [rec.crb_mean for rec in run_sweep(spec)]
        pairs = list(zip(crbs, crbs[1:]))
        passed = all(b <= a * (1 + 1e-12) for a, b in pairs) if trend.direction == "down" \
            else all(b >= a * (1 - 1e-12) for a, b in pairs)
        pretty = ", ".join(f"{c:.3e}" for c in crbs)
        print(f"{'PASS' if passed else 'FAIL'} {trend.label}: values "
              f"{list(trend.values)} -> crb [{pretty}]")
        ok &= passed
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else NUMERICAL_EXIT


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
