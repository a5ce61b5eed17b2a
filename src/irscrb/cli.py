"""Command-line front end.

Subcommands::

    irscrb sweep --config FILE --out CSV
    irscrb allocate --qtot X --wi X --ws X [--exhaustive --step X]
    irscrb crb point --config FILE [--scheme NAME] [--seed N]
    irscrb crb extended --config FILE [--seed N]
    irscrb selftest [--fast]

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .allocation import allocate_exhaustive, allocate_optimal, allocate_suboptimal
from .channel import rician_channel
from .config import check
from .extended import EstimabilityError, gap_db
from .sweep import (POINT_SCHEMES, SCHEMES, SweepSpec, emit_csv, load_config,
                    reference_config, run_sweep)

USAGE_EXIT = 1
NUMERICAL_EXIT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


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
    p_alloc.add_argument("--exhaustive", action="store_true")
    p_alloc.add_argument("--step", type=float, default=0.25)

    p_crb = sub.add_parser("crb", help="evaluate the bound for one setup")
    p_crb.add_argument("target", choices=["point", "extended"])
    p_crb.add_argument("--config", required=True)
    p_crb.add_argument("--scheme", default=None,
                       help="point target only; defaults to proposed_ao "
                            "(single_antenna_closed when M = 1)")
    p_crb.add_argument("--seed", type=int, default=0,
                       help="channel seed; a scheme's own draws derive from "
                            "it as in trial 0 of a sweep")

    p_self = sub.add_parser("selftest", help="run the monotone-trend checks")
    p_self.add_argument("--fast", action="store_true",
                        help="smaller sweeps, closed-form schemes only")
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT

    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "allocate":
            return _cmd_allocate(args)
        if args.command == "crb":
            return _cmd_crb(args)
        return _cmd_selftest(args)
    except (EstimabilityError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (_UsageError, FileNotFoundError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def _cmd_sweep(args) -> int:
    _, _, specs = load_config(args.config)
    if not specs:
        raise _UsageError(f"{args.config} has no [sweep] section")
    records = []
    for spec in specs:
        records.extend(run_sweep(spec))
    emit_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def _cmd_allocate(args) -> int:
    rows = {"optimal    ": allocate_optimal(args.qtot, args.wi, args.ws),
            "sub-optimal": allocate_suboptimal(args.qtot, args.wi, args.ws)}
    if args.exhaustive:     # a refused step stops the command before any output
        rows["exhaustive "] = allocate_exhaustive(args.qtot, args.wi, args.ws, args.step)
    for label, r in rows.items():
        step = f"  (step {args.step})" if r.mode == "exhaustive" else ""
        print(f"{label} N = {r.n_cont:12.4f}  K = {r.k_cont:12.4f}  "
              f"objective = {r.objective:.6e}{step}")
    return 0


def _cmd_crb(args) -> int:
    base, theta, _ = load_config(args.config)
    ch = rician_channel(base, seed=check("seed", args.seed))

    def bound(scheme: str) -> float:
        return SCHEMES[scheme].evaluate(base, ch, theta, args.seed, 0)

    if args.target == "extended":
        opt = bound("extended_opt")
        if not np.isfinite(opt):
            print("crb_opt = inf  (rank-deficient channel)")
            return 0
        iso = bound("extended_iso")
        print(f"crb_opt = {opt:.6e}  ({10 * np.log10(opt):.3f} dB)")
        print(f"crb_iso = {iso:.6e}  ({10 * np.log10(iso):.3f} dB)")
        print(f"gap     = {gap_db(ch.G, base.M):.4f} dB")
        return 0

    scheme = args.scheme or ("single_antenna_closed" if base.M == 1
                             else "proposed_ao")
    if scheme not in POINT_SCHEMES:
        raise _UsageError(f"unknown point scheme {scheme!r}")
    crb = bound(scheme)
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
    scheme: str | None          # None: the point scheme under test
    overrides: dict             # applied to the base config
    direction: str              # "down" | "up"


TRENDS = (
    Trend("point crb vs P0 (dBm)", "P0", (10, 20, 30), None, {}, "down"),
    # the vs-M gain needs transmit beamforming; isotropic power per antenna
    # shrinks with M, so this trend always runs the optimizer
    Trend("point crb vs M", "M", (2, 4, 8), "proposed_ao", {}, "down"),
    Trend("point crb vs N", "N", (2, 4, 8), None, {}, "down"),
    Trend("point crb vs K", "K", (2, 4, 8), None, {}, "down"),
    Trend("extended crb vs K", "K", (4, 8, 16), "extended_opt", {"M": 8}, "up"),
    Trend("extended crb vs N", "N", (2, 4, 6), "extended_opt", {"M": 8}, "up"),
    Trend("extended crb vs M", "M", (8, 12, 16), "extended_opt", {}, "down"),
    Trend("extended crb vs P0 (dBm)", "P0", (10, 20, 30), "extended_opt", {"M": 8}, "down"),
)


def _cmd_selftest(args) -> int:
    base = reference_config(M=4, N=4, K=4)
    point_scheme = "isotropic_tx" if args.fast else "proposed_ao"
    ok = True
    for trend in TRENDS:
        spec = SweepSpec(base=replace(base, **trend.overrides), theta=np.deg2rad(60.0),
                         vary=trend.vary, values=trend.values,
                         scheme=trend.scheme or point_scheme, trials=2, seed=7,
                         alpha_draws=10)
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
