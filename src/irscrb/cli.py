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
import sys
from dataclasses import replace

import numpy as np

from .allocation import (AllocationDomainError, allocate_exhaustive,
                         allocate_optimal, allocate_suboptimal)
from .ao import SubproblemError
from .channel import rician_channel
from .extended import EstimabilityError, gap_db
from .sweep import (AO_SAMPLES, POINT_SCHEMES, SCHEMES, SweepSpec, emit_csv,
                    load_config, reference_config, run_sweep)

USAGE_EXIT = 1
NUMERICAL_EXIT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


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
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (FileNotFoundError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (AllocationDomainError, EstimabilityError, SubproblemError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


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
    opt = allocate_optimal(args.qtot, args.wi, args.ws)
    sub = allocate_suboptimal(args.qtot, args.wi, args.ws)
    print(f"optimal     N = {opt.n_cont:12.4f}  K = {opt.k_cont:12.4f}  "
          f"objective = {opt.objective:.6e}")
    print(f"sub-optimal N = {sub.n_cont:12.4f}  K = {sub.k_cont:12.4f}  "
          f"objective = {sub.objective:.6e}")
    if args.exhaustive:
        ex = allocate_exhaustive(args.qtot, args.wi, args.ws, args.step)
        print(f"exhaustive  N = {ex.n_cont:12.4f}  K = {ex.k_cont:12.4f}  "
              f"objective = {ex.objective:.6e}  (step {args.step})")
    return 0


def _cmd_crb(args) -> int:
    base, theta, _ = load_config(args.config)
    ch = rician_channel(base, seed=args.seed)

    def bound(scheme: str) -> float:
        return SCHEMES[scheme].evaluate(base, ch, theta, args.seed, 0, AO_SAMPLES)

    if args.target == "extended":
        try:
            opt, iso = bound("extended_opt"), bound("extended_iso")
            print(f"crb_opt = {opt:.6e}  ({10 * np.log10(opt):.3f} dB)")
            print(f"crb_iso = {iso:.6e}  ({10 * np.log10(iso):.3f} dB)")
            print(f"gap     = {gap_db(ch.G, base.M):.4f} dB")
        except EstimabilityError:
            print("crb_opt = inf  (rank-deficient channel)")
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


def _trend(name: str, values, crbs, direction: str) -> bool:
    pairs = list(zip(crbs, crbs[1:]))
    ok = all(b <= a * (1 + 1e-12) for a, b in pairs) if direction == "down" \
        else all(b >= a * (1 - 1e-12) for a, b in pairs)
    tag = "PASS" if ok else "FAIL"
    pretty = ", ".join(f"{c:.3e}" for c in crbs)
    print(f"{tag} {name}: values {list(values)} -> crb [{pretty}]")
    return ok


def _cmd_selftest(args) -> int:
    base = reference_config(M=4, N=4, K=4)
    theta = np.deg2rad(60.0)
    trials, draws = (2, 10)
    scheme = "isotropic_tx" if args.fast else "proposed_ao"

    def mean_crbs(vary, values, scheme, **overrides):
        cfg = replace(base, **overrides) if overrides else base
        spec = SweepSpec(base=cfg, theta=theta, vary=vary, values=values,
                         scheme=scheme, trials=trials, seed=7,
                         average_alpha=True, alpha_draws=draws, ao_samples=50)
        return [rec.crb_mean for rec in run_sweep(spec)]

    ok = True
    ok &= _trend("point crb vs P0 (dBm)", (10, 20, 30),
                 mean_crbs("P0", (10.0, 20.0, 30.0), scheme), "down")
    # the vs-M gain needs transmit beamforming; isotropic power per antenna
    # shrinks with M, so this trend always runs the optimizer
    ok &= _trend("point crb vs M", (2, 4, 8),
                 mean_crbs("M", (2.0, 4.0, 8.0), "proposed_ao"), "down")
    ok &= _trend("point crb vs N", (2, 4, 8),
                 mean_crbs("N", (2.0, 4.0, 8.0), scheme), "down")
    ok &= _trend("point crb vs K", (2, 4, 8),
                 mean_crbs("K", (2.0, 4.0, 8.0), scheme), "down")

    ok &= _trend("extended crb vs K", (4, 8, 16),
                 mean_crbs("K", (4.0, 8.0, 16.0), "extended_opt", M=8), "up")
    ok &= _trend("extended crb vs N", (2, 4, 6),
                 mean_crbs("N", (2.0, 4.0, 6.0), "extended_opt", M=8), "up")
    ok &= _trend("extended crb vs M", (8, 12, 16),
                 mean_crbs("M", (8.0, 12.0, 16.0), "extended_opt"), "down")
    ok &= _trend("extended crb vs P0 (dBm)", (10, 20, 30),
                 mean_crbs("P0", (10.0, 20.0, 30.0), "extended_opt", M=8), "down")

    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else NUMERICAL_EXIT


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
