"""Command-line interface.

Subcommands:
  run <config>    execute an experiment, write trace CSV + summary JSON
  verify          run the built-in invariant suite
  rates <config>  run and report slope / envelope ratio
  gen <kind>      emit instance files (dictionary, target, certificate)

Exit codes: 0 success, 1 invariant or rate violation, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .experiment import (
    _SCHEMA,
    ALL_INSTANCE_KEYS,
    INSTANCE_KEYS,
    ConfigError,
    build_instance,
    check_instance_keys,
    key_type,
    load_config,
    run_experiment,
    run_verification_suite,
    validate_config,
)

SLOPE_MAX_DEFAULT = -0.4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedyopt",
        description="Greedy sparse approximation for convex objectives.",
    )
    sub = parser.add_subparsers(dest="command")

    # the flags `run` and `rates` share: a config and its overrides
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("config", help="path to a flat JSON config")
    configured.add_argument("--seed", type=int, help="override the config seed")
    configured.add_argument(
        "--tol", type=float, help="override the sup-score stopping tolerance"
    )
    configured.add_argument("--max-m", type=int, help="override the iteration cap")
    configured.add_argument("--quiet", action="store_true")

    run_p = sub.add_parser(
        "run", parents=[configured], help="execute an experiment config"
    )
    run_p.add_argument("--out", default=".", help="output directory")

    verify_p = sub.add_parser("verify", help="run the invariant suite")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--quiet", action="store_true")

    rates_p = sub.add_parser(
        "rates", parents=[configured], help="slope and envelope report"
    )
    rates_p.add_argument("--out", help="also write trace/summary here")
    rates_p.add_argument(
        "--slope-max",
        type=float,
        default=SLOPE_MAX_DEFAULT,
        help="pass when fitted slope <= this (default %(default)s)",
    )

    gen_p = sub.add_parser("gen", help="emit instance files")
    gen_p.add_argument("kind", choices=INSTANCE_KEYS)
    gen_p.add_argument("--seed", type=int, default=0, help=_SCHEMA["seed"][1])
    gen_p.add_argument("--out", default=".", help="output directory")
    for key in ALL_INSTANCE_KEYS:
        flag = "--" + key.replace("_", "-")
        gen_p.add_argument(flag, type=key_type(key), help=_SCHEMA[key][1])
    gen_p.add_argument("--quiet", action="store_true")

    return parser


def _load_with_overrides(args) -> dict:
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.max_m is not None:
        config["max_m"] = args.max_m
    if args.tol is not None:
        config["sup_tol"] = args.tol
    return validate_config(config)


def _report_failure(result) -> None:
    if "failure" in result.summary:
        print(f"failure: {result.summary['failure']}", file=sys.stderr)


def _cmd_run(args) -> int:
    config = _load_with_overrides(args)
    result = run_experiment(config, out_dir=args.out)
    _report_failure(result)
    if not args.quiet:
        summary = result.summary
        print(f"stopping_reason: {summary['stopping_reason']}")
        gap = summary["final_gap"]  # None when E(G_0) is not finite
        print(f"final_gap: {gap if gap is None else format(gap, '.6e')}")
        print(f"slope: {summary['slope']}")
        print(f"envelope_ratio: {summary['envelope_ratio']}")
        for name, passed in sorted(summary["invariants"].items()):
            print(f"invariant {name}: {'pass' if passed else 'FAIL'}")
        print(f"trace: {result.trace_path}")
        print(f"summary: {result.summary_path}")
    return 0 if result.ok else 1


def _cmd_verify(args) -> int:
    if args.seed < 0:  # numpy's default_rng would raise with a traceback
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    results = run_verification_suite(seed=args.seed)
    ok = True
    for name, check in results.items():
        ok = ok and check.passed
        if not args.quiet:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {name}: {check.detail}")
    if not args.quiet:
        print("verify:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_rates(args) -> int:
    if not math.isfinite(args.slope_max):  # slope > nan is never true
        raise ConfigError(f"--slope-max must be finite, got {args.slope_max}")
    config = _load_with_overrides(args)
    result = run_experiment(config, out_dir=args.out)
    _report_failure(result)
    slope = result.summary["slope"]
    ratio = result.summary["envelope_ratio"]
    if not args.quiet:
        print(f"slope: {slope}")
        print(f"envelope_ratio: {ratio}")
    if not result.ok or slope is None or slope > args.slope_max:
        return 1
    return 0


def _cmd_gen(args) -> int:
    config = {"instance": args.kind, "seed": args.seed}
    for key in ALL_INSTANCE_KEYS:
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    check_instance_keys(config)  # a flag the kind needs, or one it does not read
    try:
        _, dictionary, cert, target = build_instance(config)
    except ValueError as exc:  # a generator's range check: a usage error
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "low_rank":
        target = target.reshape(args.n, args.n)
    else:
        np.savetxt(out / "dictionary.csv", dictionary.columns, delimiter=",")
    np.savetxt(out / "target.csv", target, delimiter=",")
    payload = {
        "mass": cert.mass,
        "reference_optimum": 0.0,  # every planted target is an exact fit
        "terms": [
            {
                "index": atom.index,
                "sign": atom.sign,
                "coefficient": coef,
                **(
                    {
                        "u": atom.factors[0].tolist(),
                        "v": atom.factors[1].tolist(),
                    }
                    if atom.factors is not None
                    else {}
                ),
            }
            for atom, coef in cert.terms
        ],
    }
    (out / "certificate.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if not args.quiet:
        print(f"wrote {args.kind} instance (seed {args.seed}) to {out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    handlers = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "rates": _cmd_rates,
        "gen": _cmd_gen,
    }
    try:
        # an overflow surfaces as NonFiniteEnergyError (exit 1), so numpy's
        # own overflow warning would only repeat it on stderr
        with np.errstate(over="ignore"):
            return handlers[args.command](args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
