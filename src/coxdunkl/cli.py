"""Command-line verification harness.

Subcommands:
    info       group census (order, reflections, degrees, psi, rank-2 census)
    verify     run one named check against one group
    integrate  Monte Carlo estimate of the Gaussian integral vs the Gamma product
    suite      run a configured check suite and emit a report
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .coxeter import DEFAULT_ENUMERATION_BUDGET, known_label
from .errors import BudgetError, ConfigError
from .mmintegral import (Z_BAND, gamma_product_rhs, log_gamma_product,
                         mm_monte_carlo)
from .scalars import rat
from .suite import (CHECK_ORDER, SuiteConfig, default_threads, group_context,
                    group_info, parse_config, render_report, run_suite)

USAGE_ERROR = 2
BUDGET_ERROR = 3

#: pinned to 1 unless set: BLAS threads of their own would contend with the
#: Monte Carlo pass's shard threads (numpy reads these when first imported)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _positive_int(text):
    """argparse type for counts (samples, shards, threads, budget): >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coxdunkl",
        description="Exact and statistical verification of reflection-group "
                    "integral identities.")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="worker threads (default: COXDUNKL_THREADS or "
                             "available parallelism)")
    sub = parser.add_subparsers(dest="command", required=True)
    mc = SuiteConfig()   # verify and integrate default as a suite run does

    p_info = sub.add_parser("info", help="print group census as JSON")
    p_info.add_argument("--type", required=True, dest="group")
    p_info.add_argument("--budget", type=_positive_int,
                        default=DEFAULT_ENUMERATION_BUDGET)

    p_verify = sub.add_parser("verify", help="run a single check")
    p_verify.add_argument("--check", required=True, choices=CHECK_ORDER)
    p_verify.add_argument("--type", required=True, dest="group")
    p_verify.add_argument("--json", dest="json_path")
    p_verify.add_argument("--samples", type=_positive_int, default=mc.mc_samples)
    p_verify.add_argument("--seed", type=int, default=mc.seed)
    p_verify.add_argument("--shards", type=_positive_int, default=mc.shards)
    p_verify.add_argument("--heavy", action="store_true")

    p_int = sub.add_parser("integrate",
                           help="Monte Carlo Gaussian integral for one type")
    p_int.add_argument("--type", required=True, dest="group")
    p_int.add_argument("--k", required=True)
    p_int.add_argument("--samples", type=_positive_int, default=mc.mc_samples)
    p_int.add_argument("--seed", type=int, default=mc.seed)
    p_int.add_argument("--shards", type=_positive_int, default=mc.shards)
    p_int.add_argument("--json", dest="json_path")

    p_suite = sub.add_parser("suite", help="run the configured suite")
    p_suite.add_argument("--config", required=True)
    p_suite.add_argument("--json", dest="json_path",
                         help="also write the JSON report here")
    return parser


def _write_report(path, text):
    """Write a report file.  An unwritable path is reported on stderr and
    returns False, for a usage-error exit (2), since exit 1 means a failed
    check."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_info(args):
    info = group_info(args.group, args.budget)
    print(json.dumps(info, separators=(",", ":")))
    return 0


def _cmd_verify(args, threads):
    cfg = SuiteConfig(groups=(args.group,), checks=(args.check,),
                      mc_samples=args.samples, seed=args.seed,
                      shards=args.shards,
                      heavy_types_enabled=args.heavy)
    reports, code = run_suite(cfg, threads=threads)
    print(render_report(reports, "table", seed=cfg.seed))
    if args.json_path and not _write_report(
            args.json_path, render_report(reports, "json", seed=cfg.seed)):
        return USAGE_ERROR
    return code


def _cmd_integrate(args, threads):
    try:
        k = rat(Fraction(args.k))
    except (ValueError, ZeroDivisionError):
        print(f"bad k value {args.k!r}", file=sys.stderr)
        return USAGE_ERROR
    if k < 0:
        print("k must be >= 0", file=sys.stderr)
        return USAGE_ERROR
    ctx = group_context(args.group)
    try:
        # the log first: far past the float range, the exact product takes
        # minutes to build before float() rejects it
        if log_gamma_product(ctx.degrees, float(k)) > math.log(
                sys.float_info.max):
            raise OverflowError
        rhs = gamma_product_rhs(ctx.degrees, k)
        rhs_f = float(rhs)
    except OverflowError:
        raise BudgetError(f"the Gamma product at k={k} on {args.group} "
                          "leaves the float range")
    est = mm_monte_carlo(ctx.rs, k, args.samples, args.seed, args.shards,
                         threads)
    z = (est.mean - rhs_f) / est.std_error if est.std_error > 0 else 0.0
    doc = {
        "type": args.group,
        "k": str(k),
        "mean": est.mean,
        "std_error": est.std_error,
        "samples": est.samples,
        "seed": est.seed,
        "shards": est.shards,
        "rejected": est.rejected,
        "gamma_product": str(rhs) if not isinstance(rhs, float) else rhs,
        "z_score": z,
    }
    text = json.dumps(doc, separators=(",", ":"))
    print(text)
    if args.json_path and not _write_report(args.json_path, text):
        return USAGE_ERROR
    return 0 if abs(z) <= Z_BAND else 1


def _cmd_suite(args, threads):
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    cfg = parse_config(text)
    reports, code = run_suite(cfg, threads=threads)
    print(render_report(reports, "table", seed=cfg.seed))
    failures = sum(1 for r in reports if r.status == "fail")
    print(f"{len(reports)} checks, {failures} failures")
    json_path = args.json_path or cfg.output_path
    if json_path and not _write_report(
            json_path, render_report(reports, "json", seed=cfg.seed)):
        return USAGE_ERROR
    return code


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    if args.command != "suite" and not known_label(args.group):
        print(f"unknown type {args.group!r}", file=sys.stderr)
        return USAGE_ERROR
    try:
        threads = args.threads or default_threads()
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "verify":
            return _cmd_verify(args, threads)
        if args.command == "integrate":
            return _cmd_integrate(args, threads)
        if args.command == "suite":
            return _cmd_suite(args, threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    return USAGE_ERROR  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
