"""Command-line front end: eval, check, ccs subcommands."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import NoReturn, Sequence

from .cover import parse_flattened
from .dilog import precision
from .prebloch import FormalSum, eval_lhat, kappa_hat
from .rogers import _render_dict, _render_text, _value_rows, reduce_mod_transfer
from .sweeps import RELATIONS, SweepConfig, run_sweep

# Negative numbers in any float notation; argparse itself takes only -12
# and -1.5, and would read an operand such as -3e9 as an unknown option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|nan)$", re.IGNORECASE)


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--precision", choices=("double", "high"), default="double",
                     help="numeric backend (high = 50 digits internally)")
    sub.add_argument("--format", choices=("text", "structured"), default="text",
                     help="report format (structured = JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extbloch",
        description="Branch-tracked dilogarithm kernel: evaluate cover points, "
                    "verify relations, compute complex volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval",
        help="evaluate a cover point (z_re z_im side p q), 'kappa', or --sum FILE",
    )
    p_eval.add_argument("operand", nargs="*",
                        help="'kappa' or five tokens: z_re z_im side p q")
    p_eval.add_argument("--sum", dest="sum_file", default=None,
                        help="file holding 'coeff z_re z_im side p q' lines")
    p_eval._negative_number_matcher = _NEGATIVE_NUMBER  # the parser's own test for operands
    _common_flags(p_eval)

    p_check = sub.add_parser("check", help="run a seeded randomized relation sweep")
    p_check.add_argument("relation", choices=RELATIONS)
    p_check.add_argument("--tol", type=float, default=1e-9, help="tolerance (default 1e-9)")
    p_check.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    p_check.add_argument("--samples", type=int, default=500,
                         help="sweep sample count (default 500)")
    p_check.add_argument("--index-bound", type=int, default=5,
                         help="branch indices drawn from [-bound, bound] (default 5)")
    _common_flags(p_check)

    p_ccs = sub.add_parser("ccs", help="complex volume of a flattened triangulation file")
    p_ccs.add_argument("input", help="triangulation file: 'sign z_re z_im side p q' lines")
    _common_flags(p_ccs)

    return parser


def _emit(rows: list, fmt: str) -> None:
    print(json.dumps(_render_dict(rows)) if fmt == "structured" else _render_text(rows))


def _eval_usage_error(message: str) -> NoReturn:
    # a command line argparse accepts but eval cannot use: reported and
    # ended as argparse ends its own usage errors, in one line
    print(f"extbloch eval: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.sum_file is not None:
        if args.operand:
            _eval_usage_error("give either --sum FILE or an inline operand, not both")
        try:
            s = FormalSum.parse(Path(args.sum_file).read_text())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {args.sum_file}: bad formal sum: {exc}", file=sys.stderr)
            return 2
    elif len(args.operand) == 1 and args.operand[0] == "kappa":
        s = kappa_hat()
    elif len(args.operand) == 5:
        try:
            s = FormalSum.single(parse_flattened(" ".join(args.operand)))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        _eval_usage_error("expected kappa, z_re z_im side p q, or --sum FILE")
    try:
        value = eval_lhat(s)
        _emit(_value_rows(value.value, reduce_mod_transfer(value).real, value.split(), "mod-2pi2"), args.format)
    except ValueError as exc:  # a coefficient beyond a double, or a value whose split overflows
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        config = SweepConfig(
            relation=args.relation,
            samples=args.samples,
            seed=args.seed,
            tol=args.tol,
            index_bound=args.index_bound,
        )
        result = run_sweep(config)
    except ValueError as exc:  # a bad size or tolerance, or a sample the sweep cannot build
        print(f"extbloch check: error: {exc}", file=sys.stderr)
        return 2
    _emit(result.rows(), args.format)
    return 0 if result.passed else 1


def _cmd_ccs(args: argparse.Namespace) -> int:
    from . import ccs  # here, so eval and check do not load it

    try:
        report = ccs.volume_report(ccs.load(args.input))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a malformed file, or a value whose split overflows
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    _emit(report.rows(), args.format)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with precision(args.precision):
            status = {"eval": _cmd_eval, "check": _cmd_check, "ccs": _cmd_ccs}[args.command](args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return status
    except BrokenPipeError:
        # the rest of stdout goes to devnull, so the flush at exit cannot raise
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
