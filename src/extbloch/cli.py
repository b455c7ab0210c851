"""Command-line front end: eval, check, ccs subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from . import ccs as ccs_mod
from .cover import parse_flattened
from .dilog import set_precision
from .prebloch import FormalSum, eval_lhat, kappa_hat
from .rogers import reduce_mod_transfer
from .sweeps import RELATIONS, SweepConfig, run_sweep

TOL_ENV_VAR = "EXTBLOCH_TOL"


def _default_tol() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return 1e-9
    try:
        value = float(raw)
    except ValueError:
        raise SystemExit(f"error: {TOL_ENV_VAR}={raw!r} is not a number")
    if not value > 0:
        raise SystemExit(f"error: {TOL_ENV_VAR} must be positive")
    return value


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=None,
                     help=f"tolerance (default 1e-9, override via ${TOL_ENV_VAR})")
    sub.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    sub.add_argument("--samples", type=int, default=500,
                     help="sweep sample count (default 500)")
    sub.add_argument("--index-bound", type=int, default=5,
                     help="branch indices drawn from [-bound, bound] (default 5)")
    sub.add_argument("--precision", choices=("double", "high"), default="double",
                     help="numeric backend (high = >=50 digits internally)")
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
    _common_flags(p_eval)

    p_check = sub.add_parser("check", help="run a seeded randomized relation sweep")
    p_check.add_argument("relation", choices=RELATIONS)
    _common_flags(p_check)

    p_ccs = sub.add_parser("ccs", help="complex volume of a flattened triangulation file")
    p_ccs.add_argument("input", help="triangulation file: 'sign z_re z_im side p q' lines")
    _common_flags(p_ccs)

    return parser


def _emit_value(s: FormalSum, fmt: str) -> None:
    value = eval_lhat(s)
    transfer = reduce_mod_transfer(value)
    split = value.split()
    if fmt == "structured":
        print(json.dumps({
            "value_re": value.value.real,
            "value_im": value.value.imag,
            "value_mod_2pi2_re": transfer.real,
            "split_re": split.real,
            "split_im": split.imag,
        }))
    else:
        print(f"value: {value.value.real!r} {value.value.imag!r}")
        print(f"mod-2pi2: {transfer.real!r} {transfer.imag!r}")
        print(f"split: {split.real!r} {split.imag!r}")


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.sum_file is not None:
        if args.operand:
            raise SystemExit("error: give either --sum FILE or an inline operand, not both")
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
        raise SystemExit(
            "usage: extbloch eval (kappa | z_re z_im side p q | --sum FILE)"
        )
    _emit_value(s, args.format)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    config = SweepConfig(
        relation=args.relation,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        index_bound=args.index_bound,
    )
    result = run_sweep(config)
    if args.format == "structured":
        print(json.dumps(result.to_dict()))
    else:
        print(result.render_text())
    return 0 if result.passed else 1


def _cmd_ccs(args: argparse.Namespace) -> int:
    try:
        tri = ccs_mod.load(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ccs_mod.TriangulationFormatError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    report = ccs_mod.volume_report(tri)
    if args.format == "structured":
        print(json.dumps(report.to_dict()))
    else:
        print(report.render_text())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    set_precision(args.precision)
    try:
        args.tol = _default_tol() if args.tol is None else args.tol
        if not args.tol > 0:
            raise SystemExit("error: --tol must be positive")
        status = {"eval": _cmd_eval, "check": _cmd_check, "ccs": _cmd_ccs}[args.command](args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return status
    except BrokenPipeError:
        # the rest of stdout goes to devnull, so the flush at exit cannot raise
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    finally:
        set_precision("double")


if __name__ == "__main__":
    raise SystemExit(main())
