"""Command-line front end.

Exit codes: 0 all checks passed (or were skipped), 1 at least one check
failed, 2 usage / configuration / IO error or out of memory.
"""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .errors import SemistabError
from .experiments import (MAX_DIM, load_report, parse_config, render_report,
                          report_exit_code, run_hardy, run_simulate,
                          run_theorem_check, run_witness)


def _load_config(args):
    with open(args.config, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_config(text, max_dim=args.max_dim)


def _show(report: dict) -> int:
    print(render_report(report))
    return report_exit_code(report)


def _cmd_hardy(args):
    return _show(run_hardy(args.cases, max_len=args.max_len, seed=args.seed,
                           out_dir=args.out).to_dict())


def _cmd_witness(args):
    ts = [float(part) for part in args.t.split(",") if part.strip()]
    return _show(run_witness(ts, dim=args.dim, out_dir=args.out).to_dict())


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="semistab",
        description="Norm-growth and decay-ratio experiments for three "
                    "block-diagonal semigroup families.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name, runner, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out", default=None,
                         help="output directory (overrides the config)")
        cmd.add_argument("--max-dim", type=int, default=MAX_DIM,
                         help="reject configs whose truncation exceeds this "
                              "coordinate dimension")
        cmd.set_defaults(func=lambda args: _show(
            runner(_load_config(args), out_dir=args.out).to_dict()))
        return cmd

    add_config_command("simulate", run_simulate,
                       "sample semigroup / resolvent-product norms and "
                       "judge the family's growth and decay laws")
    add_config_command("theorem-check", run_theorem_check,
                       "run the full decay-criterion pipeline: envelope, "
                       "projections, and conclusion decay")

    hardy = sub.add_parser("hardy", help="randomized discrete Hardy "
                                         "inequality check")
    hardy.add_argument("--cases", type=int, default=10_000)
    hardy.add_argument("--max-len", type=int, default=512,
                       help=f"longest sequence drawn (at most {MAX_DIM})")
    hardy.add_argument("--seed", type=int, default=42)
    hardy.add_argument("--out", default="out")
    hardy.set_defaults(func=_cmd_hardy)

    witness = sub.add_parser("witness", help="tent-vector lower-bound "
                                             "experiment")
    witness.add_argument("--t", required=True,
                         help="comma-separated time values, e.g. 10,20,40,80")
    witness.add_argument("--dim", type=int, default=None,
                         help="truncation dimension (default: the minimal "
                              f"adequate one for max t, at most {MAX_DIM})")
    witness.add_argument("--out", default="out")
    witness.set_defaults(func=_cmd_witness)

    report = sub.add_parser("report", help="render a stored report and exit "
                                           "with its verdict status")
    report.add_argument("path")
    report.set_defaults(func=lambda args: _show(load_report(args.path)))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (SemistabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
