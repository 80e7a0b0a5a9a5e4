"""Command-line entry point.

Subcommands:
  piecewise        run a scripted regime-switching experiment, emit a trace
  threshold-sweep  classify the value-coupled operator over a parameter grid
  delay-table      analytic + empirical detection delays for the standard rows
  certify          run every certification suite, write the report
  rmdm-demo        fit the linear context encoder on a synthetic labeled set

Exit codes: 0 success, 1 configuration or argument error, 2 certification
failure, 3 I/O error, 4 numerical failure at run time (an unconverged fixed
point, overflowing tables or a non-finite context loss; the log-domain
change detector has no such failure).
Every error prints one line to stderr, and so does every warning (such as
a config's MetastabilityWarning), as ``warning: <message>``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from ..context import ContextLossConfig, context_loss, encode, fit_linear_context, mode_means
from ..mdp import _AT_LEAST_ONE, _NON_NEGATIVE, _POSITIVE, _real, _whole
from .certify import MUTATIONS, report_to_json, run_certification, separable_context_dataset
from .config import load_config
from .experiment import run_piecewise
from .io import emit_trace, write_table, write_text
from .sweeps import run_delay_table, run_threshold_sweep

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CERTIFICATION = 2
EXIT_IO = 3
EXIT_RUNTIME = 4


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit with EXIT_CONFIG.

    argparse's own code for them is 2, which this CLI reserves for a
    certification failure. Subcommand parsers inherit the class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pwmdp",
        description="Piecewise-stationary MDP experiments and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None, help="master seed override")

    def add_out(p):
        p.add_argument("--out", type=str, default=None, help="output directory")

    def add_format(p, default):
        p.add_argument("--format", choices=("csv", "json"), default=default, help="output format")

    p_piece = sub.add_parser("piecewise", help="run a scripted regime-switching experiment")
    p_piece.add_argument("--config", type=str, default=None, help="JSON config path")
    add_seed(p_piece)
    add_out(p_piece)
    add_format(p_piece, None)  # None: the config's format applies

    p_sweep = sub.add_parser(
        "threshold-sweep", help="phase map of the value-coupled operator"
    )
    add_out(p_sweep)
    p_sweep.add_argument("--n-gamma", type=int, default=50)
    p_sweep.add_argument("--n-coupling", type=int, default=50)
    p_sweep.add_argument("--n-iter", type=int, default=200)

    p_delay = sub.add_parser("delay-table", help="detection-delay table")
    add_out(p_delay)
    add_format(p_delay, "csv")

    p_cert = sub.add_parser("certify", help="run the certification suites")
    add_seed(p_cert)
    add_out(p_cert)
    p_cert.add_argument(
        "--inject-mutation",
        choices=MUTATIONS,
        default=None,
        help="deliberately inject a known bug; certification must then fail",
    )

    p_demo = sub.add_parser(
        "rmdm-demo",
        help="context-embedding demo: fit the linear encoder on synthetic labeled data",
    )
    add_seed(p_demo)
    add_out(p_demo)
    p_demo.add_argument("--steps", type=int, default=150)
    p_demo.add_argument("--lr", type=float, default=0.1)

    return parser


def _out_dir(args, fallback: str = "out") -> Path:
    path = Path(args.out if args.out is not None else fallback)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_piecewise(args) -> int:
    overrides = {"seed": args.seed, "out_dir": args.out, "format": args.format}
    config = load_config(args.config, overrides)
    trace = run_piecewise(config)
    out = _out_dir(args, config.out_dir)
    path = emit_trace(trace, out / f"trace.{config.format}")
    final = trace.rows[-1]
    print(f"wrote {len(trace)} rows to {path}")
    print(f"final: err={final.err:.3e} lambda_w={final.lambda_w:.4f} beta_eff={final.beta_eff:.4f}")
    return EXIT_OK


def _flag(args, flag: str, rule: tuple) -> int:
    """The integer value of ``flag`` under ``rule``; an absent ``--seed`` (certify, rmdm-demo) reads 0."""
    value = getattr(args, flag[2:].replace("-", "_"))
    return 0 if value is None else _whole(value, flag, rule)


# The largest threshold-sweep grid, in cells. The sweep holds about 100 bytes
# per cell, about 250 with its JSON text, so 2**20 cells keep it within the
# 256 MiB that MAX_KERNEL_ENTRIES gives a config's kernel.
MAX_SWEEP_CELLS = 2**20


def _cmd_threshold_sweep(args) -> int:
    sizes = [_flag(args, flag, _AT_LEAST_ONE) for flag in ("--n-gamma", "--n-coupling", "--n-iter")]
    n_gamma, n_coupling, n_iter = sizes
    cells = n_gamma * n_coupling
    if cells > MAX_SWEEP_CELLS:
        raise ValueError(
            f"--n-gamma {n_gamma} times --n-coupling {n_coupling} is a grid of "
            f"{cells} cells, beyond the budget of {MAX_SWEEP_CELLS}"
        )
    result = run_threshold_sweep(
        np.linspace(0.0, 0.98, n_gamma), np.linspace(0.0, 0.5, n_coupling), n_iter=n_iter
    )
    out = _out_dir(args)
    text = json.dumps(result.to_json_dict(), indent=2) + "\n"
    path = write_text(out / "phase_map.json", text, "phase map")
    print(f"phase map {n_gamma}x{n_coupling} -> {path}")
    print(f"boundary matches analytic line: {result.matches_analytic()}")
    return EXIT_OK


def _cmd_delay_table(args) -> int:
    rows = run_delay_table()
    header = list(rows[0])
    path = _out_dir(args) / f"delay_table.{args.format}"
    write_table(path, header, ([row[k] for k in header] for row in rows), "delay table")
    for row in rows:
        print(
            f"{row['scenario']}: L={row['likelihood_ratio']} r0={row['prior_ratio']} "
            f"delta={row['delta']} n_delta={row['n_delta']:.4f} "
            f"ceil={row['n_ceil']} empirical={row['empirical_delay']}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    report = run_certification(seed=_flag(args, "--seed", _NON_NEGATIVE), mutation=args.inject_mutation)
    for suite in report.suites:
        status = "PASS" if suite.passed else "FAIL"
        print(
            f"{status} {suite.name}: instances={suite.tested_instances} "
            f"max_violation={suite.max_violation:.3e} tol={suite.tolerance:.1e}"
        )
    if args.out is not None:
        out = _out_dir(args)
        path = write_text(out / "certification.json", report_to_json(report), "report")
        print(f"wrote {path}")
    if not report.passed:
        failed = [s.name for s in report.suites if not s.passed]
        print(f"certification FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CERTIFICATION
    print("certification passed")
    return EXIT_OK


def _cmd_demo(args) -> int:
    seed = _flag(args, "--seed", _NON_NEGATIVE)
    lr = _real(args.lr, "--lr", _POSITIVE)
    steps = _flag(args, "--steps", _NON_NEGATIVE)
    config = ContextLossConfig()
    states, mode_ids = separable_context_dataset(seed)
    weights = fit_linear_context((states, mode_ids), config, steps=steps, lr=lr, seed=seed)
    vectors = encode(weights, states)
    loss = context_loss(vectors, mode_ids, config)
    means = mode_means(vectors, mode_ids)
    distance = float(np.linalg.norm(means[0] - means[1]))
    out = _out_dir(args)
    payload = {
        "weights": [[float(w) for w in row] for row in weights],
        "loss_total": loss.total,
        "loss_consistency": loss.consistency,
        "loss_diversity": loss.diversity,
        "mode_mean_distance": distance,
    }
    path = write_text(out / "context_map.json", json.dumps(payload, indent=2) + "\n", "context map")
    print(f"fitted linear context encoder: mode-mean distance {distance:.3f}")
    print(f"loss total={loss.total:.4f} consistency={loss.consistency:.4f} diversity={loss.diversity:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "piecewise": _cmd_piecewise,
    "threshold-sweep": _cmd_threshold_sweep,
    "delay-table": _cmd_delay_table,
    "certify": _cmd_certify,
    "rmdm-demo": _cmd_demo,
}


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one stderr line, without the source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores showwarning on exit
        warnings.showwarning = _print_warning
        try:
            return _COMMANDS[args.command](args)
        except ValueError as exc:  # ConfigError included
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        except (RuntimeError, FloatingPointError) as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
