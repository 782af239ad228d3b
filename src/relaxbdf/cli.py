"""Command-line front end.

Three subcommands:

* ``run``             - execute a convergence study and emit the table;
* ``check-stability`` - print a model's structural stability certificate;
* ``verify-theory``   - evaluate the multiplier identities and the
                        truncation-order fit for a scheme order.

Exit codes: 0 on success, 2 when a requested assertion fails (a certificate
condition, an identity residual, a truncation slope or a study cell), 1 on
usage or runtime errors.

``--log-level`` sends the package's log records (failed cells, the step-bound
notice) to stderr at that level.  Without it, logging is left as the host
process set it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from .harness import ExperimentConfig, emit_table, run_convergence_study
from .integrator import UnsupportedOrderError, bdf_coefficients
from .linalg import _check_positive
from .models import MODEL_BUILDERS, build_model, initial_data
from .oracle import exact_evolve
from .system import SymmetrizerNotFoundError, check_structural_stability
from .theory import (
    fit_order,
    multiplier_data,
    truncation_residual,
    verify_multiplier_identity,
)

USAGE_ERROR, ASSERTION_FAILED = 1, 2

LOG_LEVELS = ("debug", "info", "warning", "error")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to the ``sys.stderr`` of the moment."""

    def __init__(self):
        logging.Handler.__init__(self)
        self.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))

    @property
    def stream(self):
        return sys.stderr


def _configure_logging(level: str) -> None:
    """Log the package at ``level`` through one stderr handler; a repeated
    call only changes the level."""
    package = logging.getLogger(__package__)
    package.setLevel(level.upper())
    if not any(isinstance(handler, _StderrHandler) for handler in package.handlers):
        package.addHandler(_StderrHandler())
    package.propagate = False


def _tokens(text: str) -> tuple[str, ...]:
    """The comma-separated numbers of a flag; the config parses them."""
    return tuple(tok for tok in text.split(",") if tok)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxbdf",
        description="IMEX-BDF / Fourier solvers for stiff linear relaxation systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level", choices=LOG_LEVELS,
        help="log relaxbdf's messages to stderr at this level (default: leave logging as is)",
    )

    run_p = sub.add_parser("run", parents=[common], help="run a convergence study")
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    run_p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    run_p.add_argument("--model", choices=sorted(MODEL_BUILDERS))
    run_p.add_argument("--order", type=int, help="scheme order q (1..4)")
    run_p.add_argument("--eps", help="comma-separated relaxation times (fractions ok)")
    run_p.add_argument("--dt", help="comma-separated decreasing steps (fractions ok)")
    run_p.add_argument("--modes", type=int, help=f"Fourier cutoff N (default {defaults['modes']})")
    run_p.add_argument("--t0", help=f"start time (default {defaults['t_start']:g})")
    run_p.add_argument("--tfinal", help="final time")
    run_p.add_argument(
        "--startup", help=f"'exact', 'ars' or 'ars:DIVISOR' (default {defaults['startup']})"
    )
    run_p.add_argument("--ref", help=f"'exact' or 'fine:DTREF' (default {defaults['reference']})")
    run_p.add_argument("--format", choices=["csv", "md"], dest="fmt")
    run_p.add_argument("--out", help="output path (stdout when omitted)")

    cert_p = sub.add_parser("check-stability", parents=[common], help="print a stability certificate")
    cert_p.add_argument("--model", required=True, choices=sorted(MODEL_BUILDERS))
    cert_p.add_argument("--tol", type=float, default=1e-10)

    theory_p = sub.add_parser("verify-theory", parents=[common], help="multiplier and truncation checks")
    theory_p.add_argument("--q", type=int, required=True, help="scheme order (1..4)")
    theory_p.add_argument("--samples", type=int, default=1000)
    theory_p.add_argument("--seed", type=int, default=0)
    theory_p.add_argument("--tol", type=float, default=1e-11)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    cli_fields = {
        "model": args.model,
        "order": args.order,
        "epsilons": _tokens(args.eps) if args.eps else None,
        "dts": _tokens(args.dt) if args.dt else None,
        "modes": args.modes,
        "t_start": args.t0 or None,
        "t_final": args.tfinal or None,
        "startup": args.startup,
        "reference": args.ref,
        "fmt": args.fmt,
        "output": args.out,
    }
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    return ExperimentConfig.from_json(doc, **cli_fields)


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    table = run_convergence_study(config)
    text = emit_table(table, config.fmt)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    failed = any(row.l2_error is None for row in table.rows)
    return ASSERTION_FAILED if failed else 0


def _cmd_check_stability(args) -> int:
    model = build_model(args.model)
    report = check_structural_stability(model.system, model.witness, tol=args.tol)
    print(f"model: {args.model} (normal form, witness transform = identity)")
    print(report.summary())
    if model.raw_witness is not None:
        raw_report = check_structural_stability(
            (model.raw_convection, model.raw_source), model.raw_witness, tol=args.tol
        )
        print("raw-variable witness:")
        print(raw_report.summary())
        return 0 if (report.passed and raw_report.passed) else ASSERTION_FAILED
    return 0 if report.passed else ASSERTION_FAILED


def _cmd_verify_theory(args) -> int:
    _check_positive("tol", args.tol)
    ok = True
    rng = np.random.default_rng(args.seed)
    try:
        data = multiplier_data(args.q)
        residual = verify_multiplier_identity(
            data, bdf_coefficients(args.q), samples=args.samples, rng=rng
        )
        passed = residual <= args.tol
        ok &= passed
        print(f"multiplier identities (q={args.q}): max residual {residual:.3e} "
              f"[{'PASS' if passed else 'FAIL'} at {args.tol:.1e}]")
    except UnsupportedOrderError:
        print(f"multiplier identities (q={args.q}): coefficients not transcribed, skipped")

    model = build_model("arz")
    system = model.system_at(1.0)
    u0 = initial_data(model, max(args.q, 2), 8, 1.0)
    coeffs = bdf_coefficients(args.q)
    dts = [1e-2, 5e-3, 2.5e-3]
    residuals = [
        truncation_residual(system, lambda t: exact_evolve(u0, system, t), coeffs, dt)
        for dt in dts
    ]
    slope = fit_order(dts, residuals)
    slope_ok = abs(slope - (args.q + 1)) <= 0.2
    ok &= slope_ok
    print(f"truncation residual slope (q={args.q}): {slope:.3f} "
          f"(target {args.q + 1} +/- 0.2) [{'PASS' if slope_ok else 'FAIL'}]")
    return 0 if ok else ASSERTION_FAILED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.log_level:
        _configure_logging(args.log_level)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check-stability":
            return _cmd_check_stability(args)
        if args.command == "verify-theory":
            return _cmd_verify_theory(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, KeyError, SymmetrizerNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
