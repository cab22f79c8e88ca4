"""Command-line interface.

Subcommands:
    solve       print P, Sigma, J, and the gradient at a gain
    optimize    run a single optimizer method
    experiment  run a full experiment config (traces, summary, landscape)
    validate    run the oracle cross-check suite; exit nonzero on failure
    landscape   emit the two-parameter cost grid as CSV

`solve`, `optimize`, `experiment`, and `landscape` read a JSON config (see
lqrnewton.experiment for the schema).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ConfigError, LqrError
from .lqr import Gain
from .derivatives import Evaluation
from .optimize import METHODS, OptimizerConfig, run
from .experiment import (load_config, run_experiment, trace_csv_text,
                         landscape_csv_text, write_atomic)
from .benchmarks import default_landscape_window, initial_gain, landscape
from . import validate as validate_mod


def _fmt_matrix(name, M):
    body = np.array2string(np.atleast_2d(M), precision=10, suppress_small=False,
                           separator=", ")
    return f"{name} =\n{body}"


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    gain = cfg.gain if cfg.gain is not None else Gain.zero(cfg.problem)
    ev = Evaluation(cfg.problem, gain)
    print(_fmt_matrix("P", ev.P))
    print(f"q = {ev.q!r}")
    print(_fmt_matrix("Sigma", ev.Sigma))
    print(f"J = {ev.J!r}")
    print(f"grad = {np.array2string(ev.grad, separator=', ')}")
    return 0


def _cmd_optimize(args) -> int:
    cfg = load_config(args.config, output_dir=args.out)
    chosen = None
    for label, mcfg in zip(cfg.labels, cfg.methods):
        if label == args.method or mcfg.method == args.method:
            chosen = mcfg
            break
    if chosen is None:
        chosen = OptimizerConfig(method=args.method)
    overrides = {}
    if args.tol is not None:
        overrides["grad_tol"] = args.tol
    if args.max_iter is not None:
        overrides["max_iter"] = args.max_iter
    if overrides:
        try:
            chosen = OptimizerConfig(**{**chosen.__dict__, **overrides})
        except ValueError as exc:
            raise ConfigError(f"--tol/--max-iter: {exc}") from None
    if chosen.seed_gain is None:
        seed_gain = cfg.seed_gain if cfg.seed_gain is not None else initial_gain(cfg.problem)
        chosen = OptimizerConfig(**{**chosen.__dict__, "seed_gain": seed_gain})
    record = run(cfg.problem, chosen)
    last = record.steps[-1]
    print(f"method={chosen.method} iterations={record.iterations} "
          f"converged={record.converged} flag={record.flag}")
    print(f"final J={last.J!r} grad_norm={last.grad_norm!r} "
          f"gain_error={last.gain_error!r}")
    if args.out is not None:
        out = cfg.output_dir
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"trace_{chosen.method}.csv"
        write_atomic(path, trace_csv_text(record))
        print(f"trace written to {path}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config, output_dir=args.out, seed=args.seed)
    status = run_experiment(cfg)
    print(f"experiment finished with status {status}; outputs in {cfg.output_dir}")
    return status


def _cmd_validate(args) -> int:
    results = validate_mod.run_all()
    failures = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag}: {res.name} -- {res.detail}")
        failures += not res.passed
    if failures:
        print(f"{failures} check(s) failed")
    return 1 if failures else 0


def _cmd_landscape(args) -> int:
    cfg = load_config(args.config, output_dir=args.out)
    ranges = cfg.landscape_ranges
    if ranges is None:
        ranges = default_landscape_window(cfg.problem)
    grid = landscape(cfg.problem, *ranges)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "landscape.csv"
    write_atomic(path, landscape_csv_text(grid))
    print(f"landscape written to {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lqrnewton",
        description="Policy optimization for discounted stochastic LQR")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="print P, Sigma, J, gradient at a gain")
    p_solve.add_argument("--config", required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_opt = sub.add_parser("optimize", help="run one optimizer method")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--method", required=True, choices=METHODS)
    p_opt.add_argument("--out", default=None)
    p_opt.add_argument("--tol", type=float, default=None)
    p_opt.add_argument("--max-iter", type=int, default=None)
    p_opt.set_defaults(func=_cmd_optimize)

    p_exp = sub.add_parser("experiment", help="run a full experiment config")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    p_val = sub.add_parser("validate", help="run the oracle cross-check suite")
    p_val.set_defaults(func=_cmd_validate)

    p_land = sub.add_parser("landscape", help="emit the cost grid as CSV")
    p_land.add_argument("--config", required=True)
    p_land.add_argument("--out", default=None)
    p_land.set_defaults(func=_cmd_landscape)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LqrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
