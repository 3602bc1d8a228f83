"""Command line entry point.

Subcommands:
  run     realize the config and write CSVs plus a manifest
  verify  check the rate envelope against worst-case simulations
  tstar   auto-detect the adversarial switch time and report the deviation
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import load_config
from .errors import ConfigError, FjfadeError
from .experiment import (
    resolve_out_dir,
    run_experiment,
    tstar_report,
    verify_bounds,
    write_outputs,
)


def _add_common(p: argparse.ArgumentParser, horizon: bool = True) -> None:
    p.add_argument("config", help="path to an experiment config (INI format)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    if horizon:
        p.add_argument("--horizon", type=int, default=None, help="override the config horizon")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fjfade",
        description="Consensus dynamics with a fading competition term: "
                    "simulation runs, rate-bound verification, switch-time detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every configured schedule and write outputs")
    _add_common(p_run)
    p_run.add_argument("--out", default=None, help="override the config output directory")

    p_verify = sub.add_parser("verify", help="check simulated ratios against the rate envelope")
    _add_common(p_verify)
    p_verify.add_argument("--trials", type=int, default=20,
                          help="random initial conditions to test (default 20)")
    p_verify.add_argument("--self-test", action="store_true",
                          help="corrupt the upper bound and demand a reported violation")

    p_tstar = sub.add_parser("tstar", help="auto-detect the adversarial switch time")
    _add_common(p_tstar, horizon=False)
    return parser


def _load(args) -> object:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "horizon", None) is not None:
        cfg = replace(cfg, horizon=args.horizon)
    return cfg


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def cmd_run(args) -> int:
    cfg = _load(args)
    result = run_experiment(cfg)
    out_dir = resolve_out_dir(cfg, args.out)
    write_outputs(result, out_dir)
    d = result.draw
    seed_note = f" graph_seed={d.seed_used} resamples={d.resamples}" if d.seed_used is not None else ""
    _say(args, f"network: {cfg.graph.kind} n={cfg.n} edges={len(d.network.edges)}{seed_note}")
    _say(args, f"weights: {cfg.weights} sigma_max={result.weighted.sigma_max!r}")
    _say(args, f"x_ss = {result.x_ss!r}")
    for run in result.runs:
        extra = ""
        if run.report is not None:
            rep = run.report
            extra = f" tstar={rep.tstar} target={rep.target} deviation={rep.deviation!r}"
        extra += f" converged_at={run.converged_at}" if run.converged_at is not None else ""
        _say(args, f"run {run.spec.label}: wrote {out_dir / run.csv_name}{extra}")
    _say(args, f"manifest: {out_dir / 'manifest.ini'}")
    return 0


def cmd_verify(args) -> int:
    cfg = _load(args)
    result = verify_bounds(cfg, trials=args.trials, self_test=args.self_test)
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        deficit = "n/a" if c.witness_max_lower_deficit is None else repr(c.witness_max_lower_deficit)
        _say(args, f"{status} {c.label}: steps={c.steps} "
                   f"witness_upper_excess={c.witness_max_upper_excess!r} "
                   f"witness_lower_deficit={deficit} "
                   f"random_upper_excess={c.random_max_upper_excess!r} "
                   f"(trials={c.random_trials})")
    if args.self_test:
        if result.passed:
            _say(args, "self-test FAILED: the corrupted upper bound was not flagged")
            return 1
        _say(args, "self-test ok: corrupted upper bound was flagged as a violation")
        return 0
    return 0 if result.passed else 1


def cmd_tstar(args) -> int:
    cfg = _load(args)
    rep = tstar_report(cfg)
    _say(args, f"tstar = {rep.tstar}")
    _say(args, f"target = {rep.target}")
    _say(args, f"x_limit_nominal = {rep.x_limit_nominal!r}")
    _say(args, f"y_consensus_value = {rep.y_consensus_value!r}")
    _say(args, f"deviation = {rep.deviation!r}")
    _say(args, f"strict_drop_certified = {str(rep.strict_drop_certified).lower()}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "verify": cmd_verify, "tstar": cmd_tstar}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a config or output path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FjfadeError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
