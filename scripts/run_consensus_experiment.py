#!/usr/bin/env python3
"""Run one configured experiment and print the headline numbers.

Thin wrapper over the library driver; equivalent to `fjfade run` but handy
for editing in place while exploring.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fjfade import load_config, run_experiment, write_outputs
from fjfade.experiment import resolve_out_dir

DEFAULT_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "twenty_agents.ini"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(DEFAULT_CONFIG))
    ap.add_argument("--out", default=None, help="output directory override")
    ap.add_argument("--seed", type=int, default=None, help="seed override")
    args = ap.parse_args()

    cfg = load_config(args.config)
    if args.seed is not None:
        from dataclasses import replace
        cfg = replace(cfg, seed=args.seed)
    out_dir = resolve_out_dir(cfg, args.out)
    result = run_experiment(cfg)
    write_outputs(result, out_dir)

    print(f"graph: {cfg.graph.kind} n={cfg.n} edges={len(result.draw.network.edges)} "
          f"(seed {result.draw.seed_used}, {result.draw.resamples} resamples)")
    print(f"sigma_max = {result.weighted.sigma_max:.6f}, x_ss = {result.x_ss:.6f}")
    for run in result.runs:
        line = f"  {run.spec.label:>14s}: final avg distance {run.trajectory.avg_distances[-1]:.3e}"
        if run.report is not None:
            line += (f", tstar = {run.report.tstar}, "
                     f"deviation = {run.report.deviation:.4f}")
        print(line)
    print(f"outputs in {out_dir}")


if __name__ == "__main__":
    main()
