#!/usr/bin/env python3
"""Sweep exponential decay rates and tabulate the rate envelope.

For each rate the script reports when the upper bound certifies the distance
ratio below a threshold, and the residual gap between the bounds at a probe
step. Faster decay reaches the anchored regime sooner but freezes a larger
permanent offset, which is exactly what the stalling column shows.
"""

import argparse
import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from fjfade import (
    exponential,
    gap,
    generate_erdos_renyi,
    lower_bound,
    metropolis_weights,
    upper_bound,
)


def first_below(values, threshold):
    hits = np.nonzero(values < threshold)[0]
    return int(hits[0]) + 1 if hits.size else None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rates", default="0.1,0.25,0.5,1.0,2.0",
                    help="comma separated exponential decay rates")
    ap.add_argument("--graph-seed", type=int, default=886,
                    help="er(20, 0.1) graph seed (default: the pinned study graph)")
    ap.add_argument("--horizon", type=int, default=2000)
    ap.add_argument("--threshold", type=float, default=1e-4)
    ap.add_argument("--probe", type=int, default=50, help="step for the gap column")
    ap.add_argument("--out", default="results/rate_sweep.csv")
    args = ap.parse_args()

    net = generate_erdos_renyi(20, 0.1, args.graph_seed)
    if not net.connected:
        sys.exit(f"graph seed {args.graph_seed} gives a disconnected network")
    w = metropolis_weights(net)
    sigma = w.spectral.sigma_max
    print(f"er(20, 0.1) seed {args.graph_seed}: sigma_max = {sigma:.6f}")

    steps = np.arange(1, args.horizon + 1)
    rows = []
    for rate in (float(r) for r in args.rates.split(",")):
        sched = exponential(rate)
        uppers = upper_bound(sigma, sched, steps)
        lowers = lower_bound(sigma, sched, steps)
        t_cert = first_below(uppers, args.threshold)
        rows.append({
            "rate": rate,
            "sigma_max": sigma,
            "t_upper_below_threshold": t_cert if t_cert is not None else "",
            "upper_at_probe": uppers[args.probe - 1],
            "lower_at_probe": lowers[args.probe - 1],
            "gap_at_probe": gap(sched, args.probe),
        })
        cert = f"t={t_cert}" if t_cert is not None else f"not within {args.horizon}"
        print(f"  rate {rate:5.2f}: upper below {args.threshold:g} at {cert}, "
              f"gap({args.probe}) = {rows[-1]['gap_at_probe']:.3e}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
