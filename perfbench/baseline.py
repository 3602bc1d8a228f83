"""Run two interleaved sets of ten runs per workload and record medians,
quartiles, spreads and how far the two sets' medians differ.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Run from the repository root. For each workload, seeds 0..9 each run once in
set 1 and once in set 2, the two alternating which goes first, so both sets
sample the same drift of the machine; then one traced run on seed 0. The
spread of a metric is the distance between its first and third quartile as a
share of its median. `worse` is how much set 2's median is worse than set
1's, as a share of set 1's; both spreads and `worse` should stay within the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, environment
from workloads import HELD_OUT_SEED

BENCHMARK = ROOT / "BENCHMARK.json"
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def compare_sets(metric: dict, first: list[float], second: list[float]) -> dict:
    one, two = describe(first), describe(second)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (two["median"] - one["median"]) / one["median"]
    return {"set1": one, "set2": two, "worse": worse,
            "within_bound": max(one["spread"], two["spread"], worse) <= metric["bound"]}


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="write the record here as JSON")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    record = {"environment": environment(), "run_seconds": seconds, "runs": RUNS,
              "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        sets = ([], [])
        for seed in range(RUNS):
            for which in ((0, 1) if seed % 2 == 0 else (1, 0)):
                sets[which].append(bench(name, seed, seconds, 0))
        results = sets[0] + sets[1]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m["name"]: compare_sets(m, *([r["metrics"][m["name"]]["value"] for r in s] for s in sets))
                for m in spec["end_to_end"]
            },
        }
        traced = bench(name, 0, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
        print(f"{name}: error_rate {entry['failed'] / entry['attempted']:.4f} "
              f"({entry['failed']} of {entry['attempted']})", flush=True)
        for m in spec["end_to_end"]:
            e = entry["end_to_end"][m["name"]]
            print(f"  {m['name']:12s} medians {e['set1']['median']:.4f} / {e['set2']['median']:.4f} "
                  f"{m['unit']}, spreads {e['set1']['spread']:.4f} / {e['set2']['spread']:.4f}, "
                  f"worse {e['worse']:+.4f}, bound {m['bound']}, "
                  f"{'within' if e['within_bound'] else 'OUTSIDE'}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
