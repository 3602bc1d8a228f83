"""Record reference.json: the output summary of every workload at every pool seed.

    python3 perfbench/record_reference.py

Run from the repository root on the commit whose outputs are the reference.
Each config is run once; a run whose outputs break an invariant is refused.
The file is written afresh.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import REFERENCE, ROOT, Operations
from workloads import POOL_SIZE, WORKLOADS


def main() -> int:
    reference = {}
    work_dir = ROOT / ".perfbench_tmp" / f"record-{os.getpid()}"
    try:
        for name, workload in sorted(WORKLOADS.items()):
            entries = {}
            for seed in range(POOL_SIZE):
                work_dir.mkdir(parents=True)
                outcome = Operations(workload, seed, work_dir, None).invoke()
                shutil.rmtree(work_dir)
                if outcome.sample.returncode != 0 or outcome.problems:
                    print(f"{name} seed {seed}: {outcome.problems}", file=sys.stderr)
                    return 1
                entries[str(workload.config_seed(seed))] = outcome.summary
                print(f"{name} seed {seed}: {outcome.sample.wall_s:.2f} s", flush=True)
            reference[name] = entries
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
