#!/usr/bin/env python3
"""Run `python -m fjfade ARGS` on one BLAS thread and fail at or over a peak RSS.

Usage: python .github/peak_rss.py LIMIT_MB -- ARGS...

Prints the child's peak resident set size (`ru_maxrss` from `os.wait4`) and
exits with the child's exit code if it failed, else 1 if the peak is at or
over LIMIT_MB, else 0.
"""

import os
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.exit(__doc__)
    limit_mb = float(argv[0])
    child = [sys.executable, "-m", "fjfade", *argv[2:]]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    _, status, usage = os.wait4(os.spawnve(os.P_NOWAIT, sys.executable, child, env), 0)
    peak_mb = usage.ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (limit {argv[0]} MB)")
    return os.waitstatus_to_exitcode(status) or int(peak_mb >= limit_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
