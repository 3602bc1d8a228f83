"""Benchmark of the fjfade CLI on seeded, generated configs.

    python3 perfbench/run.py --workload study --seed 0 --seconds 30 --trace 0

Run from the repository root. Every operation is one `fjfade` invocation in
a fresh child process, one at a time (a closed loop with one client), with
the package imported from src/ and BLAS pinned to one thread. Operations
repeat until the next one would overrun --seconds. Each one's outputs are
checked against reference.json; a non-zero exit or a failed check counts as
a failed operation.

--trace 0 reports the end-to-end metrics: the median wall_s and peak_rss_mb
of the invocations, and setup_s, the least time a fresh interpreter took to
import fjfade.cli and parse the config (four probes before every
invocation). --trace 1 alternates untraced and traced invocations (spans.py)
and reports the per-layer split. The last line of
stdout is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 4  # per invocation
SETUP_CODE = "import sys, fjfade.cli, fjfade.config; fjfade.config.load_config(sys.argv[1])"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-core machine, two-thread matrix-vector
# products at n=200 ran slower and spread wider than one thread.
BLAS_THREADS = 1
TAIL_CHARS = 400


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    output: str


@dataclass(frozen=True, eq=False)
class Outcome:
    sample: Sample
    summary: dict
    problems: list[str]
    layers: dict | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("EXPERIMENT_OUT_DIR", None)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], log_path: Path) -> Sample:
    """Run one child to completion; wall time from spawn to exit, CPU time
    and peak RSS from its rusage."""
    with open(log_path, "w+", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        output = log.read()
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, output)


class Operations:
    """Invokes the CLI on one workload's config and checks every output."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, reference: dict | None):
        self.workload = workload
        self.work_dir = work_dir
        self.reference = reference
        self.config = work_dir / "config.ini"
        self.config.write_text(workload.config_text(seed), encoding="utf-8")
        parsed = configparser.ConfigParser(interpolation=None)
        parsed.read(self.config, encoding="utf-8")
        self.horizon = parsed.getint("experiment", "horizon", fallback=1000)
        self.labels = [s[len("schedule."):] for s in parsed.sections() if s.startswith("schedule.")]
        self.first_digests: dict | None = None
        self.count = 0

    def setup(self) -> float:
        """One fresh interpreter importing the CLI and parsing the config."""
        sample = spawn([sys.executable, "-c", SETUP_CODE, str(self.config)], self.work_dir / "setup.log")
        if sample.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{sample.output[-TAIL_CHARS:]}")
        return sample.wall_s

    def invoke(self, traced: bool = False) -> Outcome:
        """One operation: run the CLI, check its outputs, and compare their
        summary with the reference when there is one."""
        self.count += 1
        out_dir = self.work_dir / f"out{self.count}"
        args = self.workload.cli_args(str(self.config), str(out_dir))
        if traced:
            prefix = [sys.executable, str(HERE / "spans.py"), str(self.work_dir / "spans.npz")]
        else:
            prefix = [sys.executable, "-m", "fjfade"]
        sample = spawn(prefix + args, self.work_dir / "cli.log")
        if sample.returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            return Outcome(sample, {}, [f"exit code {sample.returncode}: {sample.output[-TAIL_CHARS:]}"])
        summary, problems = self._check(sample, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        if self.reference is not None:
            problems += checks.compare(summary, self.reference)
        layers = None
        if traced:
            import numpy as np

            with np.load(self.work_dir / "spans.npz") as data:
                layers = spans.layer_split(data)
        return Outcome(sample, summary, problems, layers)

    def _check(self, sample: Sample, out_dir: Path) -> tuple[dict, list[str]]:
        command = self.workload.command
        if command == "verify":
            return checks.check_verify(sample.output)
        if command == "tstar":
            return checks.check_tstar(sample.output)
        summary, problems = checks.check_run(out_dir, self.horizon, self.labels)
        found = checks.digests(out_dir) if out_dir.is_dir() else {}
        if self.first_digests is None:
            self.first_digests = found
        elif found != self.first_digests:
            problems.append("outputs are not byte-identical to the first invocation's")
        return summary, problems


def repeat(seconds: float, operation, duration) -> list:
    """Closed loop: start the next operation only if it should end in time."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(operation())
        typical = statistics.median(duration(r) for r in results)
        if time.perf_counter() - start + typical > seconds:
            return results


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "limits": "no hardware counters are read and the page cache is not dropped "
                  "between runs; other tenants may share the cores",
    }


def units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def end_to_end(ops: Operations, seconds: float) -> tuple[dict, list[list[str]]]:
    # set-up probes are interleaved with the invocations, so both sample the
    # same stretch of machine load
    def operation():
        return [ops.setup() for _ in range(SETUP_PROBES)], ops.invoke()

    results = repeat(seconds, operation, lambda r: sum(r[0]) + r[1].sample.wall_s)
    setups = [t for r in results for t in r[0]]
    samples = [r[1].sample for r in results]
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in samples), len(samples)),
        # the least probe: the machine's load only ever adds to it
        "setup_s": (min(setups), len(setups)),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in samples), len(samples)),
    }
    return metrics, [r[1].problems for r in results]


def per_layer(ops: Operations, seconds: float) -> tuple[dict, list[list[str]]]:
    pairs = repeat(seconds, lambda: (ops.invoke(), ops.invoke(traced=True)),
                   lambda pair: pair[0].sample.wall_s + pair[1].sample.wall_s)
    plain = [p[0].sample for p in pairs]
    traced = [p[1].sample for p in pairs]
    splits = [p[1].layers for p in pairs if p[1].layers is not None]
    metrics = {}
    for name in splits[0] if splits else ():
        if name != "top_functions":
            # counts stay whole numbers
            middle = statistics.median_low if isinstance(splits[0][name], int) else statistics.median
            metrics[name] = (middle(s[name] for s in splits), len(splits))
    metrics["cli.cpu_s"] = (statistics.median(s.cpu_s for s in plain), len(plain))
    overhead = statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain)
    metrics["trace.overhead_s"] = (overhead, len(traced))
    if splits:
        print("top functions by self time, first traced invocation:")
        for fn, self_s in splits[0]["top_functions"][:15]:
            print(f"  {self_s:10.4f} s  {fn}")
    return metrics, [o.problems for pair in pairs for o in pair]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fjfade" / "cli.py").is_file():
        print(f"error: no fjfade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config_seed = workload.config_seed(args.seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name][str(config_seed)]
    print(f"workload {workload.name}: seed {args.seed} -> config seed {config_seed}, "
          f"fjfade {workload.command}, trace {args.trace}", flush=True)

    work_dir = ROOT / ".perfbench_tmp" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        ops = Operations(workload, args.seed, work_dir, reference)
        measure = per_layer if args.trace else end_to_end
        try:
            metrics, problems = measure(ops, args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    unit = units()
    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    for name, (value, count) in metrics.items():
        of = "least" if name == "setup_s" else "median"
        print(f"  {name:28s} {value:14.6f} {unit[name]:6s} ({of} of {count})")
    print(f"  {'error_rate':28s} {failed / attempted:14.6f} {'':6s} ({failed} of {attempted} operations failed)")
    for found in problems:
        for problem in found[:5]:
            print(f"  FAIL {problem}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
