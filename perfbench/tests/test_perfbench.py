"""Tests of the benchmark itself: span arithmetic, wrapper patching, output
checks and the workload generator.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS, Workload  # noqa: E402

from fjfade.config import load_config, parse_config  # noqa: E402

TINY_RUN = """\
[experiment]
n = 8
horizon = 120
seed = {seed}

[graph]
kind = er
p = 0.45

[weights]
kind = metropolis

[x0]
uniform = 0 5

[schedule.fast]
kind = exponential
rate = 0.5

[schedule.slow]
kind = hyperbolic

[schedule.hold]
kind = adversarial
tstar = auto
target = argmax
"""


def synthetic_spans():
    # cli.main [0, 10] holds bounds.f [1, 4] (which holds schedules.g [2, 3])
    # and dynamics.h [5, 9].
    return {
        "names": np.array(["cli.main", "bounds.f", "schedules.g", "dynamics.h"]),
        "fid": np.array([0, 1, 2, 3]),
        "parent": np.array([-1, 0, 1, 0]),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0]),
        "counters": np.array(json.dumps({"dynamics.agent_steps": 7})),
    }


def test_self_time_subtracts_direct_children_only():
    s = synthetic_spans()
    assert spans.self_times(s["parent"], s["start"], s["end"]).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_split_of_synthetic_tree():
    split = spans.layer_split(synthetic_spans())
    assert split["cli.self_s"] == 3.0
    assert split["bounds.self_s"] == 2.0 and split["bounds.calls"] == 1
    assert split["schedules.self_s"] == 1.0
    assert split["dynamics.self_s"] == 4.0
    assert split["network.calls"] == 0 and split["network.self_s"] == 0.0
    assert split["trace.coverage"] == pytest.approx(0.7)
    assert split["dynamics.agent_steps"] == 7 and split["network.spectral_iterations"] == 0
    # every span's time is counted once: the self times add up to the root span
    assert sum(split[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0


def tiny_ops(tmp_path, command="run", reference=None, name="work"):
    workload = Workload("tiny", command, TINY_RUN.format, base_seed=5)
    work_dir = tmp_path / name
    work_dir.mkdir()
    return run.Operations(workload, 0, work_dir, reference)


def test_wrappers_reach_names_imported_from_other_modules(tmp_path):
    ops = tiny_ops(tmp_path)
    plain = ops.invoke()
    traced = ops.invoke(traced=True)
    assert plain.problems == [] and traced.problems == []
    # tracing changes no output byte
    assert traced.summary == plain.summary
    with np.load(ops.work_dir / "spans.npz") as data:
        names = [str(n) for n in data["names"]]
        called = {names[f] for f in data["fid"]}
        parent_of = {names[data["fid"][i]]: names[data["fid"][p]]
                     for i, p in enumerate(data["parent"]) if p >= 0}
    # experiment.py calls `upper_bound` through its own `from .bounds import`
    assert "bounds.upper_bound" in called
    assert parent_of["bounds.upper_bound"] == "experiment.render_csv"
    # methods are attributed to the module that defines their class
    assert "dynamics.Trajectory.x" in called
    assert traced.layers["trace.coverage"] > 0.9
    assert traced.layers["experiment.bytes_written"] > 0


def write(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return path


def test_reference_match_and_perturbed_csv_value(tmp_path):
    out = tmp_path / "out"
    code = subprocess.call(
        [sys.executable, "-m", "fjfade", "run", str(write(tmp_path, TINY_RUN.format(seed=5))),
         "--out", str(out), "--quiet"],
        env=run.child_env(),
    )
    assert code == 0
    labels = ["fast", "slow", "hold"]
    reference, problems = checks.check_run(out, 120, labels)
    assert problems == []
    again, _ = checks.check_run(out, 120, labels)
    assert checks.compare(again, reference) == []

    csv = out / "slow.csv"
    rows = csv.read_text().splitlines()
    fields = rows[50].split(",")
    fields[2] = repr(float(fields[2]) * 1.001)  # ratio at t=49
    rows[50] = ",".join(fields)
    csv.write_text("\n".join(rows) + "\n")
    perturbed, problems = checks.check_run(out, 120, labels)
    assert problems == []
    found = checks.compare(perturbed, reference)
    assert len(found) == 1 and found[0].startswith("csv.slow.ratio: ")

    fields[2] = repr(float(fields[3]) + 1e-3)  # ratio above rho_upper
    rows[50] = ",".join(fields)
    csv.write_text("\n".join(rows) + "\n")
    assert any("above rho_upper" in p for p in checks.check_run(out, 120, labels)[1])

    csv.write_text("\n".join(rows[:-1]) + "\n")
    assert any("rows, expected 121" in p for p in checks.check_run(out, 120, labels)[1])


def test_wrong_tstar_counts_as_failed_operation(tmp_path):
    summary = tiny_ops(tmp_path, "tstar", name="record").invoke().summary
    assert summary["strict_drop_certified"] is True
    assert tiny_ops(tmp_path, "tstar", summary, name="right").invoke().problems == []
    wrong = dict(summary, tstar=summary["tstar"] + 1)
    outcome = tiny_ops(tmp_path, "tstar", wrong, name="wrong").invoke()
    assert outcome.sample.returncode == 0
    assert outcome.problems == [f"tstar: {summary['tstar']} != reference {summary['tstar'] + 1}"]


def test_compare_tolerates_last_ulp_only():
    ref = {"x_ss": 2.5, "tstar": 7}
    assert checks.compare({"x_ss": np.nextafter(2.5, 3.0), "tstar": 7}, ref) == []
    assert checks.compare({"x_ss": 2.5 * (1 + 1e-6), "tstar": 7}, ref) != []
    assert checks.compare({"x_ss": 2.5, "tstar": 8}, ref) != []
    assert checks.compare({"x_ss": 2.5}, ref) == ["tstar: missing"]


def test_failed_verify_check_is_a_problem():
    summary, problems = checks.check_verify(
        "PASS exponential: steps=5 witness_upper_excess=-0.5 witness_lower_deficit=n/a "
        "random_upper_excess=-inf (trials=0)\n"
        "FAIL hyperbolic: steps=5 witness_upper_excess=0.25 witness_lower_deficit=-0.125 "
        "random_upper_excess=-1.0 (trials=3)\n")
    assert summary["checks"]["exponential"] == {
        "status": "PASS", "steps": 5, "witness_upper_excess": -0.5, "witness_lower_deficit": None,
        "random_upper_excess": float("-inf"), "trials": 0}
    assert summary["checks"]["hyperbolic"]["witness_lower_deficit"] == -0.125
    assert problems == ["verify hyperbolic: FAIL"]


def test_fewer_verify_trials_count_as_failed_operation(tmp_path):
    def verify_ops(trials, reference, name):
        workload = Workload("tiny", "verify", TINY_RUN.format, base_seed=5, extra_args=("--trials", str(trials)))
        (tmp_path / name).mkdir()
        return run.Operations(workload, 0, tmp_path / name, reference)

    summary = verify_ops(6, None, "record").invoke().summary
    assert verify_ops(6, summary, "same").invoke().problems == []
    # every check still passes with fewer random starts, but the trial
    # count and the random starts' excess no longer match the reference
    outcome = verify_ops(2, summary, "fewer").invoke()
    assert outcome.sample.returncode == 0
    assert any(".trials: 2 != reference 6" in p for p in outcome.problems)


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS.values():
        assert workload.config_text(3) == workload.config_text(3)
        assert workload.config_text(3) != workload.config_text(4)
        assert workload.config_text(3) == workload.config_text(3 + POOL_SIZE)
        parse_config(workload.config_text(3))


def test_default_study_seed_reproduces_shipped_config():
    study = WORKLOADS["study"]
    assert parse_config(study.config_text(0)) == load_config(ROOT / "configs" / "twenty_agents.ini")


def test_every_pool_seed_has_a_reference():
    reference = json.loads(run.REFERENCE.read_text())
    for name, workload in WORKLOADS.items():
        assert sorted(reference[name]) == sorted(str(workload.config_seed(s)) for s in range(POOL_SIZE))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
