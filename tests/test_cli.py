"""End-to-end tests for the command line and its file outputs."""

import configparser
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fjfade import (
    DisconnectedNetwork,
    FjfadeError,
    Network,
    cli,
    constant,
    deviation_experiment,
    dynamics,
    experiment,
    exponential,
    infinite_products,
    schedules,
    simulate,
)
from fjfade.bounds import CONSENSUS_FLOOR, envelope, lower_bound, upper_bound
from fjfade.cli import main
from fjfade.config import GraphSpec, load_config, parse_config
from fjfade.dynamics import CHUNK
from fjfade.experiment import (
    ALT_COLUMN,
    CSV_HEADER,
    DISTANCE_FLOOR,
    render_csv,
    render_manifest,
    run_experiment,
    write_outputs,
)
from fjfade.schedules import suffix_products

RUN_CONFIG = """\
[experiment]
n = 8
horizon = 120
seed = 5
out_dir = results

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
tstar = 10
target = argmax
"""

VERIFY_CONFIG = RUN_CONFIG.replace("kind = metropolis", "kind = lazy_metropolis")

STUDY_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "twenty_agents.ini"

VERIFY_BOUNDS_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "verify_bounds.ini"

HYPERBOLIC_ONLY_CONFIG = VERIFY_BOUNDS_CONFIG.read_text().split("[schedule.")[0] + """\
[schedule.hyperbolic]
kind = hyperbolic
"""

THREE_SCHEDULE_CONFIG = VERIFY_BOUNDS_CONFIG.read_text().replace("horizon = 500", "horizon = 200") + """
[schedule.slow]
kind = exponential
rate = 0.05
"""

PATH300_CONFIG = """\
[experiment]
n = 300
horizon = 500
seed = 1

[graph]
kind = path

[weights]
kind = lazy_metropolis

[x0]
uniform = 0 5

[schedule.exponential]
kind = exponential
rate = 0.5

[schedule.hyperbolic]
kind = hyperbolic

[schedule.adversarial]
kind = adversarial
tstar = auto
"""

TWO_AGENT_CONFIG = """\
[experiment]
n = 2
horizon = 10

[graph]
kind = path

[weights]
kind = metropolis

[x0]
{x0}

[schedule.e]
kind = exponential
rate = 0.5
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(RUN_CONFIG)
    return path


class TestRun:
    def test_writes_expected_files(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        for name in ("config.ini", "manifest.ini", "fast.csv", "slow.csv", "hold.csv"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "manifest" in stdout

    def test_csv_header_and_shape(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out), "--quiet"])
        lines = (out / "fast.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 122  # header plus t = 0..120
        # t=0 has no bound values, t=1 has all columns
        assert lines[1].split(",")[3] == ""
        row1 = lines[2].split(",")
        assert len(row1) == 5 and all(row1)

    def test_bound_columns_empty_for_adversarial(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out), "--quiet"])
        for line in (out / "hold.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            assert parts[2] == "" and parts[3] == "" and parts[4] == ""

    def test_same_seed_same_bytes(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(config_path), "--out", str(out_a), "--quiet"])
        main(["run", str(config_path), "--out", str(out_b), "--quiet"])
        for name in ("config.ini", "manifest.ini", "fast.csv", "slow.csv", "hold.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_results(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(config_path), "--out", str(out_a), "--quiet"])
        main(["run", str(config_path), "--out", str(out_b), "--seed", "99", "--quiet"])
        assert (out_a / "fast.csv").read_bytes() != (out_b / "fast.csv").read_bytes()

    def test_horizon_override(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out), "--horizon", "7", "--quiet"])
        assert len((out / "slow.csv").read_text().splitlines()) == 9

    def test_out_dir_env_root(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPERIMENT_OUT_DIR", str(tmp_path / "rooted"))
        main(["run", str(config_path), "--quiet"])
        assert (tmp_path / "rooted" / "results" / "manifest.ini").exists()

    def test_manifest_records_provenance(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out), "--quiet"])
        manifest = (out / "manifest.ini").read_text()
        assert "[network]" in manifest
        assert "graph_seed = " in manifest
        assert "sigma_max = " in manifest
        assert "x_ss = " in manifest
        assert "[run.hold]" in manifest
        assert "deviation = " in manifest
        assert "tstar_source = fixed" in manifest

    def test_eps_conv_sets_converged_at(self, tmp_path):
        def converged_at(eps_conv):
            path = tmp_path / f"eps{eps_conv}.ini"
            text = RUN_CONFIG.replace("out_dir = results", f"out_dir = results\neps_conv = {eps_conv}")
            path.write_text(text)
            out = tmp_path / f"out{eps_conv}"
            assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
            manifest = (out / "manifest.ini").read_text()
            fast = manifest.split("[run.fast]")[1].split("\n\n")[0]
            return int(fast.split("converged_at = ")[1].splitlines()[0])

        assert converged_at("1e-3") < converged_at("1e-8")

    def test_quiet_silences_stdout(self, config_path, tmp_path, capsys):
        main(["run", str(config_path), "--out", str(tmp_path / "o"), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_study_exponential_tail_sits_at_the_floor(self, tmp_path):
        # the shipped study's exponential run falls below the 1e-15 distance
        # floor by t = 248; its tail must not read W's row sums rounding off 1
        out = tmp_path / "out"
        assert main(["run", str(STUDY_CONFIG), "--out", str(out), "--horizon", "1000", "--quiet"]) == 0
        rows = [line.split(",") for line in (out / "exponential.csv").read_text().splitlines()[1:]]
        assert len(rows) == 1001
        assert {row[1] for row in rows[300:]} == {"-15.0"}


class TestVerify:
    def test_passes_on_lazy_weights(self, tmp_path, capsys):
        path = tmp_path / "v.ini"
        path.write_text(VERIFY_CONFIG)
        assert main(["verify", str(path), "--horizon", "150", "--trials", "5"]) == 0
        stdout = capsys.readouterr().out
        assert "PASS fast" in stdout and "PASS slow" in stdout

    def test_metropolis_witness_checks_the_lower_edge(self, tmp_path, capsys):
        # the eigenvalue of largest magnitude is positive on this graph (0.746),
        # so the witness attains the lower edge and its deficit is printed
        path = tmp_path / "v.ini"
        path.write_text(RUN_CONFIG)
        assert main(["verify", str(path), "--trials", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["PASS fast", "PASS slow"]
        for line in lines:
            deficit = float(line.split("witness_lower_deficit=")[1].split()[0])
            assert abs(deficit) <= 1e-15

    def test_negative_dominant_eigenvalue_skips_the_lower_edge(self, monkeypatch):
        # Metropolis weights on K_{10,10}: W = (I + adjacency) / 11, whose
        # eigenvalues besides 1 are -9/11 and 1/11, so the witness decays like
        # |g_t(-9/11)| < lower(t) and has no lower edge to attain
        k10_10 = Network(n=20, edges=[(i, j) for i in range(10) for j in range(10, 20)])
        monkeypatch.setattr(experiment, "build_network", lambda cfg: experiment.NetworkDraw(k10_10, None, 0, 0))
        cfg = parse_config(VERIFY_BOUNDS_CONFIG.read_text().replace("kind = lazy_metropolis", "kind = metropolis"))
        weighted, _ = experiment.build_weights(cfg, k10_10)
        mu = weighted.modes[0]
        assert mu[np.argmax(np.abs(mu))] == pytest.approx(-9 / 11, abs=1e-12)
        result = experiment.verify_bounds(cfg, trials=5)
        assert result.passed and len(result.checks) == 2
        assert all(c.witness_max_lower_deficit is None for c in result.checks)

    def test_self_test_detects_seeded_violation(self, tmp_path, capsys):
        path = tmp_path / "v.ini"
        path.write_text(VERIFY_CONFIG)
        code = main(["verify", str(path), "--horizon", "80", "--trials", "2", "--self-test"])
        assert code == 0
        assert "self-test ok" in capsys.readouterr().out

    def test_negative_trials_exit_2(self, tmp_path, capsys):
        path = tmp_path / "v.ini"
        path.write_text(VERIFY_CONFIG)
        assert main(["verify", str(path), "--horizon", "50", "--trials", "-1"]) == 2
        assert "InvalidParameter: trials must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("trials, capped", [(10**9, True), (4102, True), (4101, False)])
    def test_trials_cap_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys, trials, capped):
        # at n = 8 and horizon 10^6 verify holds four series of 10^6 + 1 steps
        # (32 MB), a gain buffer of at most BUFFER_ELEMENTS numbers, and per
        # start its n values and two blocks of at most CHUNK distances: 4,102
        # starts (trials = 4101) fit in the 100 MB budget, 4,103 do not
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(experiment, "modal_distances", reached)
        monkeypatch.setattr(experiment.np.random, "default_rng", reached)
        path = tmp_path / "v.ini"
        path.write_text(VERIFY_CONFIG)
        args = ["verify", str(path), "--horizon", "1000000", "--trials", str(trials), "--quiet"]
        if capped:
            assert main(args) == 2
            err = capsys.readouterr().err
            assert f"InvalidParameter: trials = {trials}" in err and "100 MB budget" in err
        else:
            with pytest.raises(Reached):
                main(args)

    def test_rejects_non_vanishing_schedule(self, tmp_path, capsys):
        text = VERIFY_CONFIG.replace("kind = exponential\nrate = 0.5", "kind = constant\nlam = 0.3")
        path = tmp_path / "v.ini"
        path.write_text(text)
        assert main(["verify", str(path), "--horizon", "50"]) == 2
        assert "NonVanishingSchedule" in capsys.readouterr().err

    def test_self_test_flags_a_hyperbolic_only_config(self, tmp_path, capsys):
        # the hyperbolic upper edge is at least 1, about 1 above the witness,
        # so the corruption must reach below the witness's own ratios
        path = tmp_path / "v.ini"
        path.write_text(HYPERBOLIC_ONLY_CONFIG)
        assert main(["verify", str(path), "--trials", "3", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "FAIL hyperbolic" in out and "self-test ok" in out

    @pytest.mark.parametrize("text", [VERIFY_BOUNDS_CONFIG.read_text(), THREE_SCHEDULE_CONFIG],
                             ids=["verify_bounds", "three_schedules"])
    @pytest.mark.parametrize("rows", [2, 4])
    def test_overlapped_passes_match_the_sequential_loop(self, monkeypatch, text, rows):
        # modal_distances overlaps `rows` steps in each reduction, the last
        # block short; the reference steps simulate one start at a time and
        # yields the whole series as one block
        cfg = parse_config(text)
        monkeypatch.setattr(experiment, "modal_distances",
                            lambda weighted, starts, schedule, horizon: iter([np.column_stack(
                                [simulate(weighted, x0, schedule, horizon).distances for x0 in starts.T])]))
        sequential = experiment.verify_bounds(cfg, trials=4)
        monkeypatch.undo()
        monkeypatch.setattr(dynamics, "BUFFER_ELEMENTS", rows * cfg.n)
        overlapped = experiment.verify_bounds(cfg, trials=4)
        assert len(overlapped.checks) == len(sequential.checks) == len(cfg.schedules)
        for ours, theirs in zip(overlapped.checks, sequential.checks):
            for field in fields(ours):
                a, b = getattr(ours, field.name), getattr(theirs, field.name)
                if isinstance(a, float):
                    assert a == pytest.approx(b, rel=0, abs=1e-12), field.name
                else:
                    assert a == b, field.name

    @pytest.mark.parametrize("rows", [4, CHUNK])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 0)],
                             ids=["rows-1", "rows", "rows+1", "3rows"])
    @pytest.mark.parametrize("trials", [0, 1, 5])
    @pytest.mark.parametrize("self_test", [False, True])
    def test_streamed_reduction_matches_the_whole_array(self, monkeypatch, rows, blocks, extra, trials, self_test):
        # horizon blocks * rows + extra; the first random start is put at
        # consensus, a dead column: with trials = 1 no random start is live,
        # with 5 four are
        cfg = replace(parse_config(VERIFY_BOUNDS_CONFIG.read_text()), horizon=blocks * rows + extra)
        monkeypatch.setattr(dynamics, "BUFFER_ELEMENTS", rows * cfg.n)
        seen, streamed = [], experiment.modal_distances

        def consensus_first(weighted, starts, schedule, horizon):
            starts[:, 1:2] = 3.0
            seen.append(starts.copy())
            return streamed(weighted, starts, schedule, horizon)

        monkeypatch.setattr(experiment, "modal_distances", consensus_first)
        result = experiment.verify_bounds(cfg, trials=trials, self_test=self_test)
        weighted, _ = experiment.build_weights(cfg, experiment.build_network(cfg).network)
        assert len(result.checks) == len(seen) == len(cfg.schedules)
        for check, spec, starts in zip(result.checks, cfg.schedules, seen):
            got = (check.witness_max_upper_excess, check.witness_max_lower_deficit, check.random_max_upper_excess)
            assert got == whole_array_excesses(weighted, cfg, spec, starts, self_test)

    def test_holds_no_whole_distance_array(self):
        # each block of distances is reduced as it arrives, so the traced peak
        # is about four O(horizon) series (3.4 MB here), well below a quarter
        # of one whole (horizon + 1) x (trials + 1) array (16.8 MB)
        horizon, trials = 100_000, 20
        cfg = replace(parse_config(VERIFY_CONFIG), horizon=horizon)
        tracemalloc.start()
        try:
            result = experiment.verify_bounds(cfg, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed and len(result.checks) == 2
        assert peak < 8 * (horizon + 1) * (trials + 1) / 4

    @pytest.mark.parametrize("bad", [(1,), (0, 1), (1, 2)], ids=["second", "first", "second-third"])
    def test_overlapped_pass_raises_the_sequential_error(self, monkeypatch, capsys, bad):
        # a section outside the envelope rule stops verify before any pass;
        # the error is the first failing section's, in section order
        cfg = parse_config(THREE_SCHEDULE_CONFIG)
        specs = list(cfg.schedules)
        for i in bad:
            specs[i] = replace(specs[i], schedule=constant(0.1 * (i + 1)))
        monkeypatch.setattr(cli, "load_config", lambda path: replace(cfg, schedules=tuple(specs)))
        outcome = (main(["verify", "unused.ini", "--trials", "3"]), capsys.readouterr().err)
        label = specs[bad[0]].label
        assert outcome == (2, f"error: NonVanishingSchedule: schedule {label!r} does not vanish; "
                              "rate bounds do not apply\n")


def whole_array_excesses(weighted, cfg, spec, starts, self_test):
    """The witness's upper excess and lower deficit (lazy weights) and the random
    starts' upper excess of one schedule, from the whole (horizon + 1) x B array."""
    d = np.concatenate(list(dynamics.modal_distances(weighted, starts, spec.schedule, cfg.horizon)))
    lower, upper = envelope(weighted.sigma_max, spec.schedule, cfg.horizon, cfg.tail_eps)
    ratio = d[1:, 0] / d[0, 0]
    if self_test:
        upper -= 0.1 + np.max(upper - ratio)
    live = d[0, 1:] >= CONSENSUS_FLOOR
    excess = d[1:, 1:][:, live] / d[0, 1:][live] - upper[:, None]
    return (float(np.max(ratio - upper)), float(np.max(lower - ratio)),
            float(np.max(excess, initial=-math.inf)))


class TestTstar:
    def test_reports_switch_time(self, config_path, capsys):
        assert main(["tstar", str(config_path)]) == 0
        stdout = capsys.readouterr().out
        assert "tstar = " in stdout
        assert "deviation = " in stdout
        assert "strict_drop_certified = true" in stdout

    @pytest.mark.parametrize("weights", ["metropolis", "row_stochastic"])
    def test_report_skips_the_factorization(self, monkeypatch, weights):
        # the search reads only the Perron vector, so the report equals the
        # one made from fully factorized weights with eigh and svd disabled
        cfg = parse_config(RUN_CONFIG.replace("kind = metropolis", f"kind = {weights}"))
        weighted, _ = experiment.build_weights(cfg, experiment.build_network(cfg).network)
        expected = deviation_experiment(weighted, experiment.draw_x0(cfg)[0])

        def refuse(*args, **kwargs):
            raise AssertionError("tstar factorized the deflated matrix")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        report = experiment.tstar_report(cfg)
        for field in fields(report):
            np.testing.assert_array_equal(getattr(report, field.name), getattr(expected, field.name))


class TestFactorizedOnce:
    @pytest.mark.parametrize("weights, solver", [("metropolis", "eigh"), ("row_stochastic", "svd")])
    def test_run_factorizes_once(self, factorizations, weights, solver):
        cfg = parse_config(RUN_CONFIG.replace("kind = metropolis", f"kind = {weights}"))
        result = run_experiment(cfg)
        render_manifest(result)
        for run in result.runs:
            render_csv(result, run)
        assert factorizations == [solver]

    def test_verify_factorizes_once(self, factorizations):
        # sigma_max for the envelope and v2 for the witness share one eigh
        assert experiment.verify_bounds(parse_config(VERIFY_CONFIG), trials=3).passed
        assert factorizations == ["eigh"]

    @pytest.mark.parametrize("graph, weights", [("path", "metropolis"), ("path", "lazy_metropolis"),
                                                ("star", "metropolis"), ("star", "lazy_metropolis"),
                                                ("complete", "lazy_metropolis")])
    def test_named_graphs_factorize_nothing(self, factorizations, graph, weights):
        # Metropolis weights on a path, star or complete graph have closed-form modes
        text = PATH300_CONFIG.replace("n = 300", "n = 60").replace("kind = path", f"kind = {graph}")
        cfg = parse_config(text.replace("kind = lazy_metropolis", f"kind = {weights}"))
        result = run_experiment(cfg)
        render_manifest(result)
        for run in result.runs:
            render_csv(result, run)
        verified = experiment.verify_bounds(cfg, trials=3)
        assert verified.passed and all(c.witness_max_lower_deficit <= 1e-12 for c in verified.checks)
        assert factorizations == []


class TestBlockRun:
    @pytest.mark.parametrize("cfg", [load_config(STUDY_CONFIG), parse_config(PATH300_CONFIG)],
                             ids=["study", "path300"])
    def test_columns_match_single_schedule_runs(self, cfg):
        # every schedule advances as one column of a single block, by its own
        # row product with W.T; each column is its own single-start run in every bit
        result = run_experiment(cfg)
        for run in result.runs:
            one = simulate(result.weighted, result.x0, run.schedule, cfg.horizon)
            np.testing.assert_array_equal(run.trajectory.distances, one.distances)
            np.testing.assert_array_equal(run.trajectory.avg_distances, one.avg_distances)
        assert any(run.report is not None for run in result.runs)

    @pytest.mark.parametrize("section", ["[schedule.fast]\nkind = exponential\nrate = 0.5\n",
                                         "[schedule.hold]\nkind = adversarial\ntstar = 10\n"],
                             ids=["uniform", "adversarial"])
    def test_single_schedule_run_is_the_single_run(self, section):
        # a one-column block holds x0 as the same 1 x n row as a single run
        result = run_experiment(parse_config(RUN_CONFIG.split("[schedule.")[0] + section))
        (run,) = result.runs
        one = simulate(result.weighted, result.x0, run.schedule, result.cfg.horizon)
        np.testing.assert_array_equal(run.trajectory.distances, one.distances)
        np.testing.assert_array_equal(run.trajectory.avg_distances, one.avg_distances)


def render_csv_oracle(result, run):
    """The CSV text built row by row, with scalar formatting and math.log10."""
    cfg, traj = result.cfg, run.trajectory
    log_avg = np.log10(np.maximum(traj.avg_distances, DISTANCE_FLOOR))
    ratio = None
    if not run.spec.is_adversarial and traj.distances[0] >= CONSENSUS_FLOOR:
        ratio = traj.distances / traj.distances[0]
    upper = lower = None
    if run.bounds_used:
        sigma = result.weighted.sigma_max
        steps = np.arange(1, traj.horizon + 1)
        lower = lower_bound(sigma, run.schedule, steps)
        upper = upper_bound(sigma, run.schedule, steps, cfg.tail_eps)
    lines = [CSV_HEADER + ("," + ALT_COLUMN if cfg.emit_alt_distance else "")]
    for t in range(traj.horizon + 1):
        row = [str(t), repr(float(log_avg[t]))]
        row.append(repr(float(ratio[t])) if ratio is not None else "")
        if upper is not None and t >= 1:
            row += [repr(float(upper[t - 1])), repr(float(lower[t - 1]))]
        else:
            row += ["", ""]
        if cfg.emit_alt_distance:
            row.append(repr(math.log10(max(traj.distances[t], DISTANCE_FLOOR))))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


ORACLE_CONFIG = RUN_CONFIG.replace("out_dir = results", "out_dir = results\nemit_alt_distance = true") + """
[schedule.flat]
kind = constant
lam = 0.3
"""


def test_render_csv_matches_row_oracle():
    result = run_experiment(parse_config(ORACLE_CONFIG))
    assert [run.bounds_used for run in result.runs] == [True, True, False, False]
    for run in result.runs:
        assert "".join(render_csv(result, run)) == render_csv_oracle(result, run)


@pytest.mark.parametrize("horizon", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK])
def test_render_csv_parts_hold_at_most_chunk_rows(horizon):
    # every column kind (bounds, no bounds, no ratio, the alt column) across part boundaries
    result = run_experiment(parse_config(ORACLE_CONFIG.replace("horizon = 120", f"horizon = {horizon}")))
    for run in result.runs:
        parts = list(render_csv(result, run))
        assert "".join(parts) == render_csv_oracle(result, run)
        assert parts[0].startswith(CSV_HEADER + "," + ALT_COLUMN + "\n")
        rows = [part.count("\n") for part in parts]
        rows[0] -= 1  # the header line
        assert len(parts) == -(-(horizon + 1) // CHUNK) and max(rows) <= CHUNK and sum(rows) == horizon + 1


def test_write_outputs_holds_no_whole_csv(tmp_path):
    # the parts are written as they are drawn, so the traced peak is the
    # four column arrays (about 36 bytes a row), well below the CSV's 88
    # bytes a row; a joined CSV would pass its size
    text = RUN_CONFIG.split("[schedule.")[0].replace("horizon = 120", "horizon = 100000")
    result = run_experiment(parse_config(text + "[schedule.slow]\nkind = hyperbolic\n"))
    tracemalloc.start()
    try:
        (csv,) = [path for path in write_outputs(result, tmp_path) if path.suffix == ".csv"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * csv.stat().st_size


def slow_exponential_run(sections):
    """The study graph at horizon 1,000 with `sections` exponential schedules at rates near 1e-4,
    whose Lambda^inf products run to about 322,000 terms (2.6 MB as a stored table) each."""
    head = STUDY_CONFIG.read_text().split("[schedule.")[0].replace("horizon = 10000", "horizon = 1000")
    body = "".join(f"[schedule.e{j}]\nkind = exponential\nrate = {1e-4 * (1 + 0.01 * j)!r}\n\n"
                   for j in range(sections))
    return run_experiment(parse_config(head + body))


class TestOneTableAtATime:
    @pytest.mark.parametrize("sections", [1, 6])
    def test_each_table_is_built_once(self, tmp_path, monkeypatch, sections):
        # one backward product per schedule, run by its CSV's envelope; the manifest runs none
        built = []
        monkeypatch.setattr(schedules, "suffix_products",
                            lambda *args: built.append(args) or suffix_products(*args))
        write_outputs(slow_exponential_run(sections), tmp_path)
        assert len(built) == sections

    def test_peak_memory_does_not_grow_with_sections(self, tmp_path):
        # the manifest reads the products' closed-form facts, and each CSV streams its product and
        # keeps 1,001 entries: six sections peak within one stored table's size of one section
        table_bytes = 8 * (infinite_products(exponential(1e-4)).cutoff + 1)
        peaks = []
        for sections in (1, 6):
            tracemalloc.start()
            try:
                write_outputs(slow_exponential_run(sections), tmp_path / str(sections))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + table_bytes


class TestErrors:
    def test_config_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(RUN_CONFIG.replace("kind = er", "kind = moebius"))
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_horizon_cap_exits_2_before_running(self, config_path, monkeypatch, capsys, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("the horizon reached the experiment")

        monkeypatch.setattr(cli, "run_experiment", unreachable)
        monkeypatch.setattr(cli, "verify_bounds", unreachable)
        assert main([command, str(config_path), "--horizon", "2000000000", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "horizon must lie in [1, 1000000]" in err and "100 MB" in err

    @pytest.mark.parametrize("command", ["run", "verify", "tstar"])
    def test_agent_cap_exits_2_before_running(self, tmp_path, monkeypatch, capsys, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("the agent count reached the experiment")

        for name in ("run_experiment", "verify_bounds", "tstar_report"):
            monkeypatch.setattr(cli, name, unreachable)
        path = tmp_path / "huge.ini"
        path.write_text(RUN_CONFIG.replace("n = 8", "n = 10001").replace("kind = er\np = 0.45", "kind = path"))
        assert main([command, str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "n must be at most 10000, got 10001" in err and "800 MB" in err

    @pytest.mark.parametrize("command", ["run", "verify", "tstar"])
    def test_edge_cap_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys, command):
        # a complete graph on 4,900 agents has 12,002,550 edges
        for name in ("complete_graph", "generate_erdos_renyi"):
            monkeypatch.setattr(experiment, name, lambda *a: pytest.fail("graph was built"))
        path = tmp_path / "dense.ini"
        path.write_text(RUN_CONFIG.replace("n = 8", "n = 4900").replace("kind = er\np = 0.45", "kind = complete"))
        assert main([command, str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "expects 1.2e+07 edges, over the cap of 12000000" in err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("tail_eps", ["0", "-1", "1"])
    def test_tail_eps_out_of_range_exits_2(self, tmp_path, capsys, command, tail_eps):
        path = tmp_path / "eps.ini"
        path.write_text(VERIFY_CONFIG.replace("out_dir = results", f"out_dir = results\ntail_eps = {tail_eps}"))
        assert main([command, str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "tail_eps must lie in (0, 1)" in err and "experiment.tail_eps" in err

    def test_subnormal_tail_eps_runs(self, tmp_path):
        # log(1 / 1e-320) overflows; the cutoff comes from -log(1e-320)
        path = tmp_path / "eps.ini"
        path.write_text(VERIFY_CONFIG.replace("out_dir = results", "out_dir = results\ntail_eps = 1e-320"))
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert main(["verify", str(path), "--quiet"]) == 0
        manifest = (tmp_path / "out" / "manifest.ini").read_text()
        assert "tail_eps = 1e-320\n" in manifest
        assert f"truncation_cutoff = {math.ceil(-math.log(1e-320) / 0.5)}\n" in manifest

    @pytest.mark.parametrize("x0, key", [("values = 1e160 2", "values"), ("uniform = 0 1e151", "uniform")])
    def test_huge_opinion_exits_2(self, tmp_path, capsys, x0, key):
        # n (2 |x0|)^2 overflowed the squared distance from |x0| near 1e154: the ratio column read nan
        path = tmp_path / "huge.ini"
        path.write_text(TWO_AGENT_CONFIG.format(x0=x0))
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error: opinions must lie in [-1e+150, 1e+150]" in err and f"'x0.{key}', line 12" in err
        assert not (tmp_path / "out").exists()

    def test_largest_opinion_runs(self, tmp_path):
        # a RuntimeWarning fails the suite, so the distances and ratios stay finite
        path = tmp_path / "large.ini"
        path.write_text(TWO_AGENT_CONFIG.format(x0="values = 1e150 2"))
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        rows = (tmp_path / "out" / "e.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(row.split(",")[2])) for row in rows)

    def test_term_cap_exits_2_before_writing(self, tmp_path, capsys):
        # the manifest reads each bounded schedule's cutoff, so its term cap is checked before any file;
        # 6e-7 needs 53.7M terms at the default tail_eps, just past the cap
        for rate, terms in [("1e-9", "3.22e+10"), ("6e-7", "5.37e+07")]:
            path = tmp_path / "slow.ini"
            path.write_text(RUN_CONFIG.replace("rate = 0.5", f"rate = {rate}"))
            assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
            err = capsys.readouterr().err
            assert f"needs {terms} terms, over the cap MAX_TERMS = 50000000 (about 1 s of products)" in err
            assert not (tmp_path / "out").exists()

    def test_slow_rate_runs_without_a_table(self, tmp_path):
        # Lambda^inf streams its 32M-term product: a rate of 1e-6 was past the cap while it was a table
        path = tmp_path / "slow.ini"
        path.write_text(VERIFY_CONFIG.replace("rate = 0.5", "rate = 1e-6"))
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert main(["verify", str(path), "--quiet"]) == 0
        assert "truncation_cutoff = 32236192\n" in (tmp_path / "out" / "manifest.ini").read_text()

    @pytest.mark.parametrize("command", ["run", "verify", "tstar"])
    def test_er_without_edges_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("an ER graph with p = 0 was drawn")

        monkeypatch.setattr(experiment, "generate_erdos_renyi", unreachable)
        path = tmp_path / "empty.ini"
        path.write_text(RUN_CONFIG.replace("p = 0.45", "p = 0"))
        assert main([command, str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'graph.p'" in err

    @pytest.mark.parametrize("command", ["run", "verify", "tstar"])
    @pytest.mark.parametrize("n, p", [(500, 1e-4), (1000, 1e-3)])
    def test_hopeless_er_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys, command, n, p):
        # far fewer edges are expected than the n - 1 a connected graph needs
        def unreachable(*args, **kwargs):
            raise AssertionError(f"er({n}, {p}) was drawn")

        monkeypatch.setattr(experiment, "generate_erdos_renyi", unreachable)
        path = tmp_path / "sparse.ini"
        path.write_text(RUN_CONFIG.replace("n = 8", f"n = {n}").replace("p = 0.45", f"p = {p}"))
        assert main([command, str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"er(n={n}, p={p}) cannot be connected" in err and "Chernoff bound" in err

    @pytest.mark.parametrize("n, p, connected", [(2, 0.01, True), (20, 0.01, False)])
    def test_sparse_er_within_reach_is_drawn(self, n, p, connected):
        # the bound leaves these to the draws: one connects, one exhausts them
        cfg = replace(parse_config(RUN_CONFIG), n=n, graph=GraphSpec("er", p))
        if connected:
            assert experiment.build_network(cfg).network.connected
        else:
            with pytest.raises(DisconnectedNetwork, match="no connected graph within"):
                experiment.build_network(cfg)

    def test_bad_overrides_exit_2(self, config_path, capsys):
        assert main(["run", str(config_path), "--horizon", "0", "--quiet"]) == 2
        assert main(["run", str(config_path), "--seed", "-1", "--quiet"]) == 2
        assert capsys.readouterr().err.count("config error") == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.ini")]) == 2
        assert capsys.readouterr().err != ""

    def test_config_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1

    def test_out_path_that_is_a_file_exits_2(self, config_path, tmp_path, capsys):
        taken = tmp_path / "taken.md"
        taken.write_text("kept\n")
        assert main(["run", str(config_path), "--out", str(taken), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and err.count("\n") == 1
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("out", ["taken.md", "taken.md/sub", "taken.md/sub/deeper", "taken.md/../sub"])
    def test_out_path_is_checked_before_the_run(self, config_path, tmp_path, monkeypatch, capsys, out):
        # the run fails too, but the path error is the one printed, as write_outputs' mkdir words it
        def failing(*args, **kwargs):
            raise FjfadeError("the experiment ran")

        monkeypatch.setattr(cli, "run_experiment", failing)
        (tmp_path / "taken.md").write_text("kept\n")
        with pytest.raises(OSError) as mkdir:
            (tmp_path / out).mkdir(parents=True, exist_ok=True)
        assert main(["run", str(config_path), "--out", str(tmp_path / out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {mkdir.value}\n"

    def test_failed_run_creates_no_out_dir(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_experiment", lambda *a: pytest.fail("the experiment ran"))
        with pytest.raises(pytest.fail.Exception):
            main(["run", str(config_path), "--out", str(tmp_path / "new" / "deep"), "--quiet"])
        assert not (tmp_path / "new").exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes(RUN_CONFIG.replace("out_dir = results", "out_dir = r\xe9sultats").encode("latin-1"))
        assert main(["run", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not UTF-8 text") and err.count("\n") == 1

    def test_fixed_tstar_over_the_cap_exits_2_before_running(self, tmp_path, monkeypatch, capsys):
        # the held and nominal runs step all the way to a fixed tstar
        monkeypatch.setattr(cli, "run_experiment", lambda *a: pytest.fail("the experiment ran"))
        path = tmp_path / "far.ini"
        held = "\n[schedule.h]\nkind = adversarial\ntstar = 1000000000000\n"
        path.write_text(TWO_AGENT_CONFIG.format(x0="values = 1 0") + held)
        assert main(["run", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "tstar must be at most 1000000, got 1000000000000" in err and "'schedule.h.tstar'" in err

    def test_alt_distance_column(self, tmp_path):
        text = RUN_CONFIG.replace("out_dir = results", "out_dir = results\nemit_alt_distance = true")
        path = tmp_path / "alt.ini"
        path.write_text(text)
        out = tmp_path / "out"
        main(["run", str(path), "--out", str(out), "--quiet"])
        lines = (out / "fast.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER + ",log10_l2_distance"
        assert len(lines[1].split(",")) == 6


# One section per schedule kind; `run` sets a section's `bounds` flag and
# `verify` accepts it by the same rule, bounds.envelope_error.
RULE_SCHEDULES = {
    "c": "kind = constant\nlam = 0.3",
    "z": "kind = zero",
    "u": "kind = custom\nseq = 0.5 0.25 0.1",
    "h": "kind = hyperbolic",
    "e": "kind = exponential\nrate = 0.5",
    "a": "kind = adversarial\ntstar = auto",
}


@pytest.mark.parametrize("weights", ["metropolis", "lazy_metropolis", "row_stochastic"])
@pytest.mark.parametrize("graph", ["er", "complete"])
def test_bounds_flag_holds_exactly_where_verify_accepts(tmp_path, capsys, graph, weights):
    head = RUN_CONFIG.split("[schedule.")[0].replace("kind = metropolis", f"kind = {weights}")
    if graph == "complete":  # sigma_max = 0 under Metropolis weights
        head = head.replace("kind = er\np = 0.45", "kind = complete")
    path = tmp_path / "all.ini"
    path.write_text(head + "".join(f"[schedule.{k}]\n{v}\n\n" for k, v in RULE_SCHEDULES.items()))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    manifest = configparser.ConfigParser()
    manifest.read_string((tmp_path / "out" / "manifest.ini").read_text())

    doubly = weights != "row_stochastic"
    contracting = doubly and not (graph == "complete" and weights == "metropolis")
    for label, body in RULE_SCHEDULES.items():
        flag = manifest[f"run.{label}"].getboolean("bounds")
        assert flag == (contracting and label in {"z", "u", "h", "e"})
        one = tmp_path / f"{label}.ini"
        one.write_text(head + f"[schedule.{label}]\n{body}\n")
        try:
            experiment.verify_bounds(parse_config(one.read_text()), trials=2)
        except FjfadeError as exc:
            error = exc
        else:
            error = None
        assert (error is None) == flag
        if error is None:
            continue
        # the weights are checked first, then the schedule
        expected = ("NonVanishingSchedule" if contracting and label == "c" else "InvalidParameter")
        assert type(error).__name__ == expected
        assert main(["verify", str(one), "--trials", "2", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"error: {expected}: " in err and f"schedule {label!r}" in err
