"""Experiment driver: realize a config, run every schedule, write outputs.

Outputs per run directory:
  config.ini     canonical serialization of the effective config
  manifest.ini   network/weights/x0 provenance, draw counts, per-run facts
  <label>.csv    one per schedule section, header
                 t,log10_avg_distance,ratio,rho_upper,rho_lower

All output is deterministic for a fixed config: no timestamps, no host
information, floats rendered with repr. Same seed, same bytes.
"""

from __future__ import annotations

import errno
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from pathlib import Path

import numpy as np

from .bounds import CONSENSUS_FLOOR, envelope, envelope_error, worst_case_initial_condition
from .config import SCHEDULE_BUDGET_MB, ExperimentConfig, ScheduleSpec, serialize_config
from .deviation import DeviationReport, deviation_experiment
from .dynamics import BUFFER_ELEMENTS, CHUNK, Trajectory, modal_distances, simulate
from .errors import DisconnectedNetwork, InvalidParameter
from .network import (
    Network,
    WeightedNetwork,
    complete_graph,
    generate_erdos_renyi,
    metropolis_weights,
    path_graph,
    row_stochastic_weights,
    star_graph,
)
from .schedules import infinite_products, make_adversarial_nonuniform

CSV_HEADER = "t,log10_avg_distance,ratio,rho_upper,rho_lower"
ALT_COLUMN = "log10_l2_distance"
DISTANCE_FLOOR = 1e-15
MAX_GRAPH_RESAMPLES = 1000
BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class NetworkDraw:
    network: Network
    seed_used: int | None
    resamples: int
    draws: int


@dataclass(frozen=True, eq=False)
class RunResult:
    spec: ScheduleSpec
    schedule: object
    trajectory: Trajectory
    csv_name: str
    bounds_used: bool
    converged_at: int | None
    report: DeviationReport | None = None


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    cfg: ExperimentConfig
    draw: NetworkDraw
    weighted: WeightedNetwork
    weight_draws: int
    x0: np.ndarray
    x0_draws: int
    x_ss: float
    runs: tuple[RunResult, ...]


def build_network(cfg: ExperimentConfig) -> NetworkDraw:
    """Realize the graph; ER graphs are resampled with seed+1, seed+2, ...
    until connected, and the resample count is reported. A p so small that a
    Chernoff bound puts the chance of any draw having the n - 1 edges a
    connected graph needs below 1e-12 raises DisconnectedNetwork before any
    draw (a certificate for p < 2/n, silent between 2/n and ln(n)/n)."""
    named = {"path": path_graph, "star": star_graph, "complete": complete_graph}.get(cfg.graph.kind)
    if named is not None:
        return NetworkDraw(named(cfg.n), None, 0, 0)
    pairs = cfg.n * (cfg.n - 1) // 2
    mu, need = cfg.graph.p * pairs, cfg.n - 1  # expected edges, and the fewest a connected graph has
    # Chernoff, per draw: P(edges >= need) <= exp(-mu) (e mu / need)^need for need > mu
    log_any = math.log(MAX_GRAPH_RESAMPLES + 1) - mu + need * (1 + math.log(mu / need)) if mu else -math.inf
    if need > mu and log_any < math.log(1e-12):
        raise DisconnectedNetwork(
            f"er(n={cfg.n}, p={cfg.graph.p}) cannot be connected: it needs {need} edges, expects {mu:.3g}, "
            f"and by a Chernoff bound the chance that any of {MAX_GRAPH_RESAMPLES + 1} draws has "
            f"that many is below 1e-12"
        )
    for k in range(MAX_GRAPH_RESAMPLES + 1):
        net = generate_erdos_renyi(cfg.n, cfg.graph.p, cfg.seed + k)
        if net.connected:
            return NetworkDraw(net, cfg.seed + k, k, (k + 1) * pairs)
    raise DisconnectedNetwork(
        f"no connected graph within {MAX_GRAPH_RESAMPLES} resamples of "
        f"er(n={cfg.n}, p={cfg.graph.p}) from seed {cfg.seed}"
    )


def build_weights(cfg: ExperimentConfig, net: Network) -> tuple[WeightedNetwork, int]:
    if cfg.weights in ("metropolis", "lazy_metropolis"):
        return metropolis_weights(net, lazy=cfg.weights == "lazy_metropolis"), 0
    # independent stream: entropy (seed, 1) so graph resampling cannot alias it
    draws = 2 * len(net.edges) + net.n
    return row_stochastic_weights(net, seed=[cfg.seed, 1]), draws


def draw_x0(cfg: ExperimentConfig) -> tuple[np.ndarray, int]:
    if cfg.x0_values is not None:
        return np.asarray(cfg.x0_values, dtype=float), 0
    lo, hi = cfg.x0_uniform
    rng = np.random.default_rng([cfg.seed, 2])
    return lo + (hi - lo) * rng.random(cfg.n), cfg.n


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every schedule from x0 as one column of a single `simulate` block,
    after each adversarial switch time is found by its own single-start pass."""
    draw = build_network(cfg)
    weighted, weight_draws = build_weights(cfg, draw.network)
    weighted.sigma_max  # run reports it; factor W before the block pass so their allocations do not stack
    x0, x0_draws = draw_x0(cfg)
    bounded = [envelope_error(weighted, spec.schedule, spec.label) is None for spec in cfg.schedules]
    for spec in compress(cfg.schedules, bounded):
        infinite_products(spec.schedule, cfg.tail_eps)  # a rate past MAX_TERMS raises before any step

    reports = [deviation_experiment(weighted, x0, target=spec.target, tstar=spec.tstar)
               if spec.is_adversarial else None for spec in cfg.schedules]
    schedules = [spec.schedule if rep is None else make_adversarial_nonuniform(rep.tstar, rep.target)
                 for spec, rep in zip(cfg.schedules, reports)]
    block = simulate(weighted, x0, schedules, cfg.horizon)
    runs = []
    for j, (spec, sched, report, bounds_used) in enumerate(zip(cfg.schedules, schedules, reports, bounded)):
        traj = block.column(j)
        runs.append(RunResult(
            spec=spec, schedule=sched, trajectory=traj,
            csv_name=f"{spec.label}.csv", bounds_used=bounds_used,
            converged_at=traj.converged_at(cfg.eps_conv), report=report,
        ))
    return ExperimentResult(
        cfg=cfg, draw=draw, weighted=weighted, weight_draws=weight_draws,
        x0=x0, x0_draws=x0_draws, x_ss=block.x_ss, runs=tuple(runs),
    )


def _fmt(v: float) -> str:
    return repr(float(v))


def _floats(a: np.ndarray) -> Iterator[float]:
    """The entries of `a` as Python floats, converted CHUNK at a time."""
    return chain.from_iterable(a[i:i + CHUNK].tolist() for i in range(0, len(a), CHUNK))


def render_csv(result: ExperimentResult, run: RunResult) -> Iterator[str]:
    """CSV text of one run in parts of CHUNK rows, the header in the first part,
    zipped row by row from lazy per-column string streams. Every column array is
    computed before this returns, so an error there leaves no partial file."""
    cfg = result.cfg
    traj = run.trajectory
    cols = [
        map(str, range(traj.horizon + 1)),
        map(repr, _floats(np.log10(np.maximum(traj.avg_distances, DISTANCE_FLOOR)))),
    ]
    if not run.spec.is_adversarial and traj.distances[0] >= CONSENSUS_FLOOR:
        cols.append(map(repr, _floats(traj.distances / traj.distances[0])))
    else:
        cols.append(repeat(""))
    if run.bounds_used:
        lower, upper = envelope(result.weighted.sigma_max, run.schedule, traj.horizon, cfg.tail_eps)
        cols += [chain([""], map(repr, _floats(upper))), chain([""], map(repr, _floats(lower)))]
    else:
        cols += [repeat(""), repeat("")]
    header = CSV_HEADER
    if cfg.emit_alt_distance:
        header += "," + ALT_COLUMN
        # math.log10, not np.log10, which may differ in the last ulp
        cols.append(map(repr, map(math.log10, _floats(np.maximum(traj.distances, DISTANCE_FLOOR)))))
    lines = chain([header], map(",".join, zip(*cols)))
    return ("\n".join(islice(lines, CHUNK + (lo == 0))) + "\n" for lo in range(0, traj.horizon + 1, CHUNK))


def _schedule_manifest_lines(run: RunResult, tail_eps: float) -> list[str]:
    spec = run.spec
    lines = [f"[run.{spec.label}]", f"kind = {spec.kind}", f"csv = {run.csv_name}"]
    if not spec.is_adversarial:
        for key, value in spec.schedule.describe().items():
            if key != "kind":  # written above, before the csv name
                text = " ".join(map(_fmt, value)) if isinstance(value, tuple) else _fmt(value)
                lines.append(f"{key} = {text}")
    lines.append(f"bounds = {str(run.bounds_used).lower()}")
    if run.bounds_used:
        table = infinite_products(run.schedule, tail_eps)  # its closed-form facts: no product is multiplied
        lines.append(f"truncation_kind = {table.schedule.kind.value}")
        lines.append(f"truncation_exact = {str(table.exact).lower()}")
        lines.append(f"truncation_cutoff = {table.cutoff}")
        lines.append(f"truncation_remainder = {_fmt(table.remainder)}")
    lines.append(f"terminal_avg_distance = {_fmt(run.trajectory.avg_distances[-1])}")
    lines.append(f"converged_at = {'none' if run.converged_at is None else run.converged_at}")
    if run.report is not None:
        rep = run.report
        lines += [
            f"tstar = {rep.tstar}",
            f"tstar_source = {'fixed' if spec.tstar is not None else 'auto'}",
            f"target = {rep.target}",
            f"x_limit_nominal = {_fmt(rep.x_limit_nominal)}",
            f"y_consensus_value = {_fmt(rep.y_consensus_value)}",
            f"y_limit_value = {_fmt(rep.y_limit_value)}",
            f"deviation = {_fmt(rep.deviation)}",
            f"strict_drop_certified = {str(rep.strict_drop_certified).lower()}",
        ]
    return lines


def render_manifest(result: ExperimentResult) -> str:
    cfg, draw, weighted = result.cfg, result.draw, result.weighted
    net = draw.network
    lines = [
        "[network]",
        f"kind = {cfg.graph.kind}",
        f"n = {cfg.n}",
    ]
    if cfg.graph.kind == "er":
        lines.append(f"p = {_fmt(cfg.graph.p)}")
    lines += [
        f"graph_seed = {draw.seed_used if draw.seed_used is not None else 'none'}",
        f"resamples = {draw.resamples}",
        f"graph_draws = {draw.draws}",
        f"edges = {len(net.edges)}",
        "",
        "[weights]",
        f"kind = {cfg.weights}",
        f"doubly_stochastic = {str(weighted.doubly_stochastic).lower()}",
        f"weight_draws = {result.weight_draws}",
        f"symmetric = {str(weighted.symmetric).lower()}",
        f"sigma_max = {_fmt(weighted.sigma_max)}",
        "perron = " + " ".join(_fmt(v) for v in weighted.perron),
    ]
    source = (
        "uniform " + " ".join(f"{v:g}" for v in cfg.x0_uniform)
        if cfg.x0_uniform is not None else "values"
    )
    lines += [
        "",
        "[x0]",
        f"source = {source}",
        f"x0_draws = {result.x0_draws}",
        "values = " + " ".join(_fmt(v) for v in result.x0),
        f"x_ss = {_fmt(result.x_ss)}",
        "",
        "[truncation]",
        f"tail_eps = {_fmt(cfg.tail_eps)}",
    ]
    for run in result.runs:
        lines.append("")
        lines.extend(_schedule_manifest_lines(run, cfg.tail_eps))
    return "\n".join(lines) + "\n"


def resolve_out_dir(cfg: ExperimentConfig, override: str | None = None) -> Path:
    """Relative output paths are rooted at $EXPERIMENT_OUT_DIR when set. Nothing is created, but a
    path that is, or lies under, a non-directory raises the FileExistsError or NotADirectoryError
    that `write_outputs`' mkdir would, so a run fails before it simulates."""
    out = Path(override if override is not None else cfg.out_dir)
    if not out.is_absolute():
        root = os.environ.get("EXPERIMENT_OUT_DIR")
        if root:
            out = Path(root) / out
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out))
    return out


def write_outputs(result: ExperimentResult, out_dir: Path) -> list[Path]:
    manifest = render_manifest(result)  # run_experiment has checked each bounded rate against MAX_TERMS
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def _write(name: str, parts: Iterable[str]) -> None:
        path = out_dir / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
        written.append(path)

    _write("config.ini", [serialize_config(result.cfg)])
    _write("manifest.ini", [manifest])
    for run in result.runs:
        _write(run.csv_name, render_csv(result, run))
    return written


@dataclass(frozen=True, eq=False)
class ScheduleVerification:
    label: str
    steps: int
    witness_max_upper_excess: float
    witness_max_lower_deficit: float | None
    random_trials: int
    random_max_upper_excess: float
    passed: bool


@dataclass(frozen=True, eq=False)
class VerifyResult:
    checks: tuple[ScheduleVerification, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_bounds(cfg: ExperimentConfig, trials: int = 20, self_test: bool = False) -> VerifyResult:
    """Check the rate envelope against the exact distances of worst-case and random starts.

    Per uniform schedule, in section order, the witness x0 = x_ss 1 + v2 and
    `trials` random starts from the (seed, 3) stream form one n x (trials + 1)
    block, whose distances `modal_distances` evaluates in W's eigenbasis. Their
    ratios must sit below the upper edge of `bounds.envelope`. When the
    witness's eigenvalue, the one of largest magnitude in `weighted.modes`, is
    positive (always under lazy_metropolis weights), the witness attains the
    lower edge and must not fall below it; else its lower deficit is None. A
    random start within CONSENSUS_FLOOR of consensus has no ratio and is
    skipped. With self_test=True the upper edge is shifted
    down by 0.1 plus the witness's largest headroom below it, so that it lies
    at least 0.1 below the witness at every step and the check must FAIL.

    A negative `trials`, or one whose starts, two blocks of distances (one
    reduced, the next being made), gain buffer and four O(horizon) series
    would pass SCHEDULE_BUDGET_MB, raises InvalidParameter before any draw,
    and so does a config with no uniform schedule. Before any modal pass, a
    uniform schedule outside the envelope (`bounds.envelope_error`, `run`'s
    `bounds` rule) or past MAX_TERMS raises the first failing schedule's error.
    """
    if trials < 0:
        raise InvalidParameter(f"trials must be >= 0, got {trials}")
    need_mb = 8e-6 * ((trials + 1) * (cfg.n + 2 * CHUNK) + BUFFER_ELEMENTS + 4 * (cfg.horizon + 1))
    if need_mb > SCHEDULE_BUDGET_MB:
        raise InvalidParameter(f"trials = {trials} would hold {need_mb:.0f} MB of starts and distance "
                               f"series per schedule, over the {SCHEDULE_BUDGET_MB} MB budget")
    draw = build_network(cfg)
    weighted, _ = build_weights(cfg, draw.network)
    uniform = [s for s in cfg.schedules if not s.is_adversarial]
    if not uniform:
        held = "; ".join(f"schedule {s.label!r} is adversarial" for s in cfg.schedules)
        raise InvalidParameter(f"config has no uniform schedule to verify: {held}")
    for spec in uniform:
        error = envelope_error(weighted, spec.schedule, spec.label)
        if error is not None:
            raise error
        infinite_products(spec.schedule, cfg.tail_eps)  # a rate past MAX_TERMS raises here

    witness = worst_case_initial_condition(weighted, x_ss_target=1.0)
    rng = np.random.default_rng([cfg.seed, 3])
    checks = tuple(_verify_schedule(weighted, cfg, spec, np.column_stack(
        [witness, rng.standard_normal((trials, cfg.n)).T]), self_test) for spec in uniform)
    return VerifyResult(checks=checks)


def _verify_schedule(weighted: WeightedNetwork, cfg: ExperimentConfig, spec: ScheduleSpec,
                     starts: np.ndarray, self_test: bool) -> ScheduleVerification:
    """`verify_bounds`'s check of one schedule, the witness in column 0 of `starts`, reducing each block of
    distances as it arrives: rounding is monotone, so max_j fl(r_j - u) = fl(max_j r_j - u), bit for bit."""
    dist, top = np.empty(cfg.horizon + 1), np.empty(cfg.horizon + 1)  # the witness's; the largest random ratio
    lo = 0
    for d in modal_distances(weighted, starts, spec.schedule, cfg.horizon):
        if not lo:
            d0 = d[0, 1:].copy()
            live = d0 >= CONSENSUS_FLOOR  # a consensus start has no ratio
        dist[lo:lo + len(d)] = d[:, 0]
        ratios = np.divide(d[:, 1:], d0, out=d[:, 1:], where=live)  # in place: one block at a time
        top[lo:lo + len(d)] = np.max(ratios, axis=1, initial=-math.inf, where=live)
        lo += len(d)
    lower, upper = envelope(weighted.sigma_max, spec.schedule, cfg.horizon, cfg.tail_eps)
    ratio = np.divide(dist[1:], dist[0], out=dist[1:])
    if self_test:  # at least 0.1 below the witness at every step
        upper -= 0.1 + np.max(upper - ratio)
    excess = np.subtract(top[1:], upper, out=top[1:])  # top's memory, reused for the witness
    random_excess = float(np.max(excess, initial=-math.inf))
    upper_excess = float(np.max(np.subtract(ratio, upper, out=excess)))
    mu = weighted.modes[0]
    attained = mu[np.argmax(np.abs(mu))] > 0  # the witness's eigenvalue: a positive one attains the lower edge
    lower_deficit = float(np.max(np.subtract(lower, ratio, out=excess))) if attained else None
    return ScheduleVerification(
        label=spec.label, steps=cfg.horizon,
        witness_max_upper_excess=upper_excess,
        witness_max_lower_deficit=lower_deficit,
        random_trials=starts.shape[1] - 1,
        random_max_upper_excess=random_excess,
        passed=all(v <= BOUND_SLACK for v in (upper_excess, random_excess, lower_deficit) if v is not None),
    )


def tstar_report(cfg: ExperimentConfig) -> DeviationReport:
    """Auto-detect the switch time for the configured adversarial target.

    It reads the Perron vector of W but never `sigma_max` or `v2`, so no
    eigh or SVD runs.
    """
    draw = build_network(cfg)
    weighted, _ = build_weights(cfg, draw.network)
    x0, _ = draw_x0(cfg)
    target = next((s.target for s in cfg.schedules if s.is_adversarial and s.target is not None), None)
    return deviation_experiment(weighted, x0, target=target, tstar=None)
