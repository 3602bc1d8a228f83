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

import math
import os
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .bounds import gap, lower_bound, worst_case_initial_condition
from .config import SCHEDULE_BUDGET_MB, ExperimentConfig, ScheduleSpec, serialize_config
from .deviation import DeviationReport, deviation_experiment
from .dynamics import Trajectory, simulate
from .errors import (
    DisconnectedNetwork,
    InvalidParameter,
    NonVanishingSchedule,
)
from .network import (
    Network,
    WeightKind,
    WeightedNetwork,
    complete_graph,
    generate_erdos_renyi,
    metropolis_weights,
    path_graph,
    row_stochastic_weights,
    star_graph,
)
from .schedules import (
    CompetitionSchedule,
    TruncationPolicy,
    infinite_products,
    make_adversarial_nonuniform,
)

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
    trunc_report: dict | None = None
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
    until connected, and the resample count is reported."""
    kind = cfg.graph.kind
    if kind == "path":
        return NetworkDraw(path_graph(cfg.n), None, 0, 0)
    if kind == "star":
        return NetworkDraw(star_graph(cfg.n), None, 0, 0)
    if kind == "complete":
        return NetworkDraw(complete_graph(cfg.n), None, 0, 0)
    pairs = cfg.n * (cfg.n - 1) // 2
    for k in range(MAX_GRAPH_RESAMPLES + 1):
        net = generate_erdos_renyi(cfg.n, cfg.graph.p, cfg.seed + k)
        if net.connected:
            return NetworkDraw(net, cfg.seed + k, k, (k + 1) * pairs)
    raise DisconnectedNetwork(
        f"no connected graph within {MAX_GRAPH_RESAMPLES} resamples of "
        f"er(n={cfg.n}, p={cfg.graph.p}) from seed {cfg.seed}"
    )


def build_weights(cfg: ExperimentConfig, net: Network, spectral: bool = True) -> tuple[WeightedNetwork, int]:
    if cfg.weights == "metropolis":
        return metropolis_weights(net, spectral=spectral), 0
    if cfg.weights == "lazy_metropolis":
        return metropolis_weights(net, lazy=True, spectral=spectral), 0
    # independent stream: entropy (seed, 1) so graph resampling cannot alias it
    draws = 2 * len(net.edges) + net.n
    return row_stochastic_weights(net, seed=[cfg.seed, 1], spectral=spectral), draws


def draw_x0(cfg: ExperimentConfig) -> tuple[np.ndarray, int]:
    if cfg.x0_values is not None:
        return np.asarray(cfg.x0_values, dtype=float), 0
    lo, hi = cfg.x0_uniform
    rng = np.random.default_rng([cfg.seed, 2])
    return lo + (hi - lo) * rng.random(cfg.n), cfg.n


def truncation_policy(cfg: ExperimentConfig) -> TruncationPolicy:
    return TruncationPolicy(tail_eps=cfg.tail_eps)


def bounds_applicable(weighted: WeightedNetwork, schedule: object) -> bool:
    """Rate bounds need doubly stochastic weights with sigma_max in (0, 1)
    and a vanishing uniform schedule."""
    if not isinstance(schedule, CompetitionSchedule) or not schedule.vanishing:
        return False
    if weighted.kind is not WeightKind.DOUBLY_STOCHASTIC or weighted.spectral is None:
        return False
    return 0.0 < weighted.spectral.sigma_max < 1.0


def _resolve_adversarial(
    spec: ScheduleSpec, weighted: WeightedNetwork, x0: np.ndarray
) -> tuple[DeviationReport, object]:
    target = None if spec.target == "argmax" else int(spec.target)
    tstar = None if spec.tstar == "auto" else int(spec.tstar)
    report = deviation_experiment(weighted, x0, target=target, tstar=tstar)
    sched = make_adversarial_nonuniform(tstar=report.tstar, target=report.target)
    return report, sched


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every schedule from x0 as one column of a single `simulate` block,
    after each adversarial switch time is found by its own single-start pass."""
    draw = build_network(cfg)
    weighted, weight_draws = build_weights(cfg, draw.network)
    x0, x0_draws = draw_x0(cfg)
    x_ss = weighted.consensus_value(x0)
    trunc = truncation_policy(cfg)

    resolved = [_resolve_adversarial(spec, weighted, x0) if spec.is_adversarial
                else (None, spec.build_uniform()) for spec in cfg.schedules]
    block = simulate(weighted, x0, [sched for _, sched in resolved], cfg.horizon)
    runs = []
    for j, (spec, (report, sched)) in enumerate(zip(cfg.schedules, resolved)):
        traj = block.column(j)
        use_bounds = bounds_applicable(weighted, sched)
        trunc_report = infinite_products(sched, trunc).describe() if use_bounds else None
        runs.append(RunResult(
            spec=spec, schedule=sched, trajectory=traj,
            csv_name=f"{spec.label}.csv", bounds_used=use_bounds,
            converged_at=traj.converged_at(cfg.eps_conv),
            trunc_report=trunc_report, report=report,
        ))
    return ExperimentResult(
        cfg=cfg, draw=draw, weighted=weighted, weight_draws=weight_draws,
        x0=x0, x0_draws=x0_draws, x_ss=x_ss, runs=tuple(runs),
    )


def _fmt(v: float) -> str:
    return repr(float(v))


def render_csv(result: ExperimentResult, run: RunResult) -> str:
    """CSV text of one run, zipped row by row from lazy per-column string streams."""
    cfg = result.cfg
    traj = run.trajectory
    fmt = float.__repr__  # the repr of the Python float, also for numpy scalars
    cols = [
        map(str, range(traj.horizon + 1)),
        map(fmt, np.log10(np.maximum(traj.avg_distances, DISTANCE_FLOOR))),
    ]
    if not run.spec.is_adversarial and traj.distances[0] >= 1e-14:
        cols.append(map(fmt, traj.distances / traj.distances[0]))
    else:
        cols.append(repeat(""))
    if run.bounds_used:
        sigma = result.weighted.spectral.sigma_max
        steps = np.arange(1, traj.horizon + 1)
        lower = lower_bound(sigma, run.schedule, steps)
        upper = lower + gap(run.schedule, steps, truncation_policy(cfg))
        cols += [chain([""], map(fmt, upper)), chain([""], map(fmt, lower))]
    else:
        cols += [repeat(""), repeat("")]
    header = CSV_HEADER
    if cfg.emit_alt_distance:
        header += "," + ALT_COLUMN
        # math.log10, not np.log10, which may differ in the last ulp
        cols.append(map(fmt, map(math.log10, np.maximum(traj.distances, DISTANCE_FLOOR))))
    return "\n".join(chain([header], map(",".join, zip(*cols)))) + "\n"


def _schedule_manifest_lines(run: RunResult) -> list[str]:
    spec = run.spec
    lines = [f"[run.{spec.label}]", f"kind = {spec.kind}", f"csv = {run.csv_name}"]
    if spec.kind == "constant":
        lines.append(f"lam = {_fmt(spec.lam)}")
    elif spec.kind == "exponential":
        lines.append(f"rate = {_fmt(spec.rate)}")
    elif spec.kind == "custom":
        lines.append("seq = " + " ".join(_fmt(v) for v in spec.seq))
    lines.append(f"bounds = {str(run.bounds_used).lower()}")
    if run.trunc_report is not None:
        rep = run.trunc_report
        lines.append(f"truncation_kind = {rep['kind']}")
        lines.append(f"truncation_exact = {str(rep['exact']).lower()}")
        lines.append(f"truncation_cutoff = {rep['cutoff']}")
        lines.append(f"truncation_remainder = {_fmt(rep['tail_remainder'])}")
    lines.append(f"terminal_avg_distance = {_fmt(run.trajectory.avg_distances[-1])}")
    lines.append(f"converged_at = {'none' if run.converged_at is None else run.converged_at}")
    if run.report is not None:
        rep = run.report
        lines += [
            f"tstar = {rep.tstar}",
            f"tstar_source = {'auto' if spec.tstar == 'auto' else 'fixed'}",
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
        f"doubly_stochastic = {str(weighted.kind is WeightKind.DOUBLY_STOCHASTIC).lower()}",
        f"weight_draws = {result.weight_draws}",
    ]
    sp = weighted.spectral
    if sp is not None:
        lines += [
            f"symmetric = {str(sp.symmetric).lower()}",
            f"sigma_max = {_fmt(sp.sigma_max)}",
            "perron = " + " ".join(_fmt(v) for v in sp.perron),
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
        lines.extend(_schedule_manifest_lines(run))
    return "\n".join(lines) + "\n"


def resolve_out_dir(cfg: ExperimentConfig, override: str | None = None) -> Path:
    """Relative output paths are rooted at $EXPERIMENT_OUT_DIR when set."""
    out = Path(override if override is not None else cfg.out_dir)
    if not out.is_absolute():
        root = os.environ.get("EXPERIMENT_OUT_DIR")
        if root:
            out = Path(root) / out
    return out


def write_outputs(result: ExperimentResult, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def _write(name: str, text: str) -> None:
        path = out_dir / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        written.append(path)

    _write("config.ini", serialize_config(result.cfg))
    _write("manifest.ini", render_manifest(result))
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
    self_test: bool

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_bounds(
    cfg: ExperimentConfig,
    trials: int = 20,
    self_test: bool = False,
    slack: float = BOUND_SLACK,
) -> VerifyResult:
    """Check the rate envelope against simulated worst-case trajectories.

    The witness x0 = x_ss 1 + v2 is simulated under every configured uniform
    schedule and its distance ratio must sit below the upper bound; for
    lazy_metropolis weights the witness attains the lower bound exactly, so
    the deficit below the lower bound is checked too. `trials` extra random
    initial conditions are checked against the upper bound only; a start
    that is numerically a consensus has no ratio and is skipped. Per
    schedule, the witness and the random starts run as one n x (trials + 1)
    block through `simulate`. A non vanishing schedule in the config is an
    error. With self_test=True the upper bound is shifted down by 0.1 and
    the check must FAIL, proving the harness can see a violation. A negative
    `trials`, or one whose starts and two distance series would pass
    SCHEDULE_BUDGET_MB per schedule, raises InvalidParameter before any draw.
    """
    if trials < 0:
        raise InvalidParameter(f"trials must be >= 0, got {trials}")
    need_mb = 8e-6 * (trials + 1) * (cfg.n + 2 * (cfg.horizon + 1))
    if need_mb > SCHEDULE_BUDGET_MB:
        raise InvalidParameter(f"trials = {trials} would hold {need_mb:.0f} MB of starts and distance "
                               f"series per schedule, over the {SCHEDULE_BUDGET_MB} MB budget")
    draw = build_network(cfg)
    weighted, _ = build_weights(cfg, draw.network)
    sp = weighted.spectral
    if weighted.kind is not WeightKind.DOUBLY_STOCHASTIC:
        raise InvalidParameter("bound verification needs doubly stochastic weights")
    if sp is None or not 0.0 < sp.sigma_max < 1.0:
        raise InvalidParameter(
            f"bound verification needs sigma_max in (0, 1), got {None if sp is None else sp.sigma_max}"
        )
    uniform = [s for s in cfg.schedules if not s.is_adversarial]
    if not uniform:
        raise InvalidParameter("config has no uniform schedule to verify")
    for spec in uniform:
        sched = spec.build_uniform()
        if not sched.vanishing:
            raise NonVanishingSchedule(
                f"schedule {spec.label!r} does not vanish; rate bounds do not apply"
            )

    witness = worst_case_initial_condition(sp, x_ss_target=1.0)
    rng = np.random.default_rng([cfg.seed, 3])
    trunc = truncation_policy(cfg)
    horizon = cfg.horizon
    steps = np.arange(1, horizon + 1)
    check_lower = cfg.weights == "lazy_metropolis"
    shift = -0.1 if self_test else 0.0

    checks = []
    for spec in uniform:
        sched = spec.build_uniform()
        lower = lower_bound(sp.sigma_max, sched, steps)
        upper = lower + gap(sched, steps, trunc) + shift

        # column 0 is the witness, then one column per random start
        starts = np.column_stack([witness, rng.standard_normal((trials, cfg.n)).T])
        d = simulate(weighted, starts, sched, horizon).distances
        ratio = d[1:, 0] / d[0, 0]
        upper_excess = float(np.max(ratio - upper))
        lower_deficit = float(np.max(lower - ratio)) if check_lower else None

        live = d[0, 1:] >= 1e-14  # a consensus start has no ratio
        random_ratio = d[1:, 1:][:, live] / d[0, 1:][live]
        random_excess = float(np.max(random_ratio - upper[:, None], initial=-math.inf))

        ok = upper_excess <= slack and random_excess <= slack
        if lower_deficit is not None:
            ok = ok and lower_deficit <= slack
        checks.append(ScheduleVerification(
            label=spec.label, steps=horizon,
            witness_max_upper_excess=upper_excess,
            witness_max_lower_deficit=lower_deficit,
            random_trials=trials,
            random_max_upper_excess=random_excess,
            passed=ok,
        ))
    return VerifyResult(checks=tuple(checks), self_test=self_test)


def tstar_report(cfg: ExperimentConfig) -> DeviationReport:
    """Auto-detect the switch time for the configured adversarial target."""
    draw = build_network(cfg)
    weighted, _ = build_weights(cfg, draw.network, spectral=False)
    x0, _ = draw_x0(cfg)
    target = None
    for spec in cfg.schedules:
        if spec.is_adversarial and spec.target != "argmax":
            target = int(spec.target)
            break
    return deviation_experiment(weighted, x0, target=target, tstar=None)
