"""Experiment configs: a flat INI-style key-value format with sections.

The full grammar is documented in the README. Parsing is strict: unknown
sections or keys are rejected with the offending line, and a parsed config
serializes back to a text that parses to an equal config.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass

from .errors import ConfigError, InvalidParameter
from .schedules import SCHEDULE_PARAMS, TAIL_EPS, CompetitionSchedule, make_schedule

GRAPH_KINDS = ("er", "path", "star", "complete")
WEIGHT_KINDS = ("metropolis", "lazy_metropolis", "row_stochastic")
# Per schedule a run keeps two float64 series and four CSV columns, 48 bytes a step (48 MB at the
# cap), its CSV text in 1,024-row parts; `verify` keeps four series and caps its trials to fit.
SCHEDULE_BUDGET_MB = 100
MAX_HORIZON = 10**6
# W and its factorizations are dense n x n float64 matrices: 800 MB each at the cap.
MAX_AGENTS = 10_000
# The squared l2 distance from consensus, at most n (2 |x0|)^2, stays finite for n <= MAX_AGENTS.
MAX_OPINION = 1e150
# Besides its dense n x n matrices, near 48 bytes per agent pair (`run` on paths: 80, 139 and 221 MB
# at n = 1,000, 1,500 and 2,000), a run's edge arrays add about 21 bytes per edge (complete graphs:
# 90, 161 and 262 MB, 1 BLAS thread, lazy Metropolis weights): 250 MB at the cap.
MAX_EDGES = 12_000_000
SCHEDULE_KEYS = {kind.value: set(names) for kind, names in SCHEDULE_PARAMS.items()}
SCHEDULE_KEYS["adversarial"] = {"tstar", "target"}


@dataclass(frozen=True)
class GraphSpec:
    kind: str
    p: float = 0.1


@dataclass(frozen=True)
class ScheduleSpec:
    """One [schedule.<label>] section.

    A uniform section holds its validated schedule. An adversarial one holds
    schedule=None, and its switch time and held agent, where tstar=None
    (`auto`) asks for the detected switch time and target=None (`argmax`)
    holds the agent with the largest x0.
    """

    label: str
    schedule: CompetitionSchedule | None = None
    tstar: int | None = None
    target: int | None = None

    @property
    def is_adversarial(self) -> bool:
        return self.schedule is None

    @property
    def kind(self) -> str:
        return "adversarial" if self.schedule is None else self.schedule.kind.value


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    graph: GraphSpec
    weights: str
    schedules: tuple[ScheduleSpec, ...]
    x0_uniform: tuple[float, float] | None = None
    x0_values: tuple[float, ...] | None = None
    horizon: int = 1000
    seed: int = 0
    out_dir: str = "results"
    eps_conv: float = 1e-8
    tail_eps: float = TAIL_EPS
    emit_alt_distance: bool = False

    def __post_init__(self):
        # checked here, not in parse_config, so the CLI's overrides are checked too
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ConfigError(f"horizon must lie in [1, {MAX_HORIZON}], got {self.horizon}: the cap "
                              f"holds a run's O(horizon) series near {SCHEDULE_BUDGET_MB} MB per schedule",
                              field="experiment.horizon")
        if self.n > MAX_AGENTS:
            raise ConfigError(f"n must be at most {MAX_AGENTS}, got {self.n}: weights and their factorizations "
                              f"are dense n x n matrices, {8 * MAX_AGENTS**2 / 1e6:.0f} MB each at the cap",
                              field="experiment.n")
        pairs = self.n * (self.n - 1) // 2  # a complete graph's edges; an ER graph expects p of them
        edges = {"complete": pairs, "er": self.graph.p * pairs}.get(self.graph.kind, 0)
        if edges > MAX_EDGES:
            raise ConfigError(f"{self.graph.kind} graph on {self.n} agents expects {edges:.3g} edges, over the "
                              f"cap of {MAX_EDGES} that holds its edge arrays near 250 MB", field="graph")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer", field="experiment.seed")
        if not 0.0 < self.tail_eps < 1.0:
            raise ConfigError(f"tail_eps must lie in (0, 1), got {self.tail_eps!r}",
                              field="experiment.tail_eps")


def _line_of(text: str, section: str, key: str | None = None) -> int | None:
    """Best-effort line number of a section header or of a key inside it."""
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            if in_section and key is not None:
                return None
            in_section = stripped == f"[{section}]"
            if in_section and key is None:
                return lineno
            continue
        if in_section and key is not None:
            if re.match(rf"^{re.escape(key)}\s*[=:]", stripped):
                return lineno
    return None


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(map(_finite, raw.split()))


def _bool(raw: str) -> bool:
    words = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}
    return words[raw.strip().lower()]


def _int_or(word: str):
    """An integer, or None for `word`."""
    return lambda raw: None if raw == word else int(raw)


def _choice(choices: tuple[str, ...]):
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(raw)
        return raw
    return parse


# Optional [experiment] keys in parse order; an absent one keeps ExperimentConfig's default.
EXPERIMENT_OPTIONAL = {
    "horizon": (int, "an integer"), "seed": (int, "an integer"), "out_dir": (str, "a string"),
    "eps_conv": (_finite, "a finite number"), "tail_eps": (_finite, "a finite number"),
    "emit_alt_distance": (_bool, "a boolean"),
}


class _Section:
    """One parsed section with typed access to its keys."""

    def __init__(self, text: str, name: str, items: dict[str, str]):
        self.text = text
        self.name = name
        self.items = items

    def _error(self, key: str, message: str) -> ConfigError:
        return ConfigError(
            message, line=_line_of(self.text, self.name, key), field=f"{self.name}.{key}"
        )

    def get(self, key: str, parse, what: str, required: bool = False, default=None):
        """parse(raw) of the key's text, or `default` when the key is absent;
        a parse that raises is reported as "expected <what>"."""
        if key not in self.items:
            if required:
                raise ConfigError(
                    f"missing required key {key!r} in section [{self.name}]",
                    line=_line_of(self.text, self.name), field=f"{self.name}.{key}",
                )
            return default
        raw = self.items[key]
        try:
            return parse(raw)
        except (KeyError, TypeError, ValueError):
            raise self._error(key, f"expected {what} for {key!r}, got {raw!r}") from None

    def reject_unknown(self, known: set[str]) -> None:
        for key in self.items:
            if key not in known:
                raise ConfigError(
                    f"unknown key {key!r} in section [{self.name}]",
                    line=_line_of(self.text, self.name, key), field=f"{self.name}.{key}",
                )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config text; raises ConfigError with diagnostics."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"config syntax error: {exc.message.splitlines()[0]}", line=line) from exc

    sections = {name: _Section(text, name, dict(parser.items(name))) for name in parser.sections()}

    for name in sections:
        if name not in ("experiment", "graph", "weights", "x0") and not name.startswith("schedule."):
            raise ConfigError(f"unknown section [{name}]", line=_line_of(text, name))
    for required in ("experiment", "graph", "weights", "x0"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    exp = sections["experiment"]
    exp.reject_unknown({"n", *EXPERIMENT_OPTIONAL})
    n = exp.get("n", int, "an integer", required=True)
    if n < 2:
        raise exp._error("n", f"need at least 2 agents, got {n}")
    optional = {key: exp.get(key, parse, what) for key, (parse, what) in EXPERIMENT_OPTIONAL.items()
                if key in exp.items}

    gsec = sections["graph"]
    gsec.reject_unknown({"kind", "p"})
    gkind = gsec.get("kind", _choice(GRAPH_KINDS), f"one of {list(GRAPH_KINDS)}", required=True)
    p = gsec.get("p", _finite, "a finite number", default=GraphSpec.p)
    if gkind == "er" and not 0.0 < p <= 1.0:
        # p = 0 leaves n >= 2 agents without an edge, so no resample could connect them
        raise gsec._error("p", f"edge probability must lie in (0, 1], got {p}")
    if gkind != "er" and "p" in gsec.items:
        raise gsec._error("p", f"key 'p' only applies to kind 'er', not {gkind!r}")

    wsec = sections["weights"]
    wsec.reject_unknown({"kind"})
    wkind = wsec.get("kind", _choice(WEIGHT_KINDS), f"one of {list(WEIGHT_KINDS)}", required=True)

    xsec = sections["x0"]
    xsec.reject_unknown({"uniform", "values"})
    x0_uniform = xsec.get("uniform", _floats, "space-separated finite numbers")
    x0_values = xsec.get("values", _floats, "space-separated finite numbers")
    if (x0_uniform is None) == (x0_values is None):
        raise ConfigError(
            "section [x0] needs exactly one of 'uniform' or 'values'",
            line=_line_of(text, "x0"), field="x0",
        )
    if x0_uniform is not None:
        if len(x0_uniform) != 2 or x0_uniform[0] >= x0_uniform[1]:
            raise xsec._error("uniform", "expected 'low high' with low < high")
    if x0_values is not None and len(x0_values) != n:
        raise xsec._error("values", f"expected {n} values, got {len(x0_values)}")
    for key, opinions in (("uniform", x0_uniform), ("values", x0_values)):
        if opinions is not None and any(abs(v) > MAX_OPINION for v in opinions):
            raise xsec._error(key, f"opinions must lie in [-{MAX_OPINION:g}, {MAX_OPINION:g}], got {xsec.items[key]!r}")

    schedules = []
    for name, sec in sections.items():
        if not name.startswith("schedule."):
            continue
        label = name[len("schedule."):]
        if not re.fullmatch(r"[A-Za-z0-9._-]+", label):
            raise ConfigError(
                "schedule label must be non-empty and use only [A-Za-z0-9._-]: "
                f"[schedule.{label}]", line=_line_of(text, name),
            )
        kind = sec.get("kind", _choice(tuple(SCHEDULE_KEYS)), f"one of {list(SCHEDULE_KEYS)}", required=True)
        sec.reject_unknown({"kind"} | SCHEDULE_KEYS[kind])
        if kind == "adversarial":
            tstar = sec.get("tstar", _int_or("auto"), "an integer or 'auto'", required=True)
            if tstar is not None and tstar < 0:
                raise sec._error("tstar", f"tstar must be >= 0, got {tstar}")
            target = sec.get("target", _int_or("argmax"), "an integer or 'argmax'")
            if target is not None and not 0 <= target < n:
                raise sec._error("target", f"target must lie in [0, {n - 1}], got {target}")
            schedules.append(ScheduleSpec(label, tstar=tstar, target=target))
            continue
        # seq is the one list-valued parameter
        params = {key: sec.get(key, _floats, "space-separated finite numbers", required=True) if key == "seq"
                  else sec.get(key, _finite, "a finite number", required=True)
                  for key in SCHEDULE_PARAMS[kind]}
        try:
            schedules.append(ScheduleSpec(label, make_schedule(kind, **params)))
        except InvalidParameter as exc:
            raise ConfigError(f"invalid schedule {label!r}: {exc}", line=_line_of(text, name)) from exc

    if not schedules:
        raise ConfigError("at least one [schedule.<label>] section is required")
    labels = [s.label for s in schedules]
    if len(set(labels)) != len(labels):
        raise ConfigError("schedule labels must be unique")

    return ExperimentConfig(
        n=n, graph=GraphSpec(kind=gkind, p=p), weights=wkind,
        schedules=tuple(schedules), x0_uniform=x0_uniform, x0_values=x0_values, **optional,
    )


def _exact(v: float) -> str:
    """The short %g text of v when it parses back to v, else repr(v)."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config back to its text form (canonical key order); the text
    parses back to an equal config."""
    lines = [
        "[experiment]",
        f"n = {cfg.n}",
        f"horizon = {cfg.horizon}",
        f"seed = {cfg.seed}",
        f"out_dir = {cfg.out_dir}",
        f"eps_conv = {_exact(cfg.eps_conv)}",
        f"tail_eps = {_exact(cfg.tail_eps)}",
        f"emit_alt_distance = {str(cfg.emit_alt_distance).lower()}",
        "",
        "[graph]",
        f"kind = {cfg.graph.kind}",
    ]
    if cfg.graph.kind == "er":
        lines.append(f"p = {_exact(cfg.graph.p)}")
    lines += ["", "[weights]", f"kind = {cfg.weights}", "", "[x0]"]
    if cfg.x0_uniform is not None:
        lines.append("uniform = " + " ".join(map(_exact, cfg.x0_uniform)))
    else:
        lines.append("values = " + " ".join(repr(v) for v in cfg.x0_values))
    for spec in cfg.schedules:
        lines += ["", f"[schedule.{spec.label}]"]
        if spec.is_adversarial:
            lines += ["kind = adversarial",
                      f"tstar = {'auto' if spec.tstar is None else spec.tstar}",
                      f"target = {'argmax' if spec.target is None else spec.target}"]
            continue
        for key, value in spec.schedule.describe().items():
            if isinstance(value, tuple):
                value = " ".join(map(repr, value))
            elif isinstance(value, float):
                value = _exact(value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
