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

from .deviation import MAX_STEPS
from .errors import ConfigError, InvalidParameter
from .schedules import SCHEDULE_PARAMS, TAIL_EPS, CompetitionSchedule, make_schedule

GRAPH_KINDS = ("er", "path", "star", "complete")
WEIGHT_KINDS = ("metropolis", "lazy_metropolis", "row_stochastic")
# Per schedule a run keeps two float64 series and four CSV columns, 48 bytes a step (48 MB at the
# cap), its CSV text in 1,024-row parts; `verify` keeps four series and caps its trials to fit.
SCHEDULE_BUDGET_MB = 100
MAX_HORIZON = 10**6
# W and its factorizations are dense n x n float64 matrices: 800 MB each at the cap. Metropolis weights on
# a path, star or complete graph have closed-form modes: `run` holds W alone, and `verify` adds their basis.
MAX_AGENTS = 10_000
# The squared l2 distance from consensus, at most n (2 |x0|)^2, stays finite for n <= MAX_AGENTS.
MAX_OPINION = 1e150
# Besides its dense n x n matrices (`run` on lazy Metropolis paths: 45, 54 and 68 MB at n = 1,000, 1,500
# and 2,000), a run's edges peak at about 41 bytes each while the graph is built, before W exists (complete
# graphs: 53, 74 and 108 MB, 1 BLAS thread), and the weights keep 16: under 500 MB at the cap.
MAX_EDGES = 12_000_000


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
                              f"cap of {MAX_EDGES} that holds its edge arrays under 500 MB", field="graph")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer", field="experiment.seed")
        if not 0.0 < self.tail_eps < 1.0:
            raise ConfigError(f"tail_eps must lie in (0, 1), got {self.tail_eps!r}",
                              field="experiment.tail_eps")
        if not self.eps_conv > 0.0:
            raise ConfigError(f"eps_conv must be > 0, got {self.eps_conv!r}", field="experiment.eps_conv")


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
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


def _int_or(word: str):
    """An integer, or None for `word`."""
    return lambda raw: None if raw == word else int(raw)


def _kind(choices: tuple[str, ...]):
    """A required key that takes one of `choices`; other text raises KeyError."""
    return dict(zip(choices, choices)).__getitem__, f"one of {list(choices)}", True


_INT, _NUMBER, _NUMBERS = (int, "an integer"), (_finite, "a finite number"), (_floats, "space-separated finite numbers")
# The keys of each section: key -> (parse, what a value must be, required). An absent optional
# [experiment] key keeps ExperimentConfig's default, and serialize_config writes them in this order.
# A schedule section takes `kind`, then SCHEDULE_PARAMS[kind], or tstar and target when adversarial.
SECTION_KEYS = {
    "experiment": {"n": (*_INT, True), "horizon": (*_INT, False), "seed": (*_INT, False),
                   "out_dir": (str, "a string", False), "eps_conv": (*_NUMBER, False),
                   "tail_eps": (*_NUMBER, False), "emit_alt_distance": (_bool, "a boolean", False)},
    "graph": {"kind": _kind(GRAPH_KINDS), "p": (*_NUMBER, False)},
    "weights": {"kind": _kind(WEIGHT_KINDS)},
    "x0": {"uniform": (*_NUMBERS, False), "values": (*_NUMBERS, False)},
    "schedule": {"kind": _kind((*(kind.value for kind in SCHEDULE_PARAMS), "adversarial")),
                 "lam": (*_NUMBER, True), "rate": (*_NUMBER, True), "seq": (*_NUMBERS, True),
                 "tstar": (_int_or("auto"), "an integer or 'auto'", True),
                 "target": (_int_or("argmax"), "an integer or 'argmax'", False)},
}


def _error(text: str, section: str, key: str, message: str) -> ConfigError:
    return ConfigError(message, line=_line_of(text, section, key), field=f"{section}.{key}")


def _read(text: str, name: str, items: dict[str, str], keys: dict) -> dict:
    """The parsed value of each key present in section `name`, checked against `keys`:
    an unknown key, a missing required key or a value that does not parse raises ConfigError."""
    for key in items:
        if key not in keys:
            raise _error(text, name, key, f"unknown key {key!r} in section [{name}]")
    values = {}
    for key, (parse, what, required) in keys.items():
        if key not in items:
            if required:
                raise ConfigError(f"missing required key {key!r} in section [{name}]",
                                  line=_line_of(text, name), field=f"{name}.{key}")
            continue
        try:
            values[key] = parse(items[key])
        except (KeyError, TypeError, ValueError):
            raise _error(text, name, key, f"expected {what} for {key!r}, got {items[key]!r}") from None
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config text; raises ConfigError with diagnostics."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"config syntax error: {exc.message.splitlines()[0]}", line=line) from exc

    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    required = ("experiment", "graph", "weights", "x0")
    for name in sections:
        if name not in required and not name.startswith("schedule."):
            raise ConfigError(f"unknown section [{name}]", line=_line_of(text, name))
    for name in required:
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")

    exp = _read(text, "experiment", sections["experiment"], SECTION_KEYS["experiment"])
    n = exp["n"]
    if n < 2:
        raise _error(text, "experiment", "n", f"need at least 2 agents, got {n}")
    graph = _read(text, "graph", sections["graph"], SECTION_KEYS["graph"])
    p = graph.get("p", GraphSpec.p)
    if graph["kind"] == "er" and not 0.0 < p <= 1.0:
        # p = 0 leaves n >= 2 agents without an edge, so no resample could connect them
        raise _error(text, "graph", "p", f"edge probability must lie in (0, 1], got {p}")
    if graph["kind"] != "er" and "p" in graph:
        raise _error(text, "graph", "p", f"key 'p' only applies to kind 'er', not {graph['kind']!r}")
    weights = _read(text, "weights", sections["weights"], SECTION_KEYS["weights"])

    x0 = _read(text, "x0", sections["x0"], SECTION_KEYS["x0"])
    if len(x0) != 1:
        raise ConfigError("section [x0] needs exactly one of 'uniform' or 'values'",
                          line=_line_of(text, "x0"), field="x0")
    if "uniform" in x0 and (len(x0["uniform"]) != 2 or x0["uniform"][0] >= x0["uniform"][1]):
        raise _error(text, "x0", "uniform", "expected 'low high' with low < high")
    if "values" in x0 and len(x0["values"]) != n:
        raise _error(text, "x0", "values", f"expected {n} values, got {len(x0['values'])}")
    [(key, opinions)] = x0.items()
    if any(abs(v) > MAX_OPINION for v in opinions):
        raise _error(text, "x0", key,
                     f"opinions must lie in [-{MAX_OPINION:g}, {MAX_OPINION:g}], got {sections['x0'][key]!r}")

    schedules = []
    keys = SECTION_KEYS["schedule"]
    for name, items in sections.items():
        if not name.startswith("schedule."):
            continue
        label = name[len("schedule."):]
        if not re.fullmatch(r"[A-Za-z0-9._-]+", label):
            raise ConfigError(
                "schedule label must be non-empty and use only [A-Za-z0-9._-]: "
                f"[schedule.{label}]", line=_line_of(text, name),
            )
        kind = _read(text, name, {k: v for k, v in items.items() if k == "kind"}, {"kind": keys["kind"]})["kind"]
        names = ("tstar", "target") if kind == "adversarial" else SCHEDULE_PARAMS[kind]
        params = _read(text, name, items, {key: keys[key] for key in ("kind", *names)})
        if kind == "adversarial":
            tstar, target = params["tstar"], params.get("target")
            if tstar is not None and not 0 <= tstar <= MAX_STEPS:
                bound = ">= 0" if tstar < 0 else f"at most {MAX_STEPS}"
                raise _error(text, name, "tstar", f"tstar must be {bound}, got {tstar}")
            if target is not None and not 0 <= target < n:
                raise _error(text, name, "target", f"target must lie in [0, {n - 1}], got {target}")
            schedules.append(ScheduleSpec(label, tstar=tstar, target=target))
            continue
        try:
            schedules.append(ScheduleSpec(label, make_schedule(**params)))
        except InvalidParameter as exc:
            raise ConfigError(f"invalid schedule {label!r}: {exc}", line=_line_of(text, name)) from exc

    if not schedules:
        raise ConfigError("at least one [schedule.<label>] section is required")
    labels = [s.label for s in schedules]
    if len(set(labels)) != len(labels):
        raise ConfigError("schedule labels must be unique")

    return ExperimentConfig(
        graph=GraphSpec(kind=graph["kind"], p=p), weights=weights["kind"],
        schedules=tuple(schedules), x0_uniform=x0.get("uniform"), x0_values=x0.get("values"), **exp,
    )


def _exact(v: float) -> str:
    """The short %g text of v when it parses back to v, else repr(v)."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def _text(value) -> str:
    """A key's value as config text: floats exactly, lists by repr."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _exact(value)
    if isinstance(value, tuple):
        return " ".join(map(repr, value))
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config back to its text form (canonical key order); the text
    parses back to an equal config."""
    lines = ["[experiment]", *(f"{key} = {_text(getattr(cfg, key))}" for key in SECTION_KEYS["experiment"]),
             "", "[graph]", f"kind = {cfg.graph.kind}"]
    if cfg.graph.kind == "er":
        lines.append(f"p = {_exact(cfg.graph.p)}")
    lines += ["", "[weights]", f"kind = {cfg.weights}", "", "[x0]"]
    if cfg.x0_uniform is not None:
        lines.append("uniform = " + " ".join(map(_exact, cfg.x0_uniform)))
    else:
        lines.append(f"values = {_text(cfg.x0_values)}")
    for spec in cfg.schedules:
        lines += ["", f"[schedule.{spec.label}]"]
        if spec.is_adversarial:
            lines += ["kind = adversarial",
                      f"tstar = {'auto' if spec.tstar is None else spec.tstar}",
                      f"target = {'argmax' if spec.target is None else spec.target}"]
        else:
            lines += [f"{key} = {_text(value)}" for key, value in spec.schedule.describe().items()]
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from None
    return parse_config(text)
