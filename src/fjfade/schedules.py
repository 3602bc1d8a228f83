"""Competition schedules lambda_t and products of (1 - lambda_k).

A schedule assigns every step t a competition level lambda_t in [0, 1].
The running products Lambda_s^t = prod_{k=s}^{t} (1 - lambda_k), with the
empty product equal to 1 for s > t, drive both the transition decomposition
and the convergence-rate bounds, so they are computed here once, carefully.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InvalidParameter


class ScheduleKind(str, Enum):
    CONSTANT = "constant"
    EXPONENTIAL = "exponential"
    HYPERBOLIC = "hyperbolic"
    ZERO = "zero"
    CUSTOM = "custom"

    @classmethod
    def _missing_(cls, value):
        raise InvalidParameter(f"unknown schedule kind {value!r}; expected one of {[k.value for k in cls]}")


# The keyword parameters of each kind, all required: make_schedule checks
# them, describe() reports them and the config grammar reads them.
SCHEDULE_PARAMS = {
    ScheduleKind.CONSTANT: ("lam",),
    ScheduleKind.EXPONENTIAL: ("rate",),
    ScheduleKind.HYPERBOLIC: (),
    ScheduleKind.ZERO: (),
    ScheduleKind.CUSTOM: ("seq",),
}
# Default cutoff of a truncated product: the table stops where lambda_k falls to TAIL_EPS, its
# remainder bounds the rest, and MAX_TERMS caps its length: 40 MB, about 120 MB while it is built.
TAIL_EPS = 1e-14
MAX_TERMS = 5_000_000


@dataclass(frozen=True)
class CompetitionSchedule:
    """Uniform (agent-independent) competition schedule.

    kind selects the decay law:
      constant     lambda_t = lam
      exponential  lambda_t = exp(-rate * t)
      hyperbolic   lambda_t = 1 / (t + 1)
      zero         lambda_t = 0 (plain consensus)
      custom       lambda_t = seq[t] while t < len(seq), 0 afterward

    Construction checks the kind's parameters, so every lambda_t of a
    schedule lies in [0, 1] and no consumer re-checks a step.
    """

    kind: ScheduleKind
    lam: float = 0.0
    rate: float = 0.0
    seq: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kind", ScheduleKind(self.kind))
        seq = tuple(self.seq) if np.iterable(self.seq) else (None,)
        if not all(isinstance(v, numbers.Real) for v in (self.lam, self.rate, *seq)):  # make_schedule converts text
            raise InvalidParameter(f"schedule parameters must be numbers, got {self}")
        object.__setattr__(self, "seq", tuple(map(float, seq)))  # hashable, whatever sequence it was given
        if self.kind is ScheduleKind.CONSTANT and not 0.0 <= self.lam <= 1.0:
            raise InvalidParameter(f"constant level must lie in [0, 1], got {self.lam}")
        if self.kind is ScheduleKind.EXPONENTIAL and not 0.0 < self.rate < math.inf:
            need = "> 0" if self.rate <= 0.0 else "finite"  # NaN is not finite
            raise InvalidParameter(f"exponential rate must be {need}, got {self.rate}")
        if self.kind is ScheduleKind.CUSTOM and not all(0.0 <= v <= 1.0 for v in self.seq):
            raise InvalidParameter("custom schedule values must lie in [0, 1]")

    def value(self, t: int) -> float:
        """lambda_t for a single step index t >= 0, as `values` gives it."""
        return float(self.values(t))

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized lambda_t over an integer array of step indices."""
        ts = np.asarray(ts)
        if ts.size and ts.min() < 0:
            raise InvalidParameter("step indices must be >= 0")
        if self.kind is ScheduleKind.CONSTANT:
            return np.full(ts.shape, self.lam)
        if self.kind is ScheduleKind.EXPONENTIAL:
            with np.errstate(over="ignore"):  # rate * t past the float range is inf, and exp(-inf) = 0 is exact
                return np.exp(-self.rate * ts)
        if self.kind is ScheduleKind.HYPERBOLIC:
            return 1.0 / (ts + 1.0)
        if self.kind is ScheduleKind.ZERO:
            return np.zeros(ts.shape)
        out = np.zeros(ts.shape)
        inside = ts < len(self.seq)
        if inside.any():
            out[inside] = self._seq[ts[inside]]
        return out

    @cached_property
    def _seq(self) -> np.ndarray:
        """seq as one array, built on first read: `values` indexes it chunk by chunk."""
        return np.asarray(self.seq)

    @property
    def vanishing(self) -> bool:
        """True when lambda_t -> 0."""
        return self.kind is not ScheduleKind.CONSTANT or self.lam == 0.0

    @property
    def summable(self) -> bool:
        """True when sum_t lambda_t is finite.

        Summable vanishing schedules have Lambda_t^inf -> 1; the hyperbolic
        schedule is the canonical non-summable case with Lambda_s^inf = 0.
        """
        return self.vanishing and self.kind is not ScheduleKind.HYPERBOLIC

    @property
    def label(self) -> str:
        if self.kind is ScheduleKind.CONSTANT:
            return f"constant_{self.lam:g}"
        if self.kind is ScheduleKind.EXPONENTIAL:
            return f"exponential_{self.rate:g}"
        return self.kind.value

    def describe(self) -> dict:
        """The kind's name, then its parameters in SCHEDULE_PARAMS order."""
        params = {name: getattr(self, name) for name in SCHEDULE_PARAMS[self.kind]}
        return {"kind": self.kind.value, **params}


def make_schedule(kind: str | ScheduleKind, **params) -> CompetitionSchedule:
    """Build a schedule from a kind and its parameters, as numbers or numeric text.

    params must be exactly the kind's SCHEDULE_PARAMS, else InvalidParameter;
    the values are checked by CompetitionSchedule itself (lam in [0, 1], a
    finite rate > 0, seq values in [0, 1]). A seq that increases warns.
    """
    kind = ScheduleKind(kind)
    names = SCHEDULE_PARAMS[kind]
    if sorted(params) != sorted(names):
        raise InvalidParameter(f"schedule kind {kind.value!r} takes parameters {list(names)}, "
                               f"got {sorted(params)}")
    try:  # seq is the one list-valued parameter
        params = {name: tuple(map(float, v)) if name == "seq" else float(v) for name, v in params.items()}
    except (TypeError, ValueError):
        raise InvalidParameter(f"schedule kind {kind.value!r} needs numbers for {list(names)}, "
                               f"got {params}") from None
    schedule = CompetitionSchedule(kind, **params)
    if any(b > a for a, b in zip(schedule.seq, schedule.seq[1:])):
        warnings.warn("custom schedule is not non-increasing", stacklevel=2)
    return schedule


def constant(lam: float) -> CompetitionSchedule:
    return make_schedule(ScheduleKind.CONSTANT, lam=lam)


def exponential(rate: float) -> CompetitionSchedule:
    return make_schedule(ScheduleKind.EXPONENTIAL, rate=rate)


def hyperbolic() -> CompetitionSchedule:
    return make_schedule(ScheduleKind.HYPERBOLIC)


def zero_consensus() -> CompetitionSchedule:
    return make_schedule(ScheduleKind.ZERO)


def custom(seq) -> CompetitionSchedule:
    return make_schedule(ScheduleKind.CUSTOM, seq=seq)


def lambda_product(
    schedule: CompetitionSchedule, s: int, t: int | float, tail_eps: float = TAIL_EPS
) -> float:
    """Lambda_s^t = prod_{k=s}^{t} (1 - lambda_k), with Lambda_s^t = 1 for s > t.

    t may be math.inf, in which case the limit is returned: exactly where a
    closed form exists (constant, hyperbolic, zero, custom), otherwise via
    the product truncated at tail_eps, see infinite_products.
    """
    if s < 0:
        raise InvalidParameter(f"product start must be >= 0, got {s}")
    if t is math.inf or t == math.inf:
        return infinite_products(schedule, tail_eps).lam_to_inf(int(s))
    t = int(t)
    if s > t:
        return 1.0
    return float(np.prod(1.0 - schedule.values(np.arange(s, t + 1))))


def suffix_products(schedule: CompetitionSchedule, t: int) -> np.ndarray:
    """Array R with R[j] = Lambda_j^t for j = 0..t+1 (R[t+1] = 1).

    `partition_of_unity` reads every suffix product at once, and
    `infinite_products` stores R for t = cutoff - 1 as its Lambda^inf table.
    """
    if t < 0:
        return np.ones(1)
    f = 1.0 - schedule.values(np.arange(t + 1))
    out = np.ones(t + 2)
    out[:-1] = np.cumprod(f[::-1])[::-1]
    return out


def partition_of_unity(schedule: CompetitionSchedule, t: int) -> float:
    """Lambda_0^t + sum_{k=0}^{t} Lambda_{k+1}^t lambda_k, identically 1."""
    if t < 0:
        raise InvalidParameter(f"t must be >= 0, got {t}")
    r = suffix_products(schedule, t)
    lam = schedule.values(np.arange(t + 1))
    return float(r[0] + np.sum(r[1:] * lam))


@dataclass(frozen=True)
class InfiniteProducts:
    """Lambda_s^inf = back[min(s, cutoff)], the table built on first read; a
    run's manifest reports exact, cutoff and remainder, which need no table.

    For a summable schedule back[j] = prod_{i=j}^{cutoff-1} (1 - lambda_i),
    and the factors beyond cutoff multiply to within [1 - remainder, 1]; a
    non-summable one has every limit 0 and back = [0.0]. Tables of
    closed-form kinds are exact, with remainder 0.
    """

    schedule: CompetitionSchedule
    exact: bool
    cutoff: int
    remainder: float

    @cached_property
    def back(self) -> np.ndarray:
        return suffix_products(self.schedule, self.cutoff - 1) if self.schedule.summable else np.zeros(1)

    def lam_to_inf(self, s: int | np.ndarray) -> float | np.ndarray:
        """Lambda_s^inf at a start index s, or at each start of an integer array s."""
        ss = np.asarray(s)
        if ss.size and ss.min() < 0:
            raise InvalidParameter(f"product starts must be >= 0, got {s}")
        limits = np.take(self.back, ss, mode="clip")  # back[min(s, cutoff)], no index copy
        return float(limits) if ss.ndim == 0 else limits


def infinite_products(schedule: CompetitionSchedule, tail_eps: float = TAIL_EPS) -> InfiniteProducts:
    """The closed-form facts of a schedule's Lambda_s^inf table; `back` builds the table on first read.

    Only the exponential kind is truncated, at cutoff = ceil(-log(tail_eps) / rate),
    the first step with lambda_k <= tail_eps; tail_eps must lie in (0, 1).
    A rate so small that the table would pass MAX_TERMS raises InvalidParameter.
    """
    # exact: zero, a summable (lam = 0) constant and custom past its seq have every factor 1, and every
    # limit of a non-summable kind is 0: (1 - lam)^m -> 0 for lam > 0, and hyperbolic Lambda_s^t = s / (t + 1)
    exact = schedule.kind is not ScheduleKind.EXPONENTIAL
    cutoff = len(schedule.seq) if schedule.kind is ScheduleKind.CUSTOM else 0
    remainder = 0.0
    if not exact:
        rate = schedule.rate
        if not 0.0 < tail_eps < 1.0:
            raise InvalidParameter(f"tail_eps must lie in (0, 1), got {tail_eps}")
        # -log, not log(1 / tail_eps), which overflows for a subnormal tail_eps
        terms = -math.log(tail_eps) / rate
        if terms > MAX_TERMS:
            raise InvalidParameter(
                f"exponential rate {rate} is too small for tail_eps = {tail_eps}: "
                f"needs {terms:.3g} terms, cap MAX_TERMS = {MAX_TERMS}"
            )
        cutoff = max(1, math.ceil(terms))
        remainder = math.exp(-rate * cutoff) / (1.0 - math.exp(-rate))
    return InfiniteProducts(schedule, exact, cutoff, remainder)


@dataclass(frozen=True)
class NonUniformSchedule:
    """Per-agent competition levels lambda_t^i of the adversarial construction.

    The target agent is held at full competition (lambda = 1) through step
    tstar and everyone else is at 0, after which the run is plain consensus.
    `iterate` runs it as the zero schedule with the target pinned to its
    start opinion, which the per-agent step gives bit for bit.
    """

    tstar: int
    target: int

    def __post_init__(self):
        # iterate checks target < n, the one bound that needs the network
        if self.tstar < 0:
            raise InvalidParameter(f"tstar must be >= 0, got {self.tstar}")
        if self.target < 0:
            raise InvalidParameter(f"target must be >= 0, got {self.target}")


def make_adversarial_nonuniform(tstar: int, target: int) -> NonUniformSchedule:
    """Hold the target at lambda = 1 for t <= tstar, 0 otherwise and for all others."""
    return NonUniformSchedule(tstar=int(tstar), target=int(target))
