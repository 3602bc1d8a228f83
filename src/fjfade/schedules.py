"""Competition schedules lambda_t and products of (1 - lambda_k).

A schedule assigns every step t a competition level lambda_t in [0, 1].
The running products Lambda_s^t = prod_{k=s}^{t} (1 - lambda_k), with the
empty product equal to 1 for s > t, drive both the transition decomposition
and the convergence-rate bounds, so they are computed here once, carefully.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameter, NonVanishingTail


class ScheduleKind(str, Enum):
    CONSTANT = "constant"
    EXPONENTIAL = "exponential"
    HYPERBOLIC = "hyperbolic"
    ZERO = "zero"
    CUSTOM = "custom"


@dataclass(frozen=True)
class CompetitionSchedule:
    """Uniform (agent-independent) competition schedule.

    kind selects the decay law:
      constant     lambda_t = lam
      exponential  lambda_t = exp(-rate * t)
      hyperbolic   lambda_t = 1 / (t + 1)
      zero         lambda_t = 0 (plain consensus)
      custom       lambda_t = seq[t] while t < len(seq), 0 afterward
    """

    kind: ScheduleKind
    lam: float = 0.0
    rate: float = 0.0
    seq: tuple[float, ...] = ()

    def value(self, t: int) -> float:
        """lambda_t for a single step index t >= 0."""
        if t < 0:
            raise InvalidParameter(f"step index must be >= 0, got {t}")
        if self.kind is ScheduleKind.CONSTANT:
            return self.lam
        if self.kind is ScheduleKind.EXPONENTIAL:
            # np.exp, not math.exp: keeps value() bit-identical to values()
            return float(np.exp(-self.rate * t))
        if self.kind is ScheduleKind.HYPERBOLIC:
            return 1.0 / (t + 1)
        if self.kind is ScheduleKind.ZERO:
            return 0.0
        return self.seq[t] if t < len(self.seq) else 0.0

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized lambda_t over an integer array of step indices."""
        ts = np.asarray(ts)
        if ts.size and ts.min() < 0:
            raise InvalidParameter("step indices must be >= 0")
        if self.kind is ScheduleKind.CONSTANT:
            return np.full(ts.shape, self.lam)
        if self.kind is ScheduleKind.EXPONENTIAL:
            return np.exp(-self.rate * ts)
        if self.kind is ScheduleKind.HYPERBOLIC:
            return 1.0 / (ts + 1.0)
        if self.kind is ScheduleKind.ZERO:
            return np.zeros(ts.shape)
        out = np.zeros(ts.shape)
        inside = ts < len(self.seq)
        if inside.any():
            out[inside] = np.asarray(self.seq)[ts[inside]]
        return out

    @property
    def vanishing(self) -> bool:
        """True when lambda_t -> 0."""
        if self.kind is ScheduleKind.CONSTANT:
            return self.lam == 0.0
        return True

    @property
    def summable(self) -> bool:
        """True when sum_t lambda_t is finite.

        Summable vanishing schedules have Lambda_t^inf -> 1; the hyperbolic
        schedule is the canonical non-summable case with Lambda_s^inf = 0.
        """
        if self.kind is ScheduleKind.CONSTANT:
            return self.lam == 0.0
        return self.kind is not ScheduleKind.HYPERBOLIC

    @property
    def label(self) -> str:
        if self.kind is ScheduleKind.CONSTANT:
            return f"constant_{self.lam:g}"
        if self.kind is ScheduleKind.EXPONENTIAL:
            return f"exponential_{self.rate:g}"
        return self.kind.value

    def describe(self) -> dict:
        d = {"kind": self.kind.value}
        if self.kind is ScheduleKind.CONSTANT:
            d["lam"] = self.lam
        elif self.kind is ScheduleKind.EXPONENTIAL:
            d["rate"] = self.rate
        elif self.kind is ScheduleKind.CUSTOM:
            d["seq"] = list(self.seq)
        return d


def make_schedule(kind: str | ScheduleKind, **params) -> CompetitionSchedule:
    """Validated constructor for the built-in schedule kinds."""
    try:
        kind = ScheduleKind(kind)
    except ValueError:
        raise InvalidParameter(
            f"unknown schedule kind {kind!r}; expected one of {[k.value for k in ScheduleKind]}"
        ) from None
    if kind is ScheduleKind.CONSTANT:
        lam = float(params.pop("lam"))
        _reject_extra(params)
        if not 0.0 <= lam <= 1.0:
            raise InvalidParameter(f"constant level must lie in [0, 1], got {lam}")
        return CompetitionSchedule(kind, lam=lam)
    if kind is ScheduleKind.EXPONENTIAL:
        rate = float(params.pop("rate"))
        _reject_extra(params)
        if not rate > 0.0:
            raise InvalidParameter(f"exponential rate must be > 0, got {rate}")
        return CompetitionSchedule(kind, rate=rate)
    if kind is ScheduleKind.CUSTOM:
        seq = tuple(float(v) for v in params.pop("seq"))
        _reject_extra(params)
        if any(not 0.0 <= v <= 1.0 for v in seq):
            raise InvalidParameter("custom schedule values must lie in [0, 1]")
        if any(b > a for a, b in zip(seq, seq[1:])):
            warnings.warn("custom schedule is not non-increasing", stacklevel=2)
        return CompetitionSchedule(kind, seq=seq)
    _reject_extra(params)
    return CompetitionSchedule(kind)


def _reject_extra(params: dict) -> None:
    if params:
        raise InvalidParameter(f"unexpected schedule parameters: {sorted(params)}")


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


@dataclass(frozen=True)
class TruncationPolicy:
    """Cutoffs for infinite products and tail series.

    tail_eps: once lambda_k < tail_eps with a certified bound on the
      remaining sum of lambda, the product/series is truncated there.
    max_terms: safety cap on table sizes.
    """

    tail_eps: float = 1e-14
    max_terms: int = 5_000_000


DEFAULT_TRUNCATION = TruncationPolicy()


def lambda_product(
    schedule: CompetitionSchedule,
    s: int,
    t: int | float,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> float:
    """Lambda_s^t = prod_{k=s}^{t} (1 - lambda_k), with Lambda_s^t = 1 for s > t.

    t may be math.inf, in which case the limit is returned: exactly where a
    closed form exists (constant, hyperbolic, zero, custom), otherwise via a
    truncated product governed by trunc.
    """
    if s < 0:
        raise InvalidParameter(f"product start must be >= 0, got {s}")
    if t is math.inf or t == math.inf:
        return infinite_products(schedule, trunc).lam_to_inf(int(s))
    t = int(t)
    if s > t:
        return 1.0
    return float(np.prod(1.0 - schedule_values(schedule, s, t + 1)))


def schedule_values(schedule: CompetitionSchedule, lo: int, hi: int) -> np.ndarray:
    """lambda_k for k in [lo, hi)."""
    return schedule.values(np.arange(lo, hi))


def suffix_products(schedule: CompetitionSchedule, t: int) -> np.ndarray:
    """Array R with R[j] = Lambda_j^t for j = 0..t+1 (R[t+1] = 1).

    Shared kernel for the partition identity, the transition decomposition
    and the rate bounds; all of them consume every suffix product at once.
    """
    if t < 0:
        return np.ones(1)
    f = 1.0 - schedule_values(schedule, 0, t + 1)
    out = np.ones(t + 2)
    out[:-1] = np.cumprod(f[::-1])[::-1]
    return out


def partition_of_unity(schedule: CompetitionSchedule, t: int) -> float:
    """Lambda_0^t + sum_{k=0}^{t} Lambda_{k+1}^t lambda_k, identically 1."""
    if t < 0:
        raise InvalidParameter(f"t must be >= 0, got {t}")
    r = suffix_products(schedule, t)
    lam = schedule_values(schedule, 0, t + 1)
    return float(r[0] + np.sum(r[1:] * lam))


@dataclass(frozen=True)
class InfiniteProducts:
    """Precomputed limits Lambda_s^inf and the tail series of a schedule.

    back[j] holds prod_{i=j}^{cutoff-1} (1 - lambda_i); the factors beyond
    cutoff multiply to something within [1 - remainder, 1], where remainder
    bounds sum_{k>=cutoff} lambda_k. For kinds with a closed form the table
    is exact and remainder is 0.
    """

    schedule: CompetitionSchedule
    exact: bool
    cutoff: int
    back: np.ndarray
    remainder: float
    limit_is_zero: bool = False

    def lam_to_inf(self, s: int) -> float:
        """Lambda_s^inf."""
        if s < 0:
            raise InvalidParameter(f"product start must be >= 0, got {s}")
        if self.limit_is_zero:
            return 0.0
        return float(self.back[min(s, self.cutoff)])

    def lam_to_inf_array(self, ss: np.ndarray) -> np.ndarray:
        """Lambda_s^inf over an array of start indices."""
        ss = np.asarray(ss)
        if ss.size and ss.min() < 0:
            raise InvalidParameter("product starts must be >= 0")
        if self.limit_is_zero:
            return np.zeros(ss.shape)
        return self.back[np.minimum(ss, self.cutoff)]

    def tail_sum(self, t: int) -> float:
        """sum_{k=t}^{inf} Lambda_{k+1}^inf lambda_k (series of the limits).

        Each term is Lambda_{k+1}^inf - Lambda_k^inf, so the series
        telescopes to 1 - Lambda_t^inf. For the non-summable hyperbolic
        schedule every Lambda_{k+1}^inf is 0 and the series is 0. For
        truncated tables the certified remainder is added, so the returned
        value never undershoots the true series.
        """
        if t < 0:
            raise InvalidParameter(f"t must be >= 0, got {t}")
        if self.limit_is_zero:
            return 0.0
        return 1.0 - self.lam_to_inf(t) + self.remainder

    def describe(self) -> dict:
        return {
            "kind": self.schedule.kind.value,
            "exact": self.exact,
            "cutoff": self.cutoff,
            "tail_remainder": self.remainder,
        }


def infinite_products(
    schedule: CompetitionSchedule, trunc: TruncationPolicy = DEFAULT_TRUNCATION
) -> InfiniteProducts:
    """Build the Lambda_s^inf table for a schedule under a truncation policy."""
    kind = schedule.kind
    if kind is ScheduleKind.ZERO or (kind is ScheduleKind.CONSTANT and schedule.lam == 0.0):
        return InfiniteProducts(schedule, exact=True, cutoff=0, back=np.ones(1), remainder=0.0)
    if kind is ScheduleKind.CONSTANT:
        # (1 - lam)^m -> 0 for lam > 0: the limit is exact even though the
        # schedule is non-vanishing, so no truncation loop is needed.
        return InfiniteProducts(
            schedule, exact=True, cutoff=0, back=np.ones(1), remainder=0.0, limit_is_zero=True
        )
    if kind is ScheduleKind.HYPERBOLIC:
        # Lambda_s^t = s / (t + 1), so every Lambda_s^inf is exactly 0.
        return InfiniteProducts(
            schedule, exact=True, cutoff=0, back=np.ones(1), remainder=0.0, limit_is_zero=True
        )
    if kind is ScheduleKind.CUSTOM:
        k = len(schedule.seq)
        back = np.ones(k + 1)
        if k:
            back[:-1] = np.cumprod((1.0 - np.asarray(schedule.seq))[::-1])[::-1]
        return InfiniteProducts(schedule, exact=True, cutoff=k, back=back, remainder=0.0)
    if kind is ScheduleKind.EXPONENTIAL:
        rate = schedule.rate
        cutoff = max(1, math.ceil(math.log(1.0 / trunc.tail_eps) / rate))
        if cutoff > trunc.max_terms:
            raise InvalidParameter(
                f"exponential rate {rate} is too small for the truncation policy "
                f"(needs {cutoff} terms, cap {trunc.max_terms})"
            )
        back = np.ones(cutoff + 1)
        back[:-1] = np.cumprod((1.0 - schedule_values(schedule, 0, cutoff))[::-1])[::-1]
        remainder = math.exp(-rate * cutoff) / (1.0 - math.exp(-rate))
        return InfiniteProducts(schedule, exact=False, cutoff=cutoff, back=back, remainder=remainder)
    raise NonVanishingTail(f"no tail handling for schedule kind {kind!r}")


@dataclass(frozen=True)
class NonUniformSchedule:
    """Per-agent competition levels lambda_t^i.

    The adversarial construction pins one target agent at full competition
    through step tstar and leaves everyone else at 0, after which the run
    is plain consensus.
    """

    tstar: int
    target: int

    def values(self, ts: np.ndarray, n: int) -> np.ndarray:
        """len(ts) x n array of lambda_t^i over an integer array of step indices."""
        ts = np.asarray(ts)
        if ts.size and ts.min() < 0:
            raise InvalidParameter("step indices must be >= 0")
        if not 0 <= self.target < n:
            raise InvalidParameter(f"target {self.target} out of range for n={n}")
        lam = np.zeros((ts.size, n))
        lam[:, self.target] = ts <= self.tstar
        return lam

    def describe(self) -> dict:
        return {"kind": "adversarial", "tstar": self.tstar, "target": self.target}


def make_adversarial_nonuniform(tstar: int, target: int) -> NonUniformSchedule:
    """Hold the target at lambda = 1 for t <= tstar, 0 otherwise and for all others."""
    if tstar < 0:
        raise InvalidParameter(f"tstar must be >= 0, got {tstar}")
    if target < 0:
        raise InvalidParameter(f"target must be >= 0, got {target}")
    return NonUniformSchedule(tstar=int(tstar), target=int(target))
