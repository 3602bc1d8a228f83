"""Friedkin-Johnsen updates with time-varying competition, and their closed form.

The uniform update is x_{t+1} = (1 - lambda_t) W x_t + lambda_t x_0; the
adversarial variant holds one agent at its start opinion through tstar.
`iterate` is the one kernel that steps states, of one start under one
schedule per column; `modal_distances` gets l2 distances without them.
Every step uses the same evaluation order (the product with W first,
then the convex combination), and a held target is pinned to x_0 after
it, so a held run past tstar is bit-identical to the zero schedule.
`gains` is the one scalar recursion, g_{t+1} = mu (1 - lambda_t) g_t + lambda_t,
that both `modal_distances` and `bounds.lower_bound_series` read.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonUniformUnsupported,
)
from .network import WeightedNetwork
from .schedules import CompetitionSchedule, NonUniformSchedule


CHUNK = 1024  # steps of lambda values drawn per table
BUFFER_ELEMENTS = 2**16  # numbers in one lambda table, and in one buffer simulate reduces


def gains(mu: float | np.ndarray, schedule: CompetitionSchedule, horizon: int) -> Iterator[float | np.ndarray]:
    """Yield g_0 = 1, ..., g_horizon of g_{t+1} = mu (1 - lambda_t) g_t + lambda_t, for a float mu
    or an array of them (broadcast at the first step), of either sign. Lambda is drawn CHUNK steps
    at a time as Python floats, so a float mu stays on Python floats, with no numpy scalars."""
    lams = itertools.chain.from_iterable(schedule.values(np.arange(lo, min(lo + CHUNK, horizon))).tolist()
                                         for lo in range(0, horizon, CHUNK))
    return itertools.accumulate(lams, lambda g, lam: mu * (1.0 - lam) * g + lam, initial=1.0)


def _start(weighted: WeightedNetwork, x0: np.ndarray) -> np.ndarray:
    """x0 as a float copy the caller cannot touch, checked to be a finite n vector."""
    x0 = np.array(x0, dtype=float)
    if x0.shape != (weighted.n,):
        raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({weighted.n},)")
    if not np.isfinite(x0).all():
        raise InvalidParameter("x0 must be finite")
    return x0


def iterate(
    weighted: WeightedNetwork,
    x0: np.ndarray,
    schedule: CompetitionSchedule | NonUniformSchedule | Sequence[CompetitionSchedule | NonUniformSchedule],
) -> Iterator[np.ndarray]:
    """Yield the states x_0, x_1, x_2, ... of the dynamics, without end.

    x0 is one start, an n vector; `schedule` is one schedule, or a list of S
    run as the columns of a block of S C-contiguous rows, one product with
    W.T per step. Each state is a new n vector (or n x S `.T` view), never
    touched again. Shape, finiteness and held targets are checked at the
    first draw. Each step x <- (1 - lam) x W.T + lam x0 reads one lambda per
    column from a table of at most CHUNK rows and BUFFER_ELEMENTS numbers,
    valid since each schedule checked itself when built. A held column reads
    0, then pins its target to x0[target] through step tstar: the per-agent
    step's bits.
    """
    x0 = _start(weighted, x0)
    per_column = isinstance(schedule, (list, tuple))
    schedules = list(schedule) if per_column else [schedule]
    if not schedules:
        raise DimensionMismatch("no schedules to run")
    if not all(isinstance(s, (CompetitionSchedule, NonUniformSchedule)) for s in schedules):
        raise InvalidParameter(f"unsupported schedule types {[type(s).__name__ for s in schedules]}")
    held = [(j, s.target, s.tstar) for j, s in enumerate(schedules) if isinstance(s, NonUniformSchedule)]
    for _, target, _ in held:
        if not 0 <= target < weighted.n:
            raise InvalidParameter(f"target {target} out of range for n={weighted.n}")

    def table(ts: np.ndarray) -> np.ndarray:  # lambda at steps ts, a column per schedule
        return np.stack([s.values(ts) if isinstance(s, CompetitionSchedule) else np.zeros(len(ts))
                         for s in schedules], axis=-1)[..., None]

    WT = weighted.W.T
    x = np.tile(x0, (len(schedules), 1))
    rows = max(1, min(CHUNK, BUFFER_ELEMENTS // len(schedules)))  # lambda_0, lambda_1, ... as table rows
    lams = enumerate(itertools.chain.from_iterable(table(np.arange(t, t + rows)) for t in itertools.count(0, rows)))
    while True:
        yield x.T if per_column else x[0]
        t, lam = next(lams)
        x = x @ WT
        x *= 1.0 - lam
        x += lam * x0
        for j, target, tstar in held:
            if t <= tstar:
                x[j, target] = x0[target]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Distance-to-consensus series of a simulated run.

    distances[t] is the l2 distance |x_t - x_ss 1| and avg_distances[t] the
    mean absolute deviation from x_ss, for t = 0..horizon, around the
    start's one consensus value x_ss. For a list of S schedules both are
    (horizon + 1) x S arrays, one column per schedule. No state is kept.
    """

    weighted: WeightedNetwork
    x_ss: float
    horizon: int
    distances: np.ndarray
    avg_distances: np.ndarray

    def column(self, j: int) -> Trajectory:
        """The run of schedule column j, its series as views of the block's."""
        return replace(self, distances=self.distances[:, j], avg_distances=self.avg_distances[:, j])

    def converged_at(self, eps: float, window: int = 10) -> int | None:
        """Smallest t with distances below eps for `window` consecutive steps
        (for a block, in every column)."""
        below = (self.distances < eps).reshape(self.horizon + 1, -1).all(axis=1)
        seen = np.concatenate(([0], np.cumsum(below)))  # below steps before t
        ends = seen[window:]
        starts = np.flatnonzero(ends - seen[:ends.size] == window)
        return int(starts[0]) if starts.size else None


def simulate(
    weighted: WeightedNetwork,
    x0: np.ndarray,
    schedule: CompetitionSchedule | NonUniformSchedule | Sequence[CompetitionSchedule | NonUniformSchedule],
    horizon: int,
) -> Trajectory:
    """Run the dynamics for `horizon` steps from x0 and record its distances.

    x0 is an n vector and `schedule` one uniform or held schedule, or a list
    of S run as the columns of one block. `iterate` steps e_0 = x0 - x_ss 1,
    x_ss = perron^T x0 (no factorization runs): the recursion anchors on its
    start, so it yields e_t = x_t - x_ss 1, free of W's row sums rounding off 1.
    Buffers of at most BUFFER_ELEMENTS numbers and CHUNK rows hold one column
    per contiguous row and are reduced in one call each: norms by stacked BLAS
    ddot, as in `np.linalg.norm`, and means along the row. So a block column
    reduces bit for bit like a single run of its deviations.
    """
    if horizon < 0:
        raise InvalidParameter(f"horizon must be >= 0, got {horizon}")
    x0 = _start(weighted, x0)
    x_ss = weighted.consensus_value(x0)
    devs = iterate(weighted, x0 - x_ss, schedule)
    start = next(devs)
    distances = np.empty((horizon + 1, *start.shape[1:]))
    avg_distances = np.empty_like(distances)
    rows = max(1, min(CHUNK, BUFFER_ELEMENTS // start.size))
    buf = np.empty((rows, *start.T.shape))
    stream = itertools.chain([start], devs)
    for lo in range(0, horizon + 1, rows):
        hi = min(lo + rows, horizon + 1)
        dev = buf[:hi - lo]
        for i in range(hi - lo):
            dev[i] = next(stream).T
        distances[lo:hi] = np.sqrt(np.matmul(dev[..., None, :], dev[..., None])[..., 0, 0])
        avg_distances[lo:hi] = np.abs(dev, out=dev).mean(axis=-1)
    return Trajectory(weighted=weighted, x_ss=x_ss, horizon=horizon, distances=distances, avg_distances=avg_distances)


def modal_distances(
    weighted: WeightedNetwork, starts: np.ndarray, schedule: CompetitionSchedule, horizon: int
) -> Iterator[np.ndarray]:
    """Yield `simulate`'s l2 distances |x_t - x_ss 1|, t = 0..horizon, of one start
    or an n x B block under a uniform schedule, evaluated in symmetric W's eigenbasis.

    e_t = x_t - x_ss 1 obeys e_{t+1} = (1 - lambda_t) W e_t + lambda_t e_0, so
    each mode (mu, v) of `weighted.modes` scales v^T e_0 by its gain g_t from
    `gains`, the recursion `bounds.lower_bound_series` reads at sigma_max:
    d_t^2 = sum g_t^2 (v^T e_0)^2. That costs O(n B) a step, with no product
    with W; each buffer of at most BUFFER_ELEMENTS gains is reduced and yielded
    as a new block of its rows, which `np.concatenate` stacks into the series.
    """
    if horizon < 0:
        raise InvalidParameter(f"horizon must be >= 0, got {horizon}")
    if not isinstance(schedule, CompetitionSchedule):
        raise NonUniformUnsupported("modal distances need a uniform schedule")
    mu, V = weighted.modes
    starts = np.asarray(starts, dtype=float)
    C2 = np.square(V.T @ (starts - weighted.consensus_value(starts)))
    rows = max(1, min(CHUNK, BUFFER_ELEMENTS // weighted.n))
    G, g = np.empty((rows, weighted.n)), gains(mu, schedule, horizon)
    for lo in range(0, horizon + 1, rows):
        block = G[:min(rows, horizon + 1 - lo)]
        for i, gain in enumerate(itertools.islice(g, len(block))):
            block[i] = gain
        yield np.sqrt(D := np.square(block, out=block) @ C2, out=D)


@dataclass(frozen=True, eq=False)
class TransitionDecomposition:
    """x_t = (psi_aut + psi_in) x_0.

    psi_aut = Lambda_0^{t-1} W^t carries the autonomous (consensus) part;
    psi_in = sum_{k=0}^{t-1} Lambda_{k+1}^{t-1} W^{t-1-k} lambda_k carries
    the input injections. Both are entrywise nonnegative and their sum is
    row stochastic.
    """

    t: int
    psi_aut: np.ndarray
    psi_in: np.ndarray


class TransitionCalculator:
    """Evaluates the transition decomposition by its one-step recurrence.

    psi_aut <- (1 - lambda_t) W psi_aut and
    psi_in <- (1 - lambda_t) W psi_in + lambda_t I advance t by one, so
    memory is O(n^2) whatever t. `at` continues from the last step it
    computed and starts again from t = 0 when asked for an earlier one.
    """

    def __init__(self, weighted: WeightedNetwork, schedule: CompetitionSchedule):
        if not isinstance(schedule, CompetitionSchedule):
            raise NonUniformUnsupported("transition decomposition is defined for uniform schedules")
        self.W = weighted.W
        self.schedule = schedule
        self._eye = np.eye(weighted.n)
        self._restart()

    def _restart(self) -> None:
        self._t = 0
        self._aut = self._eye
        self._in = np.zeros_like(self._eye)

    def at(self, t: int) -> TransitionDecomposition:
        if t < 0:
            raise InvalidParameter(f"t must be >= 0, got {t}")
        if t < self._t:
            self._restart()
        while self._t < t:
            lam = self.schedule.value(self._t)
            self._aut = (1.0 - lam) * (self.W @ self._aut)
            self._in = (1.0 - lam) * (self.W @ self._in) + lam * self._eye
            self._t += 1
        return TransitionDecomposition(t=t, psi_aut=self._aut.copy(), psi_in=self._in.copy())
