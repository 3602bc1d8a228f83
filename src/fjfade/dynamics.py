"""Friedkin-Johnsen updates with time-varying competition, and their closed form.

The uniform update is x_{t+1} = (1 - lambda_t) W x_t + lambda_t x_0; the
non-uniform variant applies a per-agent competition vector elementwise.
`iterate` is the one simulation kernel: it streams the states of one start
or of a block, one schedule per column, and every consumer reduces them.
Every step uses the same evaluation order (the product with W first,
then the convex combination), so a uniform schedule and the equivalent
constant per-agent vector produce bit-identical trajectories.
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
    NonVanishingSchedule,
)
from .network import WeightedNetwork
from .schedules import (
    DEFAULT_TRUNCATION,
    CompetitionSchedule,
    NonUniformSchedule,
    TruncationPolicy,
    infinite_products,
)


CHUNK = 1024  # steps of lambda values drawn per table
BUFFER_ELEMENTS = 2**16  # numbers in one lambda table, and in one buffer simulate reduces


def _apply_step(WT: np.ndarray, x: np.ndarray, x0: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(1 - lam) (x @ W.T) + lam x0, one start per row; lam broadcasts."""
    y = x @ WT
    y *= 1.0 - lam
    y += lam * x0
    return y


def iterate(
    weighted: WeightedNetwork,
    x0: np.ndarray,
    schedule: CompetitionSchedule | NonUniformSchedule | Sequence[CompetitionSchedule | NonUniformSchedule],
) -> Iterator[np.ndarray]:
    """Yield the states x_0, x_1, x_2, ... of the dynamics, without end.

    x0 is one start (an n vector) or an n x B block; `schedule` is one
    schedule, or a list of one per column (of B starts, or of one start run
    under each). The block advances as C-contiguous rows, one product with
    W.T per step; each state is a new n x columns `.T` view (an n vector for
    one start under one schedule), never touched again. Shape and finiteness
    are checked at the first draw. Each step reads one row of a table of
    `values(ts)` or `values(ts, n)`, at most CHUNK rows and BUFFER_ELEMENTS
    numbers; a value outside [0, 1] raises before its step.
    """
    n = weighted.n
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[0] != n:
        raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({n},) or ({n}, B)")
    if not np.isfinite(x0).all():
        raise InvalidParameter("x0 must be finite")
    per_column = isinstance(schedule, (list, tuple))
    schedules = list(schedule) if per_column else [schedule]
    if not all(isinstance(s, (CompetitionSchedule, NonUniformSchedule)) for s in schedules):
        raise InvalidParameter(f"unsupported schedule types {[type(s).__name__ for s in schedules]}")
    starts = 1 if x0.ndim == 1 else x0.shape[1]
    columns = len(schedules) if per_column else starts
    if not columns or starts not in (1, columns):
        raise DimensionMismatch(f"{len(schedules)} schedules for {starts} starts")
    width = n if any(isinstance(s, NonUniformSchedule) for s in schedules) else 1
    rows = max(1, min(CHUNK, BUFFER_ELEMENTS // (len(schedules) * width)))
    row = (len(schedules), width) if per_column else (n,) * (width > 1)  # a lambda row per column, or one shared
    WT = weighted.W.T
    x0 = np.array(x0.T, order="C")  # one start per row, a copy the caller cannot touch
    x = np.broadcast_to(x0, (columns, n) if per_column else x0.shape).copy()
    t = 0
    while True:
        yield x.T
        i = t % rows
        if i == 0:  # lambda_t..lambda_{t+rows-1}, one schedule per column
            ts = np.arange(t, t + rows)
            table = np.empty((rows, len(schedules), width))
            for j, s in enumerate(schedules):
                table[:, j] = s.values(ts, n) if isinstance(s, NonUniformSchedule) else s.values(ts)[:, None]
            bad = np.argwhere(~((table >= 0.0) & (table <= 1.0)))  # in row-major order
            stop = bad[0, 0] if len(bad) else rows
            lam = table.reshape(rows, *row)
        if i == stop:
            raise InvalidParameter(f"lambda_{t} = {table[tuple(bad[0])]} outside [0, 1]")
        x = _apply_step(WT, x, x0, lam[i])
        t += 1


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Distance-to-consensus series of a simulated run, with its end states.

    distances[t] is the l2 distance |x_t - x_ss 1| and avg_distances[t] the
    mean absolute deviation from x_ss, for t = 0..horizon. For a block of B
    columns both are (horizon + 1) x B arrays and x_ss holds one value per
    column, or one for all. Only the start and the final state are kept.
    """

    weighted: WeightedNetwork
    x0: np.ndarray
    x_ss: float | np.ndarray
    horizon: int
    distances: np.ndarray
    avg_distances: np.ndarray
    _x_final: np.ndarray

    def x(self, t: int) -> np.ndarray:
        """Opinions at step t, which must be 0 or the horizon."""
        if t == self.horizon:
            return self._x_final.copy()
        if t == 0:
            return self.x0.copy()
        raise InvalidParameter(f"only steps 0 and {self.horizon} are kept, got t={t}")

    def column(self, j: int) -> Trajectory:
        """The run of block column j, its series as views of the block's."""
        x_ss = self.x_ss[j] if np.ndim(self.x_ss) else self.x_ss
        return replace(self, x0=self.x0[:, j], x_ss=x_ss, distances=self.distances[:, j],
                       avg_distances=self.avg_distances[:, j], _x_final=self._x_final[:, j])

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

    Parameters
    ----------
    weighted : WeightedNetwork
        Weight matrix with spectral data (needed for the nominal consensus
        value x_ss = perron^T x0).
    x0 : array
        Initial opinions: an n vector, or an n x B block of starts that are
        simulated together, one per column.
    schedule : CompetitionSchedule, NonUniformSchedule or a list of them
        Uniform or per-agent levels, for every column or one per column.
    horizon : int
        Number of steps T; the distance series cover steps 0..T, and the
        trajectory keeps x_0 and x_T.

    Buffers of at most BUFFER_ELEMENTS numbers and CHUNK rows hold one start
    per contiguous row and are reduced in one call each: norms by stacked
    BLAS ddot, as in `np.linalg.norm`, and means along the row. So a block
    column reduces bit for bit like a single run of its states.
    """
    if horizon < 0:
        raise InvalidParameter(f"horizon must be >= 0, got {horizon}")
    states = iterate(weighted, x0, schedule)
    start = next(states)
    x_ss = weighted.consensus_value(start if np.ndim(x0) == 2 else x0)
    distances = np.empty((horizon + 1, *start.shape[1:]))
    avg_distances = np.empty_like(distances)
    rows = max(1, min(CHUNK, BUFFER_ELEMENTS // max(start.size, 1)))
    buf = np.empty((rows, *start.T.shape))
    center = np.asarray(x_ss)[..., None]  # one value per row
    stream = itertools.chain([start], states)
    for lo in range(0, horizon + 1, rows):
        hi = min(lo + rows, horizon + 1)
        dev = buf[:hi - lo]
        for i in range(hi - lo):
            dev[i] = (x := next(stream)).T
        np.subtract(dev, center, out=dev)
        distances[lo:hi] = np.sqrt(np.matmul(dev[..., None, :], dev[..., None])[..., 0, 0])
        avg_distances[lo:hi] = np.abs(dev, out=dev).mean(axis=-1)
    return Trajectory(
        weighted=weighted,
        x0=start,
        x_ss=x_ss,
        horizon=horizon,
        distances=distances,
        avg_distances=avg_distances,
        _x_final=x,
    )


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

    def __init__(self, weighted: WeightedNetwork | np.ndarray, schedule: CompetitionSchedule):
        if isinstance(weighted, WeightedNetwork):
            W = weighted.W
        else:
            W = np.asarray(weighted, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise DimensionMismatch(f"W must be square, got {W.shape}")
        if not isinstance(schedule, CompetitionSchedule):
            raise NonUniformUnsupported("transition decomposition is defined for uniform schedules")
        self.W = W
        self.schedule = schedule
        self._eye = np.eye(W.shape[0])
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


def transition_decomposition(
    weighted: WeightedNetwork | np.ndarray,
    schedule: CompetitionSchedule,
    t: int,
) -> TransitionDecomposition:
    """One-shot transition decomposition at step t."""
    return TransitionCalculator(weighted, schedule).at(t)


def input_limit_vector(
    weighted: WeightedNetwork,
    schedule: CompetitionSchedule,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> np.ndarray:
    """The vector y with lim_t psi_in(t) = 1 y^T for a vanishing schedule.

    The scalar series sum_k Lambda_{k+1}^inf lambda_k together with
    Lambda_0^inf partitions unity, so y = perron * (1 - Lambda_0^inf). For
    the hyperbolic schedule Lambda_0^inf = 0 and y equals the Perron vector:
    the steady state is reached through the input sequence alone. For the
    zero schedule y = 0: nothing is ever injected.
    """
    if not schedule.vanishing:
        raise NonVanishingSchedule("input limit requires lambda_t -> 0")
    table = infinite_products(schedule, trunc)
    scalar = 1.0 - table.lam_to_inf(0)
    return scalar * weighted.perron
