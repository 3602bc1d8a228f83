"""Friedkin-Johnsen updates with time-varying competition, and their closed form.

The uniform update is x_{t+1} = (1 - lambda_t) W x_t + lambda_t x_0; the
non-uniform variant applies a per-agent competition vector elementwise.
`iterate` is the one simulation kernel: it streams the states of one start
or of a block of starts, and every consumer reduces the stream itself.
Every step uses the same evaluation order (the product with W first,
then the convex combination), so a uniform schedule and the equivalent
constant per-agent vector produce bit-identical trajectories.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

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


CHUNK = 1024  # uniform lambda values drawn per schedule.values call
BUFFER_ELEMENTS = 2**16  # states simulate reduces per call, at most CHUNK rows


def _apply_step(WT: np.ndarray, x: np.ndarray, x0: np.ndarray, lam) -> np.ndarray:
    """(1 - lam) (x @ W.T) + lam x0 for x one start or one start per row;
    a scalar or n-vector lam broadcasts along the last axis."""
    y = x @ WT
    y *= 1.0 - lam
    y += lam * x0
    return y


def iterate(
    weighted: WeightedNetwork,
    x0: np.ndarray,
    schedule: CompetitionSchedule | NonUniformSchedule,
) -> Iterator[np.ndarray]:
    """Yield the states x_0, x_1, x_2, ... of the dynamics, without end.

    x0 is one start (an n vector) or a block of starts (an n x B array, one
    start per column); a block advances as C-contiguous B x n rows and is
    yielded as their n x B `.T` view. Shape and finiteness are checked when
    the first state is drawn. A uniform schedule's values come CHUNK at a
    time from `schedule.values` (bit-identical to `schedule.value`), each
    checked against [0, 1] before its step. Yielded arrays are new and never
    touched again, so memory stays O(n B) whatever the number of steps.
    """
    n = weighted.n
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[0] != n:
        raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({n},) or ({n}, B)")
    if not np.isfinite(x0).all():
        raise InvalidParameter("x0 must be finite")
    uniform = isinstance(schedule, CompetitionSchedule)
    if not uniform and not isinstance(schedule, NonUniformSchedule):
        raise InvalidParameter(f"unsupported schedule type {type(schedule).__name__}")
    WT = weighted.W.T
    x0 = np.array(x0.T, order="C")  # one start per row, a copy the caller cannot touch
    x = x0.copy()
    t = 0
    while True:
        yield x.T
        if uniform:
            if t % CHUNK == 0:
                lams = schedule.values(np.arange(t, t + CHUNK)).tolist()
            lam = lams[t % CHUNK]
            if not 0.0 <= lam <= 1.0:
                raise InvalidParameter(f"lambda_{t} = {lam} outside [0, 1]")
        else:
            lam = schedule.vector(t, n)
        x = _apply_step(WT, x, x0, lam)
        t += 1


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Distance-to-consensus series of a simulated run, with its end states.

    distances[t] is the l2 distance |x_t - x_ss 1| and avg_distances[t] the
    mean absolute deviation from x_ss, for t = 0..horizon. For a block of B
    starts both are (horizon + 1) x B arrays and x_ss holds one value per
    column. Only the start and the final state are kept.
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
    schedule: CompetitionSchedule | NonUniformSchedule,
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
    schedule : CompetitionSchedule or NonUniformSchedule
        Uniform or per-agent competition levels.
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
    x_ss = weighted.consensus_value(start)
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
    if weighted.spectral is None:
        raise InvalidParameter("spectral data not computed for this weighted network")
    table = infinite_products(schedule, trunc)
    scalar = 1.0 - table.lam_to_inf(0)
    return scalar * weighted.spectral.perron
