"""Friedkin-Johnsen updates with time-varying competition, and their closed form.

The uniform update is x_{t+1} = (1 - lambda_t) W x_t + lambda_t x_0; the
non-uniform variant applies a per-agent competition vector elementwise.
Every step uses the same evaluation order (matrix-vector product first,
then the convex combination), so a uniform schedule and the equivalent
constant per-agent vector produce bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
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
    schedule_values,
    suffix_products,
)

# full state storage is kept while (horizon + 1) * n stays below this
DENSE_ELEMENT_LIMIT = 20_000_000
CHECKPOINT_STRIDE = 100


@dataclass(frozen=True)
class State:
    """Opinion vector at one time step."""

    t: int
    x: np.ndarray


def _apply_step(W: np.ndarray, x: np.ndarray, x0: np.ndarray, lam) -> np.ndarray:
    y = W @ x
    return (1.0 - lam) * y + lam * x0


def _check_vec(name: str, v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({n},)")
    return v


def step_uniform(state: State, x0: np.ndarray, W: np.ndarray, lam: float) -> State:
    """One uniform update; lam is the scalar competition level at state.t."""
    n = W.shape[0]
    if W.shape != (n, n):
        raise DimensionMismatch(f"W must be square, got {W.shape}")
    x = _check_vec("state.x", state.x, n)
    x0 = _check_vec("x0", x0, n)
    if not 0.0 <= lam <= 1.0:
        raise InvalidParameter(f"lambda must lie in [0, 1], got {lam}")
    return State(t=state.t + 1, x=_apply_step(W, x, x0, lam))


def step_nonuniform(state: State, x0: np.ndarray, W: np.ndarray, lam: np.ndarray) -> State:
    """One per-agent update; lam is the length-n competition vector at state.t."""
    n = W.shape[0]
    if W.shape != (n, n):
        raise DimensionMismatch(f"W must be square, got {W.shape}")
    x = _check_vec("state.x", state.x, n)
    x0 = _check_vec("x0", x0, n)
    lam = _check_vec("lambda", lam, n)
    if lam.min() < 0.0 or lam.max() > 1.0:
        raise InvalidParameter("lambda entries must lie in [0, 1]")
    return State(t=state.t + 1, x=_apply_step(W, x, x0, lam))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated opinion trajectory with its distance-to-consensus series.

    distances[t] is the l2 distance |x_t - x_ss 1|. States are stored
    densely when they fit; otherwise only checkpoints are kept and
    intermediate states are recomputed on demand.
    """

    weighted: WeightedNetwork
    schedule: object
    x0: np.ndarray
    x_ss: float
    horizon: int
    distances: np.ndarray
    _xs: np.ndarray | None = None
    _checkpoints: dict | None = None
    _stride: int = CHECKPOINT_STRIDE

    @property
    def dense(self) -> bool:
        return self._xs is not None

    def x(self, t: int) -> np.ndarray:
        """Opinion vector at step t."""
        if not 0 <= t <= self.horizon:
            raise InvalidParameter(f"t={t} outside [0, {self.horizon}]")
        if self._xs is not None:
            return self._xs[t].copy()
        base = (t // self._stride) * self._stride
        x = self._checkpoints[base].copy()
        for u in range(base, t):
            x = _apply_step(self.weighted.W, x, self.x0, _lambda_at(self.schedule, u, self.weighted.n))
        return x

    def state(self, t: int) -> State:
        return State(t=t, x=self.x(t))

    @property
    def states(self) -> list[State]:
        if self._xs is None:
            raise InvalidParameter("trajectory was stored sparsely; use state(t)")
        return [State(t=t, x=self._xs[t].copy()) for t in range(self.horizon + 1)]

    @property
    def final(self) -> State:
        return self.state(self.horizon)

    def distance(self, t: int) -> float:
        return float(self.distances[t])

    def converged_at(self, eps: float = 1e-8, window: int = 10) -> int | None:
        """Smallest t with distances below eps for `window` consecutive steps."""
        below = self.distances < eps
        run = 0
        for t, ok in enumerate(below):
            run = run + 1 if ok else 0
            if run >= window:
                return t - window + 1
        return None


def _lambda_at(schedule, t: int, n: int):
    if isinstance(schedule, CompetitionSchedule):
        return schedule.value(t)
    if isinstance(schedule, NonUniformSchedule):
        return schedule.vector(t, n)
    raise InvalidParameter(f"unsupported schedule type {type(schedule).__name__}")


def simulate(
    weighted: WeightedNetwork,
    x0: np.ndarray,
    schedule: CompetitionSchedule | NonUniformSchedule,
    horizon: int,
) -> Trajectory:
    """Run the dynamics for `horizon` steps from x0.

    Parameters
    ----------
    weighted : WeightedNetwork
        Weight matrix with spectral data (needed for the nominal consensus
        value x_ss = perron^T x0).
    x0 : array
        Initial opinions.
    schedule : CompetitionSchedule or NonUniformSchedule
        Uniform or per-agent competition levels.
    horizon : int
        Number of steps T; the trajectory holds states 0..T.
    """
    if horizon < 0:
        raise InvalidParameter(f"horizon must be >= 0, got {horizon}")
    n = weighted.n
    x0 = _check_vec("x0", x0, n)
    if not np.isfinite(x0).all():
        raise InvalidParameter("x0 must be finite")
    x_ss = weighted.consensus_value(x0)
    W = weighted.W

    dense = (horizon + 1) * n <= DENSE_ELEMENT_LIMIT
    xs = np.empty((horizon + 1, n)) if dense else None
    checkpoints = None if dense else {}
    distances = np.empty(horizon + 1)

    x = x0.copy()
    for t in range(horizon + 1):
        distances[t] = np.linalg.norm(x - x_ss)
        if dense:
            xs[t] = x
        elif t % CHECKPOINT_STRIDE == 0:
            checkpoints[t] = x.copy()
        if t == horizon:
            break
        lam = _lambda_at(schedule, t, n)
        if isinstance(schedule, CompetitionSchedule):
            if not 0.0 <= lam <= 1.0:
                raise InvalidParameter(f"lambda_{t} = {lam} outside [0, 1]")
        x = _apply_step(W, x, x0, lam)

    return Trajectory(
        weighted=weighted,
        schedule=schedule,
        x0=x0.copy(),
        x_ss=x_ss,
        horizon=horizon,
        distances=distances,
        _xs=xs,
        _checkpoints=checkpoints,
    )


def simulate_until(
    weighted: WeightedNetwork,
    x0: np.ndarray,
    schedule: CompetitionSchedule | NonUniformSchedule,
    eps: float = 1e-8,
    window: int = 10,
    max_steps: int = 1_000_000,
    chunk: int = 512,
) -> Trajectory:
    """Simulate until the distance stays below eps for `window` steps.

    Returns the trajectory up to the step where convergence was certified.
    Raises ConvergenceFailure if max_steps is reached first.
    """
    n = weighted.n
    x0 = _check_vec("x0", x0, n)
    if not np.isfinite(x0).all():
        raise InvalidParameter("x0 must be finite")
    x_ss = weighted.consensus_value(x0)
    W = weighted.W

    xs = [x0.copy()]
    distances = [float(np.linalg.norm(x0 - x_ss))]
    run = 1 if distances[0] < eps else 0
    x = x0.copy()
    t = 0
    while t < max_steps:
        for _ in range(chunk):
            lam = _lambda_at(schedule, t, n)
            x = _apply_step(W, x, x0, lam)
            t += 1
            xs.append(x.copy())
            d = float(np.linalg.norm(x - x_ss))
            distances.append(d)
            run = run + 1 if d < eps else 0
            if run >= window:
                return Trajectory(
                    weighted=weighted,
                    schedule=schedule,
                    x0=x0.copy(),
                    x_ss=x_ss,
                    horizon=t,
                    distances=np.array(distances),
                    _xs=np.array(xs),
                )
            if t >= max_steps:
                break
    raise ConvergenceFailure(f"no sustained convergence below {eps} within {max_steps} steps")


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
    """Evaluates the transition decomposition with cached matrix powers."""

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
        self._powers = [np.eye(W.shape[0])]

    def _power(self, k: int) -> np.ndarray:
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1] @ self.W)
        return self._powers[k]

    def at(self, t: int) -> TransitionDecomposition:
        if t < 0:
            raise InvalidParameter(f"t must be >= 0, got {t}")
        n = self.W.shape[0]
        if t == 0:
            return TransitionDecomposition(t=0, psi_aut=np.eye(n), psi_in=np.zeros((n, n)))
        r = suffix_products(self.schedule, t - 1)  # r[j] = Lambda_j^{t-1}, j = 0..t
        lam = schedule_values(self.schedule, 0, t)
        psi_aut = r[0] * self._power(t)
        psi_in = np.zeros((n, n))
        for k in range(t):
            coeff = r[k + 1] * lam[k]
            if coeff != 0.0:
                psi_in += coeff * self._power(t - 1 - k)
        return TransitionDecomposition(t=t, psi_aut=psi_aut, psi_in=psi_in)


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
