"""Two-sided convergence-rate bounds for doubly stochastic weights.

For a doubly stochastic W with second singular value sigma_max in (0, 1)
and a vanishing schedule, every start's ratio |x_t - x_ss 1| / |x_0 - x_ss 1|
stays below upper(t); the worst reaches lower(t) when W - 11^T/n's eigenvalue
of largest magnitude is positive, as under lazy weights, and can lie below it
otherwise (0.23 lower(t) at t = 5, Metropolis weights on K_{10,10}). The edges:

  lower(t) = Lambda_0^{t-1} sigma^t
           + sum_{k<t} Lambda_{k+1}^{t-1} lambda_k sigma^{t-1-k}

  upper(t) = Lambda_0^{t-1} (sigma^t + 1 - Lambda_t^inf)
           + sum_{k<t} Lambda_{k+1}^{t-1} lambda_k (sigma^{t-1-k} + 1 - Lambda_t^inf)
           + sum_{k>=t} Lambda_{k+1}^inf lambda_k

By partition of unity and the telescoping step
Lambda_{k+1}^inf lambda_k = Lambda_{k+1}^inf - Lambda_k^inf, the upper bound
has the closed form upper(t) = lower(t) + gap(t) with gap(t) = 2 (1 - Lambda_t^inf),
or gap(t) = 1 for a non-summable schedule, whose every Lambda^inf is 0; the
gap does not depend on sigma_max. Every bound here takes a step or an
integer array of steps >= 1 and costs O(max t): one pass of the
lower_bound_series recurrence and one table lookup.
A truncated table overestimates Lambda_t^inf by up to a factor 1/(1 - remainder),
so gap() adds 2 * remainder, and the reported upper bound never undershoots
the true one. upper(t) vanishes as t grows only for summable schedules; for
the hyperbolic schedule it tends to 1 while lower(t) still decays like 1/t.
`envelope_error` is the one rule that sets `run`'s bound columns and
`verify`'s rejections, and `envelope` gives both edges at t = 1..horizon.
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np

from .dynamics import CHUNK, Trajectory
from .errors import (
    AsymmetricWeights,
    ConsensusInitialCondition,
    FjfadeError,
    InvalidParameter,
    NonUniformUnsupported,
    NonVanishingSchedule,
)
from .network import WeightedNetwork, WeightKind
from .schedules import TAIL_EPS, CompetitionSchedule, NonUniformSchedule, infinite_products

# d(0) below this is numerically a consensus start, and d(t) / d(0) is undefined.
CONSENSUS_FLOOR = 1e-14


def envelope_error(
    weighted: WeightedNetwork, schedule: CompetitionSchedule | NonUniformSchedule, label: str
) -> FjfadeError | None:
    """None when the envelope applies: doubly stochastic weights with sigma_max
    in (0, 1) and a uniform, vanishing schedule. Else the typed error that says
    why not, naming the schedule's `label`; sigma_max is read only for doubly
    stochastic weights, so row-stochastic ones never factorize here."""
    where = f"schedule {label!r}"
    if weighted.kind is not WeightKind.DOUBLY_STOCHASTIC:
        return InvalidParameter(f"{where}: rate bounds need doubly stochastic weights")
    sigma_max = weighted.sigma_max
    if not 0.0 < sigma_max < 1.0:
        return InvalidParameter(f"{where}: rate bounds need sigma_max in (0, 1), got {sigma_max}")
    if not isinstance(schedule, CompetitionSchedule):
        return NonUniformUnsupported(f"{where} is not uniform; rate bounds do not apply")
    if not schedule.vanishing:
        return NonVanishingSchedule(f"{where} does not vanish; rate bounds do not apply")
    return None


def _check_steps(t: int | np.ndarray) -> np.ndarray:
    ts = np.asarray(t, dtype=int)
    if ts.size == 0 or ts.min() < 1:
        raise InvalidParameter(f"bounds are defined for steps t >= 1, got {t}")
    return ts


def _check_vanishing(schedule: CompetitionSchedule) -> None:
    if not schedule.vanishing:
        raise NonVanishingSchedule("rate bounds require lambda_t -> 0")


def lower_bound(
    sigma_max: float, schedule: CompetitionSchedule, t: int | np.ndarray
) -> float | np.ndarray:
    """Worst-case ratio lower bound at step t, or at each step of an integer
    array t; a finite sum, no truncation involved. O(max t)."""
    ts = _check_steps(t)
    lower = lower_bound_series(sigma_max, schedule, int(ts.max()))[ts]
    return float(lower) if ts.ndim == 0 else lower


def lower_bound_series(sigma_max: float, schedule: CompetitionSchedule, horizon: int) -> np.ndarray:
    """lower_bound for every t in 0..horizon via the scalar recurrence.

    The lower bound is realized by the trajectory aligned with the second
    singular direction, so it satisfies the same one-step recursion
    m_{t+1} = sigma (1 - lambda_t) m_t + lambda_t, m_0 = 1, drawing lambda CHUNK steps at a time.
    """
    sigma_max = float(sigma_max)
    if not 0.0 < sigma_max < 1.0:
        raise InvalidParameter(f"sigma_max must lie in (0, 1), got {sigma_max}")
    _check_vanishing(schedule)
    if horizon < 0:
        raise InvalidParameter(f"horizon must be >= 0, got {horizon}")
    lams = chain.from_iterable(schedule.values(np.arange(lo, min(lo + CHUNK, horizon))).tolist()
                               for lo in range(0, horizon, CHUNK))  # Python floats: no numpy scalars
    series = accumulate(lams, lambda m, lam: sigma_max * (1.0 - lam) * m + lam, initial=1.0)
    return np.fromiter(series, float, horizon + 1)


def upper_bound(
    sigma_max: float, schedule: CompetitionSchedule, t: int | np.ndarray, tail_eps: float = TAIL_EPS
) -> float | np.ndarray:
    """Worst-case ratio upper bound, lower_bound + gap, at step t or at each
    step of an integer array t, with Lambda^inf truncated at tail_eps.
    O(max t); certified, see gap()."""
    return lower_bound(sigma_max, schedule, t) + gap(schedule, t, tail_eps)


def envelope(
    sigma_max: float, schedule: CompetitionSchedule, horizon: int, tail_eps: float = TAIL_EPS
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) at t = 1..horizon: the bound columns of a run's CSV and
    the edges `verify` checks. O(horizon), and 16 bytes a step at its peak:
    lower is a view of the series and upper its gaps, plus lower in place."""
    upper = gap(schedule, np.arange(1, horizon + 1), tail_eps)
    lower = lower_bound_series(sigma_max, schedule, horizon)[1:]
    upper += lower
    return lower, upper


def gap(
    schedule: CompetitionSchedule, t: int | np.ndarray, tail_eps: float = TAIL_EPS
) -> float | np.ndarray:
    """upper_bound - lower_bound at step t or at each step of an integer
    array t; independent of sigma_max. O(max t).

    gap(t) = 1 for a non-summable schedule, whose every Lambda^inf is 0.
    Otherwise gap(t) = 2 (1 - Lambda_t^inf + remainder), where the table of
    Lambda_t^inf is cut off at tail_eps in (0, 1) (see infinite_products).
    1 - Lambda_t^inf enters the upper bound twice, so the certified slack is
    2 * remainder.
    """
    ts = _check_steps(t)
    _check_vanishing(schedule)
    if not schedule.summable:
        return 1.0 if ts.ndim == 0 else np.ones(ts.shape)
    table = infinite_products(schedule, tail_eps)
    gaps = np.asarray(table.lam_to_inf(ts))  # 2 (1 - Lambda_t^inf + remainder), in place
    np.subtract(1.0, gaps, out=gaps)
    gaps += table.remainder
    gaps *= 2.0
    return float(gaps) if ts.ndim == 0 else gaps


def empirical_ratio(traj: Trajectory) -> np.ndarray:
    """d(t) / d(0) for a simulated trajectory; per column of a schedule block."""
    d0 = traj.distances[0]
    if (d0 < CONSENSUS_FLOOR).any():
        raise ConsensusInitialCondition("x0 is numerically a consensus; the ratio is undefined")
    return traj.distances / d0


def worst_case_initial_condition(weighted: WeightedNetwork, x_ss_target: float) -> np.ndarray:
    """x0 = x_ss_target 1 + v2, the initial condition attaining the lower bound.

    Requires symmetric weights so v2 is an eigenvector; with a nonnegative
    second eigenvalue (e.g. lazy Metropolis) the simulated ratio from this
    x0 reproduces lower_bound(t) exactly.
    """
    if not weighted.symmetric:
        raise AsymmetricWeights("the worst-case construction needs symmetric weights")
    return x_ss_target + weighted.v2
