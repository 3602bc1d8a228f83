"""Two-sided convergence-rate bounds for doubly stochastic weights.

For a doubly stochastic W with second singular value sigma_max in (0, 1)
and a vanishing schedule, the worst-case ratio |x_t - x_ss 1| / |x_0 - x_ss 1|
is sandwiched between

  lower(t) = Lambda_0^{t-1} sigma^t
           + sum_{k<t} Lambda_{k+1}^{t-1} lambda_k sigma^{t-1-k}

  upper(t) = Lambda_0^{t-1} (sigma^t + 1 - Lambda_t^inf)
           + sum_{k<t} Lambda_{k+1}^{t-1} lambda_k (sigma^{t-1-k} + 1 - Lambda_t^inf)
           + sum_{k>=t} Lambda_{k+1}^inf lambda_k

By partition of unity and the telescoping step
Lambda_{k+1}^inf lambda_k = Lambda_{k+1}^inf - Lambda_k^inf, the upper bound
has the closed form upper(t) = lower(t) + gap(t) with gap(t) = 2 (1 - Lambda_t^inf),
or gap(t) = 1 when every Lambda^inf is 0; the gap does not depend on sigma_max.
Every bound here takes a step or an integer array of steps >= 1 and costs
O(max t): one pass of the lower_bound_series recurrence and one table lookup.
A truncated table overestimates Lambda_t^inf by up to a factor 1/(1 - remainder),
so gap() adds 2 * remainder, and the reported upper bound never undershoots
the true one. upper(t) vanishes as t grows only for summable schedules; for
the hyperbolic schedule it tends to 1 while lower(t) still decays like 1/t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import (
    AsymmetricWeights,
    ConsensusInitialCondition,
    InvalidParameter,
    NonVanishingSchedule,
)
from .network import SpectralData
from .schedules import (
    DEFAULT_TRUNCATION,
    CompetitionSchedule,
    TruncationPolicy,
    infinite_products,
    schedule_values,
)


def _check_sigma(sigma_max: float) -> float:
    sigma_max = float(sigma_max)
    if not 0.0 < sigma_max < 1.0:
        raise InvalidParameter(f"sigma_max must lie in (0, 1), got {sigma_max}")
    return sigma_max


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
    m_{t+1} = sigma (1 - lambda_t) m_t + lambda_t with m_0 = 1.
    """
    sigma_max = _check_sigma(sigma_max)
    _check_vanishing(schedule)
    if horizon < 0:
        raise InvalidParameter(f"horizon must be >= 0, got {horizon}")
    out = [1.0]
    for lam in schedule_values(schedule, 0, horizon).tolist():  # Python floats: same IEEE ops, no numpy scalars
        out.append(sigma_max * (1.0 - lam) * out[-1] + lam)
    return np.array(out)


def upper_bound(
    sigma_max: float,
    schedule: CompetitionSchedule,
    t: int | np.ndarray,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> float | np.ndarray:
    """Worst-case ratio upper bound, lower_bound + gap, at step t or at each
    step of an integer array t. O(max t); certified, see gap()."""
    return lower_bound(sigma_max, schedule, t) + gap(schedule, t, trunc)


def gap(
    schedule: CompetitionSchedule,
    t: int | np.ndarray,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> float | np.ndarray:
    """upper_bound - lower_bound at step t or at each step of an integer
    array t; independent of sigma_max. O(max t).

    gap(t) = 2 (1 - Lambda_t^inf + remainder), or 1 when every Lambda^inf is
    0. 1 - Lambda_t^inf enters the upper bound twice, so the certified slack
    is 2 * remainder.
    """
    ts = _check_steps(t)
    _check_vanishing(schedule)
    table = infinite_products(schedule, trunc)
    if table.limit_is_zero:
        gaps = np.ones(ts.shape)
    else:
        gaps = 2.0 * (1.0 - table.lam_to_inf_array(ts) + table.remainder)
    return float(gaps) if ts.ndim == 0 else gaps


def empirical_ratio(traj: Trajectory) -> np.ndarray:
    """d(t) / d(0) for a simulated trajectory; per column for a block of starts."""
    d0 = traj.distances[0]
    if (d0 < 1e-14).any():
        raise ConsensusInitialCondition("x0 is numerically a consensus; the ratio is undefined")
    return traj.distances / d0


def worst_case_initial_condition(spectral: SpectralData, x_ss_target: float) -> np.ndarray:
    """x0 = x_ss_target 1 + v2, the initial condition attaining the lower bound.

    Requires symmetric weights so v2 is an eigenvector; with a nonnegative
    second eigenvalue (e.g. lazy Metropolis) the simulated ratio from this
    x0 reproduces lower_bound(t) exactly.
    """
    if not spectral.symmetric:
        raise AsymmetricWeights("the worst-case construction needs symmetric weights")
    return x_ss_target + spectral.v2


@dataclass(frozen=True, eq=False)
class RateEnvelope:
    """Upper/lower bound series over a grid of steps, plus their gap."""

    sigma_max: float
    schedule: CompetitionSchedule
    ts: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    gap: np.ndarray
    trunc_report: dict

    def __post_init__(self):
        if (self.lower > self.upper + 1e-12).any():
            raise InvalidParameter("lower bound exceeds upper bound")
        if self.schedule.summable and len(self.ts) > 1:
            if self.upper[-1] > self.upper[0] + 1e-12:
                raise InvalidParameter("upper bound failed to decay for a summable schedule")


def rate_envelope(
    sigma_max: float,
    schedule: CompetitionSchedule,
    ts,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> RateEnvelope:
    """Evaluate both bounds and the gap on an increasing grid of steps >= 1."""
    sigma_max = _check_sigma(sigma_max)
    _check_vanishing(schedule)
    ts = np.asarray(ts, dtype=int)
    if ts.size == 0 or ts.min() < 1:
        raise InvalidParameter("ts must be a nonempty grid of steps >= 1")
    if (np.diff(ts) <= 0).any():
        raise InvalidParameter("ts must be strictly increasing")
    lower = lower_bound(sigma_max, schedule, ts)
    gaps = gap(schedule, ts, trunc)
    report = infinite_products(schedule, trunc).describe()
    return RateEnvelope(
        sigma_max=sigma_max,
        schedule=schedule,
        ts=ts,
        upper=lower + gaps,
        lower=lower,
        gap=gaps,
        trunc_report=report,
    )
