"""Steering consensus away from its nominal value with one stubborn agent.

Holding a single target agent at full competition (lambda_t^target = 1)
through step tstar, while everyone else runs plain consensus, produces a
trajectory y_t that dominates the nominal one entrywise and settles on a
consensus strictly above x_ss = perron^T x_0 whenever the target holds a
maximal initial opinion that the nominal run strictly drops below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _apply_step, simulate, simulate_until
from .errors import ConvergenceFailure, InvalidParameter, NoStrictDrop
from .network import WeightedNetwork
from .schedules import make_adversarial_nonuniform, zero_consensus

STRICT_DROP_MARGIN = 1e-12
PERSISTENCE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Outcome of one adversarial run against its nominal consensus."""

    tstar: int
    target: int
    x_limit_nominal: float
    y_tstar: np.ndarray
    y_limit: np.ndarray
    y_consensus_value: float
    deviation: float
    strict_drop_certified: bool


def _validate_target(weighted: WeightedNetwork, x0: np.ndarray, target: int) -> float:
    n = weighted.n
    if not 0 <= target < n:
        raise InvalidParameter(f"target {target} out of range for n={n}")
    if x0[target] < x0.max() - STRICT_DROP_MARGIN:
        raise InvalidParameter("target must hold a maximal initial opinion")
    x_ss = weighted.consensus_value(x0)
    if x_ss >= x0[target] - STRICT_DROP_MARGIN:
        raise NoStrictDrop(
            f"consensus value {x_ss} is not strictly below the target's initial opinion {x0[target]}"
        )
    return x_ss


def find_tstar(
    weighted: WeightedNetwork,
    x0: np.ndarray,
    target: int,
    eps: float = PERSISTENCE_TOL,
    window: int = 10,
    max_steps: int = 1_000_000,
) -> int:
    """Smallest tstar after which the nominal run stays strictly below x0[target].

    The plain consensus run is simulated until it settles within eps of
    x_ss, then extended to ten times that horizon. tstar is placed right
    after the last step where the target's opinion still reached its
    initial value, and persistence is certified by checking the target sits
    within eps of x_ss at the extended horizon.
    """
    x0 = np.asarray(x0, dtype=float)
    x_ss = _validate_target(weighted, x0, target)
    probe = simulate_until(weighted, x0, zero_consensus(), eps=eps, window=window, max_steps=max_steps)
    cap = 10 * max(probe.horizon, 1)
    traj = simulate(weighted, x0, zero_consensus(), horizon=cap)
    series = np.array([traj.x(t)[target] for t in range(cap + 1)])
    if abs(series[-1] - x_ss) > eps:
        raise ConvergenceFailure("target opinion did not persist near x_ss at the extended horizon")
    not_below = np.flatnonzero(series >= x0[target])
    tstar = int(not_below[-1]) + 1 if not_below.size else 1
    return tstar


def deviation_experiment(
    weighted: WeightedNetwork,
    x0: np.ndarray,
    target: int | None = None,
    tstar: int | None = None,
    eps_consensus: float = PERSISTENCE_TOL,
    window: int = 10,
    max_steps: int = 1_000_000,
) -> DeviationReport:
    """Run the single-stubborn-agent construction and report its deviation.

    The target (argmax of x0 by default) is held at lambda = 1 for every
    step t <= tstar; afterwards the run is pure consensus, continued until
    the opinions equalize. The reported consensus value is perron^T y_tstar
    and the deviation is its distance from the nominal x_ss. The dominance
    y_t >= x_t of the held run over the nominal one is checked for every
    step up to tstar; it fails, with InvalidParameter, only for weights
    with a negative entry.
    """
    x0 = np.asarray(x0, dtype=float)
    if target is None:
        target = int(np.argmax(x0))
    x_ss = _validate_target(weighted, x0, target)

    certified = False
    if tstar is None:
        tstar = find_tstar(weighted, x0, target, eps=eps_consensus, window=window, max_steps=max_steps)
        certified = True
    if tstar < 0:
        raise InvalidParameter(f"tstar must be >= 0, got {tstar}")

    sched = make_adversarial_nonuniform(tstar=tstar, target=target)
    held = simulate(weighted, x0, sched, horizon=tstar + 1)
    nominal = simulate(weighted, x0, zero_consensus(), horizon=tstar)
    for t in range(tstar + 1):
        if (held.x(t) < nominal.x(t) - STRICT_DROP_MARGIN).any():
            raise InvalidParameter(
                f"held trajectory fell below the nominal one at step {t}: W must be nonnegative"
            )
    y_tstar = held.x(tstar)
    if not certified and tstar >= 1:
        certified = bool(nominal.x(tstar)[target] < x0[target])

    # past tstar the schedule is identically zero: plain consensus to equalization
    W = weighted.W
    y = held.x(tstar + 1)
    run = 0
    for _ in range(max_steps):
        if float(y.max() - y.min()) < eps_consensus:
            run += 1
            if run >= window:
                break
        else:
            run = 0
        y = _apply_step(W, y, x0, 0.0)
    else:
        raise ConvergenceFailure(f"held run did not equalize within {max_steps} steps")

    y_consensus_value = float(weighted.spectral.perron @ y_tstar)
    return DeviationReport(
        tstar=tstar,
        target=target,
        x_limit_nominal=x_ss,
        y_tstar=y_tstar,
        y_limit=y,
        y_consensus_value=y_consensus_value,
        deviation=abs(y_consensus_value - x_ss),
        strict_drop_certified=certified,
    )
