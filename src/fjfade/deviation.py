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

from .dynamics import iterate
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

    One pass over the plain consensus run: once the distance to x_ss has
    stayed below eps for `window` steps, at step t, the run is continued to
    the horizon 10 t. tstar is placed right after the last step where the
    target's opinion still reached its initial value, and persistence is
    certified by checking the target sits within eps of x_ss at that
    horizon. Memory is O(n) however long the run.
    """
    x0 = np.asarray(x0, dtype=float)
    x_ss = _validate_target(weighted, x0, target)
    run = 0
    cap = None
    for t, x in enumerate(iterate(weighted, x0, zero_consensus())):
        if x[target] >= x0[target]:  # always true at t = 0
            last_not_below = t
        if cap is None:
            run = run + 1 if np.linalg.norm(x - x_ss) < eps else 0
            # the window may count step 0 but closes no earlier than step 1
            if run >= window and t >= 1:
                cap = 10 * t
            elif t >= max_steps:
                raise ConvergenceFailure(f"no sustained convergence below {eps} within {max_steps} steps")
        if t == cap:
            break
    if abs(x[target] - x_ss) > eps:
        raise ConvergenceFailure("target opinion did not persist near x_ss at the extended horizon")
    return last_not_below + 1


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
    and the deviation is its distance from the nominal x_ss. The held and
    nominal runs are streamed in lock-step through tstar, and the dominance
    y_t >= x_t of the held run over the nominal one is checked at every
    step; it fails, with InvalidParameter, only for weights with a negative
    entry. The held stream then goes on alone to equalization, holding
    O(n) memory throughout.
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

    held = iterate(weighted, x0, make_adversarial_nonuniform(tstar=tstar, target=target))
    nominal = iterate(weighted, x0, zero_consensus())
    for t, y, x in zip(range(tstar + 1), held, nominal):
        if (y < x - STRICT_DROP_MARGIN).any():
            raise InvalidParameter(
                f"held trajectory fell below the nominal one at step {t}: W must be nonnegative"
            )
    y_tstar = y
    if not certified and tstar >= 1:
        certified = bool(x[target] < x0[target])

    # past tstar the schedule is identically zero: plain consensus to equalization
    run = 0
    for _, y in zip(range(max_steps), held):
        if float(y.max() - y.min()) < eps_consensus:
            run += 1
            if run >= window:
                break
        else:
            run = 0
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
