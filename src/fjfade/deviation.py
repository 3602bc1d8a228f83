"""Steering consensus away from its nominal value with one stubborn agent.

Holding a single target agent at full competition (lambda_t^target = 1)
through step tstar, while everyone else runs plain consensus, produces a
trajectory y_t that dominates the nominal one entrywise and settles on a
consensus strictly above x_ss = perron^T x_0 whenever W is nonnegative and
the target holds a maximal initial opinion that the nominal run strictly
drops below.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .dynamics import iterate
from .errors import ConvergenceFailure, DimensionMismatch, InvalidParameter, NoStrictDrop
from .network import WeightedNetwork
from .schedules import make_adversarial_nonuniform, zero_consensus

STRICT_DROP_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Outcome of one adversarial run against its nominal consensus.

    y_consensus_value = perron^T y_tstar is the consensus functional at the
    switch state; y_limit_value = perron^T y_{tstar+1} is the limit the held
    run actually reaches, since the release takes effect one step later.
    """

    tstar: int
    target: int
    x_limit_nominal: float
    y_tstar: np.ndarray
    y_limit_value: float
    y_consensus_value: float
    deviation: float
    strict_drop_certified: bool


def _held_agent_inputs(weighted: WeightedNetwork, x0: np.ndarray, target: int) -> float:
    """x_ss = perron^T x0, once the construction applies: x0 is an n vector,
    the target is an agent holding a maximal opinion, W >= 0, and x_ss sits
    strictly below the target's opinion. The Perron vector is solved for last."""
    n = weighted.n
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({n},)")
    if not 0 <= target < n:
        raise InvalidParameter(f"target {target} out of range for n={n}")
    if x0[target] < x0.max() - STRICT_DROP_MARGIN:
        raise InvalidParameter("target must hold a maximal initial opinion")
    if weighted.W.min() < 0:
        raise InvalidParameter("the held-agent construction needs nonnegative weights")
    x_ss = float(weighted.perron @ x0)
    if x_ss >= x0[target] - STRICT_DROP_MARGIN:
        raise NoStrictDrop(
            f"consensus value {x_ss} is not strictly below the target's initial opinion {x0[target]}"
        )
    return x_ss


def find_tstar(
    weighted: WeightedNetwork,
    x0: np.ndarray,
    target: int,
    max_steps: int = 1_000_000,
) -> int:
    """Smallest tstar after which the nominal run stays strictly below x0[target].

    The inputs are checked first, as in `deviation_experiment`. W is then
    nonnegative and row stochastic, so every entry of W x is a convex
    combination of entries of x and max_i x_t[i] never increases along the
    plain consensus run. At the first step t with max(x_t) < x0[target] the
    target can never again reach its initial opinion, so tstar is one past
    the last step before t where it still did. The pass needs no tolerance,
    keeps O(n) memory and raises ConvergenceFailure if the certificate has
    not fired by step max_steps.
    """
    x0 = np.asarray(x0, dtype=float)
    _held_agent_inputs(weighted, x0, target)
    return _search_tstar(weighted, x0, target, max_steps)


def _search_tstar(weighted: WeightedNetwork, x0: np.ndarray, target: int, max_steps: int = 1_000_000) -> int:
    """`find_tstar`'s pass over the nominal run, for inputs already checked."""
    for t, x in enumerate(iterate(weighted, x0, zero_consensus())):
        if x.max() < x0[target]:
            return last_not_below + 1
        if x[target] >= x0[target]:  # always true at t = 0
            last_not_below = t
        if t >= max_steps:
            raise ConvergenceFailure(
                f"maximum opinion still at or above x0[target] after {max_steps} steps"
            )


def deviation_experiment(
    weighted: WeightedNetwork,
    x0: np.ndarray,
    target: int | None = None,
    tstar: int | None = None,
) -> DeviationReport:
    """Run the single-stubborn-agent construction and report its deviation.

    The target (argmax of x0 by default) is held at lambda = 1 for every
    step t <= tstar; afterwards the run is plain consensus. The inputs are
    checked at entry, before any step: x0's shape, a target in range holding
    a maximal opinion, W >= 0 (InvalidParameter) and a strict drop
    (NoStrictDrop). With W >= 0 and a maximal target the held run dominates
    the nominal one, y_t >= x_t, by induction on t. A tstar of None is found
    by `find_tstar`'s search, which skips its second check of the inputs, and
    certified; a fixed tstar is certified when the nominal run's target sits
    below x0[target] at step tstar. The reported consensus value is
    perron^T y_tstar and the deviation is its distance from the nominal x_ss.
    One more held step gives y_{tstar+1}, after which y_{t+1} = W y_t, so the
    held limit is exactly perron^T y_{tstar+1}. Memory is O(n); W needs no
    spectral data.
    """
    x0 = np.asarray(x0, dtype=float)
    if target is None:
        target = int(np.argmax(x0))
    x_ss = _held_agent_inputs(weighted, x0, target)
    certified = tstar is None
    if certified:
        tstar = _search_tstar(weighted, x0, target)
    held = iterate(weighted, x0, make_adversarial_nonuniform(tstar=tstar, target=target))
    if not certified:
        x_tstar = next(islice(iterate(weighted, x0, zero_consensus()), tstar, None))
        certified = bool(x_tstar[target] < x0[target])

    y_tstar, y_next = islice(held, tstar, tstar + 2)
    perron = weighted.perron
    y_consensus_value = float(perron @ y_tstar)
    return DeviationReport(
        tstar=tstar,
        target=target,
        x_limit_nominal=x_ss,
        y_tstar=y_tstar,
        y_limit_value=float(perron @ y_next),
        y_consensus_value=y_consensus_value,
        deviation=abs(y_consensus_value - x_ss),
        strict_drop_certified=certified,
    )
