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
# Steps an auto tstar search takes before it gives up; a config caps a fixed tstar at the same count.
MAX_STEPS = 10**6


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


def _search_tstar(weighted: WeightedNetwork, x0: np.ndarray, target: int) -> int:
    """Smallest tstar after which the nominal run stays strictly below x0[target].

    `deviation_experiment` has checked the inputs, so W is nonnegative and
    row stochastic: every entry of W x is a convex
    combination of entries of x and max_i x_t[i] never increases along the
    plain consensus run. At the first step t with max(x_t) < x0[target] the
    target can never again reach its initial opinion, so tstar is one past
    the last step before t where it still did. The pass needs no tolerance,
    keeps O(n) memory and raises ConvergenceFailure if the certificate has
    not fired by step MAX_STEPS.
    """
    for t, x in enumerate(iterate(weighted, x0, zero_consensus())):
        if x.max() < x0[target]:
            return last_not_below + 1
        if x[target] >= x0[target]:  # always true at t = 0
            last_not_below = t
        if t >= MAX_STEPS:
            raise ConvergenceFailure(f"maximum opinion still at or above x0[target] after {MAX_STEPS} steps")


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
    by `_search_tstar`, which reads the inputs checked here. The held and
    nominal runs are the columns of one `iterate` block, each with the bits
    of its run alone; for either kind of tstar, strict_drop_certified says
    the nominal target sits below x0[target] at step tstar. perron^T y_tstar
    is the consensus value, and its distance from x_ss the deviation. After
    the held step to y_{tstar+1}, y_{t+1} = W y_t, so the held limit is
    exactly perron^T y_{tstar+1}. Memory is O(n); W needs no spectral data.
    """
    x0 = np.asarray(x0, dtype=float)
    if target is None:
        target = int(np.argmax(x0))
    x_ss = _held_agent_inputs(weighted, x0, target)
    if tstar is None:
        tstar = _search_tstar(weighted, x0, target)
    block = iterate(weighted, x0, [make_adversarial_nonuniform(tstar, target), zero_consensus()])
    at_tstar, at_next = islice(block, tstar, tstar + 2)
    y_tstar, x_tstar = at_tstar.T  # the held and the nominal run, as the block's contiguous rows
    y_consensus_value = float(weighted.perron @ y_tstar)
    return DeviationReport(
        tstar=tstar,
        target=target,
        x_limit_nominal=x_ss,
        y_tstar=y_tstar,
        y_limit_value=float(weighted.perron @ at_next.T[0]),
        y_consensus_value=y_consensus_value,
        deviation=abs(y_consensus_value - x_ss),
        strict_drop_certified=bool(x_tstar[target] < x0[target]),
    )
