"""Tests for the single-stubborn-agent deviation construction.

The two-agent case is fully hand-checkable in exact dyadic arithmetic:
W = [[1/2, 1/2], [1/2, 1/2]], x0 = (1, 0), perron = (1/2, 1/2).
Holding agent 0 for t <= 1 gives y_1 = (1, 1/2), so perron^T y_1 = 3/4
against a nominal consensus of 1/2.
"""

import tracemalloc
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from fjfade import (
    ConvergenceFailure,
    InvalidParameter,
    NoStrictDrop,
    deviation_experiment,
    find_tstar,
    iterate,
    metropolis_weights,
    path_graph,
    simulate,
    zero_consensus,
)


class TestTwoAgentHandCase:
    def test_exact_values_with_fixed_tstar(self, path2):
        x0 = np.array([1.0, 0.0])
        rep = deviation_experiment(path2, x0, target=0, tstar=1)
        assert rep.tstar == 1
        assert rep.target == 0
        np.testing.assert_array_equal(rep.y_tstar, [1.0, 0.5])
        assert abs(rep.y_consensus_value - 0.75) < 1e-12
        assert abs(rep.x_limit_nominal - 0.5) < 1e-12
        assert abs(rep.deviation - 0.25) < 1e-12

    def test_auto_tstar_matches_hand_value(self, path2):
        x0 = np.array([1.0, 0.0])
        assert find_tstar(path2, x0, target=0) == 1
        rep = deviation_experiment(path2, x0)
        assert rep.tstar == 1
        assert rep.strict_drop_certified

    def test_actual_limit_differs_from_reported_value(self, path2):
        # the held run takes one more step after the switch, so the realized
        # consensus is perron^T y_{tstar+1} = 7/8, not the reported 3/4
        rep = deviation_experiment(path2, np.array([1.0, 0.0]), tstar=1)
        assert rep.y_limit.max() - rep.y_limit.min() < 1e-9
        assert abs(rep.y_limit.mean() - 0.875) < 1e-9


class TestFindTstar:
    def test_last_step_at_or_above_start(self, study_weights, study_x0):
        target = int(np.argmax(study_x0))
        tstar = find_tstar(study_weights, study_x0, target)
        xs = list(islice(iterate(study_weights, study_x0, zero_consensus()), tstar + 6))
        # definition: tstar is one past the last step where the free-running
        # target still matches its initial opinion
        assert xs[tstar - 1][target] >= study_x0[target] - 1e-12
        assert xs[tstar][target] < study_x0[target]

    def test_at_least_one(self, star3):
        assert find_tstar(star3, np.array([3.0, 0.0, 0.0]), 0) >= 1

    def test_cap_raises(self, star3):
        with pytest.raises(ConvergenceFailure):
            find_tstar(star3, np.array([3.0, 0.0, 0.0]), 0, max_steps=3)

    def test_memory_is_linear_in_n(self):
        # the run settles after thousands of steps and is followed to ten
        # times that; storing its states would take megabytes
        n = 32
        w = metropolis_weights(path_graph(n))
        x0 = 5.0 * np.arange(n) / (n - 1)
        tracemalloc.start()
        try:
            tstar = find_tstar(w, x0, n - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tstar >= 1
        assert peak < 2**20


class TestValidation:
    def test_target_must_be_argmax(self, star3):
        with pytest.raises(InvalidParameter):
            deviation_experiment(star3, np.array([3.0, 0.0, 0.0]), target=1)

    def test_target_out_of_range(self, star3):
        with pytest.raises(InvalidParameter):
            deviation_experiment(star3, np.array([3.0, 0.0, 0.0]), target=5)

    def test_no_strict_drop_for_flat_profile(self, star3):
        with pytest.raises(NoStrictDrop):
            deviation_experiment(star3, np.ones(3))

    def test_negative_tstar(self, star3):
        with pytest.raises(InvalidParameter):
            deviation_experiment(star3, np.array([3.0, 0.0, 0.0]), tstar=-2)

    def test_convergence_cap(self, star3):
        with pytest.raises(ConvergenceFailure):
            deviation_experiment(star3, np.array([3.0, 0.0, 0.0]), tstar=1, max_steps=2)

    def test_negative_weight_breaks_dominance(self, star3):
        # leaf 1 puts weight -0.1 on the held center, so from step 2 on it
        # sits below its nominal opinion: a typed error, not an assertion
        W = np.array([
            [1 / 3, 1 / 3, 1 / 3],
            [-0.1, 1.1, 0.0],
            [1 / 3, 0.0, 2 / 3],
        ])
        with pytest.raises(InvalidParameter, match="fell below the nominal one at step 2"):
            deviation_experiment(replace(star3, W=W), np.array([3.0, 0.0, 0.0]), tstar=3)


class TestStudyFixture:
    def test_deviation_positive_and_upward(self, study_weights, study_x0):
        rep = deviation_experiment(study_weights, study_x0)
        assert rep.deviation > 1e-3
        # holding the maximal agent can only pull the consensus up
        assert rep.y_consensus_value > rep.x_limit_nominal
        assert rep.strict_drop_certified

    def test_dominance_over_nominal(self, study_weights, study_x0):
        rep = deviation_experiment(study_weights, study_x0)
        nominal = simulate(study_weights, study_x0, zero_consensus(), horizon=rep.tstar)
        # already asserted inside the experiment; re-check the endpoint here
        assert (rep.y_tstar >= nominal.x(rep.tstar) - 1e-12).all()

    def test_longer_hold_cannot_reduce_deviation(self, study_weights, study_x0):
        r1 = deviation_experiment(study_weights, study_x0, tstar=5)
        r2 = deviation_experiment(study_weights, study_x0, tstar=50)
        assert r2.y_consensus_value >= r1.y_consensus_value - 1e-12

    def test_post_switch_equalization(self, study_weights, study_x0):
        rep = deviation_experiment(study_weights, study_x0, tstar=10)
        assert rep.y_limit.max() - rep.y_limit.min() < 1e-9
