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
from hypothesis import given, settings
from hypothesis import strategies as st

from fjfade import (
    ConvergenceFailure,
    InvalidParameter,
    NoStrictDrop,
    deviation_experiment,
    find_tstar,
    generate_erdos_renyi,
    iterate,
    make_adversarial_nonuniform,
    metropolis_weights,
    path_graph,
    simulate,
    zero_consensus,
)

# star3 with leaf 1 putting weight -0.1 on the center: row stochastic, not
# nonnegative
NEGATIVE_STAR3_W = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [-0.1, 1.1, 0.0],
    [1 / 3, 0.0, 2 / 3],
])


def persistence_oracle(weighted, x0, target, eps=1e-10, window=10, max_steps=100_000):
    """The earlier brute-force search, kept only as a reference: follow the
    zero-schedule run until its distance to x_ss stays below eps for
    `window` steps at step t, then on to step 10 t, and return one past the
    last step where the target still reached x0[target]."""
    x_ss = weighted.consensus_value(x0)
    run, cap = 0, None
    for t, x in enumerate(iterate(weighted, x0, zero_consensus())):
        if x[target] >= x0[target]:
            last_not_below = t
        if cap is None:
            run = run + 1 if np.linalg.norm(x - x_ss) < eps else 0
            if run >= window and t >= 1:
                cap = 10 * t
            assert t < max_steps, "oracle did not settle"
        if t == cap:
            return last_not_below + 1


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
        assert abs(rep.y_limit_value - 0.875) < 1e-12


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

    def test_cap_raises(self):
        # the drop at agent 0 reaches agent 5 only at step 5, so the maximum
        # stays at 3 through step 4 and the certificate cannot fire by step 3
        w = metropolis_weights(path_graph(6))
        x0 = np.array([0.0, 3.0, 3.0, 3.0, 3.0, 3.0])
        with pytest.raises(ConvergenceFailure):
            find_tstar(w, x0, 5, max_steps=3)
        assert find_tstar(w, x0, 5, max_steps=5) == 5

    def test_slow_path_certified_at_step_one(self):
        # the run takes thousands of steps to settle, but the maximum drops
        # below the target's start at step 1
        n = 64
        w = metropolis_weights(path_graph(n))
        x0 = 5.0 * np.arange(n) / (n - 1)
        assert find_tstar(w, x0, n - 1, max_steps=10) == 1

    def test_negative_weight_rejected(self, star3):
        # the certificate needs W >= 0, which a replace(...)-built W need not keep
        with pytest.raises(InvalidParameter, match="nonnegative"):
            deviation_experiment(
                replace(star3, W=NEGATIVE_STAR3_W), np.array([3.0, 0.0, 0.0]), tstar=None
            )

    @given(
        n=st.integers(2, 10),
        p=st.floats(0.2, 1.0),
        lazy=st.booleans(),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_persistence_oracle(self, n, p, lazy, ties, seed):
        net = generate_erdos_renyi(n, p, seed)
        if not net.connected:
            net = path_graph(n)
        w = metropolis_weights(net, lazy=lazy)
        rng = np.random.default_rng(seed)
        # integer starts put several agents on the maximum at once
        x0 = rng.integers(-2, 3, n).astype(float) if ties else rng.uniform(-5.0, 5.0, n)
        target = int(np.argmax(x0))
        if w.consensus_value(x0) >= x0[target] - 1e-12:
            return  # no strict drop: nothing to certify
        assert find_tstar(w, x0, target) == persistence_oracle(w, x0, target)

    def test_memory_is_linear_in_n(self):
        # the pass keeps O(n) state: a search that stored the states it
        # visits, or followed the run to a horizon, would show in the peak
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

    def test_negative_weight_breaks_dominance(self, star3):
        # leaf 1 puts weight -0.1 on the held center, so from step 2 on it
        # sits below its nominal opinion: a typed error, not an assertion
        with pytest.raises(InvalidParameter, match="fell below the nominal one at step 2"):
            deviation_experiment(
                replace(star3, W=NEGATIVE_STAR3_W), np.array([3.0, 0.0, 0.0]), tstar=3
            )


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
        target = int(np.argmax(study_x0))
        held = iterate(study_weights, study_x0, make_adversarial_nonuniform(tstar=10, target=target))
        y = next(islice(held, 2000, None))
        # the held run equalizes on the reported limit
        assert y.max() - y.min() < 1e-9
        assert abs(y.mean() - rep.y_limit_value) < 1e-9
