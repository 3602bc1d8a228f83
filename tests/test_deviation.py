"""Tests for the single-stubborn-agent deviation construction.

The two-agent case is fully hand-checkable in exact dyadic arithmetic:
W = [[1/2, 1/2], [1/2, 1/2]], x0 = (1, 0), perron = (1/2, 1/2).
Holding agent 0 for t <= 1 gives y_1 = (1, 1/2), so perron^T y_1 = 3/4
against a nominal consensus of 1/2.
"""

import tracemalloc
from dataclasses import fields, replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjfade import (
    ConvergenceFailure,
    DeviationReport,
    InvalidParameter,
    NoStrictDrop,
    deviation,
    deviation_experiment,
    find_tstar,
    generate_erdos_renyi,
    iterate,
    make_adversarial_nonuniform,
    metropolis_weights,
    path_graph,
    row_stochastic_weights,
    zero_consensus,
)
from fjfade.deviation import STRICT_DROP_MARGIN

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


def lockstep_reference(weighted, x0, target, tstar):
    """The earlier construction, kept only as a reference: the certificate
    pass for an auto tstar, then the held and nominal runs stepped in
    lock-step through tstar with the dominance y_t >= x_t asserted at each
    step, and the Perron vector solved for last."""
    certified = tstar is None
    if certified:
        for t, x in enumerate(iterate(weighted, x0, zero_consensus())):
            if x.max() < x0[target]:
                tstar = last_not_below + 1
                break
            if x[target] >= x0[target]:
                last_not_below = t
    held = iterate(weighted, x0, make_adversarial_nonuniform(tstar=tstar, target=target))
    nominal = iterate(weighted, x0, zero_consensus())
    for t, y, x in zip(range(tstar + 1), held, nominal):
        assert (y >= x - STRICT_DROP_MARGIN).all(), f"held run below the nominal one at step {t}"
    if not certified and tstar >= 1:
        certified = bool(x[target] < x0[target])
    x_ss = float(weighted.perron @ x0)
    y_consensus_value = float(weighted.perron @ y)
    return DeviationReport(
        tstar=tstar,
        target=target,
        x_limit_nominal=x_ss,
        y_tstar=y,
        y_limit_value=float(weighted.perron @ next(held)),
        y_consensus_value=y_consensus_value,
        deviation=abs(y_consensus_value - x_ss),
        strict_drop_certified=certified,
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

    def test_auto_tstar_checks_the_inputs_once(self, study_weights, study_x0, monkeypatch):
        # deviation_experiment checks its inputs, then searches without find_tstar's second check
        expected = find_tstar(study_weights, study_x0, int(np.argmax(study_x0)))
        check, calls = deviation._held_agent_inputs, []
        monkeypatch.setattr(deviation, "_held_agent_inputs", lambda *args: calls.append(args) or check(*args))
        assert deviation_experiment(study_weights, study_x0).tstar == expected
        assert len(calls) == 1

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
        # would sit below its nominal opinion: the weights are refused at
        # entry with a typed error, before any step
        with pytest.raises(InvalidParameter, match="needs nonnegative weights"):
            deviation_experiment(
                replace(star3, W=NEGATIVE_STAR3_W), np.array([3.0, 0.0, 0.0]), tstar=3
            )

    @pytest.mark.parametrize("tstar", [0, 1, 2, 3, None])
    def test_negative_weight_refused_before_any_step(self, tstar):
        # a 4-agent Metropolis path with W[3, 1] = -0.05, moved onto W[3, 3]
        # so that row 3 still sums to 1: the held run stays above the nominal
        # one through step 2, so a per-step dominance check passes tstar <= 2;
        # the input check refuses every tstar
        w = metropolis_weights(path_graph(4))
        W = w.W.copy()
        W[3, 1] -= 0.05
        W[3, 3] += 0.05
        with pytest.raises(InvalidParameter, match="nonnegative"):
            deviation_experiment(replace(w, W=W), np.array([3.0, 1.0, 0.5, 0.0]), tstar=tstar)


class TestLockstepReference:
    @given(
        n=st.integers(2, 12),
        er=st.booleans(),
        p=st.floats(0.2, 1.0),
        weights=st.sampled_from(["metropolis", "lazy_metropolis", "row_stochastic"]),
        ties=st.booleans(),
        tstar=st.one_of(st.none(), st.integers(0, 30)),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_report_matches_reference(self, n, er, p, weights, ties, tstar, data, seed):
        net = generate_erdos_renyi(n, p, seed) if er else path_graph(n)
        if not net.connected:
            net = path_graph(n)
        if weights == "row_stochastic":
            w = row_stochastic_weights(net, seed)
        else:
            w = metropolis_weights(net, lazy=weights == "lazy_metropolis")
        rng = np.random.default_rng(seed)
        # integer starts put several agents on the maximum at once
        x0 = rng.integers(-2, 3, n).astype(float) if ties else rng.uniform(-5.0, 5.0, n)
        target = data.draw(st.sampled_from(np.flatnonzero(x0 == x0.max()).tolist()))
        if w.consensus_value(x0) >= x0[target] - STRICT_DROP_MARGIN:
            with pytest.raises(NoStrictDrop):
                deviation_experiment(w, x0, target=target, tstar=tstar)
            return
        rep = deviation_experiment(w, x0, target=target, tstar=tstar)
        ref = lockstep_reference(w, x0, target, tstar)
        for field in fields(DeviationReport):
            got, want = getattr(rep, field.name), getattr(ref, field.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), field.name
            else:
                assert type(got) is type(want) and got == want, field.name


class TestStudyFixture:
    def test_deviation_positive_and_upward(self, study_weights, study_x0):
        rep = deviation_experiment(study_weights, study_x0)
        assert rep.deviation > 1e-3
        # holding the maximal agent can only pull the consensus up
        assert rep.y_consensus_value > rep.x_limit_nominal
        assert rep.strict_drop_certified

    def test_dominance_over_nominal(self, study_weights, study_x0):
        rep = deviation_experiment(study_weights, study_x0)
        nominal = next(islice(iterate(study_weights, study_x0, zero_consensus()), rep.tstar, None))
        # W >= 0 and a maximal target give y_t >= x_t; check the endpoint here
        assert (rep.y_tstar >= nominal - 1e-12).all()

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
