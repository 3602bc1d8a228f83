"""Tests for the update map, trajectory storage, and transition operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fjfade.dynamics as dyn
from fjfade import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidParameter,
    NonUniformUnsupported,
    NonVanishingSchedule,
    State,
    TransitionCalculator,
    constant,
    custom,
    exponential,
    hyperbolic,
    input_limit_vector,
    lambda_product,
    make_adversarial_nonuniform,
    simulate,
    simulate_until,
    step_nonuniform,
    step_uniform,
    transition_decomposition,
    zero_consensus,
)

VANISHING = [exponential(0.5), hyperbolic(), zero_consensus(), custom([0.8, 0.4, 0.2, 0.1])]


class TestStep:
    def test_uniform_blends_toward_anchor(self, path2):
        x0 = np.array([1.0, 0.0])
        s1 = step_uniform(State(0, x0), x0, path2.W, 0.5)
        # W x0 = (.5, .5); blend: 0.5 * (.5,.5) + 0.5 * (1,0)
        np.testing.assert_allclose(s1.x, [0.75, 0.25], atol=1e-15)
        assert s1.t == 1

    def test_lambda_one_freezes(self, path2):
        x0 = np.array([1.0, 0.0])
        s1 = step_uniform(State(0, x0), x0, path2.W, 1.0)
        np.testing.assert_array_equal(s1.x, x0)

    def test_lambda_zero_is_pure_averaging(self, path2):
        x0 = np.array([1.0, 0.0])
        s1 = step_uniform(State(0, x0), x0, path2.W, 0.0)
        np.testing.assert_allclose(s1.x, [0.5, 0.5], atol=1e-15)

    def test_uniform_and_constant_vector_bit_equal(self, star3):
        rng = np.random.default_rng(5)
        x0 = rng.random(3)
        x = rng.random(3)
        for lam in (0.0, 0.3, 1.0):
            a = step_uniform(State(2, x), x0, star3.W, lam)
            b = step_nonuniform(State(2, x), x0, star3.W, np.full(3, lam))
            np.testing.assert_array_equal(a.x, b.x)

    def test_validation(self, star3):
        x0 = np.ones(3)
        with pytest.raises(InvalidParameter):
            step_uniform(State(0, x0), x0, star3.W, 1.5)
        with pytest.raises(DimensionMismatch):
            step_nonuniform(State(0, x0), x0, star3.W, np.array([0.5, 0.5]))
        with pytest.raises(InvalidParameter):
            step_nonuniform(State(0, x0), x0, star3.W, np.array([0.5, 0.5, 2.0]))

    @given(lam=st.floats(0.0, 1.0), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_containment(self, star3, lam, seed):
        # each update is a convex combination, so opinions stay in hull(x0)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-3.0, 3.0, 3)
        s = State(0, x0)
        for _ in range(8):
            s = step_uniform(s, x0, star3.W, lam)
            assert s.x.min() >= x0.min() - 1e-12
            assert s.x.max() <= x0.max() + 1e-12


class TestSimulate:
    def test_zero_schedule_reaches_consensus(self, star3):
        x0 = np.array([3.0, 0.0, 0.0])
        traj = simulate(star3, x0, zero_consensus(), horizon=200)
        assert traj.x_ss == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(traj.final.x, np.ones(3), atol=1e-8)
        assert traj.distances[-1] < 1e-8

    def test_constant_one_never_moves(self, star3):
        x0 = np.array([3.0, 0.0, 0.0])
        traj = simulate(star3, x0, constant(1.0), horizon=20)
        np.testing.assert_array_equal(traj.final.x, x0)

    def test_distances_definition(self, study_weights, study_x0):
        traj = simulate(study_weights, study_x0, hyperbolic(), horizon=50)
        for t in (0, 7, 50):
            d = np.linalg.norm(traj.x(t) - traj.x_ss)
            assert traj.distance(t) == pytest.approx(d, abs=1e-13)

    def test_horizon_zero(self, star3):
        traj = simulate(star3, np.array([1.0, 0.0, 2.0]), hyperbolic(), horizon=0)
        np.testing.assert_array_equal(traj.x(0), [1.0, 0.0, 2.0])
        assert len(traj.distances) == 1

    def test_states_accessor(self, star3):
        traj = simulate(star3, np.ones(3), hyperbolic(), horizon=5)
        assert [s.t for s in traj.states] == list(range(6))

    def test_sparse_replay_matches_dense(self, star3, monkeypatch):
        x0 = np.array([2.0, -1.0, 0.5])
        dense = simulate(star3, x0, exponential(0.5), horizon=250)
        monkeypatch.setattr(dyn, "DENSE_ELEMENT_LIMIT", 30)
        sparse = simulate(star3, x0, exponential(0.5), horizon=250)
        assert not sparse.dense
        for t in (0, 1, 99, 100, 101, 199, 250):
            np.testing.assert_array_equal(sparse.x(t), dense.x(t))
        np.testing.assert_array_equal(sparse.distances, dense.distances)
        with pytest.raises(InvalidParameter):
            _ = sparse.states

    def test_adversarial_schedule_holds_target(self, star3):
        x0 = np.array([3.0, 0.0, 0.0])
        sched = make_adversarial_nonuniform(tstar=4, target=0)
        traj = simulate(star3, x0, sched, horizon=6)
        for t in range(5):
            assert traj.x(t)[0] == 3.0
        assert traj.x(6)[0] < 3.0

    def test_converged_at_requires_window(self, star3):
        traj = simulate(star3, np.array([3.0, 0.0, 0.0]), zero_consensus(), horizon=300)
        t = traj.converged_at(eps=1e-6, window=10)
        assert t is not None
        assert traj.distances[t] < 1e-6
        assert (traj.distances[t:t + 10] < 1e-6).all()
        # one step earlier the window must be broken
        assert traj.distances[t - 1] >= 1e-6

    def test_x_out_of_range(self, star3):
        traj = simulate(star3, np.ones(3), hyperbolic(), horizon=3)
        with pytest.raises(InvalidParameter):
            traj.x(4)


class TestSimulateUntil:
    def test_certifies_convergence(self, star3):
        traj = simulate_until(star3, np.array([3.0, 0.0, 0.0]), zero_consensus(), eps=1e-9)
        assert traj.distances[-1] < 1e-9

    def test_cap_raises(self, star3):
        with pytest.raises(ConvergenceFailure):
            simulate_until(star3, np.array([3.0, 0.0, 0.0]), zero_consensus(),
                           eps=1e-9, max_steps=3)

    def test_non_finite_start_rejected(self, star3):
        with pytest.raises(InvalidParameter, match="finite"):
            simulate_until(star3, np.array([np.nan, 0.0, 0.0]), zero_consensus(), max_steps=3)


class TestTransitionDecomposition:
    def test_t_zero_is_identity(self, star3):
        dec = transition_decomposition(star3, hyperbolic(), 0)
        np.testing.assert_array_equal(dec.psi_aut, np.eye(3))
        np.testing.assert_array_equal(dec.psi_in, np.zeros((3, 3)))

    def test_hand_value_t1(self, star3):
        # t=1: psi_aut = (1 - lam_0) W, psi_in = lam_0 I
        sched = constant(0.3)
        dec = transition_decomposition(star3, sched, 1)
        np.testing.assert_allclose(dec.psi_aut, 0.7 * star3.W, atol=1e-15)
        np.testing.assert_allclose(dec.psi_in, 0.3 * np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("sched", VANISHING, ids=lambda s: s.label)
    def test_matches_simulation(self, small_fixtures, sched):
        for w, x0 in small_fixtures:
            traj = simulate(w, x0, sched, horizon=60)
            calc = TransitionCalculator(w, sched)
            for t in (0, 1, 2, 7, 33, 60):
                dec = calc.at(t)
                xt = (dec.psi_aut + dec.psi_in) @ x0
                assert np.abs(xt - traj.x(t)).max() < 1e-10

    def test_rows_sum_to_one(self, study_weights):
        # psi_aut + psi_in is a stochastic matrix at every t
        calc = TransitionCalculator(study_weights, exponential(0.5))
        for t in (1, 5, 40):
            total = calc.at(t).psi_aut + calc.at(t).psi_in
            np.testing.assert_allclose(total.sum(axis=1), np.ones(20), atol=1e-12)
            assert total.min() >= -1e-15

    def test_nonuniform_rejected(self, star3):
        with pytest.raises(NonUniformUnsupported):
            TransitionCalculator(star3, make_adversarial_nonuniform(2, 0))


class TestInputLimit:
    def test_vanishing_head_gives_full_perron(self, star3):
        # exponential and hyperbolic both have lambda_0 = 1, so the
        # autonomous part dies instantly and the input limit is perron itself
        for sched in (exponential(0.5), hyperbolic()):
            y = input_limit_vector(star3, sched)
            np.testing.assert_allclose(y, star3.spectral.perron, atol=1e-12)

    def test_zero_schedule_gives_zero(self, star3):
        np.testing.assert_array_equal(
            input_limit_vector(star3, zero_consensus()), np.zeros(3)
        )

    def test_custom_partial(self, star3):
        sched = custom([0.5, 0.25])
        y = input_limit_vector(star3, sched)
        expect = (1.0 - 0.5 * 0.75) * star3.spectral.perron
        np.testing.assert_allclose(y, expect, atol=1e-13)

    def test_nonvanishing_rejected(self, star3):
        with pytest.raises(NonVanishingSchedule):
            input_limit_vector(star3, constant(0.3))

    def test_matrix_limit_oracle(self, study_weights):
        # Psi_in(t) converges to the rank-one matrix 1 y^T
        sched = exponential(0.5)
        y = input_limit_vector(study_weights, sched)
        dec = transition_decomposition(study_weights, sched, 400)
        target = np.outer(np.ones(20), y)
        assert np.abs(dec.psi_in - target).max() < 1e-10

    def test_consistency_with_product_limit(self, star3):
        sched = custom([0.5, 0.25, 0.125])
        y = input_limit_vector(star3, sched)
        import math
        scale = 1.0 - lambda_product(sched, 0, math.inf)
        np.testing.assert_allclose(y, scale * star3.spectral.perron, atol=1e-14)
