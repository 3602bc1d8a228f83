"""Tests for the update map, the streaming kernel, and transition operators."""

import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fjfade import (
    CompetitionSchedule,
    DimensionMismatch,
    InvalidParameter,
    NonUniformUnsupported,
    NonVanishingSchedule,
    ScheduleKind,
    TransitionCalculator,
    constant,
    custom,
    exponential,
    hyperbolic,
    input_limit_vector,
    iterate,
    lambda_product,
    make_adversarial_nonuniform,
    metropolis_weights,
    path_graph,
    simulate,
    transition_decomposition,
    zero_consensus,
)
from fjfade.dynamics import BUFFER_ELEMENTS, CHUNK, Trajectory

VANISHING = [exponential(0.5), hyperbolic(), zero_consensus(), custom([0.8, 0.4, 0.2, 0.1])]


def converged_at_loop(distances, eps, window):
    """The per-step loop that Trajectory.converged_at replaced, kept as its oracle."""
    below = (distances < eps).reshape(len(distances), -1).all(axis=1)
    run = 0
    for t, ok in enumerate(below):
        run = run + 1 if ok else 0
        if run >= window:
            return t - window + 1
    return None


def states(weighted, x0, schedule, horizon):
    """x_0..x_horizon of the stream, stacked along the first axis."""
    return np.array(list(islice(iterate(weighted, x0, schedule), horizon + 1)))


class TestStep:
    def test_uniform_blends_toward_anchor(self, path2):
        x0 = np.array([1.0, 0.0])
        xs = states(path2, x0, constant(0.5), 1)
        # W x0 = (.5, .5); blend: 0.5 * (.5,.5) + 0.5 * (1,0)
        np.testing.assert_array_equal(xs[0], x0)
        np.testing.assert_allclose(xs[1], [0.75, 0.25], atol=1e-15)

    def test_lambda_one_freezes(self, path2):
        x0 = np.array([1.0, 0.0])
        for x in states(path2, x0, constant(1.0), 5):
            np.testing.assert_array_equal(x, x0)

    def test_lambda_zero_is_pure_averaging(self, path2):
        x0 = np.array([1.0, 0.0])
        xs = states(path2, x0, zero_consensus(), 1)
        np.testing.assert_allclose(xs[1], [0.5, 0.5], atol=1e-15)

    def test_uniform_and_constant_vector_bit_equal(self, study_weights):
        # past tstar the held run's per-agent vector is all zeros; it must
        # match the uniform zero schedule restarted from the held state
        x0 = np.random.default_rng(5).uniform(-3.0, 3.0, 20)
        tstar = 4
        held = states(study_weights, x0, make_adversarial_nonuniform(tstar, 0), tstar + 31)
        free = states(study_weights, held[tstar + 1], zero_consensus(), 30)
        np.testing.assert_array_equal(held[tstar + 1:], free)

    def test_validation(self, star3):
        with pytest.raises(DimensionMismatch):
            next(iterate(star3, np.ones(2), hyperbolic()))
        with pytest.raises(DimensionMismatch):
            next(iterate(star3, np.ones((3, 2, 1)), hyperbolic()))
        with pytest.raises(InvalidParameter):
            next(iterate(star3, np.ones(3), object()))
        # lambda_0 is checked before the first step
        stream = iterate(star3, np.ones(3), CompetitionSchedule(ScheduleKind.CONSTANT, lam=1.5))
        next(stream)
        with pytest.raises(InvalidParameter, match="outside"):
            next(stream)

    def test_chunked_lambda_checked_at_its_step(self, star3):
        # lambda_1500 = 1.5 sits in the second chunk of schedule values; the
        # stream still yields x_0..x_1500 and fails only when x_1501 is drawn
        sched = CompetitionSchedule(ScheduleKind.CUSTOM, seq=(0.5,) * 1500 + (1.5,))
        stream = iterate(star3, np.array([1.0, 0.0, 2.0]), sched)
        assert len(list(islice(stream, 1501))) == 1501
        with pytest.raises(InvalidParameter, match="lambda_1500 = 1.5"):
            next(stream)

    def test_chunked_lambda_checked_at_its_step_in_a_block(self, star3):
        # the same bad value in one column of a uniform + custom block: the
        # per-column table still raises only when x_1501 is drawn
        bad = CompetitionSchedule(ScheduleKind.CUSTOM, seq=(0.5,) * 1500 + (1.5,))
        stream = iterate(star3, np.array([1.0, 0.0, 2.0]), [hyperbolic(), bad])
        xs = list(islice(stream, 1501))
        assert len(xs) == 1501 and xs[-1].shape == (3, 2)
        with pytest.raises(InvalidParameter, match="lambda_1500 = 1.5"):
            next(stream)

    def test_schedule_list_validation(self, star3):
        with pytest.raises(DimensionMismatch):
            next(iterate(star3, np.ones((3, 2)), [hyperbolic()] * 3))
        with pytest.raises(DimensionMismatch):
            next(iterate(star3, np.ones(3), []))
        with pytest.raises(InvalidParameter, match="unsupported"):
            next(iterate(star3, np.ones(3), [hyperbolic(), object()]))

    def test_non_finite_start_rejected(self, star3):
        with pytest.raises(InvalidParameter, match="finite"):
            next(iterate(star3, np.array([np.nan, 0.0, 0.0]), zero_consensus()))

    @given(lam=st.floats(0.0, 1.0), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_containment(self, star3, lam, seed):
        # each update is a convex combination, so opinions stay in hull(x0)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-3.0, 3.0, 3)
        xs = states(star3, x0, constant(lam), 8)
        assert xs.min() >= x0.min() - 1e-12
        assert xs.max() <= x0.max() + 1e-12


class TestSimulate:
    def test_zero_schedule_reaches_consensus(self, star3):
        x0 = np.array([3.0, 0.0, 0.0])
        traj = simulate(star3, x0, zero_consensus(), horizon=200)
        assert traj.x_ss == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(traj.x(200), np.ones(3), atol=1e-8)
        assert traj.distances[-1] < 1e-8

    def test_constant_one_never_moves(self, star3):
        x0 = np.array([3.0, 0.0, 0.0])
        traj = simulate(star3, x0, constant(1.0), horizon=20)
        np.testing.assert_array_equal(traj.x(20), x0)

    def test_distances_definition(self, study_weights, study_x0):
        traj = simulate(study_weights, study_x0, hyperbolic(), horizon=50)
        xs = states(study_weights, study_x0, hyperbolic(), 50)
        for t in (0, 7, 50):
            assert traj.distances[t] == np.linalg.norm(xs[t] - traj.x_ss)
            assert traj.avg_distances[t] == np.abs(xs[t] - traj.x_ss).mean()
        np.testing.assert_array_equal(traj.x(50), xs[50])

    def test_horizon_zero(self, star3):
        traj = simulate(star3, np.array([1.0, 0.0, 2.0]), hyperbolic(), horizon=0)
        np.testing.assert_array_equal(traj.x(0), [1.0, 0.0, 2.0])
        assert len(traj.distances) == 1

    def test_block_matches_single_runs(self, study_weights):
        rng = np.random.default_rng(9)
        block = rng.standard_normal((20, 5))
        for sched in (hyperbolic(), make_adversarial_nonuniform(6, 3)):
            traj = simulate(study_weights, block, sched, horizon=200)
            assert traj.distances.shape == traj.avg_distances.shape == (201, 5)
            for b in range(5):
                one = simulate(study_weights, block[:, b], sched, horizon=200)
                assert abs(traj.x_ss[b] - one.x_ss) < 1e-13
                np.testing.assert_allclose(traj.distances[:, b], one.distances, rtol=0, atol=1e-13)
                np.testing.assert_allclose(traj.avg_distances[:, b], one.avg_distances, rtol=0, atol=1e-13)
                np.testing.assert_allclose(traj.x(200)[:, b], one.x(200), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("columns", [None, 1, 40])
    @pytest.mark.parametrize("sched", [hyperbolic(), make_adversarial_nonuniform(6, 3)], ids=["uniform", "adversarial"])
    def test_chunked_reductions_match_per_step(self, study_weights, columns, sched):
        # the buffered reductions must equal per-step norm and mean bit for
        # bit, at every horizon around the buffer's row count; a block column
        # must reduce exactly like a single run of its states
        shape = (20,) if columns is None else (20, columns)
        x0 = np.random.default_rng(4).standard_normal(shape)
        rows = min(CHUNK, BUFFER_ELEMENTS // x0.size)
        for horizon in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 3):
            traj = simulate(study_weights, x0, sched, horizon)
            xs = list(islice(iterate(study_weights, x0, sched), horizon + 1))
            if columns is None:
                norms = [np.linalg.norm(x - traj.x_ss) for x in xs]
                means = [np.abs(x - traj.x_ss).mean() for x in xs]
            else:
                cols = range(columns)
                norms = [[np.linalg.norm(x[:, j] - traj.x_ss[j]) for j in cols] for x in xs]
                means = [[np.abs(x[:, j] - traj.x_ss[j]).mean() for j in cols] for x in xs]
            np.testing.assert_array_equal(traj.distances, norms)
            np.testing.assert_array_equal(traj.avg_distances, means)
            np.testing.assert_array_equal(traj.x(horizon), xs[-1])

    def test_block_stream_yields_fresh_columns(self, study_weights):
        # a block streams as n x B arrays that later steps never overwrite,
        # and a per-agent schedule on a block matches its per-column runs
        block = np.random.default_rng(8).standard_normal((20, 6))
        sched = make_adversarial_nonuniform(5, 2)
        xs, kept = [], []
        for x in islice(iterate(study_weights, block, sched), 30):
            xs.append(x)
            kept.append(x.copy())  # as drawn, before any later step
        for x, k in zip(xs, kept):
            assert x.shape == (20, 6)
            np.testing.assert_array_equal(x, k)
        np.testing.assert_array_equal(xs[0], block)
        for j in range(6):
            single = states(study_weights, block[:, j], sched, 29)
            np.testing.assert_allclose(np.array(xs)[:, :, j], single, rtol=0, atol=1e-13)

    def test_schedule_per_column_matches_single_runs(self, study_weights, study_x0):
        # one start under a list of schedules: each column is that schedule's
        # single run up to round-off, all centred on the start's one x_ss
        scheds = [exponential(0.5), hyperbolic(), constant(0.3), make_adversarial_nonuniform(7, 4)]
        block = simulate(study_weights, study_x0, scheds, horizon=300)
        assert block.distances.shape == (301, 4)
        assert block.x_ss == study_weights.consensus_value(study_x0)
        for j, sched in enumerate(scheds):
            one = simulate(study_weights, study_x0, sched, horizon=300)
            col = block.column(j)
            assert col.x_ss == one.x_ss
            np.testing.assert_allclose(col.distances, one.distances, rtol=0, atol=1e-13)
            np.testing.assert_allclose(col.avg_distances, one.avg_distances, rtol=0, atol=1e-13)
            np.testing.assert_allclose(col.x(300), one.x(300), rtol=0, atol=1e-13)
            assert np.shares_memory(col.distances, block.distances)
        # the start repeated as an n x 4 block of starts gives the same block
        repeated = np.repeat(study_x0[:, None], 4, axis=1)
        for x, y in zip(islice(iterate(study_weights, study_x0, scheds), 20),
                        islice(iterate(study_weights, repeated, scheds), 20)):
            np.testing.assert_array_equal(x, y)

    def test_one_schedule_list_is_the_single_run(self, study_weights, study_x0):
        # a one-column block holds the start as the same 1 x n row as a
        # single run, so its series are bit-identical
        for sched in (hyperbolic(), make_adversarial_nonuniform(7, 4)):
            one = simulate(study_weights, study_x0, sched, horizon=2 * CHUNK + 5)
            col = simulate(study_weights, study_x0, [sched], horizon=2 * CHUNK + 5).column(0)
            np.testing.assert_array_equal(col.distances, one.distances)
            np.testing.assert_array_equal(col.avg_distances, one.avg_distances)
            np.testing.assert_array_equal(col.x(2 * CHUNK + 5), one.x(2 * CHUNK + 5))

    def test_lambda_table_memory_is_bounded(self):
        # a per-agent column widens the table to n numbers per column; its
        # rows shrink so that it keeps to BUFFER_ELEMENTS numbers
        n = 1000
        w = metropolis_weights(path_graph(n), lazy=True)
        x0 = np.linspace(0.0, 5.0, n)
        stream = iterate(w, x0, [exponential(0.5), make_adversarial_nonuniform(tstar=3 * CHUNK, target=n - 1)])
        tracemalloc.start()
        try:
            for _ in islice(stream, CHUNK + 2):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 8 * BUFFER_ELEMENTS < peak < 4 * 2**20  # a CHUNK-row table would be 16 MB

    def test_adversarial_schedule_holds_target(self, star3):
        x0 = np.array([3.0, 0.0, 0.0])
        xs = states(star3, x0, make_adversarial_nonuniform(tstar=4, target=0), 6)
        assert (xs[:6, 0] == 3.0).all()
        assert xs[6, 0] < 3.0

    def test_converged_at_requires_window(self, star3):
        traj = simulate(star3, np.array([3.0, 0.0, 0.0]), zero_consensus(), horizon=300)
        t = traj.converged_at(eps=1e-6, window=10)
        assert t is not None
        assert traj.distances[t] < 1e-6
        assert (traj.distances[t:t + 10] < 1e-6).all()
        # one step earlier the window must be broken
        assert traj.distances[t - 1] >= 1e-6
        # a block converges when its slowest column does
        block = np.array([[0.0, 0.0], [3.0, 30.0], [0.0, 0.0]])
        fast, slow = (simulate(star3, block[:, b], zero_consensus(), 300).converged_at(1e-6) for b in (0, 1))
        assert fast < slow == simulate(star3, block, zero_consensus(), 300).converged_at(1e-6)

    @given(horizon=st.integers(0, 40), window=st.integers(1, 12),
           columns=st.sampled_from([None, 1, 3]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_converged_at_matches_loop(self, star3, horizon, window, columns, data):
        shape = (horizon + 1,) if columns is None else (horizon + 1, columns)
        below = data.draw(arrays(np.bool_, shape))
        for mask in (below, np.zeros(shape, bool)):  # the second never converges
            d = np.where(mask, 0.0, 1.0)
            traj = Trajectory(weighted=star3, x0=np.zeros(3), x_ss=0.0, horizon=horizon,
                              distances=d, avg_distances=d, _x_final=np.zeros(3))
            assert traj.converged_at(0.5, window) == converged_at_loop(d, 0.5, window)
        assert traj.converged_at(0.5, window) is None

    def test_x_out_of_range(self, star3):
        # only the start and the final state are kept
        traj = simulate(star3, np.ones(3), hyperbolic(), horizon=3)
        for t in (-1, 1, 2, 4):
            with pytest.raises(InvalidParameter):
                traj.x(t)


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
            xs = states(w, x0, sched, 60)
            calc = TransitionCalculator(w, sched)
            for t in (0, 1, 2, 7, 33, 60):
                dec = calc.at(t)
                xt = (dec.psi_aut + dec.psi_in) @ x0
                assert np.abs(xt - xs[t]).max() < 1e-10

    def test_earlier_step_restarts(self, study_weights):
        calc = TransitionCalculator(study_weights, hyperbolic())
        late = calc.at(40)
        early = calc.at(7)
        fresh = transition_decomposition(study_weights, hyperbolic(), 7)
        np.testing.assert_array_equal(early.psi_aut, fresh.psi_aut)
        np.testing.assert_array_equal(early.psi_in, fresh.psi_in)
        np.testing.assert_array_equal(calc.at(40).psi_in, late.psi_in)

    def test_memory_is_quadratic_in_n(self):
        # 2,001 cached powers of a 50 x 50 matrix would take 40 MB
        w = metropolis_weights(path_graph(50))
        calc = TransitionCalculator(w, exponential(0.05))
        tracemalloc.start()
        try:
            calc.at(2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

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
