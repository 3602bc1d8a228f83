"""Tests for the update map, the streaming kernel, and transition operators."""

import re
import tempfile
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fjfade import (
    AsymmetricWeights,
    CompetitionSchedule,
    DimensionMismatch,
    InvalidParameter,
    NonUniformSchedule,
    NonUniformUnsupported,
    ScheduleKind,
    TransitionCalculator,
    constant,
    custom,
    complete_graph,
    deviation_experiment,
    exponential,
    generate_erdos_renyi,
    hyperbolic,
    infinite_products,
    iterate,
    lower_bound_series,
    make_adversarial_nonuniform,
    metropolis_weights,
    modal_distances,
    path_graph,
    row_stochastic_weights,
    simulate,
    star_graph,
    zero_consensus,
)
from fjfade import dynamics
from fjfade.bounds import CONSENSUS_FLOOR
from fjfade.cli import main
from fjfade.config import GRAPH_KINDS, WEIGHT_KINDS, parse_config
from fjfade.dynamics import BUFFER_ELEMENTS, CHUNK, Trajectory
from fjfade.experiment import DISTANCE_FLOOR, build_network, build_weights

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


def deviations(weighted, x0, schedule, horizon):
    """e_0..e_horizon, the states of the stream from x0 - x_ss that `simulate` reduces."""
    return states(weighted, x0 - weighted.consensus_value(x0), schedule, horizon)


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
        # past tstar the held run reads lambda 0 and pins nothing; it must
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
        with pytest.raises(InvalidParameter, match="target 3 out of range for n=3"):
            next(iterate(star3, np.ones(3), [hyperbolic(), make_adversarial_nonuniform(2, 3)]))
        # a schedule checks its lambda when built, so no step re-checks it
        with pytest.raises(InvalidParameter, match=r"constant level must lie in \[0, 1\], got 1.5"):
            CompetitionSchedule(ScheduleKind.CONSTANT, lam=1.5)

    def test_schedule_list_validation(self, star3):
        # one start only: an n x B block is rejected with or without a list
        for sched in ([hyperbolic()] * 2, hyperbolic()):
            with pytest.raises(DimensionMismatch):
                next(iterate(star3, np.ones((3, 2)), sched))
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
        e = deviations(star3, x0, zero_consensus(), 200)[-1]
        np.testing.assert_allclose(traj.x_ss + e, np.ones(3), atol=1e-8)
        assert traj.distances[-1] == np.linalg.norm(e)
        assert traj.distances[-1] < 1e-8

    def test_constant_one_never_moves(self, star3):
        x0 = np.array([3.0, 0.0, 0.0])
        traj = simulate(star3, x0, constant(1.0), horizon=20)
        es = deviations(star3, x0, constant(1.0), 20)
        np.testing.assert_array_equal(es, np.tile(x0 - traj.x_ss, (21, 1)))
        np.testing.assert_array_equal(traj.distances, np.linalg.norm(x0 - traj.x_ss))
        np.testing.assert_array_equal(traj.avg_distances, np.abs(x0 - traj.x_ss).mean())

    def test_distances_definition(self, study_weights, study_x0):
        # simulate steps e_t = x_t - x_ss 1 from e_0 = x0 - x_ss 1 and reduces it
        traj = simulate(study_weights, study_x0, hyperbolic(), horizon=50)
        assert traj.x_ss == study_weights.consensus_value(study_x0)
        es = states(study_weights, study_x0 - traj.x_ss, hyperbolic(), 50)
        for t in (0, 7, 50):
            assert traj.distances[t] == np.linalg.norm(es[t])
            assert traj.avg_distances[t] == np.abs(es[t]).mean()

    def test_horizon_zero(self, star3):
        x0 = np.array([1.0, 0.0, 2.0])
        traj = simulate(star3, x0, hyperbolic(), horizon=0)
        (e,) = deviations(star3, x0, hyperbolic(), 0)
        np.testing.assert_array_equal(e, x0 - traj.x_ss)
        np.testing.assert_array_equal(traj.distances, [np.linalg.norm(e)])
        np.testing.assert_array_equal(traj.avg_distances, [np.abs(e).mean()])

    @pytest.mark.parametrize("columns", [None, 1, 40])
    @pytest.mark.parametrize("sched", [hyperbolic(), make_adversarial_nonuniform(6, 3)], ids=["uniform", "adversarial"])
    def test_chunked_reductions_match_per_step(self, study_weights, columns, sched):
        # the buffered reductions must equal per-step norm and mean of the
        # stepped deviations bit for bit, at every horizon around the buffer's
        # row count; a column of a schedule list must reduce exactly like a
        # single run of its deviations
        x0 = np.random.default_rng(4).standard_normal(20)
        scheds = sched if columns is None else ([sched, constant(0.3)] * columns)[:columns]
        rows = min(CHUNK, BUFFER_ELEMENTS // (20 * (columns or 1)))
        for horizon in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 3):
            traj = simulate(study_weights, x0, scheds, horizon)
            es = list(islice(iterate(study_weights, x0 - traj.x_ss, scheds), horizon + 1))
            if columns is None:
                norms = [np.linalg.norm(e) for e in es]
                means = [np.abs(e).mean() for e in es]
            else:
                cols = range(columns)
                norms = [[np.linalg.norm(e[:, j]) for j in cols] for e in es]
                means = [[np.abs(e[:, j]).mean() for j in cols] for e in es]
            np.testing.assert_array_equal(traj.distances, norms)
            np.testing.assert_array_equal(traj.avg_distances, means)

    def test_block_stream_yields_fresh_columns(self, study_weights):
        # a schedule list streams as n x S arrays that later steps never
        # overwrite, and each column, held or not, is its single run in every bit
        x0 = np.random.default_rng(8).standard_normal(20)
        scheds = [make_adversarial_nonuniform(5, 2), hyperbolic(), make_adversarial_nonuniform(20, 7),
                  constant(0.3), make_adversarial_nonuniform(0, 19), zero_consensus()]
        xs, kept = [], []
        for x in islice(iterate(study_weights, x0, scheds), 30):
            xs.append(x)
            kept.append(x.copy())  # as drawn, before any later step
        for x, k in zip(xs, kept):
            assert x.shape == (20, 6)
            np.testing.assert_array_equal(x, k)
        np.testing.assert_array_equal(xs[0], np.tile(x0[:, None], 6))
        for j, sched in enumerate(scheds):
            single = states(study_weights, x0, sched, 29)
            np.testing.assert_array_equal(np.array(xs)[:, :, j], single)

    def test_schedule_per_column_matches_single_runs(self, study_weights, study_x0):
        # one start under a list of schedules: each column steps by its own row
        # product with W.T, so it is that schedule's single run in every bit,
        # all centred on the start's one x_ss
        scheds = [exponential(0.5), hyperbolic(), constant(0.3), make_adversarial_nonuniform(7, 4)]
        block = simulate(study_weights, study_x0, scheds, horizon=300)
        assert block.distances.shape == (301, 4)
        assert block.x_ss == study_weights.consensus_value(study_x0)
        e_block = deviations(study_weights, study_x0, scheds, 300)[-1]
        for j, sched in enumerate(scheds):
            one = simulate(study_weights, study_x0, sched, horizon=300)
            col = block.column(j)
            assert col.x_ss == one.x_ss
            np.testing.assert_array_equal(col.distances, one.distances)
            np.testing.assert_array_equal(col.avg_distances, one.avg_distances)
            e_one = deviations(study_weights, study_x0, sched, 300)[-1]
            np.testing.assert_array_equal(e_block[:, j], e_one)
            assert col.distances[-1] == np.linalg.norm(e_block[:, j])
            assert one.distances[-1] == np.linalg.norm(e_one)
            assert np.shares_memory(col.distances, block.distances)

    def test_one_schedule_list_is_the_single_run(self, study_weights, study_x0):
        # a one-column block holds the start as the same 1 x n row as a
        # single run, so its series are bit-identical
        horizon = 2 * CHUNK + 5
        for sched in (hyperbolic(), make_adversarial_nonuniform(7, 4)):
            one = simulate(study_weights, study_x0, sched, horizon)
            col = simulate(study_weights, study_x0, [sched], horizon).column(0)
            np.testing.assert_array_equal(col.distances, one.distances)
            np.testing.assert_array_equal(col.avg_distances, one.avg_distances)
            e_one = deviations(study_weights, study_x0, sched, horizon)
            np.testing.assert_array_equal(deviations(study_weights, study_x0, [sched], horizon)[:, :, 0], e_one)
            np.testing.assert_array_equal(one.distances, [np.linalg.norm(e) for e in e_one])

    def test_lambda_table_memory_is_bounded(self):
        # a held column reads lambda 0 and pins its target, so the table
        # holds one number per column whatever n (an n-wide one took 1.3 MB)
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
        assert peak < 256 * 2**10

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
        # a schedule list converges when its slowest column does
        x0 = np.array([3.0, 0.0, 0.0])
        scheds = [zero_consensus(), exponential(0.2)]
        fast, slow = (simulate(star3, x0, s, 300).converged_at(1e-6) for s in scheds)
        assert fast < slow == simulate(star3, x0, scheds, 300).converged_at(1e-6)

    @given(horizon=st.integers(0, 40), window=st.integers(1, 12),
           columns=st.sampled_from([None, 1, 3]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_converged_at_matches_loop(self, star3, horizon, window, columns, data):
        shape = (horizon + 1,) if columns is None else (horizon + 1, columns)
        below = data.draw(arrays(np.bool_, shape))
        for mask in (below, np.zeros(shape, bool)):  # the second never converges
            d = np.where(mask, 0.0, 1.0)
            traj = Trajectory(weighted=star3, x_ss=0.0, horizon=horizon, distances=d, avg_distances=d)
            assert traj.converged_at(0.5, window) == converged_at_loop(d, 0.5, window)
        assert traj.converged_at(0.5, window) is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_start_rejected(self, star3, bad):
        # checked before x_ss is taken, so no warning from subtracting it
        for sched in (hyperbolic(), [hyperbolic(), make_adversarial_nonuniform(2, 0)]):
            with pytest.raises(InvalidParameter, match="^x0 must be finite$"):
                simulate(star3, np.array([1.0, bad, 0.0]), sched, 5)

    def test_wrong_length_start_rejected(self, star3):
        for x0 in (np.ones(2), np.ones((3, 2))):
            with pytest.raises(DimensionMismatch, match=re.escape(f"x0 has shape {x0.shape}, expected (3,)")):
                simulate(star3, x0, hyperbolic(), 5)


@st.composite
def modal_configs(draw):
    """A symmetric network, a uniform schedule, a horizon and a block of starts
    whose last column is a consensus."""
    n = draw(st.integers(2, 30))
    graph = draw(st.sampled_from(["path", "star", "complete", "er"]))
    if graph == "er":
        net = generate_erdos_renyi(n, draw(st.floats(0.2, 1.0)), draw(st.integers(0, 1000)))
        assume(net.connected)
    else:
        net = {"path": path_graph, "star": star_graph, "complete": complete_graph}[graph](n)
    weighted = metropolis_weights(net, lazy=draw(st.booleans()))
    unit = st.floats(0.0, 1.0)
    schedule = draw(st.one_of(
        st.floats(0.01, 3.0).map(exponential), st.just(hyperbolic()), unit.map(constant),
        st.lists(unit, min_size=1, max_size=40).map(lambda seq: custom(sorted(seq, reverse=True))),
    ))
    horizon = draw(st.integers(0, 300))
    starts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-5.0, 5.0, (n, draw(st.integers(1, 6))))
    starts[:, -1] = draw(st.floats(-5.0, 5.0))
    return weighted, schedule, horizon, starts


class TestModalDistances:
    @given(modal_configs())
    @settings(max_examples=150, deadline=None)
    def test_matches_simulate(self, config):
        # the eigenbasis evaluation agrees with the stepped deviations within
        # 1e-12 (|e_0| + |x_0|). At a consensus start the modal distance stays
        # within 1e-14 (1 + |x_0|) of the exact 0. The lazy witness keeps to the
        # lower edge, which obeys the same gain recurrence.
        weighted, schedule, horizon, starts = config
        d = np.concatenate(list(modal_distances(weighted, starts, schedule, horizon)))
        stepped = np.column_stack([simulate(weighted, x0, schedule, horizon).distances for x0 in starts.T])
        size = np.linalg.norm(starts, axis=0)
        assert d.shape == stepped.shape == (horizon + 1, starts.shape[1])
        assert (np.abs(d - stepped) <= 1e-12 * (stepped[0] + size)).all()
        assert (d[:, -1] <= 1e-14 * (1.0 + size[-1])).all()
        # a diagonal of at least 1/2 (lazy weights) keeps the spectrum nonnegative
        if weighted.W.diagonal().min() >= 0.5 and 0.0 < weighted.sigma_max < 1.0 and schedule.vanishing:
            witness = np.concatenate(list(modal_distances(weighted, 1.0 + weighted.v2, schedule, horizon)))
            lower = lower_bound_series(weighted.sigma_max, schedule, horizon)
            assert np.max(lower - witness / witness[0], initial=0.0) <= 1e-14

    def test_needs_symmetric_weights_and_a_uniform_schedule(self, row_stochastic_fixture, star3):
        # checked when the first block is drawn
        with pytest.raises(AsymmetricWeights):
            next(modal_distances(row_stochastic_fixture, np.ones(8), hyperbolic(), 5))
        with pytest.raises(NonUniformUnsupported):
            next(modal_distances(star3, np.ones(3), make_adversarial_nonuniform(2, 0), 5))

    @pytest.mark.parametrize("rows", [1, 4, CHUNK])
    @pytest.mark.parametrize("width", [None, 1, 5])
    def test_yields_blocks_of_buffer_rows(self, monkeypatch, star3, rows, width):
        # each block holds `rows` steps, the last one short, and is a new array
        # that the next block does not overwrite
        monkeypatch.setattr(dynamics, "BUFFER_ELEMENTS", rows * star3.n)
        starts = np.arange(3.0) if width is None else np.random.default_rng(width).standard_normal((3, width))
        for horizon in (0, rows - 1, rows, rows + 1, 3 * rows):
            blocks = list(modal_distances(star3, starts, exponential(0.3), horizon))
            assert [len(b) for b in blocks] == [min(rows, horizon + 1 - lo) for lo in range(0, horizon + 1, rows)]
            assert all(b.shape[1:] == starts.shape[1:] for b in blocks)
            whole = np.concatenate(blocks)
            stepped = simulate(star3, starts if width is None else starts[:, 0], exponential(0.3), horizon)
            column = whole if width is None else whole[:, 0]
            np.testing.assert_allclose(column, stepped.distances, rtol=0, atol=1e-12)


def reference_states(W, x0, schedule):
    """x_0, x_1, ... of the paper's recursion x <- (1 - lam) W x + lam x0, one t
    at a time; a held schedule's lam is 1 at its target while t <= tstar, else 0."""
    x, t = x0, 0
    while True:
        yield x
        if isinstance(schedule, NonUniformSchedule):
            lam = np.zeros(len(x0))
            lam[schedule.target] = t <= schedule.tstar
        else:
            lam = schedule.value(t)
        x = (1.0 - lam) * (W @ x) + lam * x0
        t += 1


UNIT = st.floats(0.0, 1.0)
UNIFORM_KINDS = {
    ScheduleKind.CONSTANT: UNIT.map(constant),
    ScheduleKind.EXPONENTIAL: st.floats(0.01, 3.0).map(exponential),
    ScheduleKind.HYPERBOLIC: st.just(hyperbolic()),
    ScheduleKind.ZERO: st.just(zero_consensus()),
    ScheduleKind.CUSTOM: st.lists(UNIT, min_size=1, max_size=40).map(lambda seq: custom(sorted(seq, reverse=True))),
}


def draw_weights(draw, net):
    """Weights of a drawn kind on a connected network."""
    return {
        "metropolis": lambda: metropolis_weights(net),
        "lazy_metropolis": lambda: metropolis_weights(net, lazy=True),
        "row_stochastic": lambda: row_stochastic_weights(net, seed=draw(st.integers(0, 1000))),
    }[draw(st.sampled_from(WEIGHT_KINDS))]()


@st.composite
def reference_configs(draw):
    """A network of every graph and weight kind, one schedule of each uniform
    kind plus held columns with a fixed tstar, a horizon, and a start that is
    continuous or 0/1-valued (plateaus of ones keep the maximum for some steps)."""
    n = draw(st.integers(2, 30))
    graph = draw(st.sampled_from(GRAPH_KINDS))
    if graph == "er":
        net = generate_erdos_renyi(n, draw(st.floats(0.2, 1.0)), draw(st.integers(0, 1000)))
        assume(net.connected)
    else:
        net = {"path": path_graph, "star": star_graph, "complete": complete_graph}[graph](n)
    weights = draw_weights(draw, net)
    horizon = draw(st.integers(0, 300))
    held = st.builds(make_adversarial_nonuniform, st.integers(0, horizon + 1), st.integers(0, n - 1))
    schedules = [draw(UNIFORM_KINDS[kind]) for kind in ScheduleKind] + draw(st.lists(held, min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x0 = (rng.random(n) < draw(st.floats(0.5, 1.0))).astype(float)
    else:
        x0 = rng.uniform(-5.0, 5.0, n)
    return weights, draw(st.permutations(schedules)), horizon, x0


@st.composite
def consensus_configs(draw):
    """A connected ER network with weights of every kind, one schedule of each
    uniform kind, a horizon, and a consensus start c 1."""
    n = draw(st.integers(2, 30))
    net = generate_erdos_renyi(n, draw(st.floats(0.2, 1.0)), draw(st.integers(0, 1000)))
    assume(net.connected)
    schedules = [draw(UNIFORM_KINDS[kind]) for kind in ScheduleKind]
    return draw_weights(draw, net), schedules, draw(st.integers(0, 300)), np.full(n, draw(st.floats(-5.0, 5.0)))


@st.composite
def run_configs(draw):
    """Config text of a small `fjfade run`: every graph and weight kind, one
    section of each uniform kind, and held sections with a fixed tstar unless
    the start is a consensus, which no held agent can shift."""
    n = draw(st.integers(2, 16))
    graph = draw(st.sampled_from(GRAPH_KINDS))
    p = f"p = {draw(st.floats(0.3, 1.0))!r}\n" if graph == "er" else ""
    horizon = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = {"spread": rng.uniform(-5.0, 5.0, n), "binary": (rng.random(n) < 0.7).astype(float),
              "consensus": np.full(n, rng.uniform(-5.0, 5.0))}
    x0 = starts[draw(st.sampled_from(sorted(starts)))]
    unit = st.floats(0.0, 1.0)
    seq = sorted(draw(st.lists(unit, min_size=1, max_size=20)), reverse=True)
    sections = [
        f"kind = constant\nlam = {draw(unit)!r}",
        f"kind = exponential\nrate = {draw(st.floats(0.01, 3.0))!r}",
        "kind = hyperbolic",
        "kind = zero",
        "kind = custom\nseq = " + " ".join(map(repr, seq)),
    ]
    if x0.min() < x0.max():
        sections += [f"kind = adversarial\ntstar = {t}\ntarget = argmax"
                     for t in draw(st.lists(st.integers(0, horizon + 1), min_size=1, max_size=2))]
    head = (f"[experiment]\nn = {n}\nhorizon = {horizon}\nseed = {draw(st.integers(0, 1000))}\n"
            f"[graph]\nkind = {graph}\n{p}[weights]\nkind = {draw(st.sampled_from(WEIGHT_KINDS))}\n"
            f"[x0]\nvalues = {' '.join(map(repr, x0.tolist()))}\n")
    return head + "".join(f"[schedule.s{j}]\n{body}\n" for j, body in enumerate(sections))


class TestReferenceRecursion:
    @given(reference_configs())
    @settings(max_examples=100, deadline=None)
    def test_simulate_and_find_tstar_follow_the_recursion(self, config):
        # every column of one schedule list agrees with the recursion within
        # 1e-12 (|e_0| + |x_0|), the |x_0| term for the oracle's own drift: it
        # steps x_t, whose mean moves as W's row sums round off 1
        weighted, schedules, horizon, x0 = config
        traj = simulate(weighted, x0, schedules, horizon)
        x_ss = weighted.consensus_value(x0)
        tol = 1e-12 * (np.linalg.norm(x0 - x_ss) + np.linalg.norm(x0))
        for j, sched in enumerate(schedules):
            dev = np.array(list(islice(reference_states(weighted.W, x0, sched), horizon + 1))) - x_ss
            assert np.abs(traj.distances[:, j] - np.linalg.norm(dev, axis=1)).max() <= tol
            assert np.abs(traj.avg_distances[:, j] - np.abs(dev).mean(axis=1)).max() <= tol
        # the auto tstar is one past the last step at which the plain consensus
        # run still holds the target at x0[target], searched until the maximum
        # opinion falls below it
        target = int(np.argmax(x0))
        if x0.min() == x0.max():
            return  # a consensus start has no strict drop
        for t, x in enumerate(reference_states(weighted.W, x0, zero_consensus())):
            if x.max() < x0[target]:
                break
            if x[target] >= x0[target]:
                last = t
        assert deviation_experiment(weighted, x0, target).tstar == last + 1

    @given(run_configs())
    @settings(max_examples=30, deadline=None)
    def test_run_csv_follows_the_recursion(self, text):
        # log10_avg_distance and ratio of each CSV against the recursion's
        # distances; ratio cells are empty for held columns and consensus starts
        cfg = parse_config(text)
        with tempfile.TemporaryDirectory() as out:
            Path(out, "run.ini").write_text(text)
            assert main(["run", str(Path(out, "run.ini")), "--out", out, "--quiet"]) == 0
            csvs = {spec.label: [row.split(",") for row in Path(out, spec.label + ".csv").read_text().splitlines()[1:]]
                    for spec in cfg.schedules}
        weighted, _ = build_weights(cfg, build_network(cfg).network)
        x0 = np.array(cfg.x0_values)
        x_ss = weighted.consensus_value(x0)
        d0 = np.linalg.norm(x0 - x_ss)
        assume(not CONSENSUS_FLOOR / 2 <= d0 <= 2 * CONSENSUS_FLOOR)  # the run and the oracle may round apart
        tol = 1e-12 * (d0 + np.linalg.norm(x0))
        for spec in cfg.schedules:
            sched = spec.schedule or make_adversarial_nonuniform(spec.tstar, int(np.argmax(x0)))
            dev = np.array(list(islice(reference_states(weighted.W, x0, sched), cfg.horizon + 1))) - x_ss
            avg, d = np.abs(dev).mean(axis=1), np.linalg.norm(dev, axis=1)
            rows = csvs[spec.label]
            assert [int(r[0]) for r in rows] == list(range(cfg.horizon + 1))
            shown = 10.0 ** np.array([float(r[1]) for r in rows])
            assert np.all(np.abs(shown - np.maximum(avg, DISTANCE_FLOOR)) <= tol + 1e-13 * shown)
            if spec.is_adversarial or d[0] < CONSENSUS_FLOOR:
                assert all(r[2] == "" for r in rows)
                continue
            ratio = np.array([float(r[2]) for r in rows])
            assert np.all(np.abs(ratio - d / d[0]) <= tol * (1.0 + d / d[0]) / d[0] + 1e-13 * ratio)


class TestConsensusStart:
    @given(consensus_configs())
    @settings(max_examples=300, deadline=None)
    def test_distances_stay_within_the_rounding_of_the_start(self, config):
        # e_0 = c - x_ss is a rounding error (often exactly 0), and every step is
        # a convex blend of W e and e_0, so no distance exceeds sqrt(n) max|e_0|
        # beyond rounding: the row sums of W rounding off 1 never act on c
        weighted, schedules, horizon, x0 = config
        traj = simulate(weighted, x0, schedules, horizon)
        bound = np.sqrt(len(x0)) * np.abs(x0 - traj.x_ss).max() * (1.0 + 1e-12)
        assert (traj.distances <= bound).all()


class TestTransitionDecomposition:
    def test_t_zero_is_identity(self, star3):
        dec = TransitionCalculator(star3, hyperbolic()).at(0)
        np.testing.assert_array_equal(dec.psi_aut, np.eye(3))
        np.testing.assert_array_equal(dec.psi_in, np.zeros((3, 3)))

    def test_hand_value_t1(self, star3):
        # t=1: psi_aut = (1 - lam_0) W, psi_in = lam_0 I
        sched = constant(0.3)
        dec = TransitionCalculator(star3, sched).at(1)
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
        fresh = TransitionCalculator(study_weights, hyperbolic()).at(7)
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
    def test_matrix_limit_oracle(self, study_weights):
        # Psi_in(t) converges to the rank-one matrix 1 y^T, y = (1 - Lambda_0^inf) perron
        sched = exponential(0.5)
        y = (1.0 - infinite_products(sched).lam_to_inf(0)) * study_weights.perron
        dec = TransitionCalculator(study_weights, sched).at(400)
        target = np.outer(np.ones(20), y)
        assert np.abs(dec.psi_in - target).max() < 1e-10
