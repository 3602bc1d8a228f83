"""Tests for graph generation, consensus weights, and spectral extraction.

The edge-list oracle below draws one uniform per vertex pair in lexicographic
order with scalar rng calls; the generator must reproduce it exactly.
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjfade import (
    DimensionMismatch,
    DisconnectedNetwork,
    InvalidParameter,
    Network,
    WeightedNetwork,
    WeightKind,
    complete_graph,
    generate_erdos_renyi,
    metropolis_weights,
    path_graph,
    row_stochastic_weights,
    star_graph,
)
from fjfade.network import _row_stochastic_from_rng

# frozen oracle: scalar draws over lexicographic pairs, seed 7, n=5, p=0.5
ER_5_HALF_7_EDGES = ((0, 4), (1, 2), (1, 4), (3, 4))


def scalar_er_oracle(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = []
    for (i, j) in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.append((i, j))
    return tuple(edges)


class TestNetwork:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            Network(n=0, edges=())
        with pytest.raises(InvalidParameter):
            Network(n=3, edges=((2, 1),))  # pairs must be ordered i < j
        with pytest.raises(InvalidParameter):
            Network(n=3, edges=((0, 3),))
        with pytest.raises(InvalidParameter):
            Network(n=3, edges=((0, 0),))

    def test_neighbors_and_degrees(self):
        net = Network(n=4, edges=((0, 1), (1, 2), (1, 3)))
        assert net.neighbors[1] == (0, 2, 3)
        assert net.neighbors[3] == (1,)
        np.testing.assert_array_equal(net.degrees, [1, 3, 1, 1])

    def test_connectivity(self):
        assert Network(n=3, edges=((0, 1), (1, 2))).connected
        assert not Network(n=4, edges=((0, 1), (2, 3))).connected
        assert not Network(n=3, edges=()).connected


class TestErdosRenyi:
    def test_frozen_oracle(self):
        net = generate_erdos_renyi(5, 0.5, 7)
        assert net.edges == ER_5_HALF_7_EDGES

    @given(n=st.integers(2, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 999))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_oracle(self, n, p, seed):
        assert generate_erdos_renyi(n, p, seed).edges == scalar_er_oracle(n, p, seed)

    def test_memory_is_linear_in_n(self):
        # all n(n-1)/2 pair tuples at n = 1,500 would take about 80 MB
        tracemalloc.start()
        try:
            net = generate_erdos_renyi(1500, 0.01, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(net.edges) == 11209
        assert peak < 8 * 2**20

    def test_extremes(self):
        assert generate_erdos_renyi(6, 0.0, 3).edges == ()
        assert generate_erdos_renyi(6, 1.0, 3).edges == complete_graph(6).edges

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            generate_erdos_renyi(1, 0.5, 0)
        with pytest.raises(InvalidParameter):
            generate_erdos_renyi(5, 1.5, 0)


class TestNamedGraphs:
    def test_path(self):
        net = path_graph(4)
        assert net.edges == ((0, 1), (1, 2), (2, 3))
        assert net.connected

    def test_star(self):
        net = star_graph(4)
        assert net.edges == ((0, 1), (0, 2), (0, 3))
        np.testing.assert_array_equal(net.degrees, [3, 1, 1, 1])

    def test_complete(self):
        net = complete_graph(4)
        assert len(net.edges) == 6


class TestMetropolisWeights:
    def test_star3_exact(self, star3):
        third = 1.0 / 3.0
        expect = np.array([
            [third, third, third],
            [third, 2 * third, 0.0],
            [third, 0.0, 2 * third],
        ])
        np.testing.assert_allclose(star3.W, expect, atol=1e-15)
        assert star3.kind is WeightKind.DOUBLY_STOCHASTIC

    def test_star3_spectral_exact(self, star3):
        # eigenvalues of the star are {1, 2/3, 0}
        assert star3.sigma_max == pytest.approx(2.0 / 3.0, abs=1e-10)
        np.testing.assert_allclose(star3.perron, np.full(3, 1.0 / 3.0), atol=1e-10)
        assert star3.symmetric

    def test_lazy_shifts_spectrum(self, star3, star3_lazy):
        np.testing.assert_allclose(
            star3_lazy.W, (star3.W + np.eye(3)) / 2.0, atol=1e-15
        )
        # lazy eigenvalues are (1 + mu) / 2, so sigma_max becomes 5/6
        assert star3_lazy.sigma_max == pytest.approx(5.0 / 6.0, abs=1e-10)

    def test_path2_is_averaging(self, path2):
        np.testing.assert_allclose(path2.W, np.full((2, 2), 0.5), atol=1e-15)
        assert path2.sigma_max == 0.0

    def test_validate_passes(self, study_weights):
        study_weights.validate()

    def test_replace_recomputes_spectral_data(self, study_weights, study_network):
        # a copy with a new W must not keep the spectral data of the old one
        lazy = metropolis_weights(study_network, lazy=True)
        assert study_weights.sigma_max != lazy.sigma_max
        study_weights.v2  # cache the old pair before copying
        copy = replace(study_weights, W=lazy.W)
        assert copy.sigma_max == lazy.sigma_max
        np.testing.assert_array_equal(copy.v2, lazy.v2)
        assert not np.array_equal(copy.v2, study_weights.v2)

    def test_validate_catches_tampering(self, study_weights):
        W = study_weights.W.copy()
        W[0, 0] += 1e-6
        with pytest.raises(InvalidParameter):
            replace(study_weights, W=W).validate()

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedNetwork):
            metropolis_weights(Network(n=4, edges=((0, 1), (2, 3))))

    def test_validate_rejects_disjoint_blocks(self, path2):
        # two averaging blocks: row supports match, but W is reducible
        W = np.kron(np.eye(2), path2.W)
        w = WeightedNetwork(Network(4, ((0, 1), (2, 3))), W, WeightKind.DOUBLY_STOCHASTIC)
        with pytest.raises(InvalidParameter, match="not primitive"):
            w.validate()

    def test_doubly_stochastic_on_random_graphs(self):
        for seed in range(5):
            net = generate_erdos_renyi(10, 0.4, seed + 20)
            if not net.connected:
                continue
            w = metropolis_weights(net)
            np.testing.assert_allclose(w.W.sum(axis=0), np.ones(10), atol=1e-12)
            np.testing.assert_allclose(w.W.sum(axis=1), np.ones(10), atol=1e-12)
            np.testing.assert_allclose(w.W, w.W.T, atol=1e-15)


class TestRowStochasticWeights:
    def test_rows_normalized_support_respected(self, row_stochastic_fixture):
        w = row_stochastic_fixture
        net = w.network
        np.testing.assert_allclose(w.W.sum(axis=1), np.ones(net.n), atol=1e-12)
        for i in range(net.n):
            support = set(net.neighbors[i]) | {i}
            assert set(np.nonzero(w.W[i])[0]) == support
        assert w.kind is WeightKind.ROW_STOCHASTIC

    def test_degenerate_rng_gives_uniform_rows(self):
        class ZeroRng:
            def random(self, size):
                return np.zeros(size)

        net = star_graph(3)
        w = _row_stochastic_from_rng(net, ZeroRng())
        np.testing.assert_allclose(w.W[0], np.full(3, 1.0 / 3.0), atol=1e-15)
        np.testing.assert_allclose(w.W[1], [0.5, 0.5, 0.0], atol=1e-15)

    def test_spectral_perron_is_stationary(self, row_stochastic_fixture):
        v = row_stochastic_fixture.perron
        np.testing.assert_allclose(row_stochastic_fixture.W.T @ v, v, atol=1e-9)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert (v > 0).all()
        assert not row_stochastic_fixture.symmetric


class TestSpectralOracle:
    def test_against_numpy_dense_solvers(self):
        for seed in (3, 9, 31):
            net = generate_erdos_renyi(9, 0.5, seed)
            if not net.connected:
                continue
            for w in (metropolis_weights(net), row_stochastic_weights(net, seed=seed)):
                # Perron oracle: dominant left eigenvector from dense eig
                vals, vecs = np.linalg.eig(w.W.T)
                idx = int(np.argmax(vals.real))
                v = np.abs(vecs[:, idx].real)
                v /= v.sum()
                np.testing.assert_allclose(w.perron, v, atol=1e-8)
                # sigma oracle: largest singular value of the deflated operator
                svals = np.linalg.svd(w.W - np.outer(np.ones(9), v), compute_uv=False)
                assert w.sigma_max == pytest.approx(svals[0], abs=1e-8)

    def test_rank_one_early_exit(self):
        w = metropolis_weights(complete_graph(5))
        assert w.sigma_max == 0.0

    def test_sigma_max_and_v2_share_one_factorization(self, factorizations):
        net = generate_erdos_renyi(9, 0.5, 3)
        for w, solver in ((metropolis_weights(net), "eigh"), (row_stochastic_weights(net, seed=3), "svd")):
            factorizations.clear()
            w.sigma_max
            w.v2
            w.sigma_max
            assert factorizations == [solver]

    def test_rank_one_v2_is_a_null_vector(self):
        # W = 11^T / n: v2 is a fixed unit vector orthogonal to 1 that A maps to 0
        w = metropolis_weights(complete_graph(5))
        A = w.W - np.outer(np.ones(w.n), w.perron)
        assert np.linalg.norm(w.v2) == pytest.approx(1.0, abs=1e-15)
        assert abs(w.v2.sum()) <= 1e-15
        np.testing.assert_allclose(A @ w.v2, 0.0, atol=1e-15)

    def test_long_lazy_path_closed_form(self):
        # lazy Metropolis on a path: sigma_max = 1 - (1 - cos(pi / n)) / 3,
        # with a spectral gap of 1e-5 at n = 400
        n = 400
        w = metropolis_weights(path_graph(n), lazy=True)
        assert abs(w.sigma_max - (1 - (1 - np.cos(np.pi / n)) / 3)) <= 1e-12

    def test_singular_vector_residual(self, study_weights, row_stochastic_fixture):
        for w in (study_weights, row_stochastic_fixture):
            A = w.W - np.outer(np.ones(w.n), w.perron)
            assert np.linalg.norm(A @ w.v2) == pytest.approx(w.sigma_max, abs=1e-8)
            np.testing.assert_allclose(A.T @ (A @ w.v2), w.sigma_max**2 * w.v2, atol=1e-8)
            assert np.linalg.norm(w.v2) == pytest.approx(1.0, abs=1e-12)
            assert w.v2[np.argmax(np.abs(w.v2))] >= 0

    def test_reducible_rejected(self):
        # agent 0 ignores agent 1: the stationary vector (1, 0) is not positive
        W = np.array([[1.0, 0.0], [0.5, 0.5]])
        w = WeightedNetwork(path_graph(2), W, WeightKind.ROW_STOCHASTIC)
        with pytest.raises(InvalidParameter, match="not primitive"):
            w.sigma_max


class TestConsensusValue:
    def test_weighted_average(self, star3):
        x0 = np.array([3.0, 0.0, 0.0])
        assert star3.consensus_value(x0) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self, star3):
        with pytest.raises(DimensionMismatch):
            star3.consensus_value(np.ones(4))
        with pytest.raises(DimensionMismatch):
            star3.consensus_value(np.ones((4, 2)))

    def test_block_gives_one_value_per_column(self, star3):
        block = np.array([[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        np.testing.assert_allclose(star3.consensus_value(block), [1.0, 1.0], atol=1e-10)

    def test_needs_no_factorization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("consensus_value must not factorize W")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        x0 = np.array([3.0, 1.0, 0.0, -2.0])
        for w in (metropolis_weights(star_graph(4)), row_stochastic_weights(star_graph(4), seed=5)):
            assert w.consensus_value(x0) == w.perron @ x0
            np.testing.assert_allclose(w.W.T @ w.perron, w.perron, atol=1e-12)
