"""Tests for graph generation, consensus weights, and spectral extraction.

The edge-list oracle below draws one uniform per vertex pair in lexicographic
order with scalar rng calls; the generator must reproduce it exactly. The
graph oracles after it walk the edges one Python pair at a time: a neighbour
table of sorted tuples, a breadth-first search over it, and the per-edge and
per-row weight loops. The array code must match them in every bit.
"""

import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjfade import (
    AsymmetricWeights,
    DimensionMismatch,
    DisconnectedNetwork,
    InvalidParameter,
    Network,
    WeightedNetwork,
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


def edge_array(pairs):
    """The (m, 2) int64 array a network stores for these pairs."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def neighbors_oracle(net):
    """Each agent's neighbours as a sorted tuple, built one edge at a time."""
    adj = [[] for _ in range(net.n)]
    for i, j in net.edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    return tuple(tuple(sorted(a)) for a in adj)


def bfs_connected_oracle(net):
    """Breadth-first reachability of every agent from agent 0."""
    neighbors = neighbors_oracle(net)
    seen = [False] * net.n
    seen[0] = True
    queue = [0]
    while queue:
        i = queue.pop()
        for j in neighbors[i]:
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    return all(seen)


def metropolis_oracle(net, lazy=False):
    """W_ij = 1 / (1 + max(d_i, d_j)) set one edge at a time, then the diagonal."""
    n = net.n
    deg = np.array([len(a) for a in neighbors_oracle(net)])
    W = np.zeros((n, n))
    for i, j in net.edges.tolist():
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, j] = w
        W[j, i] = w
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    if lazy:
        W /= 2.0
        W.flat[::n + 1] += 0.5
    return W


def row_stochastic_oracle(net, rng):
    """One batch of draws per row over the sorted set N(i) u {i}, normalized by its own sum."""
    neighbors = neighbors_oracle(net)
    W = np.zeros((net.n, net.n))
    for i in range(net.n):
        support = sorted(set(neighbors[i]) | {i})
        raw = 1.0 + rng.random(len(support))
        W[i, support] = raw / raw.sum()
    return W


@st.composite
def edge_sets(draw):
    """A graph on n <= 60 agents under a random labelling and edge order: random
    pairs, a path, a random tree, or two random trees with no edge between them."""
    n = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["pairs", "path", "tree", "union"]))
    if shape == "pairs":
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    elif shape == "path":
        pairs = [(k, k + 1) for k in range(n - 1)]
    else:
        cut = draw(st.integers(1, max(1, n - 1))) if shape == "union" else n
        pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, cut)]
        pairs += [(draw(st.integers(cut, k - 1)), k) for k in range(cut + 1, n)]
    label = draw(st.permutations(range(n)))
    edges = sorted({(min(label[i], label[j]), max(label[i], label[j])) for i, j in pairs if i != j})
    return Network(n=n, edges=draw(st.permutations(edges)))


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
        with pytest.raises(InvalidParameter, match=r"duplicate edge \(0, 1\)"):
            Network(n=3, edges=((0, 1), (1, 2), (0, 1)))

    @given(n=st.integers(1, 6), edges=st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_edge_rule(self, n, edges):
        # each edge must satisfy 0 <= i < j < n and appear once; an error
        # names an invalid edge if there is one, else a repeated one
        invalid = [e for e in edges if not 0 <= e[0] < e[1] < n]
        repeated = [e for k, e in enumerate(edges) if e in edges[:k]]
        if not invalid and not repeated:
            np.testing.assert_array_equal(Network(n=n, edges=tuple(edges)).edges, edge_array(edges), strict=True)
            return
        with pytest.raises(InvalidParameter) as err:
            Network(n=n, edges=tuple(edges))
        kind, i, j = re.fullmatch(r"(.*)edge \((-?\d+), (-?\d+)\).*", str(err.value)).groups()
        assert kind == ("" if invalid else "duplicate ")
        assert (int(i), int(j)) in (invalid or repeated)

    def test_validation_memory_per_edge(self):
        # the checks run on one int64 array of the edges, 16 bytes an edge,
        # and keep no per-edge Python object
        edges = tuple(itertools.combinations(range(1000), 2))
        tracemalloc.start()
        try:
            Network(n=1000, edges=edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(edges) < 60

    def test_neighbors_and_degrees(self):
        net = Network(n=4, edges=((0, 1), (1, 2), (1, 3)))
        assert neighbors_oracle(net)[1] == (0, 2, 3)
        assert neighbors_oracle(net)[3] == (1,)
        np.testing.assert_array_equal(net.degrees, [1, 3, 1, 1])

    def test_connectivity(self):
        assert Network(n=3, edges=((0, 1), (1, 2))).connected
        assert not Network(n=4, edges=((0, 1), (2, 3))).connected
        assert not Network(n=3, edges=()).connected
        assert Network(n=1, edges=()).connected

    def test_edges_are_a_read_only_int64_array(self):
        given_edges = np.array([[0, 1], [1, 2]], dtype=np.int32)
        net = Network(n=3, edges=given_edges)
        np.testing.assert_array_equal(net.edges, edge_array(((0, 1), (1, 2))), strict=True)
        with pytest.raises(ValueError, match="read-only"):
            net.edges[0, 0] = 1
        assert given_edges.flags.writeable  # the caller's array is copied, not frozen

    @pytest.mark.parametrize("edges, named", [
        (((0, 1), (0, 1.5)), "(0, 1.5)"),
        (((0, 1.0),), "(0, 1.0)"),
        (np.array([[0.0, 2.0]]), "(0.0, 2.0)"),
        (((0, "1"),), "(0, 1)"),
        (((0, None),), "(0, None)"),
        (((0, 2**63),), f"(0, {2**63})"),
        (((0, 1), (-1, 2**70)), f"(-1, {2**70})"),
    ])
    def test_non_integer_edge_refused(self, edges, named):
        # an int64 cast would truncate 1.5 to 1 and build a different graph
        with pytest.raises(InvalidParameter, match=re.escape(f"edge {named} invalid for n=3")):
            Network(n=3, edges=edges)

    def test_boolean_entries_are_integers(self):
        np.testing.assert_array_equal(Network(n=2, edges=((False, True),)).edges, edge_array(((0, 1),)), strict=True)

    def test_long_relabelled_path_is_connected(self):
        # a randomly labelled path takes many hook rounds and long pointer chains
        label = np.random.default_rng(0).permutation(5000)
        i, j = label[:-1], label[1:]
        net = Network(n=5000, edges=np.column_stack((np.minimum(i, j), np.maximum(i, j))))
        assert net.connected and bfs_connected_oracle(net)
        cut = Network(n=5000, edges=net.edges[np.arange(len(net.edges)) != 2500])
        assert not cut.connected and not bfs_connected_oracle(cut)


class TestPerEdgeOracles:
    """Connectivity, degrees and both weight builders against the per-edge loops."""

    @given(net=edge_sets(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_edge_oracles(self, net, seed):
        assert net.connected is bfs_connected_oracle(net)
        np.testing.assert_array_equal(net.degrees, [len(a) for a in neighbors_oracle(net)], strict=True)
        if not net.connected:
            for build in (metropolis_weights, lambda net: row_stochastic_weights(net, seed)):
                with pytest.raises(DisconnectedNetwork):
                    build(net)
            return
        for lazy in (False, True):
            assert metropolis_weights(net, lazy=lazy).W.tobytes() == metropolis_oracle(net, lazy).tobytes()
        expect = row_stochastic_oracle(net, np.random.default_rng(seed))
        assert row_stochastic_weights(net, seed).W.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("graph", [generate_erdos_renyi(300, 0.3, 1), generate_erdos_renyi(400, 0.02, 2),
                                       complete_graph(200), star_graph(300), generate_erdos_renyi(200, 0.05, 0),
                                       path_graph(500)],
                             ids=["er_dense", "er_sparse", "complete", "star", "er200", "path"])
    def test_large_graphs_bit_for_bit(self, graph):
        assert graph.connected is bfs_connected_oracle(graph)
        for lazy in (False, True):
            assert metropolis_weights(graph, lazy=lazy).W.tobytes() == metropolis_oracle(graph, lazy).tobytes()
        expect = row_stochastic_oracle(graph, np.random.default_rng(5))
        assert row_stochastic_weights(graph, seed=5).W.tobytes() == expect.tobytes()


class TestErdosRenyi:
    def test_frozen_oracle(self):
        net = generate_erdos_renyi(5, 0.5, 7)
        np.testing.assert_array_equal(net.edges, edge_array(ER_5_HALF_7_EDGES), strict=True)

    @given(n=st.integers(2, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 999))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_oracle(self, n, p, seed):
        np.testing.assert_array_equal(generate_erdos_renyi(n, p, seed).edges,
                                      edge_array(scalar_er_oracle(n, p, seed)), strict=True)

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

    def test_dense_draw_memory_per_edge(self):
        # the per-row arrays are stacked into one (m, 2) array and dropped before Network
        # copies it: 41 bytes an edge at the peak, against 58 with all of them alive at once
        tracemalloc.start()
        try:
            net = generate_erdos_renyi(1500, 0.3, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(net.edges) < 48

    def test_extremes(self):
        np.testing.assert_array_equal(generate_erdos_renyi(6, 0.0, 3).edges, edge_array(()), strict=True)
        np.testing.assert_array_equal(generate_erdos_renyi(6, 1.0, 3).edges, complete_graph(6).edges, strict=True)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            generate_erdos_renyi(1, 0.5, 0)
        with pytest.raises(InvalidParameter):
            generate_erdos_renyi(5, 1.5, 0)


class TestNamedGraphs:
    def test_path(self):
        net = path_graph(4)
        np.testing.assert_array_equal(net.edges, edge_array(((0, 1), (1, 2), (2, 3))), strict=True)
        assert net.connected

    def test_star(self):
        net = star_graph(4)
        np.testing.assert_array_equal(net.edges, edge_array(((0, 1), (0, 2), (0, 3))), strict=True)
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
        assert star3.doubly_stochastic

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

    @pytest.mark.parametrize("graph", [path_graph(130), star_graph(70), generate_erdos_renyi(20, 0.1, 886)],
                             ids=["path130", "star70", "er_study"])
    def test_lazy_is_the_identity_average_bit_for_bit(self, graph):
        # halving in place, then adding 0.5 on the diagonal, is (W + I) / 2
        # in every bit, because halving a float is exact
        np.testing.assert_array_equal(
            metropolis_weights(graph, lazy=True).W, (metropolis_weights(graph).W + np.eye(graph.n)) / 2.0
        )

    def test_builder_memory_per_edge(self):
        # W starts as the adjacency matrix and is weighed 64 rows at a time, so no
        # array per edge is built: under 1 byte an edge above W, against 24 when
        # max(d_i, d_j) was taken edge by edge
        net = complete_graph(1500)
        assert net.connected  # cached before the count
        tracemalloc.start()
        try:
            w = metropolis_weights(net, lazy=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - w.W.nbytes) / len(net.edges) < 4

    @pytest.mark.parametrize("n", [63, 65, 130])
    @pytest.mark.parametrize("delta", [0.0, 5e-13, 2e-12, np.nan])
    def test_symmetric_by_row_blocks_matches_the_dense_check(self, n, delta):
        # one asymmetric entry inside the last, partial 64-row block
        A = np.random.default_rng(n).random((n, n))
        W = (A + A.T) / 2.0
        W[n - 1, n - 2] += delta
        weighted = WeightedNetwork(network=Network(n=n, edges=()), W=W)
        assert weighted.symmetric is bool(np.abs(W - W.T).max() <= 1e-12)
        assert weighted.symmetric is (delta == 0.0 or delta == 5e-13)

    def test_path2_is_averaging(self, path2):
        np.testing.assert_allclose(path2.W, np.full((2, 2), 0.5), atol=1e-15)
        assert path2.sigma_max == 0.0

    def test_replace_recomputes_spectral_data(self, study_weights, study_network):
        # a copy with a new W must not keep the spectral data of the old one
        lazy = metropolis_weights(study_network, lazy=True)
        assert study_weights.sigma_max != lazy.sigma_max
        study_weights.v2  # cache the old pair before copying
        copy = replace(study_weights, W=lazy.W)
        assert copy.sigma_max == lazy.sigma_max
        np.testing.assert_array_equal(copy.v2, lazy.v2)
        assert not np.array_equal(copy.v2, study_weights.v2)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedNetwork):
            metropolis_weights(Network(n=4, edges=((0, 1), (2, 3))))

    def test_doubly_stochastic_on_random_graphs(self):
        for seed in range(5):
            net = generate_erdos_renyi(10, 0.4, seed + 20)
            if not net.connected:
                continue
            w = metropolis_weights(net)
            np.testing.assert_allclose(w.W.sum(axis=0), np.ones(10), atol=1e-12)
            np.testing.assert_allclose(w.W.sum(axis=1), np.ones(10), atol=1e-12)
            np.testing.assert_allclose(w.W, w.W.T, atol=1e-15)


BUILDERS = {
    "metropolis": metropolis_weights,
    "lazy_metropolis": lambda net: metropolis_weights(net, lazy=True),
    "row_stochastic": lambda net: row_stochastic_weights(net, seed=42),
}
GRAPHS = {
    "path": lambda: path_graph(5),
    "star": lambda: star_graph(4),
    "complete": lambda: complete_graph(5),
    "er_study": lambda: generate_erdos_renyi(20, 0.1, 886),
    "er_dense": lambda: generate_erdos_renyi(8, 0.5, 1),
}


class TestWeightInvariants:
    """What every weight builder guarantees of the matrix it returns."""

    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_builder_output(self, builder, graph):
        w = BUILDERS[builder](GRAPHS[graph]())
        net, W = w.network, w.W
        assert net.connected
        assert W.shape == (net.n, net.n)
        assert (W >= 0).all()
        np.testing.assert_allclose(W.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert w.doubly_stochastic == (builder != "row_stochastic")
        if w.doubly_stochastic:
            np.testing.assert_allclose(W.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        neighbors = neighbors_oracle(net)
        for i in range(net.n):  # positive exactly on the closed neighborhood
            assert set(np.flatnonzero(W[i] > 0).tolist()) == set(neighbors[i]) | {i}


class TestRowStochasticWeights:
    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedNetwork):
            row_stochastic_weights(Network(n=4, edges=((0, 1), (2, 3))), seed=0)

    def test_rows_normalized_support_respected(self, row_stochastic_fixture):
        w = row_stochastic_fixture
        net = w.network
        np.testing.assert_allclose(w.W.sum(axis=1), np.ones(net.n), atol=1e-12)
        neighbors = neighbors_oracle(net)
        for i in range(net.n):
            support = set(neighbors[i]) | {i}
            assert set(np.nonzero(w.W[i])[0]) == support
        assert not w.doubly_stochastic

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

    def test_sigma_max_and_v2_share_one_factorization(self, factorizations, monkeypatch):
        net = generate_erdos_renyi(9, 0.5, 3)
        w = metropolis_weights(net)
        w.sigma_max
        w.v2
        w.sigma_max
        assert factorizations == ["eigh"]
        # general W has no v2, so sigma_max needs only the singular values
        w = row_stochastic_weights(net, seed=3)
        factorizations.clear()
        kwargs, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: kwargs.append(kw) or svd(*a, **kw))
        with pytest.raises(AsymmetricWeights):
            w.v2
        w.sigma_max
        w.sigma_max
        assert factorizations == ["svd"] and kwargs == [{"compute_uv": False}]

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
        w = study_weights
        A = w.W - np.outer(np.ones(w.n), w.perron)
        assert np.linalg.norm(A @ w.v2) == pytest.approx(w.sigma_max, abs=1e-8)
        np.testing.assert_allclose(A.T @ (A @ w.v2), w.sigma_max**2 * w.v2, atol=1e-8)
        assert np.linalg.norm(w.v2) == pytest.approx(1.0, abs=1e-12)
        assert w.v2[np.argmax(np.abs(w.v2))] >= 0
        # general W: no singular vector, and sigma_max is the SVD's leading value
        w = row_stochastic_fixture
        with pytest.raises(AsymmetricWeights):
            w.v2
        A = w.W - np.outer(np.ones(w.n), w.perron)
        assert w.sigma_max == pytest.approx(np.linalg.svd(A)[1][0], rel=1e-14)

    def test_reducible_rejected(self):
        # agent 0 ignores agent 1: the stationary vector (1, 0) is not positive
        W = np.array([[1.0, 0.0], [0.5, 0.5]])
        w = WeightedNetwork(path_graph(2), W)
        assert not w.doubly_stochastic
        with pytest.raises(InvalidParameter, match="not primitive"):
            w.sigma_max


NAMED_GRAPHS = {"path": path_graph, "star": star_graph, "complete": complete_graph}


class TestNamedModes:
    """Metropolis weights on a path, star or complete graph have closed-form modes."""

    @pytest.mark.parametrize("lazy", [False, True], ids=["plain", "lazy"])
    @pytest.mark.parametrize("graph", NAMED_GRAPHS)
    @pytest.mark.parametrize("n", [3, 4, 5, 50, 63, 64, 65, 128, 129, 300, 1000])
    def test_closed_form_matches_eigh(self, factorizations, n, graph, lazy):
        w = metropolis_weights(NAMED_GRAPHS[graph](n), lazy=lazy)
        mu, V = w.modes
        assert w.sigma_max == np.abs(mu).max()
        assert factorizations == []
        A = w.W - 1.0 / n
        np.testing.assert_allclose(np.sort(mu), np.linalg.eigvalsh(A), rtol=0, atol=1e-14)
        np.testing.assert_allclose(V.T @ V, np.eye(n), rtol=0, atol=1e-13)
        np.testing.assert_allclose(A @ V, V * mu, rtol=0, atol=1e-13)

    def test_sigma_max_builds_no_eigenvectors(self):
        # sigma_max reads the closed-form eigenvalues, and W is compared 64 rows at a
        # time: eigh held A and its eigenvectors, twice W's 32 MB
        w = metropolis_weights(path_graph(2000), lazy=True)
        tracemalloc.start()
        try:
            sigma_max = w.sigma_max
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sigma_max == 1.0 - 2.0 / 3.0 * np.sin(np.pi / 4000) ** 2
        assert peak < w.W.nbytes / 4

    def test_a_match_settles_symmetric(self, factorizations):
        # a W that named_modes matched equals symmetric rows in every bit, so
        # `symmetric` reads no column block W[:, a:b] of it
        column_reads = []

        class Reads(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, tuple) and isinstance(key[0], slice) and key[0] == slice(None):
                    column_reads.append(key)
                return super().__getitem__(key)

        for graph in NAMED_GRAPHS.values():
            w = metropolis_weights(graph(130), lazy=True)
            w = replace(w, W=w.W.view(Reads))
            assert w.symmetric and w.doubly_stochastic
            assert w.sigma_max == np.abs(w.modes[0]).max()
        assert column_reads == [] and factorizations == []

    @pytest.mark.parametrize("graph", NAMED_GRAPHS)
    def test_any_other_w_is_factorized(self, factorizations, graph):
        # one diagonal entry of the last, partial row block moved by one ulp
        w = metropolis_weights(NAMED_GRAPHS[graph](70), lazy=True)
        W = w.W.copy()
        W[69, 69] = np.nextafter(W[69, 69], 1.0)
        assert replace(w, W=W).sigma_max > 0.0
        assert factorizations == ["eigh"]

    def test_hand_built_path_weights_are_factorized(self, factorizations):
        # W on the path's edges, not Metropolis: 1/4 on every edge
        net = path_graph(40)
        W = np.zeros((40, 40))
        i, j = net.edges.T
        W[i, j] = W[j, i] = 0.25
        np.fill_diagonal(W, 1.0 - W.sum(axis=1))
        w = WeightedNetwork(net, W)
        assert w.sigma_max == pytest.approx(np.abs(np.linalg.eigvalsh(W - 1.0 / 40)).max(), abs=1e-15)
        assert factorizations == ["eigh"]


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
