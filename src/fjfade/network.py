"""Networks, stochastic weight matrices, and their spectral data.

Agents are indexed 0..n-1. Undirected edges are stored as (i, j) pairs with
i < j in lexicographic order. Weight matrices always put positive mass on
the closed neighborhood N(i) u {i} and nowhere else, which makes them
primitive whenever the underlying network is connected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DisconnectedNetwork, InvalidParameter


@dataclass(frozen=True)
class Network:
    """Undirected simple graph on n agents.

    Parameters
    ----------
    n : int
        Number of agents, >= 1.
    edges : tuple of (int, int)
        Edge list with i < j, no self loops, no duplicates.
    seed : int
        RNG seed the edge set was drawn with (0 for deterministic graphs).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameter(f"need at least one agent, got n={self.n}")
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise InvalidParameter(f"edge ({i}, {j}) invalid for n={self.n}")
            if (i, j) in seen:
                raise InvalidParameter(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.neighbors])

    @cached_property
    def connected(self) -> bool:
        """Breadth-first reachability of every agent from agent 0."""
        seen = [False] * self.n
        seen[0] = True
        queue = [0]
        while queue:
            i = queue.pop()
            for j in self.neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        return all(seen)


def generate_erdos_renyi(n: int, p: float, seed: int) -> Network:
    """Sample an Erdos-Renyi graph G(n, p).

    Each unordered pair (i, j), i < j, taken in lexicographic order, is
    included independently with probability p using one uniform draw from
    numpy's default generator seeded with `seed`, drawn one row i at a time
    so memory is O(n + edges). The edge set is therefore a pure function of
    (n, p, seed).

    Parameters
    ----------
    n : int
        Number of agents, >= 2.
    p : float
        Edge probability in [0, 1].
    seed : int
        Seed for numpy.random.default_rng.

    Returns
    -------
    Network
    """
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n - 1):
        # row i draws pairs (i, i+1..n-1): chunked draws equal one long draw
        js = np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1)
        edges.extend((i, j) for j in js.tolist())
    return Network(n=n, edges=tuple(edges), seed=seed)


def path_graph(n: int) -> Network:
    """Path 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    return Network(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> Network:
    """Star with center 0 and leaves 1..n-1."""
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    return Network(n=n, edges=tuple((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Network:
    """Complete graph on n agents."""
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    return Network(n=n, edges=tuple(itertools.combinations(range(n), 2)))


class WeightKind(str, Enum):
    DOUBLY_STOCHASTIC = "doubly_stochastic"
    ROW_STOCHASTIC = "row_stochastic"


@dataclass(frozen=True)
class SpectralData:
    """Perron vector and dominant deflated singular triple of a weight matrix.

    perron: left eigenvector of W at eigenvalue 1, positive, sums to 1.
    sigma_max: largest singular value of the deflated matrix W - 1 perron^T
      (equal to the second largest singular value of W when W is doubly
      stochastic).
    v2, u2: right and left singular vectors of the deflated matrix for
      sigma_max, unit norm, with v2 orthogonal to the all-ones vector.
    symmetric: whether W is symmetric, which selects the factorization
      (eigh when true, LU solve plus SVD when false).
    iterations: always 0, since no iterative solver runs; kept only because
      the benchmark's tracer (perfbench/spans.py) reads it.
    """

    perron: np.ndarray
    sigma_max: float
    v2: np.ndarray
    u2: np.ndarray
    symmetric: bool
    iterations: int


@dataclass(frozen=True, eq=False)
class WeightedNetwork:
    """A network together with a stochastic weight matrix on it."""

    network: Network
    W: np.ndarray
    kind: WeightKind
    spectral: SpectralData | None = None

    @property
    def n(self) -> int:
        return self.network.n

    @cached_property
    def perron(self) -> np.ndarray:
        """The Perron vector, found without the deflated factorization if need be."""
        return self.spectral.perron if self.spectral is not None else _stationary(self.W)[0]

    def consensus_value(self, x0: np.ndarray) -> float | np.ndarray:
        """Nominal consensus value perron^T x0; one per column of an n x B block."""
        if self.spectral is None:
            raise InvalidParameter("spectral data not computed for this weighted network")
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim not in (1, 2) or x0.shape[0] != self.n:
            raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({self.n},) or ({self.n}, B)")
        x_ss = self.spectral.perron @ x0
        return float(x_ss) if x0.ndim == 1 else x_ss

    def validate(self, atol: float = 1e-12) -> None:
        """Check structural invariants; raises InvalidParameter on violation."""
        W, net = self.W, self.network
        if W.shape != (net.n, net.n):
            raise DimensionMismatch(f"W has shape {W.shape}, expected ({net.n}, {net.n})")
        if (W < 0).any():
            raise InvalidParameter("weights must be nonnegative")
        if np.abs(W.sum(axis=1) - 1.0).max() > atol:
            raise InvalidParameter("rows must sum to 1")
        if self.kind is WeightKind.DOUBLY_STOCHASTIC:
            if np.abs(W.sum(axis=0) - 1.0).max() > atol:
                raise InvalidParameter("columns must sum to 1 for doubly stochastic weights")
        support = W > 0
        for i in range(net.n):
            expected = set(net.neighbors[i]) | {i}
            actual = set(np.flatnonzero(support[i]).tolist())
            if expected != actual:
                raise InvalidParameter(f"row {i} support {sorted(actual)} != closed neighborhood {sorted(expected)}")
        # a positive diagonal on a connected support makes W primitive
        if not net.connected:
            raise InvalidParameter("weight matrix is not primitive: the network is disconnected")


def metropolis_weights(net: Network, lazy: bool = False, spectral: bool = True) -> WeightedNetwork:
    """Metropolis weight matrix of a connected network.

    W_ij = 1 / (1 + max(d_i, d_j)) on edges, diagonal set to the row
    complement. The result is symmetric and doubly stochastic. With
    lazy=True the matrix is averaged with the identity, (W + I) / 2, which
    shifts the spectrum into [0, 1] and keeps the second eigenvalue
    nonnegative.

    Parameters
    ----------
    net : Network
        Must be connected.
    lazy : bool
        Average with the identity.
    spectral : bool
        Compute SpectralData eagerly.
    """
    if not net.connected:
        raise DisconnectedNetwork("metropolis weights need a connected network")
    n = net.n
    deg = net.degrees
    W = np.zeros((n, n))
    for i, j in net.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, j] = w
        W[j, i] = w
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    if lazy:
        W = (W + np.eye(n)) / 2.0
    wn = WeightedNetwork(network=net, W=W, kind=WeightKind.DOUBLY_STOCHASTIC)
    if spectral:
        wn = replace(wn, spectral=compute_spectral(wn))
    return wn


def row_stochastic_weights(net: Network, seed: int, spectral: bool = True) -> WeightedNetwork:
    """Random row-stochastic weights on the closed neighborhoods.

    For each row i in increasing order, one batch of uniform draws is taken
    for the sorted support N(i) u {i}, shifted into [1, 2) so every weight
    is positive and well conditioned, then normalized to sum to 1.
    """
    rng = np.random.default_rng(seed)
    return _row_stochastic_from_rng(net, rng, spectral=spectral)


def _row_stochastic_from_rng(net: Network, rng, spectral: bool = True) -> WeightedNetwork:
    if not net.connected:
        raise DisconnectedNetwork("row-stochastic weights need a connected network")
    n = net.n
    W = np.zeros((n, n))
    for i in range(n):
        support = sorted(set(net.neighbors[i]) | {i})
        raw = 1.0 + rng.random(len(support))
        W[i, support] = raw / raw.sum()
    wn = WeightedNetwork(network=net, W=W, kind=WeightKind.ROW_STOCHASTIC)
    if spectral:
        wn = replace(wn, spectral=compute_spectral(wn))
    return wn


def compute_spectral(weighted: WeightedNetwork) -> SpectralData:
    """Perron vector and dominant deflated singular triple by dense factorization.

    Symmetric W (within 1e-12) is doubly stochastic, so perron = 1/n, and
    A = W - 11^T / n is symmetric: eigh gives its eigenvalue lam of largest
    magnitude, sigma_max = |lam|, v2 its eigenvector and u2 = sign(lam) v2.
    For general W, perron solves (W^T - I) v = 0 with the last equation
    replaced by sum(v) = 1 (one LU solve), and the triple is the leading one
    of the SVD of A = W - 1 perron^T. Raises InvalidParameter when that solve
    is singular or gives a nonpositive entry, i.e. when W is not primitive.
    Both are O(n^3) with no tolerance or iteration cap. The sign is fixed so
    the largest-magnitude entry of v2 is nonnegative.
    """
    W = weighted.W
    n = weighted.n
    perron, symmetric = _stationary(W)
    A = W - perron  # W - 1 perron^T by broadcasting

    if np.abs(A).max() < 1e-15:
        # rank-one consensus matrix: the deflated operator vanishes
        z = np.random.default_rng(weighted.network.seed).standard_normal(n)
        z -= z.mean()  # orthogonal to the all-ones vector
        if not z.any():
            z[0], z[-1] = 1.0, -1.0
        z /= np.linalg.norm(z)
        v2, u2 = _fix_sign(z, z)
        return SpectralData(perron=perron, sigma_max=0.0, v2=v2, u2=u2,
                            symmetric=symmetric, iterations=0)

    if symmetric:
        lam, V = np.linalg.eigh(A)
        k = int(np.argmax(np.abs(lam)))
        sigma, v2, u2 = abs(lam[k]), V[:, k], np.sign(lam[k]) * V[:, k]
    else:
        U, s, Vt = np.linalg.svd(A)
        sigma, v2, u2 = s[0], Vt[0], U[:, 0]
    v2, u2 = _fix_sign(v2, u2)
    return SpectralData(perron=perron, sigma_max=float(sigma), v2=v2, u2=u2,
                        symmetric=symmetric, iterations=0)


def _stationary(W: np.ndarray) -> tuple[np.ndarray, bool]:
    """Perron vector of W, and whether W is symmetric (then it is 1/n)."""
    n = W.shape[0]
    if np.abs(W - W.T).max() <= 1e-12:
        return np.full(n, 1.0 / n), True
    M = W.T - np.eye(n)
    M[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise InvalidParameter("weight matrix is not primitive: its stationary vector is not unique") from None
    if not (v > 0).all():
        raise InvalidParameter("weight matrix is not primitive: its stationary vector is not positive")
    return v, False


def _fix_sign(v2: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip both vectors so the largest-magnitude entry of v2 is nonnegative."""
    return (v2, u2) if v2[np.argmax(np.abs(v2))] >= 0 else (-v2, -u2)
