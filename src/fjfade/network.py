"""Networks, stochastic weight matrices, and their spectral data.

Agents are indexed 0..n-1. Undirected edges are stored as one read-only
(m, 2) int64 array of (i, j) rows with i < j, which degrees, connectivity
and weights read without a Python object per edge. Weight matrices always
put positive mass on the closed neighborhood N(i) u {i} and nowhere else,
which makes them primitive whenever the underlying network is connected.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AsymmetricWeights, DimensionMismatch, DisconnectedNetwork, InvalidParameter


@dataclass(frozen=True, eq=False)
class Network:
    """Undirected simple graph on n agents.

    Parameters
    ----------
    n : int
        Number of agents, >= 1.
    edges : sequence of (int, int)
        Edge list with i < j, no self loops, no duplicates; kept in order.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameter(f"need at least one agent, got n={self.n}")
        e = np.array(self.edges)
        if e.size and e.dtype.kind not in "biu":  # a non-integer, or an int past int64: a cast would truncate
            i, j = next(p for p in self.edges if not all(isinstance(v, (int, np.integer)) and 0 <= v < self.n
                                                         for v in p))
            raise InvalidParameter(f"edge ({i}, {j}) invalid for n={self.n}")
        e = e.astype(np.int64, copy=False).reshape(-1, 2)
        bad = np.flatnonzero((e[:, 0] < 0) | (e[:, 0] >= e[:, 1]) | (e[:, 1] >= self.n))
        if bad.size:
            i, j = e[bad[0]]
            raise InvalidParameter(f"edge ({i}, {j}) invalid for n={self.n}")
        keys = e[:, 0] * self.n + e[:, 1]  # i n + j orders the pairs as (i, j) does
        if (keys[1:] <= keys[:-1]).any():  # the builders' ordered pairs skip the sort
            keys.sort()
            dup = np.flatnonzero(keys[1:] == keys[:-1])
            if dup.size:
                i, j = divmod(int(keys[dup[0]]), self.n)
                raise InvalidParameter(f"duplicate edge ({i}, {j})")
        # degrees are counted before e is frozen, as bincount would copy a read-only array
        object.__setattr__(self, "degrees", np.bincount(e.ravel(), minlength=self.n))
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)

    @cached_property
    def connected(self) -> bool:
        """Union-find: each root hooks to the smallest root it shares an edge with,
        then every pointer jumps to its root, until no edge joins two roots."""
        root = np.arange(self.n)
        i, j = self.edges.T
        while i.size:
            np.minimum.at(root, i, j)
            np.minimum.at(root, j, i)
            while not np.array_equal(up := root[root], root):
                root = up
            keep = root[i] != root[j]
            i, j = root[i[keep]], root[j[keep]]
        return not root.any()  # roots only hook to smaller ones, so agent 0 roots its component


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
    # row i draws pairs (i, i+1..n-1): chunked draws equal one long draw
    js = [np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1) for i in range(n - 1)]
    edges = np.column_stack((np.repeat(np.arange(n - 1), [len(row) for row in js]), np.concatenate(js)))
    del js  # the rows go before Network copies the edges
    return Network(n=n, edges=edges)


def path_graph(n: int) -> Network:
    """Path 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    return Network(n=n, edges=np.column_stack((np.arange(n - 1), np.arange(1, n))))


def star_graph(n: int) -> Network:
    """Star with center 0 and leaves 1..n-1."""
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    return Network(n=n, edges=np.column_stack((np.zeros(n - 1, dtype=np.int64), np.arange(1, n))))


def complete_graph(n: int) -> Network:
    """Complete graph on n agents."""
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    return Network(n=n, edges=np.column_stack(np.triu_indices(n, 1)))


@dataclass(frozen=True, eq=False)
class WeightedNetwork:
    """A network together with a stochastic weight matrix on it.

    Every fact about W is read from W on first use and cached: `symmetric`,
    `doubly_stochastic`, `perron`, `modes`, `sigma_max` and `v2`. A command
    that reads none of the last three never factorizes W, nor does one on
    Metropolis weights of a path, star or complete graph, and a copy made with
    dataclasses.replace recomputes them all from its own W.
    """

    network: Network
    W: np.ndarray

    @property
    def n(self) -> int:
        return self.network.n

    @cached_property
    def symmetric(self) -> bool:
        """Whether W is symmetric within 1e-12 (then doubly stochastic): exactly on a `named_modes` match,
        else checked 64 rows at a time."""
        W = self.W
        blocks = (W[i:i + 64] - W[:, i:i + 64].T for i in range(0, len(W), 64))
        return self._named_modes is not None or all(np.abs(b).max() <= 1e-12 for b in blocks)

    @cached_property
    def doubly_stochastic(self) -> bool:
        """Whether W's columns, like its rows, sum to 1 within 1e-12; symmetric W is."""
        return self.symmetric or bool(np.abs(self.W.sum(axis=0) - 1.0).max() <= 1e-12)

    @cached_property
    def perron(self) -> np.ndarray:
        """Left eigenvector of W at eigenvalue 1, positive, summing to 1: 1/n
        for symmetric W, else one LU solve of (W^T - I) v = 0 with the last
        equation replaced by sum(v) = 1. Raises InvalidParameter when that
        solve is singular or gives a nonpositive entry (W is not primitive)."""
        n = self.n
        if self.symmetric:
            return np.full(n, 1.0 / n)
        M = self.W.T - np.eye(n)
        M[-1] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        try:
            v = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            raise InvalidParameter("weight matrix is not primitive: its stationary vector is not unique") from None
        if not (v > 0).all():
            raise InvalidParameter("weight matrix is not primitive: its stationary vector is not positive")
        return v

    def _deflated(self) -> np.ndarray | None:
        """A = W - 1 perron^T, or None when every entry is below 1e-15 (W = 1 perron^T)."""
        A = self.W - self.perron  # by broadcasting
        return None if max(A.max(), -A.min()) < 1e-15 else A

    @cached_property
    def _named_modes(self) -> tuple[np.ndarray, Callable[[], np.ndarray]] | None:
        """The closed-form (mu, basis) of `named_modes`, or None."""
        return named_modes(self.network, self.W)

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, V): the eigenvalues of A = W - 11^T/n and their orthonormal
        eigenvectors, for symmetric W: in closed form for Metropolis weights on
        a path, star or complete graph (see `named_modes`), else from one eigh;
        mu = 0 on the basis e_0..e_{n-1} when A vanishes."""
        if not self.symmetric:
            raise AsymmetricWeights("an orthonormal eigenbasis needs symmetric weights")
        if self._named_modes is not None:
            mu, basis = self._named_modes
            return mu, basis()
        A = self._deflated()
        return (np.zeros(self.n), np.eye(self.n)) if A is None else np.linalg.eigh(A)

    @cached_property
    def sigma_max(self) -> float:
        """The largest singular value of A = W - 1 perron^T, the second singular
        value of W when W is doubly stochastic: the largest |mu| for symmetric W,
        which builds no eigenvector on a named graph, else from a values-only
        SVD of A; 0.0 when A vanishes."""
        if self.symmetric:
            mu = self.modes[0] if self._named_modes is None else self._named_modes[0]
            return float(np.abs(mu).max())
        A = self._deflated()
        return 0.0 if A is None else float(np.linalg.svd(A, compute_uv=False)[0])

    @cached_property
    def v2(self) -> np.ndarray:
        """The unit eigenvector of `modes` at the eigenvalue of largest
        magnitude, signed so that its largest-magnitude entry is nonnegative;
        (e_0 - e_{n-1}) / sqrt(2), which A maps to 0, when every mu is 0.
        Symmetric W only: else raises AsymmetricWeights."""
        mu, V = self.modes
        if not mu.any():
            v2 = np.zeros(self.n)
            v2[0], v2[-1] = np.sqrt(0.5), -np.sqrt(0.5)
            return v2
        v2 = V[:, np.argmax(np.abs(mu))]
        return -v2 if v2[np.argmax(np.abs(v2))] < 0 else v2

    def consensus_value(self, x0: np.ndarray) -> float | np.ndarray:
        """Nominal consensus value perron^T x0; one per column of an n x B block."""
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim not in (1, 2) or x0.shape[0] != self.n:
            raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({self.n},) or ({self.n}, B)")
        x_ss = self.perron @ x0
        return float(x_ss) if x0.ndim == 1 else x_ss


def metropolis_weights(net: Network, lazy: bool = False) -> WeightedNetwork:
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
    """
    if not net.connected:
        raise DisconnectedNetwork("metropolis weights need a connected network")
    i, j = net.edges.T
    W = np.zeros((net.n, net.n))
    W[i, j] = W[j, i] = 1.0
    for lo in range(0, net.n, 64):
        _metropolis_rows(W[lo:lo + 64], lo, net.degrees, lazy)
    return WeightedNetwork(network=net, W=W)


def _metropolis_rows(rows: np.ndarray, lo: int, degrees: np.ndarray, lazy: bool) -> None:
    """Turn rows lo, lo + 1, ... of a 0/1 adjacency matrix into Metropolis weights in place: an edge
    weighs the smaller of its ends' levels 1 / (1 + d_i), 1 / (1 + max(d_i, d_j)) in every bit, the zero
    diagonal becomes the row complement, and lazy rows take (W + I) / 2, bit for bit as halving is exact."""
    level = 1.0 / (1.0 + degrees)
    i = np.arange(lo, lo + len(rows))
    rows *= np.minimum(level[i, None], level)
    rows[i - lo, i] = 1.0 - rows.sum(axis=1)
    if lazy:
        rows /= 2.0
        rows[i - lo, i] += 0.5


def named_modes(net: Network, W: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]] | None:
    """The eigenvalues mu of A = W - 11^T/n in closed form, and a function that builds
    their orthonormal eigenvectors as columns, when net is `path_graph(n)` (n >= 3),
    `star_graph(n)` or a complete graph and W is its `metropolis_weights`, lazy or
    not, in every bit; else None. W is compared 64 rows at a time.

    mu is 0 on the consensus direction, which comes first, and 1 - g elsewhere,
    where g runs over the other eigenvalues of the Laplacian I - W, halved for lazy
    W: (4/3) sin^2(pi k / (2n)), k = 1..n-1, on a path, whose eigenvectors are the
    DCT-II basis; 1 on a complete graph; on a star, 1 for its centre against its
    leaves and 1/n, n - 2 times, for the leaves' own differences.
    """
    n, m = net.n, len(net.edges)
    if m == n * (n - 1) // 2:  # also K_2, the 2-agent path and star
        adjacent, gaps, basis = np.not_equal, np.ones(n), lambda: _dct_basis(n)
    elif m == n - 1 and np.array_equal(net.edges, path_graph(n).edges):
        adjacent, basis = (lambda i, j: abs(i - j) == 1), (lambda: _dct_basis(n))
        gaps = 4.0 / 3.0 * np.sin(np.pi / (2 * n) * np.arange(n)) ** 2
    elif m == n - 1 and np.array_equal(net.edges, star_graph(n).edges):
        adjacent, basis = (lambda i, j: (i == 0) != (j == 0)), (lambda: _star_basis(n))
        gaps = np.full(n, 1.0 / n)
        gaps[1] = 1.0
    else:
        return None
    for lazy in (False, True):
        if _is_metropolis(W, adjacent, net.degrees, lazy):
            mu = 1.0 - (gaps / 2.0 if lazy else gaps)
            mu[0] = 0.0
            return mu, basis
    return None


def _is_metropolis(W: np.ndarray, adjacent: Callable[[np.ndarray, np.ndarray], np.ndarray], degrees: np.ndarray,
                   lazy: bool) -> bool:
    """Whether W is, bit for bit, what `metropolis_weights` writes when agents i and j are joined
    where adjacent(i, j) holds, so exactly symmetric; 64 rows at a time."""
    n = len(degrees)
    for lo in range(0, n, 64):
        rows = adjacent(np.arange(lo, min(lo + 64, n))[:, None], np.arange(n)).astype(float)
        _metropolis_rows(rows, lo, degrees, lazy)
        if not np.array_equal(W[lo:lo + 64], rows):
            return False
    return True


def _dct_basis(n: int) -> np.ndarray:
    """The orthonormal DCT-II basis: column k is c_k cos(pi k (2i + 1) / (2n)), with
    c_0 = sqrt(1/n), else sqrt(2/n). k (2i + 1) is reduced mod 4n in integers, so every
    cosine is read from one table over [0, 2 pi): V^T V = I to 5.3e-15 at n = 3,000,
    against 3.5e-13 from the unreduced products."""
    table = np.cos(np.pi / (2 * n) * np.arange(4 * n))
    k = np.arange(n)
    V = np.empty((n, n))
    for i in range(n):
        np.take(table, k * (2 * i + 1) % (4 * n), out=V[i])
    V *= np.sqrt(2.0 / n)
    V[:, 0] = np.sqrt(1.0 / n)
    return V


def _star_basis(n: int) -> np.ndarray:
    """Eigenvectors of Metropolis weights on `star_graph(n)`, in `named_modes` order:
    consensus, the centre against its leaves, then the leaves' DCT-II differences."""
    V = np.zeros((n, n))
    V[:, 0] = np.sqrt(1.0 / n)
    V[:, 1] = 1.0 / np.sqrt(n * (n - 1.0))
    V[0, 1] *= -(n - 1.0)
    V[1:, 2:] = _dct_basis(n - 1)[:, 1:]
    return V


def row_stochastic_weights(net: Network, seed: int) -> WeightedNetwork:
    """Random row-stochastic weights on the closed neighborhoods.

    For each row i in increasing order, one batch of uniform draws is taken
    for the sorted support N(i) u {i}, shifted into [1, 2) so every weight
    is positive and well conditioned, then normalized to sum to 1.
    """
    rng = np.random.default_rng(seed)
    return _row_stochastic_from_rng(net, rng)


def _row_stochastic_from_rng(net: Network, rng) -> WeightedNetwork:
    if not net.connected:
        raise DisconnectedNetwork("row-stochastic weights need a connected network")
    n = net.n
    i, j = net.edges.T
    support = np.sort(np.concatenate((i * n + j, j * n + i, np.arange(n) * (n + 1))))  # flat indices, row by row
    ends = np.cumsum(net.degrees + 1).tolist()  # row i's N(i) u {i} is support[ends[i-1]:ends[i]]
    W = np.zeros((n, n))
    for lo, hi in zip([0, *ends], ends):
        raw = 1.0 + rng.random(hi - lo)
        W.flat[support[lo:hi]] = raw / raw.sum()
    return WeightedNetwork(network=net, W=W)
