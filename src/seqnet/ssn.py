"""Sequence similarity network: exact K-nearest-neighbor graph over features.

Nodes are sequences; an (undirected, unweighted) edge joins u and v when
either is among the other's K nearest neighbors in Euclidean k-mer space
(union symmetrization; mutual mode available). Neighbor search is exact
brute force, blocked over row tiles; distance ties break toward the smaller
index so results are deterministic everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .distances import _rows, k_nearest
from .errors import NeighborCountError, ParseError, check_int, parse_numbers
from .tables import read_csv_rows, read_rows, write_csv_rows, write_int_rows


@dataclass(frozen=True, eq=False)
class SimilarityNetwork:
    """Undirected simple graph plus node metadata.

    ``adjacency`` is a symmetric n x n ``scipy.sparse.csr_matrix`` of ones
    with sorted column indices and an empty diagonal, so row u lists the
    neighbors of u in ascending order.
    """

    adjacency: sparse.csr_matrix
    node_ids: tuple[str, ...]
    labels: Optional[tuple[Optional[str], ...]] = None

    def __post_init__(self):
        if len(self.node_ids) != self.n:
            raise ValueError("node_ids length does not match node count")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length does not match node count")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimilarityNetwork)
            and self.node_ids == other.node_ids
            and self.labels == other.labels
            and np.array_equal(self.adjacency.indptr, other.adjacency.indptr)
            and np.array_equal(self.adjacency.indices, other.adjacency.indices)
        )

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return self.adjacency.nnz // 2

    def neighbors(self, u: int) -> np.ndarray:
        indptr = self.adjacency.indptr
        return self.adjacency.indices[indptr[u] : indptr[u + 1]]

    def degree(self, i: int) -> int:
        return int(self.adjacency.indptr[i + 1] - self.adjacency.indptr[i])

    def edge_array(self) -> np.ndarray:
        """(num_edges, 2) int64 array of the edges u < v, ordered by (u, v)."""
        adj = self.adjacency
        u = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(adj.indptr))
        upper = adj.indices > u
        return np.column_stack([u[upper], adj.indices[upper].astype(np.int64)])

    def edges(self) -> Iterator[tuple[int, int]]:
        return map(tuple, self.edge_array().tolist())


def _network(adjacency, node_ids, labels) -> SimilarityNetwork:
    """Wrap a canonical 0/1 CSR adjacency; default ids are the node indices."""
    adjacency.data[:] = 1.0
    n = adjacency.shape[0]
    ids = tuple(node_ids) if node_ids is not None else tuple(str(i) for i in range(n))
    labs = None
    if labels is not None and any(l is not None for l in labels):
        labs = tuple(labels)
    return SimilarityNetwork(adjacency, ids, labs)


def network_from_edges(
    n: int,
    edges: Iterable[tuple[int, int]],
    node_ids: Optional[Sequence[str]] = None,
    labels: Optional[Sequence[Optional[str]]] = None,
) -> SimilarityNetwork:
    """Build a network from an edge list or an (m, 2) array; self-loops and
    repeats are dropped."""
    pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    pairs = pairs.reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if outside.size:
        u, v = pairs[outside[0]]
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    u, v = pairs.T
    arcs = sparse.csr_matrix(
        (np.ones(2 * len(pairs)), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n),
    )
    arcs.sum_duplicates()
    return _network(arcs, node_ids, labels)


def _check_neighbor_count(k: int, n: int) -> None:
    """K below 1 is a config error whatever the data; K >= n a data error."""
    check_int("K", k, 1)
    if k > n - 1:
        raise NeighborCountError(f"K={k} out of range for n={n}")


def knn_query(features, i: int, k: int) -> list[int]:
    """The k indices nearest to row i, ordered by (distance, index)."""
    x = _rows(features)
    _check_neighbor_count(k, x.shape[0])
    check_int("i", i, 0, x.shape[0] - 1)
    # row i is at distance 0, so it is among its own k + 1 nearest unless
    # more than k lower-indexed duplicates precede it
    nearest = k_nearest(x, k + 1, queries=x[i : i + 1])[0].tolist()
    return [j for j in nearest if j != i][:k]


def build_ssn(
    features,
    k: int = 20,
    labels: Optional[Sequence[Optional[str]]] = None,
    node_ids: Optional[Sequence[str]] = None,
    mode: str = "union",
) -> SimilarityNetwork:
    """Exact KNN graph over feature rows. Default K=20.

    ``mode="union"`` keeps an edge when either endpoint lists the other
    (guaranteeing min degree >= min(K, n-1)); ``mode="mutual"`` requires both.
    """
    if mode not in ("union", "mutual"):
        raise ValueError(f"unknown symmetrization mode {mode!r}")
    x = _rows(features)
    n = x.shape[0]
    _check_neighbor_count(k, n)

    knn = sparse.csr_matrix(
        (np.ones(n * k), np.sort(k_nearest(x, k), axis=1).ravel(), np.arange(0, n * k + 1, k)),
        shape=(n, n),
    )
    if mode == "union":
        adjacency = knn + knn.T
    else:
        adjacency = knn.multiply(knn.T).tocsr()
    adjacency.sort_indices()
    return _network(adjacency, node_ids, labels)


def connected_components(graph: SimilarityNetwork) -> np.ndarray:
    """Component id per node; ids dense, ordered by smallest contained index."""
    _, comp = csgraph.connected_components(graph.adjacency, directed=False)
    return comp.astype(np.int64)


def _default_nodes_path(edges_path) -> str:
    return str(edges_path) + ".nodes.csv"


def save_graph(graph: SimilarityNetwork, edges_path, nodes_path=None) -> None:
    """Write the tab-separated edge list (u < v) and the node attribute CSV."""
    nodes_path = nodes_path or _default_nodes_path(edges_path)
    with open(edges_path, "wb") as fh:
        write_int_rows(fh, graph.edge_array().T, "\t")
    write_csv_rows(nodes_path, ["index", "id", "label"],
                   zip(range(graph.n), graph.node_ids, graph.labels or (None,) * graph.n))


def load_graph(edges_path, nodes_path=None) -> SimilarityNetwork:
    """Re-import a graph written by :func:`save_graph`; exact round trip."""
    nodes_path = nodes_path or _default_nodes_path(edges_path)
    ids: list[str] = []
    labels: list[Optional[str]] = []
    for lineno, row in read_csv_rows(nodes_path, ["index", "id", "label"]):
        if len(row) < 3 or parse_numbers(row[:1], lineno) != [len(ids)]:
            raise ParseError(f"bad node row {row!r} in {nodes_path}", line=lineno)
        ids.append(row[1])
        labels.append(row[2] or None)
    edges, _ = read_rows(edges_path, 1, r"u\tv", "edge", ints=2, delimiter="\t",
                         bounds=[(0, len(ids) - 1)] * 2)
    return network_from_edges(len(ids), edges, node_ids=ids, labels=labels)
