"""Graph factorization: SGD on the regularized adjacency reconstruction loss

    f(Y) = 1/2 sum_{(i,j) in E} (A_ij - <y_i, y_j>)^2 + (lam/2) sum_i ||y_i||^2

Training is the per-edge SGD of Ahmed et al. (2013, "Distributed Large-scale
Natural Graph Factorization"), applied in batches of edges that share no node,
with the bits of one edge at a time. :func:`gf_objective` gives f, from which
the final loss is reported.
"""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError, check_int, check_number
from ..ssn import SimilarityNetwork
from . import EmbeddingMatrix


# floats gathered per endpoint and block of edges by _edge_inner
_GATHER_FLOATS = 1 << 18


def _edge_inner(y: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """<y_i, y_j> for each edge (i, j), gathered a block of edges at a time.
    Each edge is one einsum row reduction, so the blocks keep its bits."""
    rows = max(1, _GATHER_FLOATS // max(1, y.shape[1]))
    inner = np.empty(len(edges))
    for start in range(0, len(edges), rows):
        block = edges[start : start + rows]
        inner[start : start + rows] = np.einsum("ed,ed->e", y[block[:, 0]], y[block[:, 1]])
    return inner


def gf_objective(y: np.ndarray, edges: np.ndarray, lam: float) -> float:
    y = np.asarray(y, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    residual = 1.0 - _edge_inner(y, edges)
    return 0.5 * float(residual @ residual) + 0.5 * lam * float((y * y).sum())


def _level_schedule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges, in the order given, grouped into levels of endpoint-disjoint
    edges.

    Edge e gets level 1 + the larger level of the last earlier edge at either
    endpoint (0 if none), so no two edges on one level share a node and each
    node meets its edges level by level in the given order. Returns the edges
    stably sorted by level, and the offsets into them at which each level
    starts, followed by the edge count.
    """
    last = [0] * n
    levels = []
    for i, j in edges.tolist():
        level = (last[i] if last[i] > last[j] else last[j]) + 1
        last[i] = last[j] = level
        levels.append(level)
    levels = np.array(levels, dtype=np.int64)
    order = np.argsort(levels, kind="stable")
    return edges[order], np.cumsum(np.bincount(levels, minlength=1))


def graph_factorization(
    graph: SimilarityNetwork,
    d: int,
    lam: float = 1e-4,
    lr: float = 0.05,
    epochs: int = 200,
    seed: int = 0,
) -> EmbeddingMatrix:
    """Per-edge SGD with seeded uniform(-0.1, 0.1) init and fixed epoch count.

    Each epoch visits the undirected edges in a fresh seeded shuffle and
    updates both endpoints from their pre-update values. The updates run one
    level of :func:`_level_schedule` at a time: a level's edges share no node,
    so one gather, one stacked (1 x d)(d x 1) ``matmul`` (the BLAS ``ddot`` of
    a per-edge ``yi @ yj``) and one scatter give the per-edge loop's bits.
    Raises DivergenceError at the first epoch that leaves a non-finite value.
    """
    check_int("d", d, 1)
    check_number("lr", lr, 0, strict=True)
    check_number("lam", lam, 0, strict=False)
    check_int("epochs", epochs, 1)
    rng = np.random.default_rng(seed)
    y = rng.uniform(-0.1, 0.1, size=(graph.n, d))
    edges = graph.edge_array()

    batches = 0
    for epoch in range(1, epochs + 1):
        ordered, bounds = _level_schedule(edges[rng.permutation(len(edges))], graph.n)
        batches += len(bounds) - 1
        with np.errstate(over="ignore", invalid="ignore"):
            for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                pair = ordered[start:stop]
                ends = y[pair]
                residual = 1.0 - np.matmul(ends[:, :1], ends[:, 1:].transpose(0, 2, 1))
                # ends + lr * (residual * other end - lam * ends), in place
                step = residual * ends[:, ::-1]
                step -= lam * ends
                step *= lr
                step += ends
                y[pair] = step
        if not np.isfinite(y).all():
            raise DivergenceError(
                f"graph factorization diverged in epoch {epoch} of {epochs} "
                f"(lr={lr}, lam={lam}); lower lr"
            )
    final_loss = gf_objective(y, edges, lam) if len(edges) else 0.0
    return EmbeddingMatrix(
        y, "graph_factorization", d,
        info={"loss": float(final_loss), "lam": lam, "lr": lr, "epochs": epochs,
              "edge_updates": epochs * len(edges), "batches": batches},
    )
