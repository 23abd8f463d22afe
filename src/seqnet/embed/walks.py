"""Random-walk corpora over the similarity network.

Second-order walks bias the next step by where the previous step came from:
returning to it is reweighted by 1/p, staying in its neighborhood keeps
weight 1, and moving further out is reweighted by 1/q. With p = q = 1 the
walk degenerates to the uniform first-order walk.

A corpus is one int32 ``(walks_per_node * n, walk_length)`` array with one
walk per row: pass by pass, and within a pass in the order of that pass's
shuffled roots. Entries after a walk's last node are -1. Only a walk whose
root has no neighbors ends early, as the one-node walk [root].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PipelineConfig
from ..errors import check_int, check_number
from ..ssn import SimilarityNetwork

# rejection rounds of one biased step before its pending walkers invert the
# law: whatever p and q are, a step costs at most this many vectorised rounds
# plus one pass over a neighbor row per walker still pending
_MAX_ROUNDS = 32


@dataclass(frozen=True)
class WalkConfig:
    """Random-walk and skip-gram hyperparameters, with ``PipelineConfig``'s defaults."""

    walks_per_node: int = PipelineConfig.walks_per_node
    walk_length: int = PipelineConfig.walk_length
    p: float = PipelineConfig.p
    q: float = PipelineConfig.q
    window: int = PipelineConfig.window
    negatives: int = PipelineConfig.negatives
    epochs: int = PipelineConfig.epochs
    learning_rate: float = PipelineConfig.learning_rate
    seed: int = PipelineConfig.seed

    def __post_init__(self):
        for name in ("walks_per_node", "walk_length", "window", "negatives", "epochs"):
            check_int(name, getattr(self, name), 1)
        for name in ("p", "q"):
            check_number(name, getattr(self, name), 0, strict=True)
            # 1/p and 1/q are step weights, so they must be finite too
            check_number(f"1/{name}", 1 / getattr(self, name), 0, strict=True)
        check_number("learning_rate", self.learning_rate, 0, strict=True)


@dataclass(frozen=True)
class WalkCorpus:
    """Walks as the rows of one int array, -1 after each walk's last node."""

    walks: np.ndarray

    def __len__(self) -> int:
        return len(self.walks)

    def __eq__(self, other) -> bool:
        return isinstance(other, WalkCorpus) and np.array_equal(self.walks, other.walks)


def _edge_keys(graph: SimilarityNetwork) -> np.ndarray:
    """Directed-edge keys ``u * n + v``, ascending when the CSR rows are sorted."""
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.adjacency.indptr))
    keys = rows * graph.n + graph.adjacency.indices
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("adjacency rows must have sorted, distinct column indices")
    return keys


def _bias_weights(keys: np.ndarray, n: int, prev, cand, p: float, q: float) -> np.ndarray:
    """p/q weights of stepping to ``cand`` after ``prev`` (arrays broadcast): 1/p
    back to prev, 1 to a neighbor of prev (its edge key is found), else 1/q."""
    key = np.asarray(prev, dtype=np.int64) * n + cand
    found = keys[np.minimum(np.searchsorted(keys, key), len(keys) - 1)] == key
    return np.where(cand == prev, 1.0 / p, np.where(found, 1.0, 1.0 / q))


def step_distribution(
    graph: SimilarityNetwork, prev: int, cur: int, p: float, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbors of ``cur`` and their transition probabilities given ``prev``."""
    nbrs = graph.neighbors(cur)
    row = prev * np.int64(graph.n) + graph.neighbors(prev)  # the edge keys of prev's row
    weights = _bias_weights(row, graph.n, prev, nbrs, p, q)
    return nbrs, weights / weights.sum()


def generate_walks(graph: SimilarityNetwork, config: WalkConfig) -> WalkCorpus:
    """``walks_per_node`` truncated walks from every node, roots shuffled per pass.

    A pass draws its roots, then one ``(n, walk_length - 1)`` block of uniforms
    (row i for the i-th root), and moves its walkers in lockstep. The first
    step, and every step at p = q = 1, takes neighbor ``floor(draw * degree)``.
    A biased step is rejection-sampled (KnightKing's outlier folding): a round
    draws ``x, r = rng.random((2, pending))`` for the pending walkers, over an
    envelope of height ``top = max(1, 1/q)`` on the ``deg`` neighbors of ``cur``
    beside a return box of area ``spare = max(0, 1/p - top)``. ``col = floor(x *
    (deg + spare / top))`` returns to ``prev`` if ``col >= deg``, else takes
    neighbor ``col`` if ``r * top`` is below its weight (as 1/p, beyond top, is).
    Expected proposals per step are at most ``max(1, 1/q) / min(1, 1/q, 1/p)``,
    which is ``max(1, 1/q) / min(1, 1/q)`` for p <= max(1, q). A walker on a
    node of degree 1 returns without a draw; one rejected ``_MAX_ROUNDS`` times
    inverts :func:`step_distribution` exactly at its unused block draw.
    """
    rng = np.random.default_rng(config.seed)
    n, length, p, q = graph.n, config.walk_length, config.p, config.q
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    degree, keys = np.diff(indptr), _edge_keys(graph)
    top = max(1.0, 1.0 / q)
    box = max(0.0, 1.0 / p - top) / top
    walks = np.full((config.walks_per_node, n, length), -1, dtype=np.int32)
    for block in walks:
        block[:, 0] = rng.permutation(n)
        draws = rng.random((n, length - 1))
        live = np.flatnonzero(degree[block[:, 0]] > 0)
        for step in range(length - 1):
            cur, draw = block[live, step], draws[live, step]
            if step == 0 or p == q == 1.0:
                block[live, step + 1] = indices[indptr[cur] + (draw * degree[cur]).astype(np.intp)]
                continue
            prev = block[live, step - 1]
            # a node of degree 1 has only prev to go to
            nxt, pending, rounds = prev.copy(), np.flatnonzero(degree[cur] > 1), 0
            while pending.size and rounds < _MAX_ROUNDS:
                x, r = rng.random((2, pending.size))
                deg = degree[cur[pending]]
                # floor in float first: a huge box would overflow the int cast
                col = np.minimum(x * (deg + box), deg).astype(np.intp)
                cand = indices[indptr[cur[pending]] + np.minimum(col, deg - 1)]
                take = (col < deg) & (r * top < _bias_weights(keys, n, prev[pending], cand, p, q))
                nxt[pending[take]] = cand[take]
                pending, rounds = pending[(col < deg) & ~take], rounds + 1
            # still rejected: invert the exact law at the block draw; the last
            # neighbor takes every draw past the other cumulative probabilities
            for i in pending:
                nbrs, probs = step_distribution(graph, prev[i], cur[i], p, q)
                nxt[i] = nbrs[np.searchsorted(np.cumsum(probs)[:-1], draw[i], side="right")]
            block[live, step + 1] = nxt
    return WalkCorpus(walks.reshape(-1, length))
