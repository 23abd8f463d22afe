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
from ..errors import ConfigError
from ..ssn import SimilarityNetwork


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
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.p <= 0 or self.q <= 0:
            raise ConfigError("p and q must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")


@dataclass(frozen=True)
class WalkCorpus:
    """Walks as the rows of one int array, -1 after each walk's last node."""

    walks: np.ndarray

    def __len__(self) -> int:
        return len(self.walks)

    def __eq__(self, other) -> bool:
        return isinstance(other, WalkCorpus) and np.array_equal(self.walks, other.walks)


def _bias_weights(
    prev: int, prev_nbrs: np.ndarray, nbrs: np.ndarray, p: float, q: float
) -> np.ndarray:
    """Unnormalized p/q weights for stepping to each of ``nbrs`` after ``prev``.

    Returning to ``prev`` weighs 1/p, a neighbor of ``prev`` (membership by
    binary search in its sorted neighbor row) weighs 1, anything else 1/q.
    """
    pos = np.minimum(np.searchsorted(prev_nbrs, nbrs), len(prev_nbrs) - 1)
    weights = np.where(prev_nbrs[pos] == nbrs, 1.0, 1.0 / q)
    weights[nbrs == prev] = 1.0 / p
    return weights


def step_distribution(
    graph: SimilarityNetwork, prev: int, cur: int, p: float, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbors of ``cur`` and their transition probabilities given ``prev``."""
    nbrs = graph.neighbors(cur)
    weights = _bias_weights(prev, graph.neighbors(prev), nbrs, p, q)
    return nbrs, weights / weights.sum()


def generate_walks(graph: SimilarityNetwork, config: WalkConfig) -> WalkCorpus:
    """``walks_per_node`` truncated walks from every node, roots shuffled per pass.

    A pass draws its roots, then one ``(n, walk_length - 1)`` block of
    uniforms (row i for the i-th root), and moves its walkers in lockstep.
    The first step, and every step at p = q = 1, takes neighbor
    ``floor(draw * degree)``; a biased step inverts its walker's cumulative
    p/q weights.
    """
    rng = np.random.default_rng(config.seed)
    n, length, p, q = graph.n, config.walk_length, config.p, config.q
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    degree = np.diff(indptr)
    neighbors = [graph.neighbors(u) for u in range(n)]
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
            walkers = zip(live, block[live, step - 1].tolist(), cur.tolist(), draw)
            for row, prev, node, x in walkers:
                cumulative = np.cumsum(_bias_weights(prev, neighbors[prev], neighbors[node], p, q))
                pos = int(np.searchsorted(cumulative, x * cumulative[-1], side="right"))
                block[row, step + 1] = neighbors[node][min(pos, degree[node] - 1)]
    return WalkCorpus(walks.reshape(-1, length))
