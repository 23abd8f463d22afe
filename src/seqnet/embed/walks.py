"""Random-walk corpora over the similarity network.

Second-order walks bias the next step by where the previous step came from:
returning to it is reweighted by 1/p, staying in its neighborhood keeps
weight 1, and moving further out is reweighted by 1/q. With p = q = 1 the
walk degenerates to the uniform first-order walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..ssn import SimilarityNetwork


@dataclass(frozen=True)
class WalkConfig:
    """Random-walk and skip-gram hyperparameters (window, negatives, epochs)."""

    walks_per_node: int = 10
    walk_length: int = 80
    p: float = 1.0
    q: float = 1.0
    window: int = 10
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    seed: int = 0

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
    walks: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.walks)


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

    The first step is uniform over neighbors; later steps follow the p/q bias.
    A node with no neighbors yields the single-element walk [node].
    """
    rng = np.random.default_rng(config.seed)
    n = graph.n
    neighbors = [graph.neighbors(u) for u in range(n)]
    uniform = config.p == 1.0 and config.q == 1.0

    walks = []
    for _ in range(config.walks_per_node):
        for start in rng.permutation(n):
            cur = int(start)
            walk = [cur]
            draws = rng.random(config.walk_length - 1)
            for step in range(config.walk_length - 1):
                nbrs = neighbors[cur]
                if nbrs.size == 0:
                    break
                if uniform or len(walk) == 1:
                    nxt = int(nbrs[int(draws[step] * nbrs.size)])
                else:
                    prev = walk[-2]
                    weights = _bias_weights(prev, neighbors[prev], nbrs, config.p, config.q)
                    cumulative = np.cumsum(weights)
                    pos = int(
                        np.searchsorted(cumulative, draws[step] * cumulative[-1], side="right")
                    )
                    nxt = int(nbrs[min(pos, nbrs.size - 1)])
                walk.append(nxt)
                cur = nxt
            walks.append(tuple(walk))
    return WalkCorpus(tuple(walks))
