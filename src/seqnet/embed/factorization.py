"""Graph factorization: SGD on the regularized adjacency reconstruction loss

    f(Y) = 1/2 sum_{(i,j) in E} (A_ij - <y_i, y_j>)^2 + (lam/2) sum_i ||y_i||^2

The objective and its exact gradient are exposed separately so training can be
checked against finite differences.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..ssn import SimilarityNetwork
from . import EmbeddingMatrix, _check_dim


def gf_objective(y: np.ndarray, edges: np.ndarray, lam: float) -> float:
    y = np.asarray(y, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    inner = np.einsum("ed,ed->e", y[edges[:, 0]], y[edges[:, 1]])
    residual = 1.0 - inner
    return 0.5 * float(residual @ residual) + 0.5 * lam * float((y * y).sum())


def gf_gradient(y: np.ndarray, edges: np.ndarray, lam: float) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    residual = 1.0 - np.einsum("ed,ed->e", y[src], y[dst])
    grad = lam * y
    np.add.at(grad, src, -residual[:, None] * y[dst])
    np.add.at(grad, dst, -residual[:, None] * y[src])
    return grad


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
    updates both endpoints from their pre-update values.
    """
    _check_dim(d)
    if lr <= 0:
        raise ConfigError("lr must be positive")
    if lam < 0:
        raise ConfigError("lam must be nonnegative")
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    rng = np.random.default_rng(seed)
    y = rng.uniform(-0.1, 0.1, size=(graph.n, d))
    edges = graph.edge_array()

    for _ in range(epochs):
        for e in rng.permutation(len(edges)):
            i, j = int(edges[e, 0]), int(edges[e, 1])
            yi, yj = y[i].copy(), y[j]
            residual = 1.0 - float(yi @ yj)
            y[i] += lr * (residual * yj - lam * yi)
            y[j] += lr * (residual * yi - lam * yj)
    final_loss = gf_objective(y, edges, lam) if len(edges) else 0.0
    return EmbeddingMatrix(
        y, "graph_factorization", d,
        info={"loss": float(final_loss), "lam": lam, "lr": lr, "epochs": epochs},
    )
