"""Reference graph factorization: the per-edge SGD loop ``seqnet.embed`` ran
before the level schedule.

Each epoch visits the undirected edges in one seeded ``rng.permutation`` and
updates both endpoints of one edge at a time, from their pre-update values.
``seqnet.embed.graph_factorization`` must give the same vectors and the same
final loss bit for bit: it applies the same updates in endpoint-disjoint
batches, and takes each residual's dot product through the same BLAS ``ddot``.
``gf_objective`` here gathers both endpoints of every edge at once;
``seqnet.embed.gf_objective`` gathers them a block of edges at a time and must
give the same value. :func:`gf_gradient` is the objective's exact gradient,
for finite-difference checks.
"""

import numpy as np


def gf_objective(y, edges, lam):
    y = np.asarray(y, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    inner = np.einsum("ed,ed->e", y[edges[:, 0]], y[edges[:, 1]])
    residual = 1.0 - inner
    return 0.5 * float(residual @ residual) + 0.5 * lam * float((y * y).sum())


def gf_gradient(y, edges, lam):
    y = np.asarray(y, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    residual = 1.0 - np.einsum("ed,ed->e", y[src], y[dst])
    grad = lam * y
    np.add.at(grad, src, -residual[:, None] * y[dst])
    np.add.at(grad, dst, -residual[:, None] * y[src])
    return grad


def graph_factorization(graph, d, lam=1e-4, lr=0.05, epochs=200, seed=0):
    """The vectors and the final loss of the per-edge loop."""
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
    return y, float(final_loss)
