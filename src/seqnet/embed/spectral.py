"""Spectral node embeddings: Laplacian eigenmaps, locally linear embedding,
and Katz-proximity factorization (HOPE).

Dense solvers throughout: O(n^3) but exact, which is the right trade at the
few-thousand-node scale this package targets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import eigh

from ..errors import ConfigError, ConnectivityError, DimensionError, DivergenceError
from ..ssn import SimilarityNetwork, connected_components, subgraph
from . import EmbeddingMatrix, _check_dim

_NULLSPACE_TOL = 1e-9


def spectral_radius(adjacency: np.ndarray) -> float:
    """Estimate of the largest eigenvalue magnitude by 100 power iterations."""
    n = adjacency.shape[0]
    if n == 0:
        return 0.0
    x = np.ones(n) / np.sqrt(n)
    estimate = 0.0
    for _ in range(100):
        y = adjacency @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        estimate = norm
        x = y / norm
    return estimate


def katz_similarity(adjacency: np.ndarray, beta: float) -> np.ndarray:
    """Katz proximity (I - beta A)^-1 beta A; requires beta * rho(A) < 1."""
    n = adjacency.shape[0]
    return np.linalg.solve(np.eye(n) - beta * adjacency, beta * adjacency)


def _handle_disconnected(graph, d, method, on_disconnected, embed_fn):
    comp = connected_components(graph)
    n_comp = int(comp.max()) + 1 if graph.n else 0
    if n_comp <= 1:
        return None
    if on_disconnected == "error":
        raise ConnectivityError(
            f"{method} needs a connected graph; found {n_comp} components"
        )
    if on_disconnected != "largest":
        raise ConfigError(f"unknown on_disconnected mode {on_disconnected!r}")
    sizes = np.bincount(comp)
    keep = np.flatnonzero(comp == int(np.argmax(sizes)))
    sub = subgraph(graph, keep.tolist())
    inner = embed_fn(sub)
    vectors = np.zeros((graph.n, d))
    vectors[keep] = inner.vectors
    info = dict(inner.info)
    info["embedded_nodes"] = int(len(keep))
    info["total_nodes"] = graph.n
    return EmbeddingMatrix(vectors, method, d, info=info)


def laplacian_eigenmaps(
    graph: SimilarityNetwork, d: int, on_disconnected: str = "error"
) -> EmbeddingMatrix:
    """Generalized eigenproblem L y = lambda D y, skipping the constant mode.

    Returns the D-orthonormal eigenvectors of the d smallest nonzero
    eigenvalues, eigenvalues ascending in ``info["eigenvalues"]``. Requires a
    connected graph unless ``on_disconnected="largest"``, which embeds the
    largest component and zero-fills the remaining rows.
    """
    _check_dim(d)
    routed = _handle_disconnected(
        graph, d, "laplacian_eigenmaps", on_disconnected,
        lambda sub: laplacian_eigenmaps(sub, d),
    )
    if routed is not None:
        return routed
    n = graph.n
    if d >= n:
        raise DimensionError(f"d={d} needs at least d+1={d + 1} nodes, got {n}")
    adjacency = graph.adjacency_matrix()
    degrees = adjacency.sum(axis=1)
    lap = np.diag(degrees) - adjacency
    eigenvalues, eigenvectors = eigh(lap, np.diag(degrees))
    return EmbeddingMatrix(
        eigenvectors[:, 1 : d + 1],
        "laplacian_eigenmaps",
        d,
        info={"eigenvalues": tuple(float(v) for v in eigenvalues[1 : d + 1])},
    )


def lle_embed(
    graph: SimilarityNetwork, d: int, on_disconnected: str = "error"
) -> EmbeddingMatrix:
    """Locally linear embedding with uniform reconstruction weights W = D^-1 A.

    Eigenvectors of (I - W)^T (I - W) with the d smallest nonzero eigenvalues,
    unit-normalized; the all-ones direction (eigenvalue 0 of the row-stochastic
    W) is excluded.
    """
    _check_dim(d)
    routed = _handle_disconnected(
        graph, d, "lle", on_disconnected, lambda sub: lle_embed(sub, d)
    )
    if routed is not None:
        return routed
    n = graph.n
    if d >= n:
        raise DimensionError(f"d={d} needs at least d+1={d + 1} nodes, got {n}")
    adjacency = graph.adjacency_matrix()
    degrees = adjacency.sum(axis=1)
    if np.any(degrees == 0):
        raise ConnectivityError("lle requires no isolated nodes")
    weights = adjacency / degrees[:, None]
    residual_op = np.eye(n) - weights
    gram = residual_op.T @ residual_op
    gram = (gram + gram.T) / 2.0
    eigenvalues, eigenvectors = eigh(gram)
    nonzero = np.flatnonzero(eigenvalues > _NULLSPACE_TOL)
    if len(nonzero) < d:
        raise DimensionError(
            f"only {len(nonzero)} nonzero eigenvalues available for d={d}"
        )
    take = nonzero[:d]
    return EmbeddingMatrix(
        eigenvectors[:, take],
        "lle",
        d,
        info={"eigenvalues": tuple(float(v) for v in eigenvalues[take])},
    )


def hope_embed(
    graph: SimilarityNetwork, d: int, beta: Optional[float] = None
) -> EmbeddingMatrix:
    """Higher-order proximity embedding via truncated SVD of Katz similarity.

    The d columns split into source and target halves [U sqrt(S) | V sqrt(S)].
    Default beta is 0.5 / rho(A) with rho estimated by 100 power iterations;
    beta at or beyond 1 / rho(A) diverges.
    """
    _check_dim(d)
    if d % 2:
        raise ConfigError(f"d must be even for the source/target split, got {d}")
    n = graph.n
    half = d // 2
    if half > n:
        raise DimensionError(f"d/2={half} exceeds node count {n}")
    adjacency = graph.adjacency_matrix()
    rho = spectral_radius(adjacency)
    if beta is None:
        beta = 0.5 / rho if rho > 0 else 0.5
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    if rho > 0 and beta >= 1.0 / rho:
        raise DivergenceError(f"beta={beta} >= 1/rho(A)={1.0 / rho}")
    similarity = katz_similarity(adjacency, beta)
    u, singular, vt = np.linalg.svd(similarity)
    scale = np.sqrt(singular[:half])
    source = u[:, :half] * scale
    target = vt[:half].T * scale
    return EmbeddingMatrix(
        np.hstack([source, target]),
        "hope",
        d,
        info={
            "beta": float(beta),
            "spectral_radius": float(rho),
            "singular_values": tuple(float(s) for s in singular[:half]),
        },
    )
