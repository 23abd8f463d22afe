"""Spectral node embeddings: Laplacian eigenmaps, locally linear embedding,
and Katz-proximity factorization (HOPE).

All three solve sparse symmetric eigenproblems on the CSR adjacency with
ARPACK (``eigsh``). LE and LLE solve each connected component on its own: a
block-diagonal operator's spectrum is the union of its blocks' spectra, so
the d smallest nontrivial eigenpairs over all blocks, each eigenvector zero
outside its block, are the whole graph's. HOPE's Katz matrix is a function of
the symmetric adjacency, so its SVD comes from A's extreme eigenpairs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from ..errors import ConfigError, ConnectivityError, DimensionError, DivergenceError
from ..errors import check_int, check_number
from ..ssn import SimilarityNetwork, connected_components
from . import EmbeddingMatrix

# shift-invert target just below the nonnegative spectra of L and (I-W)^T(I-W)
_SHIFT = -1e-3


def _eigenpairs(op, k: int, m=None, **eigsh_kwargs):
    """At least the k wanted eigenpairs of the symmetric sparse ``op`` (mass
    matrix ``m``), eigenvalues ascending.

    ARPACK starts from one fixed seeded vector, so reruns repeat the bits.
    When 5k > n (scipy's own rule for leaving ``lobpcg``) the dense ``eigh``
    of the whole operator stands in: ``eigsh`` refuses k >= n and may fail to
    converge near it.
    """
    n = op.shape[0]
    if 5 * k > n:
        return eigh(op.toarray(), None if m is None else m.toarray())
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    values, vectors = eigsh(op, k, m, v0=v0, **eigsh_kwargs)
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order]


def _laplacian(block):
    """L = D - A with mass matrix M = D."""
    degree = sparse.diags(np.diff(block.indptr).astype(np.float64), format="csr")
    return degree - block, degree


def _lle_gram(block):
    """(I - W)^T (I - W) for the uniform weights W = D^-1 A, kept sparse."""
    degree = np.diff(block.indptr).astype(np.float64)
    residual = sparse.identity(block.shape[0], format="csr") - sparse.diags(1.0 / degree) @ block
    return residual.T @ residual, None


def _per_component(graph: SimilarityNetwork, d: int, method: str, operator) -> EmbeddingMatrix:
    """The d smallest eigenpairs over all components after each drops its
    first (constant) one, ordered by (eigenvalue, component id, index); each
    column is the block's eigenvector, zero outside its component."""
    check_int("d", d, 1)
    adjacency = graph.adjacency
    if np.any(np.diff(adjacency.indptr) == 0):
        raise ConnectivityError(f"{method} requires no isolated nodes")
    comp = connected_components(graph)
    n_comp = int(comp.max()) + 1 if graph.n else 0
    if graph.n - n_comp < d:
        raise DimensionError(
            f"d={d} needs n - components >= d, got {graph.n} nodes in {n_comp} components"
        )
    blocks = np.split(np.argsort(comp, kind="stable"), np.cumsum(np.bincount(comp))[:-1])
    values, owners, columns = [], [], []
    for c, nodes in enumerate(blocks):
        k = min(d, len(nodes) - 1) + 1
        op, mass = operator(adjacency[nodes][:, nodes])
        vals, vecs = _eigenpairs(op, k, mass, sigma=_SHIFT)
        values.append(vals[1:k])
        owners.append(np.full(k - 1, c))
        columns.extend(vecs[:, 1:k].T)
    values, owners = np.concatenate(values), np.concatenate(owners)
    # stable, and the candidates come in (component id, index) order
    take = np.argsort(values, kind="stable")[:d]
    vectors = np.zeros((graph.n, d))
    for j, t in enumerate(take):
        vectors[blocks[owners[t]], j] = columns[t]
    embedded = np.isin(comp, owners[take])
    return EmbeddingMatrix(
        vectors,
        method,
        d,
        info={
            "eigenvalues": tuple(float(v) for v in values[take]),
            "components": n_comp,
            "zero_rows": int(graph.n - embedded.sum()),
        },
    )


def laplacian_eigenmaps(graph: SimilarityNetwork, d: int) -> EmbeddingMatrix:
    """Generalized eigenproblem L y = lambda D y, skipping each component's
    constant mode.

    Returns D-orthonormal eigenvectors of the d smallest such eigenvalues,
    ascending in ``info["eigenvalues"]``; ``info["zero_rows"]`` counts the
    nodes of components that got no column.
    """
    return _per_component(graph, d, "laplacian_eigenmaps", _laplacian)


def lle_embed(graph: SimilarityNetwork, d: int) -> EmbeddingMatrix:
    """Locally linear embedding with uniform reconstruction weights W = D^-1 A.

    Unit eigenvectors of (I - W)^T (I - W) with the d smallest eigenvalues
    once each component's all-ones direction (eigenvalue 0 of the
    row-stochastic W) is dropped.
    """
    return _per_component(graph, d, "lle", _lle_gram)


# HOPE's checks of its settings, which need no graph: hope_embed makes them
# first, and the CLI before it reads the graph
def check_hope_params(d: int, beta: Optional[float] = None) -> None:
    check_int("d", d, 1)
    if d % 2:
        raise ConfigError(f"d must be even for the source/target split, got {d}")
    if beta is not None:
        check_number("beta", beta, 0, strict=True)


def hope_embed(
    graph: SimilarityNetwork, d: int, beta: Optional[float] = None
) -> EmbeddingMatrix:
    """Higher-order proximity embedding via truncated SVD of Katz similarity.

    S = (I - beta A)^-1 beta A = f(A) with f(x) = beta x / (1 - beta x), so
    for the eigenpairs (x_i, u_i) of the symmetric A its singular values are
    |f(x_i)|, with left vectors u_i and right vectors sign(f(x_i)) u_i. |f|
    grows with |x| on each side of 0, so the top d/2 lie among A's d/2
    largest and d/2 smallest eigenvalues. The d columns split into source
    and target halves [U sqrt(S) | V sqrt(S)]. Default beta is 0.5 / rho(A);
    beta at or beyond 1 / rho(A) diverges.
    """
    check_hope_params(d, beta)
    n = graph.n
    half = d // 2
    if half > n:
        raise DimensionError(f"d/2={half} exceeds node count {n}")
    if graph.num_edges:
        values, vectors = _eigenpairs(graph.adjacency, d, which="BE")
    else:
        values, vectors = np.zeros(half), np.zeros((n, half))
    rho = float(values[-1])  # the Perron root, as A is nonnegative
    if beta is None:
        beta = 0.5 / rho if rho > 0 else 0.5
    if rho > 0 and beta >= 1.0 / rho:
        raise DivergenceError(f"beta={beta} >= 1/rho(A)={1.0 / rho}")
    katz = beta * values / (1.0 - beta * values)
    top = np.argsort(-np.abs(katz), kind="stable")[:half]
    singular = np.abs(katz[top])
    source = vectors[:, top] * np.sqrt(singular)
    target = source * np.sign(katz[top])
    return EmbeddingMatrix(
        np.hstack([source, target]),
        "hope",
        d,
        info={
            "beta": float(beta),
            "spectral_radius": rho,
            "singular_values": tuple(float(s) for s in singular),
        },
    )
