"""Dense reference solvers for ``seqnet.embed.spectral``.

These are the whole-graph O(n^3) bodies that the sparse per-component path
replaced: Laplacian eigenmaps and LLE by one dense ``eigh`` of the n x n
operator, HOPE by a dense solve for the Katz matrix and its full SVD, and the
spectral radius by 100 power iterations. They take a connected graph, or any
graph when the caller removes the zero modes itself (``whole_spectrum``).
"""

import numpy as np
from scipy.linalg import eigh

_NULLSPACE_TOL = 1e-9


def spectral_radius(adjacency):
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


def katz_similarity(adjacency, beta):
    """Katz proximity (I - beta A)^-1 beta A; requires beta * rho(A) < 1."""
    n = adjacency.shape[0]
    return np.linalg.solve(np.eye(n) - beta * adjacency, beta * adjacency)


def laplacian_operator(adjacency):
    """(L, D) with L = D - A, dense."""
    degree = np.diag(adjacency.sum(axis=1))
    return degree - adjacency, degree


def lle_operator(adjacency):
    """(I - W)^T (I - W) with W = D^-1 A, symmetrized, dense."""
    n = adjacency.shape[0]
    residual = np.eye(n) - adjacency / adjacency.sum(axis=1)[:, None]
    gram = residual.T @ residual
    return (gram + gram.T) / 2.0, None


def whole_spectrum(operator, adjacency, components):
    """All eigenvalues of the whole-graph operator, ascending, with the
    ``components`` smallest (the zero modes, one per component) removed."""
    return eigh(*operator(adjacency), eigvals_only=True)[components:]


def laplacian_eigenmaps(adjacency, d):
    """The d smallest nonzero eigenpairs of L y = lambda D y on a connected
    graph: (eigenvalues, D-orthonormal eigenvectors)."""
    eigenvalues, eigenvectors = eigh(*laplacian_operator(adjacency))
    return eigenvalues[1 : d + 1], eigenvectors[:, 1 : d + 1]


def lle_embed(adjacency, d):
    """The d smallest nonzero eigenpairs of (I - W)^T (I - W) on a connected
    graph: (eigenvalues, unit eigenvectors)."""
    eigenvalues, eigenvectors = eigh(lle_operator(adjacency)[0])
    take = np.flatnonzero(eigenvalues > _NULLSPACE_TOL)[:d]
    return eigenvalues[take], eigenvectors[:, take]


def hope_embed(adjacency, d, beta=None):
    """[U sqrt(S) | V sqrt(S)] from the full SVD of the Katz matrix, with
    (vectors, beta, rho, singular values)."""
    half = d // 2
    rho = spectral_radius(adjacency)
    if beta is None:
        beta = 0.5 / rho if rho > 0 else 0.5
    u, singular, vt = np.linalg.svd(katz_similarity(adjacency, beta))
    scale = np.sqrt(singular[:half])
    vectors = np.hstack([u[:, :half] * scale, vt[:half].T * scale])
    return vectors, beta, rho, singular[:half]
