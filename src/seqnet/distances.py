"""Squared Euclidean distances and exact nearest-neighbor lists.

:func:`sq_distances` takes dense arrays or ``scipy.sparse`` matrices and
returns the same bits as explicit coordinate differences. It uses the Gram
expansion ``|a|^2 + |b|^2 - 2 a.b`` only when that is exact: every entry of
both operands is an integer and ``4 * dim * max|entry|^2 < 2**53``, so every
intermediate is an integer that float64 holds exactly (k-mer counts always
qualify). Otherwise it sums squared differences, in blocks of about 2e7
elements. :func:`k_nearest` orders each query's rows by (distance, index).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

_BLOCK_ELEMS = 20_000_000
_TILE_ROWS = 512
_CHUNK = 1 << 15


def _rows(x):
    if sparse.issparse(x):
        return sparse.csr_matrix(x, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def _gram_is_exact(a, b) -> bool:
    top = 0.0
    # b first: in Lloyd's step it is the small float centre array
    for v in (a,) if b is a else (b, a):
        v = (v.data if sparse.issparse(v) else v).reshape(-1)
        # cache-sized chunks halve the cost of the scan on a large operand
        for chunk in (v[i : i + _CHUNK] for i in range(0, v.size, _CHUNK)):
            if not np.array_equal(chunk, np.rint(chunk)):
                return False
            top = max(top, float(chunk.max()), -float(chunk.min()))
    return 4.0 * a.shape[1] * top * top < 2.0**53


def _sq_norms(x) -> np.ndarray:
    if sparse.issparse(x):
        return np.asarray(x.multiply(x).sum(axis=1)).ravel()
    return np.einsum("ij,ij->i", x, x)


def sq_distances(a, b=None) -> np.ndarray:
    """Squared distances between the rows of a and b (default a); 1-D is a column."""
    a = _rows(a)
    b = a if b is None else _rows(b)
    if _gram_is_exact(a, b):
        sq_a = _sq_norms(a)
        sq_b = sq_a if b is a else _sq_norms(b)
        gram = a @ b.T
        if sparse.issparse(gram):
            gram = gram.toarray()
        return sq_a[:, None] + sq_b[None, :] - 2.0 * gram
    a, b = (v.toarray() if sparse.issparse(v) else v for v in (a, b))
    out = np.empty((a.shape[0], b.shape[0]))
    step = max(1, _BLOCK_ELEMS // max(1, b.size))
    for start in range(0, a.shape[0], step):
        diff = a[start : start + step, None, :] - b[None, :, :]
        out[start : start + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def k_nearest(x, k: int, queries=None) -> np.ndarray:
    """The k rows of x nearest each query, ordered by (distance, index).

    x and ``queries`` are arrays or CSR. ``queries=None`` queries every row
    of x, each left out of its own list. Queries go in tiles of 512 rows.
    """
    own = queries is None
    queries = x if own else queries
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for start in range(0, queries.shape[0], _TILE_ROWS):
        d2 = sq_distances(queries[start : start + _TILE_ROWS], x)
        if own:
            d2[np.arange(len(d2)), np.arange(start, start + len(d2))] = np.inf
        out[start : start + len(d2)] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out
