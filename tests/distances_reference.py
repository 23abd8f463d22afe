"""Reference squared distances and nearest-neighbor lists.

``sq_distances_reference`` is the explicit coordinate-difference formula
``seqnet.distances`` used before it chose the Gram expansion where that is
exact; the library must return the same bits on every input.
``k_nearest_reference`` sorts each query's (distance, index) pairs in full.
"""

import numpy as np
from scipy import sparse

_BLOCK_ELEMS = 20_000_000


def sq_distances_reference(a, b=None):
    a = a.toarray() if sparse.issparse(a) else a
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b is None:
        b = a
    else:
        b = b.toarray() if sparse.issparse(b) else b
        b = np.asarray(b, dtype=np.float64)
        if b.ndim == 1:
            b = b[:, None]
    na, nb, dim = a.shape[0], b.shape[0], a.shape[1]
    out = np.empty((na, nb), dtype=np.float64)
    step = max(1, _BLOCK_ELEMS // max(1, nb * dim))
    for start in range(0, na, step):
        stop = min(start + step, na)
        diff = a[start:stop, None, :] - b[None, :, :]
        out[start:stop] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def k_nearest_reference(x, k, queries=None, rows=None):
    """Per query, the first k of all (distance, index) pairs in sorted order."""
    x = x.toarray() if sparse.issparse(x) else np.asarray(x, dtype=np.float64)
    if queries is None:
        rows = range(len(x)) if rows is None else rows
        d2 = sq_distances_reference(x[list(rows)], x)
        skip = list(rows)
    else:
        d2 = sq_distances_reference(queries, x)
        skip = [None] * len(d2)
    return [
        [j for _, j in sorted((float(d), j) for j, d in enumerate(row) if j != s)[:k]]
        for row, s in zip(d2, skip)
    ]
