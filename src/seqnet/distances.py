"""Squared Euclidean distances and exact nearest-neighbor lists.

:func:`sq_distances` takes dense arrays or ``scipy.sparse`` matrices and
returns the same bits as explicit coordinate differences. It uses the Gram
expansion ``|a|^2 + |b|^2 - 2 a.b`` only when that is exact: every entry of
both operands is an integer and ``4 * dim * max|entry|^2 < 2**53``, so every
intermediate is an integer that float64 holds exactly (k-mer counts always
qualify). Otherwise every distance is summed by :func:`_paired_sq`, the
one rule for float rows, which :func:`nearest` uses too: one row of the
first operand against as many rows of the second as fit in 2^19
differences (4 MB). Each pair's sum is taken over its own contiguous row,
so the bits depend neither on the slice nor on the operands' memory
layout. Both functions work in tiles of at most 512 rows of the first
operand (on the difference branch, at most 2^16 distances unless one row
is more), and make the exactness scan and the squared norms once per call.

Where an operand is sparse, the Gram product splits the columns once per
call (Yuster and Zwick's dense/sparse split, "Fast sparse matrix
multiplication", 2005). :func:`_hot_columns` picks the columns whose
pairs of nonzeros cost more as scattered sparse multiply-adds than in
BLAS; on k=3 counts of related sequences they are about a seventh of the
columns and hold most of the nonzeros, on a single query row there are
none, so a one-row query skips the column count. The second operand's
hot columns are densified once per call, its cold columns kept as one
sparse slice, and each tile is a sparse product over the cold columns
plus a dense product over the hot ones. Every
partial sum is an exact integer, so the bits do not depend on the split.
An operand whose columns all fall on one side is not copied, and when
both operands are the same matrix a tile's parts are row slices of the
second operand's. :func:`k_nearest` orders each query's rows by
(distance, index), sorting only the distances at or below the k-th.

:func:`nearest` is k-means' assignment step: each row's nearest centre and
its squared distance, with the bits of ``sq_distances(x, centers)`` and a
row-wise argmin but none of its n x k x dim difference blocks. It certifies
a float64 Gram argmin by an a-priori rounding bound and recomputes by
explicit differences only what the bound leaves open.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_todense

from .featurize import FeatureMatrix

# differences in one of _row_tiles' _paired_sq calls (4 MB of float64)
_BLOCK_ELEMS = 1 << 19
_TILE_ROWS = 512
_CHUNK = 1 << 15
# values in one of nearest's explicit-difference blocks (1 MB of float64)
_NEAREST_ELEMS = 1 << 17
_UNIT_ROUNDOFF = 2.0**-53
# a BLAS multiply-add costs about 1/70 of a sparse one, or of writing one
# dense element (measured on a 2-core host, two BLAS threads)
_BLAS_SPEEDUP = 70


def _rows(x):
    """The rows of x as the distance functions take them: a ``FeatureMatrix``
    or ``scipy.sparse`` input as float64 CSR, anything else as a float64
    array, in which a 1-D input is one column."""
    if isinstance(x, FeatureMatrix):
        x = x.matrix
    if sparse.issparse(x):
        return sparse.csr_matrix(x, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def _dense(x):
    return x.toarray() if sparse.issparse(x) else x


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


def _col_counts(x) -> np.ndarray:
    if sparse.issparse(x):
        return np.bincount(x.indices, minlength=x.shape[1]).astype(np.float64)
    return np.full(x.shape[1], float(x.shape[0]))


def _hot_columns(a, b) -> np.ndarray:
    """A mask of the columns that a @ b.T takes densely, in BLAS. A sparse
    product makes one scattered multiply-add per pair of nonzeros in a
    column; a dense column is written once for each operand (m + n values)
    and makes m n multiply-adds in BLAS."""
    m, n = a.shape[0], b.shape[0]
    pairs = _col_counts(a) * _col_counts(b)
    return pairs > m + n + m * n / _BLAS_SPEEDUP


def _split(x, hot):
    """(x's ``hot`` columns as a dense array, the others as they are), None
    for an empty side; x itself is not copied when one side is empty."""
    if hot.all():
        return _dense(x), None
    if not hot.any():
        return None, x
    return _dense(x[:, hot]), x[:, ~hot]


def _gram(a_parts, b_parts) -> np.ndarray:
    """a @ b.T as a dense array, from the operands' (hot, cold) parts: a
    dense product over the hot columns, into which the sparse product over
    the cold ones is added in place, so one dense tile is held. Exact, so
    called only on integer operands."""
    (a_hot, a_cold), (b_hot, b_cold) = a_parts, b_parts
    if a_cold is None:
        return a_hot @ b_hot.T
    if a_cold.shape[0] == 1:
        # scipy makes a CSR copy of a product's transposed right operand:
        # for one query row, copy that row, not all of b's cold columns
        cold = (b_cold @ a_cold.T).T
    else:
        cold = a_cold @ b_cold.T
    if a_hot is None:
        return _dense(cold)
    gram = a_hot @ b_hot.T
    if sparse.issparse(cold):
        cold = cold.tocsr()
        csr_todense(*cold.shape, cold.indptr, cold.indices, cold.data, gram)  # gram += cold
    else:
        gram += cold
    return gram


def _row_tiles(a, b):
    """(start, squared distances from a[start:start + m] to b) for each tile."""
    if _gram_is_exact(a, b):
        sq_a = _sq_norms(a)
        sq_b = sq_a if b is a else _sq_norms(b)
        # one row has no column with pairs enough to be hot
        hot = np.zeros(b.shape[1], bool) if a.shape[0] == 1 else _hot_columns(a, b)
        # b is split once per call, not once per tile: slicing scans all of it
        b_parts = _split(b, hot)
        for start in range(0, a.shape[0], _TILE_ROWS):
            stop = start + _TILE_ROWS
            if a is b:
                a_parts = tuple(None if p is None else p[start:stop] for p in b_parts)
            else:
                a_parts = _split(a[start:stop], hot)
            # every term is an exact integer, so forming the tile in place
            # (one array, not three) does not change a bit
            d2 = _gram(a_parts, b_parts)
            d2 *= -2.0
            d2 += sq_a[start:stop, None]
            d2 += sq_b[None, :]
            yield start, d2
            del d2  # not held while the next tile is made
        return
    a, b = _dense(a), _dense(b)
    (m, dim), n = a.shape, b.shape[0]
    # one row of a against `cols` rows of b is at most _BLOCK_ELEMS
    # differences; a tile is `tile` rows of a against all of b, at most an
    # eighth as many distances unless one row is more
    cols = max(1, _BLOCK_ELEMS // max(1, dim))
    tile = max(1, min(_TILE_ROWS, _BLOCK_ELEMS // 8 // max(1, n)))
    for start in range(0, m, tile):
        d2 = np.empty((min(tile, m - start), n))
        for i, row in enumerate(a[start : start + len(d2)]):
            for j in range(0, n, cols):
                d2[i, j : j + cols] = _paired_sq(row, b[j : j + cols])
        yield start, d2
        del d2  # not held while the next tile is made


def sq_distances(a, b=None) -> np.ndarray:
    """Squared distances between the rows of a and b (default a); 1-D is a column."""
    a = _rows(a)
    b = a if b is None else _rows(b)
    out = np.empty((a.shape[0], b.shape[0]))
    for start, d2 in _row_tiles(a, b):
        out[start : start + len(d2)] = d2
        del d2  # not held while the next tile is made
    return out


def k_nearest(x, k: int, queries=None) -> np.ndarray:
    """The k rows of x nearest each query, ordered by (distance, index).

    x and ``queries`` are arrays or ``scipy.sparse``. ``queries=None``
    queries every row of x, each left out of its own list.
    """
    x = _rows(x)
    own = queries is None
    queries = x if own else _rows(queries)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for start, d2 in _row_tiles(queries, x):
        if own:
            d2[np.arange(len(d2)), np.arange(start, start + len(d2))] = np.inf
        out[start : start + len(d2)] = _smallest(d2, k)
        del d2  # not held while the next tile is made
    return out


def _smallest(d2, k: int) -> np.ndarray:
    """The first k columns of each row's stable argsort, without sorting the
    whole row: a partition finds the k-th smallest value, and only the
    entries at or below it, ties included, are sorted by (value, index)."""
    m, n = d2.shape
    if not 0 < k < n:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    # partitions copy a few rows at a time, not a second whole tile
    step = max(1, _CHUNK // n)
    kth = np.empty((m, 1))
    for i in range(0, m, step):
        kth[i : i + step] = np.partition(d2[i : i + step], k - 1, axis=1)[:, k - 1 : k]
    # a NaN k-th value (fewer than k numbers in the row) keeps the whole row
    rows, cols = np.nonzero((d2 <= kth) | np.isnan(kth))
    order = np.lexsort((cols, d2[rows, cols], rows))  # by row, value, index
    # rows is sorted already, so each row's entries keep their span in order
    firsts = np.searchsorted(rows, np.arange(m))
    return cols[order][firsts[:, None] + np.arange(k)]


def _paired_sq(a, b) -> np.ndarray:
    """|a[i] - b[i]|^2 by explicit differences (rows paired after
    broadcasting): the one rule by which every float distance is summed.
    A one-row einsum is a full reduction, which numpy sums in another order
    once a row is longer than 8,192 values; a second copy of the row keeps
    the per-row order. The differences are C-ordered, so each row is summed
    contiguously whatever the operands' layout."""
    diff = np.subtract(a, b, order="C")
    rows = len(diff)
    if rows == 1:
        diff = np.vstack((diff, diff))
    return np.einsum("ij,ij->i", diff, diff)[:rows]


def _gamma(n: int) -> float:
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _recheck(x, centers, rows) -> np.ndarray:
    """The nearest centre of each of x's ``rows`` by explicit differences."""
    return np.array(
        [_paired_sq(_dense(x[i : i + 1]), centers).argmin() for i in rows], dtype=np.int64
    )


def nearest(x, centers, sq_x=None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centre (lowest index on ties) and its squared
    distance: the bits of ``d2 = sq_distances(x, centers)``, ``d2.argmin(1)``
    and the chosen entries, without the n x k x dim difference blocks.

    x is an array or ``scipy.sparse``; ``centers`` is a dense k x dim array;
    ``sq_x`` may pass the squared row norms of x, made once by the caller.
    The Gram value g = |x|^2 + |c|^2 - 2 x.c is formed in float64 for every
    pair. With u = 2^-53 and gamma_n = n u / (1 - n u), both g and the
    explicit-difference sum e that :func:`sq_distances` returns lie within
    gamma_(dim+2) (|x| + |c|)^2 of the true distance, so |g - e| <= eps =
    gamma_(4 dim + 16) (|x| + |c|)^2; the larger n also covers the rounding
    of eps itself and of the comparisons below. A row's Gram argmin w is
    accepted when every other centre's g - eps exceeds w's g + eps: then
    no e can tie or beat e_w. The remaining rows (near ties, duplicate
    centres, non-finite values) are recomputed against all centres by
    explicit differences. Every row's chosen distance is computed by
    explicit differences, in row blocks of about 2^17 values, never n x k x
    dim.
    """
    x = _rows(x)
    centers = np.asarray(centers, dtype=np.float64)
    n, dim = x.shape
    sq_x = _sq_norms(x) if sq_x is None else sq_x
    sq_c = _sq_norms(centers)
    d2 = sq_x[:, None] + sq_c[None, :] - 2.0 * (x @ centers.T)
    eps = _gamma(4 * dim + 16) * (np.sqrt(sq_x)[:, None] + np.sqrt(sq_c)[None, :]) ** 2
    best = d2.argmin(axis=1)
    rows = np.arange(n)
    upper = d2[rows, best] + eps[rows, best]
    d2 -= eps
    d2[rows, best] = np.inf
    # negated so that a NaN bound fails the test too
    unsure = np.flatnonzero(~(d2.min(axis=1) > upper))
    best[unsure] = _recheck(x, centers, unsure)
    return best, _assigned_sq(x, centers, best)


def _assigned_sq(x, centers, assign) -> np.ndarray:
    """|x[i] - centers[assign[i]]|^2 by explicit differences, ``_NEAREST_ELEMS`` at a time."""
    n, dim = x.shape
    cost = np.empty(n)
    step = max(1, _NEAREST_ELEMS // max(1, dim))
    for start in range(0, n, step):
        stop = start + step
        cost[start:stop] = _paired_sq(_dense(x[start:stop]), centers[assign[start:stop]])
    return cost


def _group_sums(x, codes, k: int) -> np.ndarray:
    """Row c: x[codes == c].sum(axis=0), group by group, so numpy sums one
    column pairwise and wider rows one by one as it would for that group."""
    sums = np.zeros((k, x.shape[1]))
    for c in np.flatnonzero(np.bincount(codes, minlength=k)):
        sums[c] = np.asarray(x[codes == c].sum(axis=0)).ravel()
    return sums
