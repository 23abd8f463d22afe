"""Squared Euclidean distances and exact nearest-neighbor lists.

:func:`sq_distances` takes dense arrays or ``scipy.sparse`` matrices and
returns the same bits as explicit coordinate differences. It uses the Gram
expansion ``|a|^2 + |b|^2 - 2 a.b`` only when that is exact: every entry of
both operands is an integer and ``4 * dim * max|entry|^2 < 2**53``, so every
intermediate is an integer that float64 holds exactly (k-mer counts always
qualify). Otherwise every distance is summed by :func:`_paired_sq`, the
one rule for float rows, in blocks of at most 2^19 differences (4 MB).
Each pair's sum is taken over its own contiguous row, so the bits depend
neither on the block nor on the operands' memory layout. Both functions
work in row tiles of the first operand and scan for exactness once a call.

Where an operand is sparse, the Gram product splits the columns once per
call (Yuster and Zwick's dense/sparse split, "Fast sparse matrix
multiplication", 2005). :func:`_hot_columns` picks the columns whose
pairs of nonzeros cost more as scattered sparse multiply-adds than in
BLAS; on k=3 counts of related sequences they are about a seventh of the
columns and hold most of the nonzeros. A single query row has none, nor
does a product against a dense searched operand (k-means' centres). The
second operand's hot columns are densified once per call, its cold
columns kept as one sparse slice, and each tile is a sparse product over
the cold columns plus a dense product over the hot ones. Every partial
sum is an exact integer, so the bits do not depend on the split. An
operand whose columns all fall on one side is not copied, and when both
operands are the same matrix a tile's parts are row slices of the second
operand's.

:func:`k_nearest` orders each query's rows by (distance, index), sorting
only the distances at or below the k-th; on float rows it sums explicit
differences only for the pairs a certified Gram tile leaves open
(:func:`_bounded_tile`). k-means assigns ``k_nearest(centers, 1, queries=x)``.
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
# values in one of _assigned_sq's explicit-difference blocks (1 MB of float64)
_ASSIGNED_ELEMS = 1 << 17
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
    if not sparse.issparse(x):
        return np.einsum("ij,ij->i", x, x)
    # a duplicate entry's values add before squaring
    x = x if x.has_canonical_format else x.tocoo().tocsr()
    # each row's squared stored values, summed with no CSR copy of x * x, in
    # runs of whole rows about _CHUNK values long: squaring all of x.data at
    # once costs more in fresh pages than the sums. In a run of non-empty
    # rows each row's values end where the next one's start
    sq = np.zeros(x.shape[0])
    filled = np.flatnonzero(x.indptr[:-1] < x.indptr[1:])
    for rows in filter(len, np.array_split(filled, 1 + x.nnz // _CHUNK)):
        lo, hi = x.indptr[rows[0]], x.indptr[rows[-1] + 1]
        # a value above 1.3e154 squares to +inf: the float bound then leaves
        # its pairs open (see _bounded_tile)
        with np.errstate(over="ignore"):
            sq[rows] = np.add.reduceat(np.square(x.data[lo:hi]), x.indptr[rows] - lo)
    return sq


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


def _row_tiles(a, b, k=None):
    """(start, squared distances from a[start:start + m] to b) for each tile;
    with ``k``, a float tile is :func:`_bounded_tile`'s for that k."""
    if _gram_is_exact(a, b):
        sq_a = _sq_norms(a)
        sq_b = sq_a if b is a else _sq_norms(b)
        # one row has no column with pairs enough to be hot, and a sparse
        # product against a dense b needs no dense columns
        skip = a.shape[0] == 1 or not sparse.issparse(b)
        hot = np.zeros(b.shape[1], bool) if skip else _hot_columns(a, b)
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
    (m, dim), n = a.shape, b.shape[0]
    # one row of a against `cols` rows of b is at most _BLOCK_ELEMS differences
    cols = max(1, _BLOCK_ELEMS // max(1, dim))
    if k is not None:
        # a tile is `tile` rows of a against all of b, at most an eighth as
        # many distances unless one row is more; CSR rows, which a slice
        # copies (dense ones it views), take 8 times as many
        tile = max(1, _BLOCK_ELEMS // (1 if sparse.issparse(a) else 8) // max(1, n))
        b, sq_b = _dense(b), _sq_norms(b)
        for start in range(0, m, tile):
            # a is not densified, and a single tile is not a CSR row slice's copy
            rows = a if tile >= m else a[start : start + tile]
            yield start, _bounded_tile(rows, b, sq_b, k, cols)
        return
    # on the difference branch, an eighth as many distances and at most _TILE_ROWS rows
    tile = max(1, min(_TILE_ROWS, _BLOCK_ELEMS // 8 // max(1, n)))
    a, b = _dense(a), _dense(b)
    for start in range(0, m, tile):
        d2 = np.empty((min(tile, m - start), n))
        for i, row in enumerate(a[start : start + len(d2)]):
            for j in range(0, n, cols):
                d2[i, j : j + cols] = _paired_sq(row, b[j : j + cols])
        yield start, d2
        del d2  # not held while the next tile is made


def _bounded_tile(a, b, sq_b, k: int, pairs: int) -> np.ndarray:
    """Squared distances from the rows of a to the dense rows of b, to rank
    each row's k smallest: explicit differences where a pair may be among
    them, +inf where it cannot, 0 for a row's only open pair.

    With u = 2^-53 and gamma_n = n u / (1 - n u), the float64 Gram value
    g = |a|^2 + |b|^2 - 2 a.b and the explicit sum e both lie within
    gamma_(dim+2) (|a| + |b|)^2 of the true distance (Higham, "Accuracy and
    Stability of Numerical Algorithms", ch. 3), so |g - e| <= eps =
    gamma_(4 dim + 16) (|a| + |b|)^2, which also covers the rounding of eps
    and of the comparisons. A pair whose g + eps is finite and whose g - eps
    exceeds its row's k-th smallest g + eps has k other pairs with smaller
    e. Open pairs take :func:`_paired_sq`, ``pairs`` at a time."""
    sq_a = _sq_norms(a)
    # where a norm overflows, g and eps are +inf or NaN (inf - inf): such a
    # pair's g + eps is not finite and NaN compares false, so it stays open
    # and takes an explicit difference, which is right
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)  # g, dense as b is
        eps = _gamma(4 * b.shape[1] + 16) * np.add.outer(np.sqrt(sq_a), np.sqrt(sq_b)) ** 2
        hi = d2 + eps
        d2 -= eps  # g - eps
    # with k or more columns, no pair is ruled out
    upper = np.partition(hi, k - 1, axis=1)[:, k - 1 : k] if 0 < k < d2.shape[1] else np.inf
    keep = ~(np.isfinite(hi) & (d2 > upper))
    del eps, hi
    d2.fill(np.inf)
    # a row's only open pair is its nearest, whatever its distance
    alone = keep & (keep.sum(axis=1, keepdims=True) == 1)
    d2[alone] = 0.0
    rows, cols = np.nonzero(keep & ~alone)
    for i in range(0, len(rows), pairs):
        r, c = rows[i : i + pairs], cols[i : i + pairs]
        d2[r, c] = _paired_sq(_dense(a[r]), b[c])
    return d2


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
    # with its own row among the candidates, a row's list needs k + 1
    for start, d2 in _row_tiles(queries, x, k + own):
        if own:
            # NaN sorts after every distance, +inf included
            d2[np.arange(len(d2)), np.arange(start, start + len(d2))] = np.nan
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


def _paired_sq(a, b, out=None) -> np.ndarray:
    """|a[i] - b[i]|^2 by explicit differences (rows paired after
    broadcasting): the one rule by which every float distance is summed.
    A one-row einsum is a full reduction, which numpy sums in another order
    once a row is longer than 8,192 values; a second copy of the row keeps
    the per-row order. The differences are C-ordered (``out`` must be), so
    each row is summed contiguously whatever the operands' layout."""
    diff = np.subtract(a, b, out=out, order="C")
    rows = len(diff)
    if rows == 1:
        diff = np.vstack((diff, diff))
    return np.einsum("ij,ij->i", diff, diff)[:rows]


def _gamma(n: int) -> float:
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _assigned_sq(x, centers, assign) -> np.ndarray:
    """|x[i] - centers[assign[i]]|^2 by explicit differences, ``_ASSIGNED_ELEMS``
    at a time, in two arrays made once per call (fresh 1 MB arrays each block
    are fresh pages from the system); CSR rows are added into zeros, as in ``toarray``."""
    n, dim = x.shape
    cost = np.empty(n)
    step = max(1, min(n, _ASSIGNED_ELEMS // max(1, dim)))
    rows, near = np.empty((step, dim)), np.empty((step, dim))
    for start in range(0, n, step):
        stop = min(start + step, n)
        # assign holds valid centres; "clip" takes them unbuffered, "raise" copies
        c = np.take(centers, assign[start:stop], axis=0, out=near[: stop - start], mode="clip")
        block = x[start:stop] if not sparse.issparse(x) else rows[: stop - start]
        if sparse.issparse(x):
            block.fill(0.0)
            csr_todense(stop - start, dim, x.indptr[start : stop + 1], x.indices, x.data, block)
        cost[start:stop] = _paired_sq(block, c, out=c)
    return cost


def _group_sums(x, codes, k: int) -> np.ndarray:
    """Row c: x[codes == c].sum(axis=0), group by group, so numpy sums one
    column pairwise and wider rows one by one as it would for that group."""
    sums = np.zeros((k, x.shape[1]))
    for c in np.flatnonzero(np.bincount(codes, minlength=k)):
        sums[c] = np.asarray(x[codes == c].sum(axis=0)).ravel()
    return sums
