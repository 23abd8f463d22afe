import tracemalloc
from unittest import mock

import numpy as np
from distances_reference import k_nearest_reference, sq_distances_reference
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from seqnet import distances
from seqnet.distances import k_nearest, sq_distances
from seqnet.featurize import featurize_dataset
from seqnet.seqio import ALPHABET, Dataset, SequenceRecord, synthesize_dataset
from seqnet.ssn import knn_query


@st.composite
def row_sets(draw, values, max_dim=6, max_rows=7):
    """(a, b) with rows picked from a small pool plus the zero row, so zero
    and duplicate rows are common; b may be None; either may be CSR."""
    dim = draw(st.integers(1, max_dim))
    pool = np.array(draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                                  min_size=1, max_size=4)), dtype=np.float64)
    pool = np.vstack([pool, np.zeros(dim)])
    picks = st.lists(st.integers(0, len(pool) - 1), max_size=max_rows)
    a = pool[draw(picks)].reshape(-1, dim)
    b = draw(st.none() | picks.map(lambda p: pool[p].reshape(-1, dim)))
    as_csr = draw(st.tuples(st.booleans(), st.booleans()))
    a = sparse.csr_matrix(a) if as_csr[0] else a
    if b is not None and as_csr[1]:
        b = sparse.csr_matrix(b)
    return a, b


def magnitudes():
    """Integers on both sides of the 4 * dim * max^2 < 2**53 exactness bound."""
    return st.sampled_from([3, 1274, 2**20, 2**24, 2**25, 2**26, 2**27]).flatmap(
        lambda hi: st.integers(-hi, hi)
    )


def non_integers():
    return st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), st.integers(-5, 5)
    )


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# which columns the Gram branch takes densely: none, all, or a drawn subset,
# repeated across the columns
splits = st.sampled_from([[False], [True]]) | st.lists(st.booleans(), min_size=2, max_size=6)


def hot_split(split):
    """A stand-in for ``_hot_columns`` that returns ``split``, cycled over b's columns."""
    return lambda a, b: np.resize(np.array(split), b.shape[1])


# the difference branch's block size, the integer scan's chunk size, the
# row tile and the Gram branch's hot columns
sizes = st.tuples(st.sampled_from([1, 7, 20_000_000]), st.sampled_from([1, 3, 1 << 15]),
                  st.sampled_from([1, 2, 512]), splits)


def sq_distances_sized(a, b, block, chunk, tile, split):
    with mock.patch.multiple(distances, _BLOCK_ELEMS=block, _CHUNK=chunk, _TILE_ROWS=tile,
                             _hot_columns=hot_split(split)):
        return sq_distances(a, b)


@settings(max_examples=300, deadline=None)
@given(row_sets(magnitudes()), sizes)
def test_integer_inputs_match_explicit_differences(operands, size):
    a, b = operands
    assert_same_bits(sq_distances_sized(a, b, *size), sq_distances_reference(a, b))


@settings(max_examples=300, deadline=None)
@given(row_sets(non_integers()), sizes)
def test_non_integer_inputs_match_explicit_differences(operands, size):
    a, b = operands
    assert_same_bits(sq_distances_sized(a, b, *size), sq_distances_reference(a, b))


def test_gram_expansion_rounding_takes_the_difference_branch():
    x = np.array([[2.0**27, 1.0], [2.0**27, 0.0]])
    sq = (x * x).sum(axis=1)
    # |a|^2 = 2**54 + 1 rounds to 2**54, so the Gram expansion gives 0
    assert sq[0] + sq[1] - 2.0 * (x[0] @ x[1]) == 0.0
    assert not distances._gram_is_exact(x, x)
    for rows in (x, sparse.csr_matrix(x)):
        d2 = sq_distances(rows)
        assert d2[0, 1] == 1.0 and d2[1, 0] == 1.0
        assert_same_bits(d2, sq_distances_reference(x))


def test_bound_keeps_the_factor_four():
    # dim * max^2 < 2**53 here, but 4 * dim * max^2 is not, and the Gram
    # expansion is off by one
    a = np.array([[-12987112.0, -63307862.0]])
    b = np.array([[-66390444.0, -50427845.0]])
    gram = (a * a).sum() + (b * b).sum() - 2.0 * (a @ b.T)[0, 0]
    assert gram == 3017810706622512.0
    assert sq_distances(a, b)[0, 0] == 3017810706622513.0


def test_kmer_counts_take_the_gram_branch():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 1274, size=(5, 8000)).astype(np.float64)
    assert distances._gram_is_exact(counts, counts)
    assert distances._gram_is_exact(sparse.csr_matrix(counts), sparse.csr_matrix(counts[:2]))
    assert not distances._gram_is_exact(counts, counts + 0.5)
    assert not distances._gram_is_exact(np.array([[np.nan]]), np.array([[1.0]]))


def test_hot_columns_hold_most_nonzeros():
    """On k=3 and k=4 counts of related sequences, a small share of the
    columns is hot and holds most of the nonzeros; for a single query row
    no column is hot."""
    rng = np.random.default_rng(0)
    root = rng.integers(0, 20, size=1274)
    flips = rng.random((100, 1274)) < 0.01
    codes = np.where(flips, (root + rng.integers(1, 20, size=flips.shape)) % 20, root)
    records = [SequenceRecord(f"s{i}", "".join(ALPHABET[c] for c in row))
               for i, row in enumerate(codes)]
    for k in (3, 4):
        x = featurize_dataset(Dataset(records), k).to_csr()
        hot = distances._hot_columns(x, x)
        assert hot.shape == (x.shape[1],) and hot.dtype == bool
        assert hot.sum() < x.shape[1] / 6
        assert np.bincount(x.indices, minlength=x.shape[1])[hot].sum() > 0.9 * x.nnz
        assert not distances._hot_columns(x[:1], x).any()


def test_searched_operand_is_column_sliced_once_per_call():
    """The searched operand is cut into its hot and cold columns once per
    call, however many row tiles the queries make, and not at all for a
    single query row, which has no hot column; nor is its transpose
    converted to CSR for a single query row."""
    x = sparse.csr_matrix(np.random.default_rng(2).integers(0, 3, size=(7, 20)).astype(float))
    queries = x[:3]
    getitem, tocsr = sparse.csr_matrix.__getitem__, sparse.csc_matrix.tocsr
    column_slices, conversions = [], []

    def spy(self, key):
        if self.shape[0] == 7 and isinstance(key, tuple):
            column_slices.append(key)
        return getitem(self, key)

    def spy_tocsr(self, copy=False):
        conversions.append(self.shape)
        return tocsr(self, copy)

    with mock.patch.object(sparse.csr_matrix, "__getitem__", spy), \
            mock.patch.object(sparse.csc_matrix, "tocsr", spy_tocsr):
        for tile in (2, 512):
            with mock.patch.multiple(distances, _TILE_ROWS=tile,
                                     _hot_columns=hot_split([True, False, False])):
                for asks in (None, queries):
                    column_slices.clear()
                    got = k_nearest(x, 3, queries=asks)
                    assert len(column_slices) == 2  # the hot columns and the cold
                    dense = None if asks is None else asks.toarray()
                    assert got.tolist() == k_nearest_reference(x.toarray(), 3, queries=dense)
        column_slices.clear()
        conversions.clear()
        assert knn_query(x, 4, 3) == k_nearest_reference(x.toarray(), 3, rows=[4])[0]
        assert column_slices == []
        assert (20, 7) not in conversions  # x.T, all of the searched operand


def test_one_pair_block_keeps_the_bits_of_a_larger_block():
    """Past 8,192 columns numpy sums a one-pair einsum in another order; the
    difference branch sums that pair as it sums every other."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 8530)) * 100
    c = rng.normal(size=(1, 8530)) * 100
    assert sq_distances(x[:1], c)[0, 0] == sq_distances(x, c)[0, 0]
    assert sq_distances(c, x[:1])[0, 0] == sq_distances(c, x)[0, 0]


def test_difference_branch_holds_one_block_at_a_time():
    """Float rows take explicit-difference blocks; each is freed before its
    tile is handed out, so the traced peak stays under 1.5 blocks, and the
    lists are the oracle's."""
    x = np.random.default_rng(0).normal(size=(600, 16))
    want = k_nearest_reference(x, 5)
    block = 20 * x.size  # 20 query rows a block: 1.5 MB of differences
    with mock.patch.object(distances, "_BLOCK_ELEMS", block):
        tracemalloc.start()
        try:
            got = k_nearest(x, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got.tolist() == want
    assert peak < 1.5 * block * 8


def test_k_nearest_holds_one_tile_at_a_time():
    """k_nearest lets go of each float tile before the next one is made, so
    the traced peak is one tile plus one difference block and what is left
    (the output, one block's sums) stays under half a tile, not two tiles."""
    n, dim = 2048, 64
    x = np.random.default_rng(3).normal(size=(n, dim))
    # 2^16 distances a tile (32 rows) and 2^19 differences a block (4 rows)
    tile, block = 32 * n * 8, distances._BLOCK_ELEMS * 8
    tracemalloc.start()
    try:
        got = k_nearest(x, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d2 = sq_distances(x)
    np.fill_diagonal(d2, np.inf)
    assert got.tolist() == np.argsort(d2, axis=1, kind="stable")[:, :5].tolist()
    assert peak < tile + block + tile // 2


def test_gram_holds_one_dense_tile():
    """A count Gram tile is the dense product over the hot columns, into
    which the sparse cold product is added in place: one call allocates one
    tile, not the cold part's dense copy beside the hot product's, and keeps
    the bits of the two dense parts' sum."""
    data = synthesize_dataset(4, [100] * 4, 400, 0.02, 6, seed=3)
    x = distances._rows(featurize_dataset(data, k=3))
    hot = distances._hot_columns(x, x)
    assert hot.any() and not hot.all()
    b_parts = distances._split(x, hot)
    a_parts = tuple(part[:256] for part in b_parts)
    tracemalloc.start()
    try:
        got = distances._gram(a_parts, b_parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = (a_parts[1] @ b_parts[1].T).toarray()
    want += a_parts[0] @ b_parts[0].T
    assert_same_bits(got, want)
    assert peak < 1.5 * got.nbytes


def test_smallest_holds_no_second_tile():
    """The k-th value of each row comes from partitions of a few rows at a
    time, so selecting from a 4 MB tile allocates under half of one (an
    argpartition of the whole tile would add 4 MB of int64 indices); the
    lists are the head of a full stable argsort, ties included."""
    d2 = np.random.default_rng(8).integers(0, 50, size=(256, 2048)).astype(float)
    tracemalloc.start()
    try:
        got = distances._smallest(d2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_bits(got, np.argsort(d2, axis=1, kind="stable")[:, :5])
    assert peak < d2.nbytes // 2


def test_one_query_row_skips_the_column_counts():
    """One query row has no hot column, so no column is counted for it; the
    lists are the oracle's. Two or more query rows still count them."""
    x = sparse.csr_matrix(np.random.default_rng(5).integers(0, 4, size=(60, 30)).astype(float))
    dense = x.toarray()
    with mock.patch.object(distances, "_col_counts", side_effect=AssertionError("counted")):
        for i in (0, 17, 59):
            assert knn_query(x, i, 5) == k_nearest_reference(dense, 5, rows=[i])[0]
        assert (k_nearest(x, 4, queries=dense[3:4]).tolist()
                == k_nearest_reference(dense, 4, queries=dense[3:4]))
    with mock.patch.object(distances, "_col_counts", wraps=distances._col_counts) as spy:
        k_nearest(x, 4, queries=x[:2])
    assert spy.call_count == 2


def test_difference_blocks_are_capped_on_both_operands():
    """A float block is at most 2^19 values (4 MB) even when one row of the
    first operand against all of the second is more: the second operand's
    rows are cut too, and each pair keeps its bits."""
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(3, 300)), rng.normal(size=(3000, 300))
    tracemalloc.start()
    try:
        got = sq_distances(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_bits(got, sq_distances_reference(a, b))
    # one block of all three rows against all of b would be 21.6 MB
    assert peak < 1.5 * 2**19 * 8


def test_float_bits_do_not_depend_on_memory_layout():
    """Each pair is summed over one C-ordered row of differences, so
    Fortran-ordered operands (HOPE's vectors are) give the bits of their
    C-ordered copies, in every difference block and in nearest's."""
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(40, 20)) * 100, rng.normal(size=(50, 20)) * 100
    want = sq_distances_reference(a, b)
    assign = rng.integers(0, 50, size=40)
    for block in (1, 7, 2**19):
        with mock.patch.object(distances, "_BLOCK_ELEMS", block):
            for a_f, b_f in ((a, np.asfortranarray(b)), (np.asfortranarray(a), b),
                             (np.asfortranarray(a), np.asfortranarray(b))):
                assert_same_bits(sq_distances(a_f, b_f), want)
                got = distances._assigned_sq(a_f, b_f, assign)
                assert got.tobytes() == want[np.arange(40), assign].tobytes()


def test_assigned_sq_holds_one_capped_block():
    """Each row's distance to its own centre is taken in blocks of 2^17
    values: the gathered centres and their differences, about 1 MB each."""
    rng = np.random.default_rng(4)
    x, centers = rng.normal(size=(2000, 500)), rng.normal(size=(5, 500))
    assign = rng.integers(0, 5, size=2000)
    tracemalloc.start()
    try:
        got = distances._assigned_sq(x, centers, assign)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.concatenate([
        sq_distances_reference(x[i : i + 200], centers)[np.arange(200), assign[i : i + 200]]
        for i in range(0, 2000, 200)
    ])
    assert got.tobytes() == want.tobytes()
    assert peak < 3 * 2**17 * 8 + got.nbytes


def test_one_dimensional_input_is_a_column():
    assert_same_bits(sq_distances([0.0, 1.0, 3.0]), sq_distances_reference([[0.0], [1.0], [3.0]]))


@st.composite
def knn_cases(draw):
    """Points on a tiny grid (many distance ties) at a drawn scale, and a
    query mode. Integer grids take the Gram branch; at 0.1 and 1/3 the
    float rows hold ties and near-ties, and at 1e154 and 1e200 some
    distances overflow to +inf."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    scale = draw(st.sampled_from([1.0, 0.1, 1 / 3, 1e154, 1e200]))
    x = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=dim, max_size=dim),
                               min_size=n, max_size=n)), dtype=np.float64) * scale
    mode = draw(st.sampled_from(["all_rows", "one_row", "queries"]))
    k = draw(st.integers(1, n if mode == "queries" else n - 1))
    rows = queries = None
    if mode == "one_row":
        rows = [draw(st.integers(0, n - 1))]
    elif mode == "queries":
        queries = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=dim,
                                                  max_size=dim), max_size=20)),
                           dtype=np.float64).reshape(-1, dim) * scale
    return x, k, rows, queries


TIES_AT_KTH = np.array([[0.0], [1.0], [1.0], [1.0], [2.0]])
DUPLICATES = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]])


@settings(max_examples=300, deadline=None)
@given(knn_cases(), st.sampled_from([1, 2, 512]), splits)
# three rows tie at the k-th distance, from a row of x and from a query
@example((TIES_AT_KTH, 2, None, None), 512, [False])
@example((TIES_AT_KTH, 2, [4], None), 512, [False])
@example((TIES_AT_KTH, 2, None, np.array([[1.0], [0.5]])), 2, [True])
# duplicate rows: every other row ties at distance 0, the own row is inf and
# with k = n - 1 the k-th distance is the largest finite one
@example((DUPLICATES, 3, None, None), 2, [True, False])
@example((DUPLICATES, 4, None, None), 512, [False])
@example((DUPLICATES, 4, [4], None), 512, [True])
@example((np.zeros((5, 1)), 4, None, None), 1, [False])
def test_k_nearest_orders_by_distance_then_index(case, tile, split):
    """Dense, CSR and mixed operands give the oracle's lists at every tile
    row count and every split of the columns into hot and cold."""
    x, k, rows, queries = case
    want = k_nearest_reference(x, k, queries=queries, rows=rows)
    with mock.patch.multiple(distances, _TILE_ROWS=tile, _hot_columns=hot_split(split)):
        csr = sparse.csr_matrix
        asked = queries if queries is None else csr(queries)
        for points, asks in ((x, queries), (csr(x), queries), (csr(x), asked)):
            if rows is not None:  # one row of x, through the SSN's single-row query
                assert [knn_query(points, rows[0], k)] == want
                continue
            got = k_nearest(points, k, queries=asks)
            assert got.dtype == np.int64 and got.shape == (len(want), k)
            assert got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]), max_size=6 * n),
    st.integers(0, n),
)))
def test_smallest_is_the_head_of_a_stable_argsort(case):
    """Ties, signed zeros, infinities and NaN (sorted last) keep the order of
    a full stable argsort, whether or not the k-th value is finite."""
    n, values, k = case
    d2 = np.array(values[: len(values) // n * n]).reshape(-1, n)
    want = np.argsort(d2, axis=1, kind="stable")[:, :k]
    assert_same_bits(distances._smallest(d2, k), want)
