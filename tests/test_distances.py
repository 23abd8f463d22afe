from unittest import mock

import numpy as np
from distances_reference import k_nearest_reference, sq_distances_reference
from hypothesis import given, settings, strategies as st
from scipy import sparse

from seqnet import distances
from seqnet.distances import k_nearest, sq_distances
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


# the difference branch's block size and the integer scan's chunk size
sizes = st.tuples(st.sampled_from([1, 7, 20_000_000]), st.sampled_from([1, 3, 1 << 15]))


def sq_distances_sized(a, b, block, chunk):
    with mock.patch.object(distances, "_BLOCK_ELEMS", block):
        with mock.patch.object(distances, "_CHUNK", chunk):
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


def test_one_dimensional_input_is_a_column():
    assert_same_bits(sq_distances([0.0, 1.0, 3.0]), sq_distances_reference([[0.0], [1.0], [3.0]]))


@st.composite
def knn_cases(draw):
    """Points on a tiny integer grid (many distance ties) and a query mode."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    x = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=dim, max_size=dim),
                               min_size=n, max_size=n)), dtype=np.float64)
    mode = draw(st.sampled_from(["all_rows", "one_row", "queries"]))
    k = draw(st.integers(1, n if mode == "queries" else n - 1))
    rows = queries = None
    if mode == "one_row":
        rows = [draw(st.integers(0, n - 1))]
    elif mode == "queries":
        queries = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=dim,
                                                  max_size=dim), max_size=20)),
                           dtype=np.float64).reshape(-1, dim)
    return x, k, rows, queries


@settings(max_examples=300, deadline=None)
@given(knn_cases(), st.booleans(), st.sampled_from([1, 2, 512]))
def test_k_nearest_orders_by_distance_then_index(case, as_csr, tile):
    x, k, rows, queries = case
    want = k_nearest_reference(x, k, queries=queries, rows=rows)
    with mock.patch.object(distances, "_TILE_ROWS", tile):
        if rows is not None:  # one row of x, through the SSN's single-row query
            assert [knn_query(x, rows[0], k)] == want
            return
        got = k_nearest(sparse.csr_matrix(x) if as_csr else x, k, queries=queries)
    assert got.dtype == np.int64 and got.shape == (len(want), k)
    assert got.tolist() == want
