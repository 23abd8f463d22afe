import hashlib
import tracemalloc
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from featurize_reference import (
    counts_reference,
    csr_reference,
    load_features_reference,
    save_features_reference,
)
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy import sparse

from seqnet import featurize, tables
from seqnet.errors import AlphabetError, ConfigError, MerSizeError, ParseError
from seqnet.featurize import (
    FeatureMatrix,
    featurize_dataset,
    kmer_rank,
    kmer_unrank,
    load_features,
    save_features,
    total_kmers,
)
from seqnet.seqio import ALPHABET, Dataset, SequenceRecord, synthesize_dataset


def row_counts(matrix, i):
    """Row i of the CSR matrix as a rank -> count dict."""
    row = matrix.to_csr()[i]
    return dict(zip(row.indices.tolist(), row.data.astype(int).tolist()))


def sequence_counts(seq, k):
    """The k-mer counts of one sequence as a rank -> count dict."""
    return row_counts(featurize_dataset(Dataset([SequenceRecord("s", seq)]), k=k), 0)


def random_strict_sequence(rng, length):
    return "".join(rng.choice(list(ALPHABET), size=length))


class TestTotalKmers:
    def test_spike_length_window_count(self):
        assert total_kmers(1274, 3) == 1272

    def test_window_equals_sequence(self):
        assert total_kmers(4, 4) == 1

    def test_k_exceeding_length(self):
        with pytest.raises(MerSizeError):
            total_kmers(3, 5)

    def test_k_below_one(self):
        with pytest.raises(ConfigError):
            total_kmers(10, 0)
        with pytest.raises(ConfigError):
            featurize_dataset(Dataset([]), k=0)


class TestKmerRank:
    def test_first_combination(self):
        assert kmer_rank("AA") == 0

    def test_base20_positional(self):
        assert kmer_rank("AC") == 1
        assert kmer_rank("CA") == 20
        assert kmer_rank("CD") == 22

    def test_last_combination(self):
        assert kmer_rank("YYY") == 20**3 - 1

    def test_non_alphabet_character(self):
        with pytest.raises(AlphabetError):
            kmer_rank("AXA")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bijection_rank_unrank(self, k):
        for rank in range(20**k):
            assert kmer_rank(kmer_unrank(rank, k)) == rank


@given(st.integers(1, 4).flatmap(lambda k: st.text(alphabet=ALPHABET, min_size=k, max_size=k)))
def test_unrank_inverts_rank(mer):
    rank = kmer_rank(mer)
    assert 0 <= rank < 20 ** len(mer)
    assert kmer_unrank(rank, len(mer)) == mer


class TestComputeFrequencyVector:
    """One sequence's k-mer counts, read from its row of featurize_dataset."""

    def test_hand_enumeration(self):
        counts = sequence_counts("ACACD", 2)
        assert counts == {kmer_rank("AC"): 2, kmer_rank("CA"): 1, kmer_rank("CD"): 1}
        assert sum(counts.values()) == total_kmers(5, 2)

    def test_repeated_mer(self):
        assert sequence_counts("AAAA", 2) == {0: 3}

    def test_skip_invalid_windows(self):
        assert sequence_counts("AXAC", 2) == {kmer_rank("AC"): 1}

    def test_invalid_without_skip_raises(self):
        """Rejecting out-of-alphabet residues is the strict Dataset's job."""
        with pytest.raises(AlphabetError):
            featurize_dataset(Dataset([SequenceRecord("s", "AXAC")], strict=True), k=2)

    def test_too_short_sequence(self):
        with pytest.raises(MerSizeError):
            sequence_counts("AC", 3)

    def test_window_count_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            length = int(rng.integers(10, 400))
            k = int(rng.integers(2, 5))
            counts = sequence_counts(random_strict_sequence(rng, length), k)
            assert sum(counts.values()) == (length - k) + 1
            assert len(counts) <= min(length - k + 1, 20**k)
            assert all(0 <= r < 20**k for r in counts)
            assert all(c > 0 for c in counts.values())

    def test_matches_naive_count(self):
        rng = np.random.default_rng(9)
        seq = random_strict_sequence(rng, 200)
        naive = {}
        for i in range(len(seq) - 2):
            r = kmer_rank(seq[i : i + 3])
            naive[r] = naive.get(r, 0) + 1
        assert sequence_counts(seq, 3) == naive


class TestFeaturizeDataset:
    def test_identical_sequences_identical_rows(self):
        ds = Dataset([SequenceRecord("a", "ACDEAC"), SequenceRecord("b", "ACDEAC")])
        mat = featurize_dataset(ds, k=2)
        assert row_counts(mat, 0) == row_counts(mat, 1)

    def test_empty_dataset(self):
        mat = featurize_dataset(Dataset([]), k=3)
        assert mat.n == 0

    def test_row_order_matches_dataset(self):
        ds = synthesize_dataset(2, [3, 3], 50, 0.1, 10, seed=2)
        mat = featurize_dataset(ds, k=3)
        for i, rec in enumerate(ds):
            assert row_counts(mat, i) == counts_reference(rec.residues, 3)

    def test_permutation_equivariance(self):
        ds = synthesize_dataset(2, [4, 4], 40, 0.2, 8, seed=6)
        perm = [5, 2, 7, 0, 1, 6, 3, 4]
        permuted = Dataset([ds[i] for i in perm])
        mat = featurize_dataset(ds, k=2)
        mat_perm = featurize_dataset(permuted, k=2)
        for out_pos, src in enumerate(perm):
            assert row_counts(mat_perm, out_pos) == row_counts(mat, src)

    def test_short_record_error_names_record(self):
        ds = Dataset([SequenceRecord("tiny", "AC")])
        with pytest.raises(MerSizeError, match="tiny"):
            featurize_dataset(ds, k=5)

    def test_k_past_64_bit_ranks_is_a_config_error(self):
        ds = Dataset([SequenceRecord("a", "AC" * 10)])
        assert featurize_dataset(ds, k=14).to_csr().indices.dtype == np.int64
        with pytest.raises(ConfigError, match="k=15"):
            featurize_dataset(ds, k=15)

    @pytest.mark.parametrize("budget", [1, 1 << 16])
    def test_short_record_error_names_the_first_in_dataset_order(self, budget):
        ds = Dataset([SequenceRecord("long", "ACDEFGH"), SequenceRecord("first", "ACD"),
                      SequenceRecord("ok", "ACDEF"), SequenceRecord("second", "AC")])
        with mock.patch.object(featurize, "_BLOCK_CELLS", budget):
            with pytest.raises(MerSizeError, match="^record 'first': sequence length 3 "):
                featurize_dataset(ds, k=4)


class TestMatrixExport:
    def test_dense_and_csr_agree(self):
        ds = synthesize_dataset(2, [3, 3], 60, 0.1, 10, seed=8)
        mat = featurize_dataset(ds, k=2)
        assert np.array_equal(mat.to_dense(), mat.to_csr().toarray())

    def test_triplet_round_trip(self, tmp_path):
        ds = synthesize_dataset(2, [4, 4], 70, 0.05, 9, seed=13)
        mat = featurize_dataset(ds, k=3)
        path = tmp_path / "features.csv"
        save_features(mat, path)
        assert load_features(path) == mat

    def test_unordered_triplets_load(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("# n=2 k=1 logical_length=20\n1,4,2\n0,7,1\n1,0,3\n")
        dense = load_features(path).to_dense()
        assert dense[0, 7] == 1 and dense[1, 0] == 3 and dense[1, 4] == 2
        assert dense.sum() == 6

    def test_duplicate_triplet_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("# n=2 k=1 logical_length=20\n0,3,1\n1,0,2\n\n0,3,4\n1,0,2\n")
        with pytest.raises(ParseError, match="duplicate") as err:
            load_features(path)
        assert err.value.line == 5

    @pytest.mark.parametrize("ranks, counts", [
        ([3, 5], [0.5, 2.7]),
        ([3, 5], [0.0, 1.0]),
        ([3, 5], [-1.0, 1.0]),
        ([3, 5], [np.nan, 1.0]),
        ([3, 5], [np.inf, 1.0]),
        ([3, 5], [2.0**63, 1.0]),
        ([3, 3], [1.0, 2.0]),  # a repeated (row, rank)
    ])
    def test_save_refuses_what_the_loader_would_and_writes_nothing(self, tmp_path, ranks,
                                                                    counts):
        """Counts that are not integers in [1, 2^63 - 1], or a repeated
        entry, raise before a file is opened."""
        x = sparse.csr_matrix((counts, ranks, [0, 0, 2]), shape=(2, 20))
        with pytest.raises(ValueError, match="count|repeated"):
            save_features(FeatureMatrix(x, 1), tmp_path / "features.csv")
        assert list(tmp_path.iterdir()) == []

    def test_unsorted_ranks_save_and_load(self, tmp_path):
        x = sparse.csr_matrix(([2.0, 1.0], [7, 3], [0, 0, 2]), shape=(2, 20))
        assert not x.has_canonical_format
        save_features(FeatureMatrix(x, 1), tmp_path / "features.csv")
        assert load_features(tmp_path / "features.csv").to_dense().tolist() == x.toarray().tolist()

    def test_saved_file_is_parsed_without_the_line_scan(self, tmp_path):
        ds = synthesize_dataset(3, [5, 5, 5], 90, 0.05, 9, seed=2)
        mat = featurize_dataset(ds, k=2)
        path = tmp_path / "features.csv"
        save_features(mat, path)
        with mock.patch.object(tables, "_scan", side_effect=AssertionError):
            assert load_features(path) == mat

    @pytest.mark.parametrize("count", ["1.5", "1e1"])
    def test_float_read_by_older_numpy_is_rejected(self, tmp_path, count):
        """Some NumPy releases from 1.23 on read a float in an integer field as
        its truncation with a DeprecationWarning; the file still raises."""
        path = tmp_path / "features.csv"
        path.write_text(f"# n=1 k=1 logical_length=20\n0,1,{count}\n")

        def loadtxt_with_float_fallback(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return np.array([[0, 1, int(float(count))]])

        with mock.patch.object(featurize.np, "loadtxt", loadtxt_with_float_fallback):
            with pytest.raises(ParseError, match="expected integers") as err:
                load_features(path)
        assert err.value.line == 2

    def test_triplet_header_records_shape(self, tmp_path):
        ds = synthesize_dataset(1, [2], 30, 0.0, 0, seed=0)
        mat = featurize_dataset(ds, k=2)
        path = tmp_path / "features.csv"
        save_features(mat, path)
        first = path.read_text().splitlines()[0]
        assert first == "# n=2 k=2 logical_length=400"

    def test_negative_value_rejected_by_the_block_writer(self, tmp_path):
        with open(tmp_path / "rows.csv", "wb") as fh, pytest.raises(ValueError):
            tables.write_int_rows(fh, ([3, 4], [5, -1]), ",")


# out-of-alphabet residues, one of them outside latin-1
RESIDUES = st.text(alphabet=ALPHABET + "XBZ*-\u03a9", min_size=3, max_size=60)


@settings(max_examples=300, deadline=None)
@given(st.lists(RESIDUES, max_size=8), st.integers(1, 4),
       st.sampled_from([featurize._BLOCK_CELLS, 60, 100, 1]))
def test_featurize_matches_stacked_reference_counts(seqs, k, budget):
    """Records of mixed lengths in blocks of several, of one each, or under a
    budget smaller than one record."""
    seqs = [seq for seq in seqs if len(seq) >= k]
    ds = Dataset(SequenceRecord(str(i), seq) for i, seq in enumerate(seqs))
    with mock.patch.object(featurize, "_BLOCK_CELLS", budget):
        got = featurize_dataset(ds, k=k).to_csr()
    want = csr_reference([counts_reference(seq, k) for seq in seqs], k)
    assert got.shape == want.shape
    assert got.dtype == np.float64
    assert got.has_canonical_format
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    assert (got.indptr.dtype, got.indices.dtype) == (want.indptr.dtype, want.indices.dtype)


def test_featurize_peak_memory_is_the_csr_and_one_block():
    """At 773 x 1,274 the traced peak of featurize_dataset is the CSR's
    arrays, allocated at the upper bound of their nonzeros, plus one block's
    codes, ranks, masks and runs. Per-record int64 rank and count lists and
    their concatenations held about three times the CSR."""
    ds = synthesize_dataset(1, [773], 1274, 0.01, 8, seed=4)
    budget = 1 << 16
    with mock.patch.object(featurize, "_BLOCK_CELLS", budget):
        tracemalloc.start()
        try:
            x = featurize_dataset(ds, k=3).to_csr()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    csr = x.indptr.nbytes + x.indices.nbytes + x.data.nbytes
    # ranks and counts at the most one per window
    unused = (773 * total_kmers(1274, 3) - x.nnz) * (x.indices.itemsize + x.data.itemsize)
    assert peak <= csr + unused + 64 * budget


MUTATIONS = (
    None, "1.5", "1_0", "non_ascii_digit", "comment", "hash_line", "two_fields",
    "four_fields", "row_out_of_range", "rank_out_of_range", "count_not_positive",
    "repeated_pair",
)


@st.composite
def triplet_files(draw):
    """A triplet CSV: shuffled triplets with blank and padded lines, LF or
    CRLF, possibly header-only, and at most one mutation on one line."""
    k = draw(st.integers(1, 2))
    dim = 20**k
    n = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, dim - 1)),
                          unique=True, max_size=10))
    lines = [[str(i), str(rank), str(draw(st.integers(1, 1274)))] for i, rank in pairs]
    mutation = draw(st.sampled_from(MUTATIONS)) if lines else None
    if mutation is not None:
        at = draw(st.integers(0, len(lines) - 1))
        field = draw(st.integers(0, 2))
        line = lines[at]
        if mutation == "1.5":
            line[field] = "1.5"
        elif mutation == "1_0":
            line[field] = "0_" + line[field]  # int() reads the same value
        elif mutation == "non_ascii_digit":
            line[field] = line[field].replace("1", "\u0661")
        elif mutation == "comment":
            line[2] += " # c"
        elif mutation == "hash_line":
            lines.insert(at, ["#x"])
        elif mutation == "two_fields":
            del line[field]
        elif mutation == "four_fields":
            line.append(line[2])
        elif mutation == "row_out_of_range":
            line[0] = draw(st.sampled_from([str(n), "-1"]))
        elif mutation == "rank_out_of_range":
            line[1] = draw(st.sampled_from([str(dim), "-1"]))
        elif mutation == "count_not_positive":
            line[2] = draw(st.sampled_from(["0", "-3"]))
        else:
            for _ in range(draw(st.integers(1, 2))):
                line = lines[draw(st.integers(0, len(lines) - 1))]
                lines.insert(draw(st.integers(0, len(lines))), line[:2] + ["7"])
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    text = [",".join(draw(pad) + f + draw(pad) for f in line) for line in lines]
    text = draw(st.permutations(text))
    for _ in range(draw(st.integers(0, 2))):
        text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = f"# n={n} k={k} logical_length={dim}"
    return newline.join([header] + text) + draw(st.sampled_from(["", newline]))


def load_outcome(loader, path):
    try:
        return loader(path)
    except ParseError as exc:
        return str(exc), exc.line


# tmp_path is shared by the examples; each one overwrites the file
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(triplet_files())
def test_load_features_matches_line_by_line_reference(tmp_path, text):
    path = tmp_path / "features.csv"
    path.write_bytes(text.encode("utf-8"))
    got = load_outcome(load_features, path)
    want = load_outcome(load_features_reference, path)
    assert type(got) is type(want)
    assert got == want



@pytest.mark.parametrize("body", [
    "0,1,1\n5,1,1\n0,x,1\n",  # a row out of range before a malformed line
    "0,1,1\n0,1,2\n1,99,1\n",  # a rank out of range after a repeated pair
    "0,1,1\n0,1,2\n1,2\n",  # a short line after a repeated pair
    "1,2,1\n0,1,1\n1,2,1\n0,1,3\n",  # two repeated pairs, the later one first
    "0,1,99999999999999999999\n",  # a count past int64
])
def test_load_features_raises_the_reference_error_among_several(tmp_path, body):
    path = tmp_path / "features.csv"
    path.write_text("# n=2 k=1 logical_length=20\n" + body)
    got = load_outcome(load_features, path)
    try:
        want = load_outcome(load_features_reference, path)
    except OverflowError:  # the reference's int64 buffer overflows; the line is named now
        want = ("line 2: expected integers, got '0,1,99999999999999999999'", 2)
    assert got == want

# row ids, ranks and counts either side of a new digit and of the block
# writer's uint32 digits, up to 2^53
EDGE_VALUES = [0, 1, 9, 10, 99, 100, 999, 1000]
EDGE_COUNTS = [1, 9, 10, 99, 100, 1274, 2**16 - 1, 10**9 - 1, 10**9, 2**32 - 1, 2**32, 2**53]


@st.composite
def count_matrices(draw):
    """CSR counts with n=0, empty rows and values at digit boundaries,
    including the last rank 20^k - 1."""
    k = draw(st.integers(1, 3))
    dim = 20**k
    n = draw(st.one_of(st.integers(0, 12), st.integers(0, 120)))
    rows = [{} for _ in range(n)]
    if n:
        row = st.one_of(st.sampled_from([i for i in EDGE_VALUES + [n - 1] if i < n]),
                        st.integers(0, n - 1))
        rank = st.one_of(st.sampled_from([r for r in EDGE_VALUES + [dim - 1] if r < dim]),
                         st.integers(0, dim - 1))
        count = st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(1, 10**6))
        for i, r, c in draw(st.lists(st.tuples(row, rank, count), max_size=40)):
            rows[i][r] = c
    return FeatureMatrix(csr_reference(rows, k), k)


# tmp_path is shared by the examples; each one overwrites the files
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(count_matrices(), st.sampled_from([1, 2, 7, tables._WRITE_ROWS]))
@example(FeatureMatrix(csr_reference([], 2), 2), 1)  # n=0
@example(FeatureMatrix(csr_reference([{}, {}, {}], 1), 1), 2)  # no triplets
def test_save_features_matches_line_by_line_reference(tmp_path, matrix, block):
    """The block writer's file has the old per-line writer's bytes at every
    block size, including a last block shorter than the others."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    with mock.patch.object(tables, "_WRITE_ROWS", block):
        save_features(matrix, got)
    save_features_reference(matrix, want)
    assert got.read_bytes() == want.read_bytes()


# ------------------------------------------------------- the binary companion


def companion_fields(csv):
    """The fields of the companion of ``csv``: the header's tag, n, k, nnz
    and digest, and the offsets, ranks and counts arrays (not the CRC-32,
    which write_companion takes of what it writes)."""
    raw = (csv.parent / (csv.name + ".csr")).read_bytes()
    tag, n, k, nnz, *codes, digest, _ = featurize._CSR_HEADER.unpack_from(raw)
    fields, start = dict(tag=tag, n=n, k=k, nnz=nnz, digest=digest), featurize._CSR_HEADER.size
    for name, code, length in zip(("offsets", "ranks", "counts"), codes, (n + 1, nnz, nnz)):
        fields[name] = np.frombuffer(raw, dtype=code.decode(), count=length, offset=start)
        start += fields[name].nbytes
    return fields


def write_companion(csv, tag, n, k, nnz, digest, offsets, ranks, counts, crc=None):
    """A companion of ``csv`` holding these fields, each array in its own
    dtype, and ``crc``, by default the CRC-32 of the arrays it writes."""
    arrays = [np.asarray(a) for a in (offsets, ranks, counts)]
    body = b"".join(a.tobytes() for a in arrays)
    header = featurize._CSR_HEADER.pack(tag, n, k, nnz, *(a.dtype.str.encode() for a in arrays),
                                        digest, zlib.crc32(body) if crc is None else crc)
    (csv.parent / (csv.name + ".csr")).write_bytes(header + body)


def load_without_companion(csv):
    """``load_outcome`` of the CSV alone, the companion set aside meanwhile."""
    companion = csv.parent / (csv.name + ".csr")
    kept = companion.read_bytes() if companion.exists() else None
    companion.unlink(missing_ok=True)
    try:
        return load_outcome(load_features, csv)
    finally:
        if kept is not None:
            companion.write_bytes(kept)


@pytest.fixture
def saved(tmp_path):
    """A triplet CSV and its companion, two rows of several ranks each."""
    ds = synthesize_dataset(2, [3, 3], 40, 0.1, 8, seed=4)
    path = tmp_path / "features.csv"
    save_features(featurize_dataset(ds, k=2), path)
    return path


def with_arrays(fields, **arrays):
    """``fields`` with each named array replaced by its function of a copy."""
    return dict(fields, **{name: fn(fields[name].copy()) for name, fn in arrays.items()})


def assign(index, value):
    """A function that sets ``values[index] = value`` and returns ``values``."""
    def set_one(values):
        values[index] = value
        return values
    return set_one


def crc_of(fields):
    """The CRC-32 of the companion arrays in ``fields``."""
    return zlib.crc32(b"".join(fields[name].tobytes() for name in ("offsets", "ranks", "counts")))


# each a companion with the CSV's digest that breaks one rule of the format
BROKEN_COMPANIONS = {
    "other_format_tag": lambda f: dict(f, tag=b"SEQNCSR1"),
    "n_mismatch": lambda f: dict(f, n=f["n"] + 1),
    "k_mismatch": lambda f: dict(f, k=f["k"] + 1),
    "nnz_mismatch": lambda f: dict(f, nnz=f["nnz"] - 1, ranks=f["ranks"][:-1],
                                   counts=f["counts"][:-1]),
    "offsets_not_from_zero": lambda f: with_arrays(f, offsets=assign(0, 1)),
    "offsets_decrease": lambda f: with_arrays(f, offsets=lambda o: np.concatenate(
        [o[:1], o[2:3], o[1:2], o[3:]])),
    "rank_out_of_range": lambda f: with_arrays(
        f, ranks=lambda r: assign(-1, 20 ** f["k"])(r.astype("<u4"))),
    "zero_count": lambda f: with_arrays(f, counts=assign(0, 0)),
    "fractional_count": lambda f: with_arrays(f, counts=lambda c: assign(-1, 1.5)(c.astype("<f8"))),
    "unsorted_ranks": lambda f: with_arrays(
        f, ranks=lambda r: np.concatenate([r[1::-1], r[2:]])),
    "repeated_rank": lambda f: with_arrays(f, ranks=lambda r: np.concatenate([r[:1], r[:1], r[2:]])),
    "big_endian_ranks": lambda f: dict(f, ranks=f["ranks"].astype(">u2")),
    # every invariant holds, but the bytes are not those the CRC-32 was taken of
    "one count raised, checksum of the original": lambda f: dict(
        with_arrays(f, counts=lambda c: assign(-1, c[-1] + 1)(c)), crc=crc_of(f)),
}


class TestCompanion:
    def test_written_beside_the_csv_and_read_without_the_parse(self, saved):
        companion = saved.parent / "features.csv.csr"
        assert 0 < companion.stat().st_size < saved.stat().st_size
        fields = companion_fields(saved)
        assert fields["digest"] == hashlib.sha256(saved.read_bytes()).digest()
        assert featurize._CSR_HEADER.unpack_from(companion.read_bytes())[-1] == crc_of(fields)
        with mock.patch.object(featurize, "read_rows", side_effect=AssertionError("parsed")):
            got = load_features(saved)
        want = load_without_companion(saved)
        assert got == want
        for name in ("indptr", "indices", "data"):
            assert getattr(got.matrix, name).dtype == getattr(want.matrix, name).dtype

    def test_rewritten_companion_with_the_same_fields_is_used(self, saved):
        """The control for the rejection cases: write_companion itself makes a
        companion that passes."""
        write_companion(saved, **companion_fields(saved))
        want = load_without_companion(saved)
        with mock.patch.object(featurize, "read_rows", side_effect=AssertionError("parsed")):
            assert load_features(saved) == want

    @pytest.mark.parametrize("case", sorted(BROKEN_COMPANIONS))
    def test_broken_companion_reads_the_csv(self, saved, case):
        write_companion(saved, **BROKEN_COMPANIONS[case](companion_fields(saved)))
        with mock.patch.object(featurize, "read_rows", wraps=featurize.read_rows) as parse:
            got = load_outcome(load_features, saved)
        assert parse.called
        assert got == load_without_companion(saved)

    # 74 is one byte more than the header of the SEQNCSR1 format, which had no CRC-32
    @pytest.mark.parametrize("cut", [1, 8, 74, featurize._CSR_HEADER.size + 1])
    def test_truncated_companion_reads_the_csv(self, saved, cut):
        companion = saved.parent / "features.csv.csr"
        companion.write_bytes(companion.read_bytes()[:-cut])
        with mock.patch.object(featurize, "read_rows", wraps=featurize.read_rows) as parse:
            got = load_outcome(load_features, saved)
        assert parse.called
        assert got == load_without_companion(saved)

    def test_csv_edited_after_featurize_is_parsed(self, saved):
        """A count changed in the CSV: the companion's digest no longer
        matches, so the edited CSV's counts come back."""
        lines = saved.read_text().splitlines(keepends=True)
        row, rank, count = lines[-1].strip().split(",")
        lines[-1] = f"{row},{rank},{int(count) + 1}\n"
        saved.write_text("".join(lines))
        got = load_features(saved)
        assert got == load_without_companion(saved)
        assert got.to_dense()[int(row), int(rank)] == int(count) + 1

    @pytest.mark.parametrize("bad", ["0,99999,1", "0,1", "1,0,x"])
    def test_csv_edited_into_an_error_raises_at_its_line(self, saved, bad):
        lines = saved.read_text().splitlines(keepends=True)
        lines[3] = bad + "\n"
        saved.write_text("".join(lines))
        got = load_outcome(load_features, saved)
        assert got == load_without_companion(saved)
        assert got[1] == 4

    def test_directory_listing_unchanged_by_load(self, saved):
        """A current companion, a stale one and none: loading writes nothing."""
        def listing():
            return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns)
                          for p in saved.parent.iterdir())

        for step in ("current", "stale", "none"):
            if step == "stale":
                saved.write_text(saved.read_text() + "\n")
            if step == "none":
                (saved.parent / "features.csv.csr").unlink()
            before = listing()
            load_features(saved)
            assert listing() == before, step

    def test_second_save_writes_the_same_bytes(self, saved):
        companion = saved.parent / "features.csv.csr"
        first = saved.read_bytes(), companion.read_bytes()
        save_features(load_features(saved), saved)
        assert (saved.read_bytes(), companion.read_bytes()) == first

    def test_not_written_unless_smaller_and_an_old_one_removed(self, saved):
        """Three empty rows make a 30-byte CSV: a companion would be larger,
        so none is written, and the one an earlier save left goes."""
        companion = saved.parent / "features.csv.csr"
        assert companion.exists()
        empty = FeatureMatrix(csr_reference([{}, {}, {}], 2), 2)
        save_features(empty, saved)
        assert not companion.exists()
        assert load_features(saved) == empty


# tmp_path is shared by the examples; each one overwrites the files
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(count_matrices())
@example(FeatureMatrix(csr_reference([], 2), 2))  # n=0
@example(FeatureMatrix(csr_reference([{7: 2**53}, {}, {0: 1, 399: 256}], 2), 2))
def test_round_trip_with_and_without_companion(tmp_path, matrix):
    """Counts up to 2^53, empty rows and n=0 come back equal through the
    companion, where one is written, and through the CSV alone."""
    path = tmp_path / "features.csv"
    save_features(matrix, path)
    companion = tmp_path / "features.csv.csr"
    if companion.exists():
        assert companion.stat().st_size < path.stat().st_size
        with mock.patch.object(featurize, "read_rows", side_effect=AssertionError("parsed")):
            assert load_features(path) == matrix
    assert load_without_companion(path) == matrix
