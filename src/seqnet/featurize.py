"""k-mer frequency vectors: fixed-length numerical representation of sequences.

A sequence of length N yields (N - k) + 1 overlapping windows of width k
(stride 1); each window increments one bin of a length-20^k count vector.
Counts are raw frequencies, never normalized here. Storage is sparse: a
length-1274 sequence touches at most 1272 of the 8000 k=3 bins.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from .errors import AlphabetError, ConfigError, MerSizeError, ParseError, parse_numbers
from .seqio import ALPHABET, ALPHABET_INDEX, Dataset
from .tables import read_rows, write_int_rows

_NSYM = len(ALPHABET)
_BYTE_CODE = np.full(256, -1, dtype=np.int16)
for _ch, _i in ALPHABET_INDEX.items():
    _BYTE_CODE[ord(_ch)] = _i


def total_kmers(n: int, k: int) -> int:
    """Number of width-k windows in a length-n sequence: (n - k) + 1."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > n:
        raise MerSizeError(f"k={k} exceeds sequence length {n}")
    return (n - k) + 1


def kmer_rank(mer: str) -> int:
    """Rank of a k-mer in the lexicographic enumeration over the alphabet.

    Positional base-20 encoding with A=0 .. Y=19, so "AA" -> 0, "AC" -> 1,
    "YYY" -> 7999.
    """
    rank = 0
    for ch in mer:
        code = ALPHABET_INDEX.get(ch)
        if code is None:
            raise AlphabetError(f"non-alphabet character {ch!r} in k-mer {mer!r}")
        rank = rank * _NSYM + code
    return rank


def kmer_unrank(rank: int, k: int) -> str:
    """Inverse of :func:`kmer_rank` for width-k mers."""
    if not 0 <= rank < _NSYM**k:
        raise ValueError(f"rank {rank} out of range for k={k}")
    chars = []
    for _ in range(k):
        rank, code = divmod(rank, _NSYM)
        chars.append(ALPHABET[code])
    return "".join(reversed(chars))


def encode_residues(seq: str) -> np.ndarray:
    """Map residues to integer codes; non-alphabet characters become -1."""
    try:
        raw = np.frombuffer(seq.encode("latin-1"), dtype=np.uint8)
    except UnicodeEncodeError:
        return np.array([ALPHABET_INDEX.get(ch, -1) for ch in seq], dtype=np.int16)
    return _BYTE_CODE[raw]


def _kmer_counts(seq: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct k-mer ranks of ``seq`` and how often each occurs;
    windows holding an out-of-alphabet character are skipped."""
    n = len(seq)
    if n < k:
        raise MerSizeError(f"sequence length {n} shorter than k={k}")

    codes = encode_residues(seq)
    invalid = codes < 0
    windows = sliding_window_view(codes.astype(np.int64), k)
    powers = _NSYM ** np.arange(k - 1, -1, -1, dtype=np.int64)
    ranks = windows @ powers
    if invalid.any():
        ranks = ranks[~sliding_window_view(invalid, k).any(axis=1)]
    return np.unique(ranks, return_counts=True)


class FeatureMatrix:
    """k-mer counts of a dataset, one CSR row per record in dataset order.

    ``matrix`` is an n x 20^k ``scipy.sparse.csr_matrix`` of float64 counts
    with sorted, duplicate-free column indices.
    """

    def __init__(self, matrix: sparse.csr_matrix, k: int):
        if matrix.shape[1] != _NSYM**k:
            raise ValueError(f"{matrix.shape[1]} columns in a k={k} matrix")
        self.matrix = matrix
        self.k = k
        self.logical_length = _NSYM**k

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FeatureMatrix)
            and self.k == other.k
            and self.n == other.n
            and np.array_equal(self.matrix.indptr, other.matrix.indptr)
            and np.array_equal(self.matrix.indices, other.matrix.indices)
            and np.array_equal(self.matrix.data, other.matrix.data)
        )

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def to_csr(self) -> sparse.csr_matrix:
        return self.matrix


def _feature_matrix(n: int, k: int, row_lengths, indices, data) -> FeatureMatrix:
    """FeatureMatrix from row-major, per-row sorted ranks and their counts."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_lengths, out=indptr[1:])
    matrix = sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64), indptr),
        shape=(n, _NSYM**k),
    )
    return FeatureMatrix(matrix, k)


def featurize_dataset(dataset: Dataset, k: int = 3) -> FeatureMatrix:
    """Frequency vector per record, in dataset order. Default k=3.

    Out-of-alphabet residues are tolerated: windows containing them are
    skipped rather than failing the whole record.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    ranks, counts = [], []
    for rec in dataset:
        try:
            uniq, cnt = _kmer_counts(rec.residues, k)
        except MerSizeError as exc:
            raise MerSizeError(f"record {rec.id!r}: {exc}") from exc
        ranks.append(uniq)
        counts.append(cnt)
    return _feature_matrix(
        len(ranks), k, [len(r) for r in ranks],
        np.concatenate(ranks or [[]]), np.concatenate(counts or [[]]),
    )


def save_features(matrix: FeatureMatrix, path) -> None:
    """Write the sparse triplet CSV: one metadata header line, then row,rank,count."""
    x = matrix.to_csr()
    rows = np.repeat(np.arange(matrix.n, dtype=x.indices.dtype), np.diff(x.indptr))
    with open(path, "wb") as fh:
        fh.write(f"# n={matrix.n} k={matrix.k} logical_length={matrix.logical_length}\n".encode())
        write_int_rows(fh, (rows, x.indices, x.data), ",")


def load_features(path) -> FeatureMatrix:
    """Read a triplet CSV written by :func:`save_features`.

    Triplets may come in any order; a repeated (row, rank) pair is an error.
    The body is read by :func:`tables.read_rows`, so a bad line is named.
    """
    with open(path) as fh:
        header = fh.readline().strip()
    tokens = header[1:].split() if header.startswith("#") else []
    fields = dict(token.split("=", 1) for token in tokens if "=" in token)
    if not {"n", "k", "logical_length"} <= fields.keys():
        raise ParseError(f"missing triplet header in {path}", line=1)
    n, k, logical_length = parse_numbers([fields[f] for f in ("n", "k", "logical_length")], 1)
    if logical_length != _NSYM**k:
        raise ParseError(f"logical_length {logical_length} != 20^{k}", line=1)
    bounds = [(0, n - 1), (0, logical_length - 1), (1, np.iinfo(np.int64).max)]
    triplets, _ = read_rows(path, 2, "row,rank,count", "triplet", ints=3, bounds=bounds,
                            unique="(row, rank)")
    rows, ranks, counts = triplets.T
    return _feature_matrix(n, k, np.bincount(rows, minlength=n), ranks, counts)
