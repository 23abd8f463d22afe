"""k-mer frequency vectors: fixed-length numerical representation of sequences.

A sequence of length N yields (N - k) + 1 overlapping windows of width k
(stride 1); each window increments one bin of a length-20^k count vector.
Counts are raw frequencies, never normalized here. Storage is sparse: a
length-1274 sequence touches at most 1272 of the 8000 k=3 bins.
"""

from __future__ import annotations

import warnings
from array import array

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from .errors import AlphabetError, ConfigError, MerSizeError, ParseError, parse_numbers
from .seqio import ALPHABET, ALPHABET_INDEX, Dataset

_NSYM = len(ALPHABET)
# lines per block of _write_int_rows: its buffers stay within a few MB
_WRITE_ROWS = 1 << 16
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


def _write_int_rows(fh, columns, sep: str) -> None:
    """Write equal-length columns of non-negative integers to the binary file
    ``fh`` as ASCII decimal lines, the fields joined by ``sep``.

    Works in blocks of ``_WRITE_ROWS`` lines, so its buffers stay within a
    few MB however long the columns are: a block's digits are formed by numpy
    division into a uint8 array with one field of the block's widest width
    per column, the leading zeros are masked out and the rest is written at
    once. A column may be of any numeric dtype holding integers.
    """
    columns = [np.asarray(col) for col in columns]
    ends = [ord(sep)] * (len(columns) - 1) + [ord("\n")]
    for start in range(0, len(columns[0]), _WRITE_ROWS):
        block = [col[start : start + _WRITE_ROWS].astype(np.int64) for col in columns]
        if any(values.min() < 0 for values in block):
            raise ValueError("negative value in an integer column")
        widths = [len(str(int(values.max()))) for values in block]
        text = np.empty((len(block[0]), sum(widths) + len(widths)), dtype=np.uint8)
        keep = np.ones(text.shape, dtype=bool)
        pos = 0
        for values, width, end in zip(block, widths, ends):
            last = pos + width - 1  # the units digit
            rest = values
            for col in range(last, pos - 1, -1):
                rest, text[:, col] = np.divmod(rest, 10)
            text[:, pos : last + 1] += ord("0")
            for col in range(pos, last):  # a leading digit is kept once nonzero
                keep[:, col] = values >= 10 ** (last - col)
            text[:, last + 1] = end
            pos = last + 2
        fh.write(text[keep])


def save_features(matrix: FeatureMatrix, path) -> None:
    """Write the sparse triplet CSV: one metadata header line, then row,rank,count."""
    x = matrix.to_csr()
    rows = np.repeat(np.arange(matrix.n, dtype=x.indices.dtype), np.diff(x.indptr))
    with open(path, "wb") as fh:
        fh.write(f"# n={matrix.n} k={matrix.k} logical_length={matrix.logical_length}\n".encode())
        _write_int_rows(fh, (rows, x.indices, x.data), ",")


def _read_header(fh, path) -> tuple[int, int, int]:
    header = fh.readline().strip()
    fields = {}
    if header.startswith("#"):
        for token in header[1:].split():
            if "=" in token:
                key, val = token.split("=", 1)
                fields[key] = val
    if not {"n", "k", "logical_length"} <= fields.keys():
        raise ParseError(f"missing triplet header in {path}", line=1)
    n, k, logical_length = parse_numbers([fields[f] for f in ("n", "k", "logical_length")], 1)
    if logical_length != _NSYM**k:
        raise ParseError(f"logical_length {logical_length} != 20^{k}", line=1)
    return n, k, logical_length


def _parse_triplets(path, n: int, logical_length: int) -> np.ndarray | None:
    """The body as an (m, 3) int64 array in one numpy call, or None where a
    line is not three integers in numpy's syntax, which is narrower than
    ``int()``'s, or a triplet is out of range. Given the path rather than an
    open file, numpy reads in blocks, which halves the time. From NumPy 1.23,
    a release that reads ``1.5`` or ``1e1`` in an integer field as a
    truncated float says so only with a DeprecationWarning; that warning is
    an error here, so such a file goes to the line scan and raises."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("error", category=DeprecationWarning)
        try:
            triplets = np.loadtxt(
                path, delimiter=",", dtype=np.int64, ndmin=2, comments=None, skiprows=1
            )
        except (ValueError, DeprecationWarning):
            return None
    if not triplets.size:
        return triplets.reshape(0, 3)
    if triplets.shape[1] != 3:
        return None
    rows, ranks, counts = triplets.T
    in_range = (rows >= 0) & (rows < n) & (ranks >= 0) & (ranks < logical_length) & (counts > 0)
    return triplets if in_range.all() else None


def _scan_triplets(fh, n: int, logical_length: int) -> np.ndarray:
    """The body line by line, as ``int()`` reads it: an (m, 4) array of row,
    rank, count and line number; the first malformed line raises."""
    triplets = array("q")
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected row,rank,count got {line!r}", line=lineno)
        try:  # inline rather than parse_numbers: a call per triplet costs 8% here
            i, rank, cnt = map(int, parts)
        except ValueError:
            raise ParseError(f"expected integers, got {line!r}", line=lineno) from None
        if not 0 <= i < n or not 0 <= rank < logical_length or cnt <= 0:
            raise ParseError(f"triplet out of range: {line!r}", line=lineno)
        triplets.extend((i, rank, cnt, lineno))
    return np.frombuffer(triplets, dtype=np.int64).reshape(-1, 4)


def load_features(path) -> FeatureMatrix:
    """Read a triplet CSV written by :func:`save_features`.

    Triplets may come in any order; a repeated (row, rank) pair is an error.
    The body is parsed in one numpy call. A body that call rejects, or whose
    triplets fail a check, is read again line by line, which accepts what
    ``int()`` accepts and names the first bad line.
    """
    with open(path) as fh:
        n, k, logical_length = _read_header(fh, path)
        scanned = None
        triplets = _parse_triplets(path, n, logical_length)
        if triplets is None:
            scanned = _scan_triplets(fh, n, logical_length)
            triplets = scanned[:, :3]
        rows, ranks, counts = triplets.T
        # save_features writes strictly ascending (row, rank) pairs: no sort, no repeat
        ascending = (rows[1:] > rows[:-1]) | (rows[1:] == rows[:-1]) & (ranks[1:] > ranks[:-1])
        if not ascending.all():
            order = np.lexsort((ranks, rows))  # stable: a repeat sorts after its first line
            rows, ranks, counts = rows[order], ranks[order], counts[order]
            repeat = np.flatnonzero((rows[1:] == rows[:-1]) & (ranks[1:] == ranks[:-1])) + 1
            if repeat.size:
                if scanned is None:  # line numbers for the message
                    scanned = _scan_triplets(fh, n, logical_length)
                lineno = int(scanned[order[repeat], 3].min())
                raise ParseError(f"duplicate (row, rank) triplet in {path}", line=lineno)
    return _feature_matrix(n, k, np.bincount(rows, minlength=n), ranks, counts)

