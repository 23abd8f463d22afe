"""k-mer frequency vectors: fixed-length numerical representation of sequences.

A sequence of length N yields (N - k) + 1 overlapping windows of width k
(stride 1); each window increments one bin of a length-20^k count vector.
Counts are raw frequencies, never normalized here. Storage is sparse: a
length-1274 sequence touches at most 1272 of the 8000 k=3 bins.

:func:`save_features` writes the triplet CSV, the interchange file, and
beside it a binary companion ``<csv>.csr``: a fixed header (format tag, n,
k, nnz, the three arrays' dtypes, the SHA-256 of the CSV's bytes and the
CRC-32 of the arrays' bytes), then the CSR offsets, ranks and counts as raw
little-endian unsigned integers, each in the narrowest dtype that holds its
largest value. The companion is written only where it is smaller than the
CSV. :func:`load_features` reads the arrays from the companion instead of
parsing the CSV only when the recorded digest is the CSV's, the arrays'
bytes have their recorded CRC-32 and the arrays keep every invariant the
CSV reader enforces; otherwise it parses the CSV. A content hash, not a
timestamp, ties the two, as in hash-based ``.pyc`` files (PEP 552).
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import AlphabetError, ConfigError, MerSizeError, ParseError, check_int, parse_numbers
from .seqio import ALPHABET, ALPHABET_INDEX, Dataset
from .tables import read_rows, write_int_rows

_NSYM = len(ALPHABET)
_BYTE_CODE = np.full(256, -1, dtype=np.int16)
for _ch, _i in ALPHABET_INDEX.items():
    _BYTE_CODE[ord(_ch)] = _i

# the companion's header: tag, n, k, nnz, the dtypes of the offsets, ranks
# and counts, the SHA-256 digest of the triplet CSV's bytes and the CRC-32
# of the three arrays' bytes
_CSR_HEADER = struct.Struct("<8sQQQ3s3s3s32sI")
_CSR_TAG = b"SEQNCSR2"
_CSR_DTYPES = {t.str.encode(): t for t in map(np.dtype, ("<u1", "<u2", "<u4", "<u8"))}

# residues per block of featurize_dataset, its rows padded to the longest
# record: the block's codes, ranks, masks and runs stay within a few MB
_BLOCK_CELLS = 1 << 16


def total_kmers(n: int, k: int) -> int:
    """Number of width-k windows in a length-n sequence: (n - k) + 1."""
    check_int("k", k, 1)
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
    return _BYTE_CODE.take(raw)


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
    """FeatureMatrix from row-major, per-row sorted ranks and their counts.
    The ranks are an integer array of any width: scipy converts them once, to
    the narrowest index dtype that holds them."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_lengths, out=indptr[1:])
    matrix = sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64), indices, indptr),
        shape=(n, _NSYM**k),
    )
    return FeatureMatrix(matrix, k)


def _block_counts(seqs, lengths, k: int, rank_dtype):
    """For a block of records: each row's distinct ranks in ascending order
    and their counts, all rows' run together, and each row's number of them.

    The records are padded with -1 codes to the block's longest into one
    (rows, L) array. A window holding an out-of-alphabet residue or running
    past its record's end ranks as the sentinel 20^k, so after one sort a
    row's sentinels are one run at its end and are dropped."""
    rows, width = len(seqs), max(lengths)
    codes = np.full((rows, width), -1, dtype=np.int16)
    codes[np.arange(width) < np.asarray(lengths)[:, None]] = encode_residues("".join(seqs))
    windows = width - k + 1
    sentinel = _NSYM**k
    ranks = codes[:, :windows].astype(rank_dtype)
    invalid = codes < 0
    bad = invalid[:, :windows].copy()
    for j in range(1, k):
        ranks *= _NSYM
        ranks += codes[:, j : j + windows]
        bad |= invalid[:, j : j + windows]
    ranks[bad] = sentinel
    del codes, invalid, bad  # not held beside the sort's masks
    ranks.sort(axis=1)
    first = np.empty(ranks.shape, dtype=bool)  # the first window of each run
    first[:, 0] = True
    np.not_equal(ranks[:, 1:], ranks[:, :-1], out=first[:, 1:])
    row_nnz = np.count_nonzero(first, axis=1) - (ranks[:, -1] == sentinel)
    starts = np.flatnonzero(first)
    del first
    counts = np.diff(starts, append=ranks.size)
    values = ranks.ravel().take(starts)
    del starts  # the int64 runs are not held beside the kept ones
    keep = values != sentinel
    return values[keep], counts[keep], row_nnz


def featurize_dataset(dataset: Dataset, k: int = 3) -> FeatureMatrix:
    """Frequency vector per record, in dataset order. Default k=3.

    Out-of-alphabet residues are tolerated: windows containing them are
    skipped rather than failing the whole record.

    Consecutive records are counted a block at a time, as many as keep the
    block within ``_BLOCK_CELLS`` residues (one if a record is longer),
    their ranks in the narrowest integer dtype that holds 20^k. The ranks
    and counts go straight into the CSR's own index and float64 arrays,
    allocated once at an upper bound of the nonzeros and shrunk in place at
    the end.
    """
    check_int("k", k, 1)
    n, dim = len(dataset), _NSYM**k
    rank_dtype = next((t for t in (np.int16, np.int32, np.int64) if dim <= np.iinfo(t).max), None)
    if rank_dtype is None:
        raise ConfigError(f"k={k}: 20^k ranks do not fit in 64 bits")
    seqs = [rec.residues for rec in dataset]
    lengths = [len(seq) for seq in seqs]
    for rec, length in zip(dataset, lengths):
        if length < k:
            raise MerSizeError(f"record {rec.id!r}: sequence length {length} shorter than k={k}")
    # a row has at most one nonzero per window and per bin
    bound = sum(min(length - k + 1, dim) for length in lengths)
    # the index dtype scipy would choose for these shape and offsets
    index_dtype = np.int32 if max(n, dim, bound) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index_dtype)
    indices = np.empty(bound, dtype=index_dtype)
    data = np.empty(bound, dtype=np.float64)
    nnz = 0
    # a block pads its rows to its own longest, at most the longest of all
    rows = max(1, _BLOCK_CELLS // max(lengths, default=1))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        values, counts, row_nnz = _block_counts(seqs[start:stop], lengths[start:stop], k,
                                                rank_dtype)
        indices[nnz : nnz + len(values)] = values
        data[nnz : nnz + len(values)] = counts
        np.cumsum(row_nnz, out=indptr[start + 1 : stop + 1])
        indptr[start + 1 : stop + 1] += nnz
        nnz += len(values)
    # a realloc in place, so the arrays are not copied
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    return FeatureMatrix(sparse.csr_matrix((data, indices, indptr), shape=(n, dim)), k)


def file_sha256(path) -> str:
    """Hex SHA-256 digest of a file's bytes, read in 64 KB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _HashingWriter:
    """A binary file that hashes what is written to it."""

    def __init__(self, fh):
        self.fh = fh
        self.sha256 = hashlib.sha256()

    def write(self, data):
        self.sha256.update(data)
        return self.fh.write(data)


def _companion_path(path) -> Path:
    return Path(str(path) + ".csr")


def _narrowest(values) -> np.ndarray:
    """``values`` in the narrowest little-endian unsigned dtype that holds
    their largest value; non-negative integers are converted exactly."""
    top = int(values.max()) if len(values) else 0
    dtype = next(t for t in _CSR_DTYPES.values() if top <= np.iinfo(t).max)
    return values.astype(dtype)


def save_features(matrix: FeatureMatrix, path) -> None:
    """Write the sparse triplet CSV: one metadata header line, then
    row,rank,count; then its binary companion, or, where that would not be
    smaller than the CSV, remove a companion left from an earlier run. A count
    the loader refuses, not an integer in [1, 2^63 - 1], or a repeated (row,
    rank) entry raises ValueError before a file is opened."""
    x = matrix.to_csr()
    if x.nnz and not (x.data.min() >= 1 and x.data.max() < 2.0**63
                      and np.array_equal(np.floor(x.data), x.data)):
        raise ValueError("feature counts must be integers in [1, 2^63 - 1]")
    if not x.has_canonical_format and x.tocoo().tocsr().nnz < x.nnz:
        raise ValueError("repeated (row, rank) entry in the feature matrix")
    rows = np.repeat(np.arange(matrix.n, dtype=x.indices.dtype), np.diff(x.indptr))
    with open(path, "wb") as fh:
        out = _HashingWriter(fh)
        out.write(f"# n={matrix.n} k={matrix.k} logical_length={matrix.logical_length}\n".encode())
        write_int_rows(out, (rows, x.indices, x.data), ",")
        csv_bytes = fh.tell()
    del rows  # not held while the companion's arrays are made
    arrays = [_narrowest(a) for a in (x.indptr, x.indices, x.data)]
    crc = 0
    for values in arrays:
        crc = zlib.crc32(values.data, crc)
    header = _CSR_HEADER.pack(_CSR_TAG, matrix.n, matrix.k, x.nnz,
                              *(a.dtype.str.encode() for a in arrays), out.sha256.digest(), crc)
    companion = _companion_path(path)
    if len(header) + sum(a.nbytes for a in arrays) >= csv_bytes:
        companion.unlink(missing_ok=True)
        return
    with open(companion, "wb") as fh:
        fh.write(header)
        for values in arrays:
            fh.write(values.data)


def _read_companion(path, n: int, k: int, sha256) -> tuple | None:
    """(offsets, ranks, counts) from the companion of the triplet CSV at
    ``path``, whose header gave ``n`` and ``k``; None where the companion is
    missing or malformed, records another digest than the CSV's (``sha256``,
    hex, or taken here) or another CRC-32 than its arrays', or holds arrays
    that break an invariant the CSV reader enforces: n + 1 non-decreasing
    offsets from 0 to nnz, ranks below 20^k and strictly increasing within a
    row, counts of at least 1."""
    try:
        raw = _companion_path(path).read_bytes()
    except OSError:
        return None
    if len(raw) < _CSR_HEADER.size:
        return None
    tag, n_, k_, nnz, *codes, digest, crc = _CSR_HEADER.unpack_from(raw)
    if tag != _CSR_TAG or (n_, k_) != (n, k) or not set(codes) <= _CSR_DTYPES.keys():
        return None
    dtypes = [_CSR_DTYPES[code] for code in codes]
    lengths = (n + 1, nnz, nnz)
    if len(raw) != _CSR_HEADER.size + sum(m * t.itemsize for m, t in zip(lengths, dtypes)):
        return None
    if zlib.crc32(memoryview(raw)[_CSR_HEADER.size :]) != crc:
        return None
    if digest.hex() != (sha256 or file_sha256(path)):
        return None
    arrays, start = [], _CSR_HEADER.size
    for m, dtype in zip(lengths, dtypes):
        arrays.append(np.frombuffer(raw, dtype=dtype, count=m, offset=start))
        start += m * dtype.itemsize
    offsets, ranks, counts = arrays
    if int(offsets[0]) != 0 or int(offsets[-1]) != nnz or (offsets[1:] < offsets[:-1]).any():
        return None
    if nnz and (int(ranks.max()) >= _NSYM**k or counts.min() < 1):
        return None
    increasing = ranks[1:] > ranks[:-1]
    # a row's first rank need not exceed the previous row's last
    firsts = offsets[1:-1].astype(np.int64)
    increasing[firsts[(firsts > 0) & (firsts < nnz)] - 1] = True
    if not increasing.all():
        return None
    return offsets, ranks, counts


def load_features(path, sha256: str | None = None) -> FeatureMatrix:
    """Read a triplet CSV written by :func:`save_features`.

    Triplets may come in any order; a repeated (row, rank) pair is an error.
    The body is read by :func:`tables.read_rows`, so a bad line is named.
    Where the CSV's companion is current and valid its arrays are read
    instead; ``sha256`` may pass the CSV's hex digest, taken once by the
    caller, else it is taken here when a companion exists. Writes no file.
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
    stored = _read_companion(path, n, k, sha256)
    if stored is not None:
        offsets, ranks, counts = stored
        return _feature_matrix(n, k, np.diff(offsets.astype(np.int64)), ranks, counts)
    bounds = [(0, n - 1), (0, logical_length - 1), (1, np.iinfo(np.int64).max)]
    triplets, _ = read_rows(path, 2, "row,rank,count", "triplet", ints=3, bounds=bounds,
                            unique="(row, rank)")
    rows, ranks, counts = triplets.T
    return _feature_matrix(n, k, np.bincount(rows, minlength=n), ranks, counts)
