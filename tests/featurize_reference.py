"""Dict-based reference k-mer counting and a line-by-line triplet reader.

One Python dict of rank -> count per sequence, stacked into a CSR matrix row
by row, the way ``seqnet.featurize`` stored features before it built the
CSR matrix directly. ``load_features_reference`` reads the triplet CSV one
line at a time with ``int()``, the way ``seqnet.featurize.load_features`` did
before it parsed the body in one numpy call. ``save_features_reference``
writes the triplet CSV one f-string per line, the way
``seqnet.featurize.save_features`` did before it wrote blocks of lines. Tests
require the library to give the same matrix, the same ``ParseError`` message
and line, and the same file bytes.
"""

from array import array

import numpy as np
from scipy import sparse

from seqnet.errors import ParseError, parse_numbers
from seqnet.featurize import FeatureMatrix, kmer_rank
from seqnet.seqio import ALPHABET_INDEX


def counts_reference(seq, k):
    """rank -> count over the width-k windows that are fully in the alphabet."""
    counts = {}
    for start in range(len(seq) - k + 1):
        mer = seq[start : start + k]
        if all(ch in ALPHABET_INDEX for ch in mer):
            rank = kmer_rank(mer)
            counts[rank] = counts.get(rank, 0) + 1
    return counts


def csr_reference(rows, k):
    """Stack per-row count dicts into a float64 CSR matrix with sorted indices."""
    indptr = [0]
    indices = []
    data = []
    for counts in rows:
        ranks = sorted(counts)
        indices.extend(ranks)
        data.extend(counts[r] for r in ranks)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64), indices, indptr),
        shape=(len(rows), len(ALPHABET_INDEX) ** k),
    )


def save_features_reference(matrix, path):
    x = matrix.to_csr()
    indptr, ranks, counts = x.indptr.tolist(), x.indices.tolist(), x.data.astype(np.int64).tolist()
    with open(path, "w") as fh:
        fh.write(f"# n={matrix.n} k={matrix.k} logical_length={matrix.logical_length}\n")
        for i in range(matrix.n):
            start, stop = indptr[i], indptr[i + 1]
            for rank, cnt in zip(ranks[start:stop], counts[start:stop]):
                fh.write(f"{i},{rank},{cnt}\n")


def load_features_reference(path):
    with open(path) as fh:
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
        if logical_length != len(ALPHABET_INDEX) ** k:
            raise ParseError(f"logical_length {logical_length} != 20^{k}", line=1)
        triplets = array("q")  # row, rank, count, line number
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"expected row,rank,count got {line!r}", line=lineno)
            try:
                i, rank, cnt = map(int, parts)
            except ValueError:
                raise ParseError(f"expected integers, got {line!r}", line=lineno) from None
            if not 0 <= i < n or not 0 <= rank < logical_length or cnt <= 0:
                raise ParseError(f"triplet out of range: {line!r}", line=lineno)
            triplets.extend((i, rank, cnt, lineno))
    rows, ranks, counts, linenos = np.frombuffer(triplets, dtype=np.int64).reshape(-1, 4).T
    order = np.lexsort((ranks, rows))  # stable: a repeat sorts after its first line
    rows, ranks = rows[order], ranks[order]
    repeat = np.flatnonzero((rows[1:] == rows[:-1]) & (ranks[1:] == ranks[:-1])) + 1
    if repeat.size:
        lineno = int(linenos[order[repeat]].min())
        raise ParseError(f"duplicate (row, rank) triplet in {path}", line=lineno)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    matrix = sparse.csr_matrix(
        (counts[order].astype(np.float64), ranks, indptr), shape=(n, logical_length)
    )
    return FeatureMatrix(matrix, k)
