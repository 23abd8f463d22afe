"""Dict-based reference k-mer counting.

One Python dict of rank -> count per sequence, stacked into a CSR matrix row
by row, the way ``seqnet.featurize`` stored features before it built the
CSR matrix directly. Tests require the library to give the same matrix.
"""

import numpy as np
from scipy import sparse

from seqnet.featurize import kmer_rank
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
