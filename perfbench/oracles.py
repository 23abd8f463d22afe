"""The benchmark's own reference computations, used to check program outputs.

Everything here works on the generated residue codes, never on the
program's data structures: k-mer counts are integers, so distances built
from integer dot products are exact and the K-nearest-neighbour sets and the
clustering indices can be recomputed independently.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

NSYM = 20


def kmer_counts(codes: np.ndarray, k: int) -> sparse.csr_matrix:
    """n x 20^k integer k-mer count matrix (every residue is in the alphabet)."""
    n, length = codes.shape
    windows = length - k + 1
    ranks = np.zeros((n, windows), dtype=np.int64)
    for offset in range(k):
        ranks = ranks * NSYM + codes[:, offset : offset + windows]
    rows = np.repeat(np.arange(n), windows)
    counts = sparse.coo_matrix(
        (np.ones(n * windows, dtype=np.int64), (rows, ranks.ravel())),
        shape=(n, NSYM**k),
    )
    return counts.tocsr()


def knn_rows(counts: sparse.csr_matrix, rows, k: int) -> dict[int, set]:
    """Exact K nearest rows for each of ``rows``, ties to the lower index."""
    rows = np.asarray(sorted(rows), dtype=np.int64)
    sq = np.asarray(counts.multiply(counts).sum(axis=1)).ravel().astype(np.int64)
    dots = (counts @ counts[rows].T).toarray().astype(np.int64)
    index = np.arange(counts.shape[0])
    out = {}
    for col, i in enumerate(rows):
        d2 = sq + sq[i] - 2 * dots[:, col]
        d2[i] = np.iinfo(np.int64).max
        out[int(i)] = set(np.lexsort((index, d2))[:k].tolist())
    return out


def ssn_mismatches(neighbors, counts, sample, k: int) -> list[int]:
    """Sampled rows whose union-KNN neighbour set disagrees with the oracle.

    Row i must list all of its own K nearest rows, and every other neighbour
    j must have i among its K nearest rows.
    """
    own = knn_rows(counts, sample, k)
    extra = {int(i): set(neighbors[i]) - own[int(i)] for i in sample}
    reverse = knn_rows(counts, set().union(*extra.values()), k) if any(extra.values()) else {}
    bad = []
    for i in sample:
        i = int(i)
        if not own[i] <= set(neighbors[i]) or any(i not in reverse[j] for j in extra[i]):
            bad.append(i)
    return bad


def components(neighbors) -> int:
    n = len(neighbors)
    rows = np.repeat(np.arange(n), [len(nb) for nb in neighbors])
    cols = np.fromiter((v for nb in neighbors for v in nb), dtype=np.int64, count=len(rows))
    adj = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return int(connected_components(adj, directed=False)[0])


def cluster_indices(counts: sparse.csr_matrix, labels) -> dict[str, float]:
    """Silhouette, Calinski-Harabasz and Davies-Bouldin from the integer Gram matrix."""
    labels = np.asarray(labels)
    classes, inverse = np.unique(labels, return_inverse=True)
    n, k = len(labels), len(classes)
    gram = (counts @ counts.T).toarray().astype(np.int64)
    sq = np.diag(gram).copy()
    dist = np.sqrt((sq[:, None] + sq[None, :] - 2 * gram).astype(np.float64))
    onehot = np.zeros((n, k), dtype=np.int64)
    onehot[np.arange(n), inverse] = 1
    size = onehot.sum(axis=0)

    sums = dist @ onehot
    own = size[inverse]
    a = np.where(own > 1, sums[np.arange(n), inverse] / np.maximum(own - 1, 1), 0.0)
    mean_other = sums / size[None, :]
    mean_other[np.arange(n), inverse] = np.inf
    b = mean_other.min(axis=1)
    denom = np.maximum(a, b)
    ok = (own > 1) & (denom > 0)
    scores = np.zeros(n)
    scores[ok] = (b[ok] - a[ok]) / denom[ok]

    # cluster sums s_c = sum of member rows; every product below is an integer
    member_dot = gram @ onehot  # x_i . s_c
    sum_dot = onehot.T @ member_dot  # s_c . s_d
    total_sq = int(sq.sum())
    centred = [int(sum_dot[c, c]) / int(size[c]) for c in range(k)]
    grand = int(sum_dot.sum()) / n
    within = total_sq - sum(centred)
    between = sum(centred) - grand
    ch = (between / (k - 1)) / (within / (n - k))

    to_centroid = np.empty(n)
    for i in range(n):
        c, m = inverse[i], int(size[inverse[i]])
        num = m * m * int(sq[i]) - 2 * m * int(member_dot[i, c]) + int(sum_dot[c, c])
        to_centroid[i] = np.sqrt(num) / m
    scatter = np.bincount(inverse, weights=to_centroid) / size
    ratios = np.full((k, k), -np.inf)
    for c in range(k):
        for d in range(k):
            if c != d:
                mc, md = int(size[c]), int(size[d])
                num = (
                    md * md * int(sum_dot[c, c]) + mc * mc * int(sum_dot[d, d])
                    - 2 * mc * md * int(sum_dot[c, d])
                )
                ratios[c, d] = (scatter[c] + scatter[d]) / (np.sqrt(num) / (mc * md))
    db = float(ratios.max(axis=1).mean())
    return {"silhouette": float(scores.mean()), "calinski_harabasz": ch, "davies_bouldin": db}


def majority_baseline_f1(labels) -> float:
    """Macro-F1 of always predicting the most common class."""
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    share = counts.max() / counts.sum()
    return 2 * share / (1 + share) / len(counts)


def macro_f1(truth, predicted) -> float:
    truth, predicted = np.asarray(truth), np.asarray(predicted)
    scores = []
    for c in np.unique(truth):
        tp = int(np.sum((truth == c) & (predicted == c)))
        fp = int(np.sum((truth != c) & (predicted == c)))
        fn = int(np.sum((truth == c) & (predicted != c)))
        scores.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return float(np.mean(scores))


def neighbour_vote_f1(neighbors, labels) -> float:
    """Macro-F1 of labelling each node by the most common label among its neighbours."""
    labels = np.asarray(labels)
    predicted = []
    for nb in neighbors:
        names, votes = np.unique(labels[list(nb)], return_counts=True)
        predicted.append(names[int(np.argmax(votes))])
    return macro_f1(labels, predicted)
