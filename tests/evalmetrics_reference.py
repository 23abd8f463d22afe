"""Reference quality indices: the code ``seqnet.evalmetrics`` ran before its
indices shared one per-cluster summary.

Each index densifies its own copy of the rows (noise dropped);
``silhouette`` holds the n x n distance matrix, and Calinski-Harabasz and
Davies-Bouldin loop over the clusters' member rows. Tests require
``seqnet.evalmetrics`` to agree with these to 1e-12 relative, and to raise
where they raise.
"""

import numpy as np

from seqnet.distances import _dense, _rows, sq_distances
from seqnet.errors import UndefinedMetricError
from seqnet.evalmetrics import ClusterQualityReport


def _clean_clustering_input(x, labels):
    """Drop noise points (label -1) and validate shapes."""
    x = _dense(_rows(x))
    labels = np.asarray(labels)
    if len(labels) != len(x):
        raise ValueError("labels length does not match rows")
    keep = labels != -1
    return x[keep], labels[keep]


def silhouette_reference(x, labels) -> float:
    """Mean of (b - a) / max(a, b) over points; noise excluded, singletons 0.

    a is the mean distance to the point's own cluster (self excluded); b is
    the smallest mean distance to any other cluster. Points with a = b = 0
    (coincident duplicated clusters) score 0.
    """
    x, labels = _clean_clustering_input(x, labels)
    classes, inverse = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise UndefinedMetricError("silhouette needs at least 2 clusters")
    n, k = len(x), len(classes)
    dist = np.sqrt(sq_distances(x))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), inverse] = 1.0
    sums = dist @ onehot  # sums[i, c] = total distance from i to cluster c
    counts = onehot.sum(axis=0)

    own_count = counts[inverse]
    scores = np.zeros(n)
    multi = own_count > 1
    a = np.zeros(n)
    a[multi] = sums[np.arange(n), inverse][multi] / (own_count[multi] - 1)
    mean_other = sums / counts[None, :]
    mean_other[np.arange(n), inverse] = np.inf
    b = mean_other.min(axis=1)
    denom = np.maximum(a, b)
    ok = multi & (denom > 0)
    scores[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(scores.mean())


def calinski_harabasz_reference(x, labels) -> float:
    """Between-cluster dispersion over within-cluster dispersion, dof-scaled."""
    x, labels = _clean_clustering_input(x, labels)
    classes = np.unique(labels)
    n, k = len(x), len(classes)
    if k < 2 or k >= n:
        raise UndefinedMetricError(f"score undefined for k={k} with n={n}")
    mean = x.mean(axis=0)
    between = 0.0
    within = 0.0
    for c in classes:
        member = x[labels == c]
        centroid = member.mean(axis=0)
        between += len(member) * float(((centroid - mean) ** 2).sum())
        within += float(((member - centroid) ** 2).sum())
    if within == 0.0:
        return float("inf")
    return (between / (k - 1)) / (within / (n - k))


def davies_bouldin_reference(x, labels) -> float:
    """Mean over clusters of the worst (S_i + S_j) / M_ij similarity ratio."""
    x, labels = _clean_clustering_input(x, labels)
    classes = np.unique(labels)
    k = len(classes)
    if k < 2:
        raise UndefinedMetricError("score needs at least 2 clusters")
    centroids = np.stack([x[labels == c].mean(axis=0) for c in classes])
    scatter = np.array(
        [
            float(np.sqrt(((x[labels == c] - centroids[i]) ** 2).sum(axis=1)).mean())
            for i, c in enumerate(classes)
        ]
    )
    sep = np.sqrt(sq_distances(centroids))
    if np.any(sep[~np.eye(k, dtype=bool)] == 0.0):
        raise UndefinedMetricError("coincident centroids")
    ratios = (scatter[:, None] + scatter[None, :]) / np.where(sep > 0, sep, 1.0)
    np.fill_diagonal(ratios, -np.inf)
    return float(ratios.max(axis=1).mean())


def cluster_quality_reference(x, labels, runtime_sec: float = 0.0) -> ClusterQualityReport:
    return ClusterQualityReport(
        silhouette=silhouette_reference(x, labels),
        calinski_harabasz=calinski_harabasz_reference(x, labels),
        davies_bouldin=davies_bouldin_reference(x, labels),
        runtime_sec=runtime_sec,
    )
