"""Internal clustering-quality indices and supervised classification metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .distances import _assigned_sq, _group_sums, _row_tiles, _rows
from .errors import ConfigError, MissingScoresError, UndefinedMetricError


@dataclass(frozen=True)
class ClusterQualityReport:
    """The three internal indices plus the clustering wall time they describe."""

    silhouette: float
    calinski_harabasz: float
    davies_bouldin: float
    runtime_sec: float = 0.0


@dataclass(frozen=True)
class ClassificationReport:
    accuracy: float
    precision_weighted: float
    recall_weighted: float
    f1_weighted: float
    f1_macro: float
    roc_auc_ovr: float
    train_time_sec: float
    confusion: np.ndarray
    classes: tuple


@dataclass(frozen=True)
class _Clusters:
    """What the three indices read: the rows (sparse stays CSR; noise dropped),
    their codes, cluster sizes and centroids, and each row's own-centroid d^2."""

    x: object
    codes: np.ndarray
    sizes: np.ndarray
    centroids: np.ndarray
    own_sq: np.ndarray


def _clusters(x, labels) -> _Clusters:
    x, labels = _rows(x), np.asarray(labels)
    if len(labels) != x.shape[0]:
        raise ConfigError(f"{len(labels)} labels for {x.shape[0]} rows")
    noise = labels == -1
    if noise.any():
        x, labels = x[~noise], labels[~noise]
    _, codes, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    centroids = _group_sums(x, codes, len(sizes)) / sizes[:, None]
    return _Clusters(x, codes, sizes, centroids, _assigned_sq(x, centroids, codes))


def _silhouette(c: _Clusters) -> float:
    n, k = len(c.codes), len(c.sizes)
    if k < 2:
        raise UndefinedMetricError("silhouette needs at least 2 clusters")
    onehot = sparse.csr_matrix((np.ones(n), (np.arange(n), c.codes)), shape=(n, k))
    a, b = np.empty(n), np.empty(n)
    # one row tile of distances at a time, summed into per-cluster columns
    for start, d2 in _row_tiles(c.x, c.x):
        rows, tile = np.arange(len(d2)), slice(start, start + len(d2))
        sums = np.sqrt(d2, out=d2) @ onehot  # sums[i, c]: distance from row i to cluster c
        a[tile] = sums[rows, c.codes[tile]]
        sums /= c.sizes
        sums[rows, c.codes[tile]] = np.inf
        b[tile] = sums.min(axis=1)
        del d2  # with _row_tiles' own del, one tile is held at a time
    multi = c.sizes[c.codes] > 1
    a[multi] /= c.sizes[c.codes[multi]] - 1
    denom = np.maximum(a, b)
    ok = multi & (denom > 0)
    scores = np.zeros(n)
    scores[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(scores.mean())


def _calinski_harabasz(c: _Clusters) -> float:
    n, k = len(c.codes), len(c.sizes)
    if k < 2 or k >= n:
        raise UndefinedMetricError(f"score undefined for k={k} with n={n}")
    within = float(c.own_sq.sum())
    if within == 0.0:
        return float("inf")
    mean = np.asarray(c.x.sum(axis=0)).ravel() / n
    between = float(c.sizes @ ((c.centroids - mean) ** 2).sum(axis=1))
    return (between / (k - 1)) / (within / (n - k))


def _davies_bouldin(c: _Clusters) -> float:
    k = len(c.sizes)
    if k < 2:
        raise UndefinedMetricError("score needs at least 2 clusters")
    scatter = np.bincount(c.codes, weights=np.sqrt(c.own_sq), minlength=k) / c.sizes
    worst = np.empty(k)
    for start, d2 in _row_tiles(c.centroids, c.centroids):
        rows, tile = np.arange(len(d2)), slice(start, start + len(d2))
        d2[rows, start + rows] = np.inf  # a cluster's ratio to itself is 0
        if np.any(d2 == 0.0):
            raise UndefinedMetricError("coincident centroids")
        worst[tile] = ((scatter[tile, None] + scatter) / np.sqrt(d2)).max(axis=1)
    return float(worst.mean())


def silhouette(x, labels) -> float:
    """Mean of (b - a) / max(a, b) over points; noise excluded, singletons 0.

    a is the mean distance to the point's own cluster (self excluded); b is
    the smallest mean distance to any other cluster. Points with a = b = 0
    (coincident duplicated clusters) score 0. No n x n matrix is held."""
    return _silhouette(_clusters(x, labels))


def calinski_harabasz(x, labels) -> float:
    """Between-cluster dispersion over within-cluster dispersion, dof-scaled."""
    return _calinski_harabasz(_clusters(x, labels))


def davies_bouldin(x, labels) -> float:
    """Mean over clusters of the worst (S_i + S_j) / M_ij similarity ratio."""
    return _davies_bouldin(_clusters(x, labels))


def cluster_quality(x, labels, runtime_sec: float = 0.0) -> ClusterQualityReport:
    c = _clusters(x, labels)
    scores = _silhouette(c), _calinski_harabasz(c), _davies_bouldin(c)
    return ClusterQualityReport(*scores, runtime_sec)


def _midranks(score: np.ndarray) -> np.ndarray:
    """1-based ranks with each group of tied scores given its mean rank, as
    scipy's ``rankdata`` ranks by its "average" method. As in rankdata, one
    NaN score makes every rank NaN."""
    n = len(score)
    if np.isnan(score).any():
        return np.full(n, np.nan)
    order = np.argsort(score, kind="stable")
    ordered = score[order]
    # [start, stop) of each tie group in sorted order
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    stops = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + stops + 1), stops - starts)
    return ranks


def _binary_auc(truth: np.ndarray, score: np.ndarray) -> float:
    """Rank-statistic ROC AUC; midranks give tied scores 0.5 credit."""
    npos = int(truth.sum())
    nneg = len(truth) - npos
    ranks = _midranks(score)
    return (float(ranks[truth].sum()) - npos * (npos + 1) / 2) / (npos * nneg)


def roc_auc_ovr(y_true, scores, classes: Optional[Sequence] = None) -> float:
    """Macro mean of per-class one-vs-rest AUC; classes align score columns."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if classes is None:
        classes = sorted(set(y_true.tolist()))
    classes = list(classes)
    if scores.ndim != 2 or scores.shape != (len(y_true), len(classes)):
        raise MissingScoresError(
            f"scores must be {len(y_true)}x{len(classes)}, got {scores.shape}"
        )
    aucs = []
    for col, cls in enumerate(classes):
        truth = y_true == cls
        if 0 < truth.sum() < len(y_true):
            aucs.append(_binary_auc(truth, scores[:, col]))
    if not aucs:
        raise UndefinedMetricError("no class with both positives and negatives")
    return float(np.mean(aucs))


def classification_report(
    y_true,
    y_pred,
    scores=None,
    classes: Optional[Sequence] = None,
    train_time_sec: float = 0.0,
    auc: bool = True,
) -> ClassificationReport:
    """Confusion matrix plus the weighted/macro metric panel.

    Weighted precision/recall/F1 are support-weighted; macro F1 is the
    unweighted class mean; zero-denominator precision or recall scores 0.
    OVR AUC needs the per-class ``scores`` matrix (columns in ``classes``
    order) and raises :class:`MissingScoresError` without it.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred length mismatch")
    if len(y_true) == 0:
        raise ValueError("empty input")
    if classes is None:
        classes = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    classes = list(classes)
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)

    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[index[t], index[p]] += 1

    support = confusion.sum(axis=1).astype(np.float64)
    predicted = confusion.sum(axis=0).astype(np.float64)
    diag = np.diag(confusion).astype(np.float64)
    precision = np.divide(diag, predicted, out=np.zeros(k), where=predicted > 0)
    recall = np.divide(diag, support, out=np.zeros(k), where=support > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros(k), where=pr_sum > 0)

    total = support.sum()
    weights = support / total
    accuracy = float(diag.sum() / total)

    if auc:
        if scores is None:
            raise MissingScoresError("per-class scores required for ROC AUC")
        auc_value = roc_auc_ovr(y_true, scores, classes)
    else:
        auc_value = float("nan")

    return ClassificationReport(
        accuracy=accuracy,
        precision_weighted=float((weights * precision).sum()),
        recall_weighted=float((weights * recall).sum()),
        f1_weighted=float((weights * f1).sum()),
        f1_macro=float(f1.mean()),
        roc_auc_ovr=auc_value,
        train_time_sec=train_time_sec,
        confusion=confusion,
        classes=tuple(classes),
    )
