"""Internal clustering-quality indices and supervised classification metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import rankdata

from .distances import _dense, _rows, sq_distances
from .errors import MissingScoresError, UndefinedMetricError


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


def _clean_clustering_input(x, labels):
    """Drop noise points (label -1) and validate shapes."""
    x = _dense(_rows(x))
    labels = np.asarray(labels)
    if len(labels) != len(x):
        raise ValueError("labels length does not match rows")
    keep = labels != -1
    return x[keep], labels[keep]


def silhouette(x, labels) -> float:
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


def calinski_harabasz(x, labels) -> float:
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


def davies_bouldin(x, labels) -> float:
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


def cluster_quality(x, labels, runtime_sec: float = 0.0) -> ClusterQualityReport:
    return ClusterQualityReport(
        silhouette=silhouette(x, labels),
        calinski_harabasz=calinski_harabasz(x, labels),
        davies_bouldin=davies_bouldin(x, labels),
        runtime_sec=runtime_sec,
    )


def _binary_auc(truth: np.ndarray, score: np.ndarray) -> float:
    """Rank-statistic ROC AUC; midranks give tied scores 0.5 credit."""
    npos = int(truth.sum())
    nneg = len(truth) - npos
    ranks = rankdata(score)
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
