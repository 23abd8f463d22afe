"""Scalar reference implementations of the CART split scan and Pegasos.

These are the per-threshold and per-sample loops that ``seqnet.classify``
replaced with array operations. Tests require the library to build the same
trees and the same weights, bit for bit.
"""

import numpy as np

from seqnet.classify import _Leaf, _Split


def gini_reference(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    frac = counts / total
    return 1.0 - float((frac * frac).sum())


def grow_tree_reference(x, encoded, n_classes, depth, max_depth, min_leaf, m_features, rng):
    """CART scanning every threshold of every candidate feature in turn."""
    counts = np.bincount(encoded, minlength=n_classes).astype(np.float64)
    if (
        (max_depth is not None and depth >= max_depth)
        or len(x) < 2 * min_leaf
        or gini_reference(counts) == 0.0
    ):
        return _Leaf(counts / counts.sum())

    n, d = x.shape
    if m_features is not None and m_features < d:
        features = np.sort(rng.choice(d, size=m_features, replace=False))
    else:
        features = np.arange(d)

    parent_impurity = gini_reference(counts) * n
    best = None  # (weighted impurity, feature, threshold)
    for f in features:
        order = np.argsort(x[:, f], kind="stable")
        values = x[order, f]
        labels = encoded[order]
        left = np.zeros(n_classes)
        right = counts.copy()
        for i in range(n - 1):
            c = labels[i]
            left[c] += 1
            right[c] -= 1
            if values[i + 1] == values[i]:
                continue
            nl = i + 1
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            weighted = gini_reference(left) * nl + gini_reference(right) * nr
            if best is None or weighted < best[0] - 1e-12:
                threshold = float((values[i] + values[i + 1]) / 2.0)
                if threshold == values[i + 1]:
                    threshold = float(values[i])
                best = (weighted, int(f), threshold)
    if best is None or best[0] >= parent_impurity - 1e-12:
        return _Leaf(counts / counts.sum())

    _, feature, threshold = best
    mask = x[:, feature] <= threshold
    return _Split(
        feature,
        threshold,
        grow_tree_reference(
            x[mask], encoded[mask], n_classes, depth + 1, max_depth, min_leaf, m_features, rng
        ),
        grow_tree_reference(
            x[~mask], encoded[~mask], n_classes, depth + 1, max_depth, min_leaf, m_features, rng
        ),
    )


def pegasos_reference(x, encoded, n_classes, C, epochs, seed):
    """One-vs-rest Pegasos trained one class after another, one sample per step."""
    xa = np.hstack([x, np.ones((len(x), 1))])
    n, d = xa.shape
    lam = 1.0 / (C * n)
    rng = np.random.default_rng(seed)
    weights = np.zeros((n_classes, d))
    for c in range(n_classes):
        signed = np.where(encoded == c, 1.0, -1.0)
        w = np.zeros(d)
        t = 0
        for _ in range(epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (lam * t)
                if signed[i] * (w @ xa[i]) < 1.0:
                    w = (1.0 - eta * lam) * w + eta * signed[i] * xa[i]
                else:
                    w = (1.0 - eta * lam) * w
        weights[c] = w
    return weights
