"""Reference implementations of the CART split scan and Pegasos.

``grow_tree_reference`` and ``pegasos_reference`` are the per-threshold and
per-sample loops that ``seqnet.classify`` replaced with array operations.
``_grow_tree`` and ``_tree_scores`` are the recursive CART grower (a one-hot
cumulative-sum scan per node) and scorer that its lockstep grower and flat
trees replaced. Tests require the library to build the same trees, scores
and weights, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from seqnet.classify import _gini

# Class-count cells in one block of ``_grow_tree``'s scan.
_SCAN_CELLS = 1 << 20


@dataclass
class _Leaf:
    probs: np.ndarray


@dataclass
class _Split:
    feature: int
    threshold: float
    left: object
    right: object


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


def _grow_tree(x, encoded, n_classes, depth, max_depth, min_leaf, m_features, rng):
    counts = np.bincount(encoded, minlength=n_classes).astype(np.float64)
    impurity = _gini(counts)
    if (
        (max_depth is not None and depth >= max_depth)
        or len(x) < 2 * min_leaf
        or impurity == 0.0
    ):
        return _Leaf(counts / counts.sum())

    n, d = x.shape
    if m_features is not None and m_features < d:
        features = np.sort(rng.choice(d, size=m_features, replace=False))
    else:
        features = np.arange(d)

    # Threshold i of a feature sends its i + 1 smallest rows left. The class
    # counts on both sides of every threshold come from one cumulative sum of
    # one-hot counts, taken over a block of features at a time to bound memory.
    n_left = np.arange(1, n)
    n_right = n - n_left
    sizes_ok = (n_left >= min_leaf) & (n_right >= min_leaf)
    one_hot = np.eye(n_classes)
    block = max(1, _SCAN_CELLS // (n * n_classes))
    best, best_split = np.inf, None  # weighted impurity, (feature, lo, hi)
    for start in range(0, len(features), block):
        cols = features[start : start + block]
        block_x = x[:, cols]
        order = np.argsort(block_x, axis=0, kind="stable")
        values = np.take_along_axis(block_x, order, axis=0).T
        left = np.cumsum(one_hot[encoded[order[:-1].T]], axis=1)
        weighted = _gini(left) * n_left + _gini(counts - left) * n_right
        # Row-major order is features by index, then thresholds ascending; a
        # later candidate replaces the best only when lower by more than 1e-12.
        candidates = np.flatnonzero(sizes_ok & (values[:, 1:] != values[:, :-1]))
        scores = weighted.ravel()[candidates]
        pos = 0
        while True:
            ahead = np.flatnonzero(scores[pos:] < best - 1e-12)
            if not ahead.size:
                break
            pos += ahead[0]
            f, i = divmod(int(candidates[pos]), n - 1)
            best, best_split = scores[pos], (int(cols[f]), values[f, i], values[f, i + 1])
            pos += 1
    if best_split is None or best >= impurity * n - 1e-12:
        return _Leaf(counts / counts.sum())

    feature, lo, hi = best_split
    threshold = float((lo + hi) / 2.0)
    if threshold == hi:
        # lo and hi are one ulp apart and the midpoint rounded up: a split at
        # hi would send every row left.
        threshold = float(lo)
    mask = x[:, feature] <= threshold
    return _Split(
        feature,
        threshold,
        _grow_tree(x[mask], encoded[mask], n_classes, depth + 1, max_depth, min_leaf, m_features, rng),
        _grow_tree(x[~mask], encoded[~mask], n_classes, depth + 1, max_depth, min_leaf, m_features, rng),
    )


def _tree_scores(node, x, out, rows):
    if isinstance(node, _Leaf):
        out[rows] = node.probs
        return
    mask = x[rows, node.feature] <= node.threshold
    _tree_scores(node.left, x, out, rows[mask])
    _tree_scores(node.right, x, out, rows[~mask])


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
