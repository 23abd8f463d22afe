"""Six classifiers over node embeddings plus the seeded experiment protocol.

Every classifier follows the same surface: ``fit(X, y)`` returning self,
``predict(X)`` and ``predict_scores(X)`` (one column per class in sorted
class order). Vote and argmax ties always resolve to the smallest class id,
and every model records its training wall time.
"""

from __future__ import annotations

import copy
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cluster import _log_gaussian_diag
from .distances import _dense, _gamma, _group_sums, _rows, k_nearest
from .errors import ConfigError, check_int, check_number
from .evalmetrics import ClassificationReport, classification_report
from .seqio import split_indices


def _prepare(x, y):
    x = _dense(_rows(x))
    y = np.asarray(y)
    if len(x) == 0:
        raise ConfigError("empty training set")
    if len(x) != len(y):
        raise ConfigError("X and y length mismatch")
    classes, encoded = np.unique(y, return_inverse=True)
    return x, classes, encoded


def _queries(x):
    """Query rows as ``_scores`` takes them: float64 2-D, a 1-D query one row."""
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def _with_bias(x):
    """x with a constant 1 feature appended, which carries a linear bias."""
    return np.hstack([x, np.ones((len(x), 1))])


def _fit_and_score(model, x, y, fit_rows, score_rows):
    """Fit ``model`` on the ``fit_rows`` of x and y, then score the
    ``score_rows`` of x once: (scores, predicted labels)."""
    model.fit(x[fit_rows], y[fit_rows])
    scores = model.predict_scores(x[score_rows])
    return scores, model.classes_[np.argmax(scores, axis=1)]


class _TimedFit:
    """Mixin recording fit wall time in ``train_time_sec``; ``predict_scores``
    hands ``_scores`` a float64 2-D array, a 1-D query being one row.
    ``cv_accuracies`` is the protocol's grid-selection hook."""

    train_time_sec: float = 0.0

    def fit(self, x, y):
        t0 = time.perf_counter()
        self._fit(x, y)
        self.train_time_sec = time.perf_counter() - t0
        return self

    def predict_scores(self, x):
        return self._scores(_queries(x))

    def predict(self, x):
        scores = self.predict_scores(x)
        return self.classes_[np.argmax(scores, axis=1)]

    @classmethod
    def cv_accuracies(cls, grid, x, y, folds) -> np.ndarray:
        """Mean validation accuracy over the (fit rows, validation rows)
        ``folds`` of x and y for each parameter dict of ``grid``; -inf for an
        entry that some fold's training part cannot fit (a ``ConfigError``
        from ``fit``; one from the constructor propagates). This default fits
        one (entry, fold) at a time; a subclass may fit them together if the
        result keeps its bits."""
        out = []
        for params in grid:
            models = [cls(**params) for _ in folds]
            try:
                out.append(float(np.mean([
                    (_fit_and_score(m, x, y, fit, val)[1] == y[val]).mean()
                    for m, (fit, val) in zip(models, folds)
                ])))
            except ConfigError:
                out.append(float("-inf"))
        return np.array(out)


class KNNClassifier(_TimedFit):
    """Majority vote among the k nearest training rows (Euclidean).

    Scores are vote fractions; distance ties prefer the lower training index
    and vote ties the smaller class id.
    """

    algorithm = "knn"

    def __init__(self, k_votes: int = 5):
        check_int("k_votes", k_votes, 1)
        self.k_votes = k_votes

    def _fit(self, x, y):
        self._x, self.classes_, self._y = _prepare(x, y)
        check_int("k_votes", self.k_votes, 1, len(self._x))

    def _scores(self, x):
        return self._vote_fractions(self._y[k_nearest(self._x, self.k_votes, queries=x)])

    def _vote_fractions(self, votes):
        """Each row's class counts among its (rows, k) neighbour class codes,
        over k."""
        rows, k = votes.shape
        n_classes = len(self.classes_)
        counts = np.bincount(
            (np.arange(rows)[:, None] * n_classes + votes).ravel(), minlength=rows * n_classes
        )
        return counts.reshape(rows, n_classes) / k

    @classmethod
    def cv_accuracies(cls, grid, x, y, folds) -> np.ndarray:
        """Per fold, one neighbour list at the largest ``k_votes`` the fold's
        training part can take; each entry votes on a prefix of it, which is
        the entry's own list, as ``k_nearest`` orders every row by (distance,
        index). An entry above a fold's training size scores -inf."""
        models = [cls(**params) for params in grid]
        acc = np.empty((len(grid), len(folds)))
        for f, (fit, val) in enumerate(folds):
            feasible = [g for g, m in enumerate(models) if m.k_votes <= len(fit)]
            acc[:, f] = -np.inf
            if not feasible:
                continue
            top = max((models[g] for g in feasible), key=lambda m: m.k_votes).fit(x[fit], y[fit])
            near = top._y[k_nearest(top._x, top.k_votes, queries=_queries(x[val]))]
            for g in feasible:
                scores = top._vote_fractions(near[:, : models[g].k_votes])
                acc[g, f] = (top.classes_[np.argmax(scores, axis=1)] == y[val]).mean()
        return np.array([float(np.mean(a)) for a in acc])


def softmax_loss_and_grad(weights, bias, x, encoded, l2):
    """Mean cross-entropy of multinomial softmax plus L2 on the weights.

    Returns (loss, grad_weights, grad_bias); exposed for gradient checking.
    """
    n = len(x)
    logits = x @ weights.T + bias
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = -float(np.log(probs[np.arange(n), encoded] + 1e-300).mean())
    loss += 0.5 * l2 * float((weights * weights).sum())
    delta = probs
    delta[np.arange(n), encoded] -= 1.0
    grad_w = delta.T @ x / n + l2 * weights
    grad_b = delta.mean(axis=0)
    return loss, grad_w, grad_b


class LogisticRegression(_TimedFit):
    """Multinomial softmax with L2 penalty, full-batch gradient descent,
    zero-initialized weights (uniform class probabilities at the start)."""

    algorithm = "logistic_regression"

    def __init__(self, l2: float = 1e-3, lr: float = 0.5, epochs: int = 300):
        check_number("l2", l2, 0, strict=False)
        check_number("lr", lr, 0, strict=True)
        check_int("epochs", epochs, 1)
        self.l2 = l2
        self.lr = lr
        self.epochs = epochs

    def _fit(self, x, y):
        x, self.classes_, encoded = _prepare(x, y)
        if len(self.classes_) < 2:
            raise ConfigError("need at least 2 classes")
        k, d = len(self.classes_), x.shape[1]
        self._w = np.zeros((k, d))
        self._b = np.zeros(k)
        for _ in range(self.epochs):
            _, grad_w, grad_b = softmax_loss_and_grad(self._w, self._b, x, encoded, self.l2)
            self._w -= self.lr * grad_w
            self._b -= self.lr * grad_b

    def _scores(self, x):
        logits = x @ self._w.T + self._b
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)


class GaussianNB(_TimedFit):
    """Per-class diagonal Gaussians with frequency priors.

    Variances gain ``var_smoothing`` times the largest feature variance so a
    singleton class never produces a zero variance. Scores are normalized
    posteriors.
    """

    algorithm = "gaussian_nb"

    def __init__(self, var_smoothing: float = 1e-9):
        check_number("var_smoothing", var_smoothing, 0, strict=False)
        self.var_smoothing = var_smoothing

    def _fit(self, x, y):
        x, self.classes_, encoded = _prepare(x, y)
        k = len(self.classes_)
        eps = max(self.var_smoothing * float(x.var(axis=0).max()), 1e-12)
        # the bits of each class's members.mean(axis=0) and members.var(axis=0)
        sizes = np.bincount(encoded, minlength=k)[:, None]
        self._means = _group_sums(x, encoded, k) / sizes
        self._vars = _group_sums((x - self._means[encoded]) ** 2, encoded, k) / sizes + eps
        self._priors = sizes[:, 0] / len(x)

    def _scores(self, x):
        log_post = _log_gaussian_diag(x, self._means, self._vars, self._priors)
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post / post.sum(axis=1, keepdims=True)


# Pegasos steps whose visits, step sizes and signs are made at once
_PEGASOS_SPAN = 512


class _Visits:
    """The order in which each class of one Pegasos job visits the job's
    ``rows``: class c takes the per-epoch permutations it would draw from
    ``default_rng(seed)`` were the classes trained one after another, so its
    generator starts where classes 0..c-1 have drawn all of theirs. Epochs
    are drawn as needed, so at most one epoch per class is held."""

    def __init__(self, rows, seed, epochs, n_classes):
        self.rows = rows
        rng = np.random.default_rng(seed)
        self.rngs = []
        for c in range(n_classes):
            self.rngs.append(copy.deepcopy(rng))
            if c + 1 < n_classes:
                for _ in range(epochs):
                    rng.permutation(len(rows))
        self.pending = np.empty((n_classes, 0), dtype=np.intp)

    def take(self, steps):
        """The next ``steps`` visits of every class, (classes, steps)."""
        while self.pending.shape[1] < steps:
            epoch = np.array([rng.permutation(len(self.rows)) for rng in self.rngs])
            self.pending = np.hstack([self.pending, self.rows[epoch]])
        out, self.pending = self.pending[:, :steps], self.pending[:, steps:]
        return out


def _pegasos(xa, labels, jobs):
    """One-vs-rest Pegasos weights of every job, all jobs in one loop.

    ``xa`` holds the rows with their constant bias feature and ``labels``
    their integer class codes. A job ``(rows, lam, epochs, seed)`` trains
    one weight row per class code among ``labels[rows]``, ascending, on
    ``xa[rows]``; each class visits the rows in the order :class:`_Visits`
    gives. Step t of a row is the Pegasos step with eta = 1 / (lam t): the
    row is scaled by 1 - eta lam and gains eta * sign * x where its signed
    margin on x was below 1. Returns each job's (class codes, weights).

    The weight rows are (job, class) pairs of jobs in descending step count
    (epochs times rows), so the rows still stepping are a prefix. Each step
    size, scale and margin is the same float64 operation whatever the batch,
    and each margin one stacked (1 x d)(d x 1) ``matmul``, so a job's
    weights are those it gets alone.
    """
    steps = [epochs * len(rows) for rows, _, epochs, _ in jobs]
    order = sorted(range(len(jobs)), key=lambda j: -steps[j])
    classes = [np.unique(labels[jobs[j][0]]) for j in order]
    sizes = [len(c) for c in classes]
    row_class = np.concatenate(classes)
    lam = np.repeat([float(jobs[j][1]) for j in order], sizes)
    visits = [_Visits(jobs[j][0], jobs[j][3], jobs[j][2], k) for j, k in zip(order, sizes)]
    w = np.zeros((len(row_class), xa.shape[1]))
    ordered = [steps[j] for j in order]
    bounds = sorted(set(range(0, ordered[0], _PEGASOS_SPAN)) | set(ordered) | {0})
    for t0, t1 in zip(bounds, bounds[1:]):
        live = sum(1 for s in ordered if s > t0)
        rows = sum(sizes[:live])
        lam_t = lam[:rows]
        # (steps, rows) visits, step sizes, scales and signs of this span
        visit = np.vstack([v.take(t1 - t0) for v in visits[:live]]).T
        eta = 1.0 / (lam_t * np.arange(t0 + 1, t1 + 1, dtype=np.float64)[:, None])
        scale = 1.0 - eta * lam_t
        sign = np.where(labels[visit] == row_class[:rows], 1.0, -1.0)
        gain = eta * sign
        wt = w[:rows]
        for at, s, a, g in zip(visit, sign, scale, gain):
            xt = xa[at]
            violated = s * np.matmul(wt[:, None, :], xt[:, :, None])[:, 0, 0] < 1.0
            wt *= a[:, None]
            np.add(wt, g[:, None] * xt, out=wt, where=violated[:, None])
    out = [None] * len(jobs)
    for j, c, wj in zip(order, classes, np.split(w, np.cumsum(sizes)[:-1])):
        out[j] = (c, wj)
    return out


class LinearSVM(_TimedFit):
    """One-vs-rest hinge loss trained with the Pegasos step schedule.

    The regularization weight is 1 / (C n); a constant feature carries the
    bias. Scores are signed margins.
    """

    algorithm = "linear_svm"

    def __init__(self, C: float = 1.0, epochs: int = 20, seed: int = 0):
        check_number("C", C, 0, strict=True)
        check_int("epochs", epochs, 1)
        self.C = C
        self.epochs = epochs
        self.seed = seed

    def _fit(self, x, y):
        x, self.classes_, encoded = _prepare(x, y)
        if len(self.classes_) < 2:
            raise ConfigError("need at least 2 classes")
        ((_, self._w),) = _pegasos(_with_bias(x), encoded, [self._job(np.arange(len(x)))])

    def _job(self, rows):
        return rows, 1.0 / (self.C * len(rows)), self.epochs, self.seed

    def _scores(self, x):
        return _with_bias(x) @ self._w.T

    @classmethod
    def cv_accuracies(cls, grid, x, y, folds) -> np.ndarray:
        """Every (entry, fold) fit advances in one :func:`_pegasos` loop; a
        fold whose training part holds one class makes every entry -inf."""
        x, classes, codes = _prepare(x, y)
        models = [(cls(**params), fit, val) for params in grid for fit, val in folds]
        if any(len(np.unique(codes[fit])) < 2 for fit, _ in folds):
            return np.full(len(grid), -np.inf)
        fitted = _pegasos(_with_bias(x), codes, [m._job(fit) for m, fit, _ in models])
        acc = []
        for (m, _, val), (job_classes, w) in zip(models, fitted):
            m.classes_, m._w = classes[job_classes], w
            acc.append((m.predict(x[val]) == y[val]).mean())
        return np.array([float(np.mean(a)) for a in np.reshape(acc, (len(grid), len(folds)))])


# Row cells (node rows times candidate features) in one block of the CART
# split scan. It keeps each temporary of the scan to 8 MB unless a single
# feature column of one node needs more.
_SCAN_CELLS = 1 << 20


def _gini(counts):
    """Gini impurity of each row of a ``(..., classes)`` array of class counts."""
    frac = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - (frac * frac).sum(axis=-1)


def _ranges(lengths):
    """Range id and position within its range of every cell of consecutive
    ranges of the given lengths."""
    seg = np.repeat(np.arange(len(lengths)), lengths)
    offsets = np.cumsum(lengths) - lengths
    return seg, np.arange(len(seg)) - offsets[seg], offsets


def _value_ranks(x):
    """(features, rows) dense rank of each value within its column. Equal
    values share a rank, and so do all NaNs, which rank above every number,
    so ordering a node's rows by (rank, position) is the stable sort of their
    values."""
    order = np.argsort(x, axis=0, kind="stable")
    values = np.take_along_axis(x, order, axis=0)
    dense = np.zeros(x.shape, dtype=np.int64)
    # the sort puts NaNs last, so a value after a NaN is a NaN
    dense[1:] = (values[1:] != values[:-1]) & ~np.isnan(values[:-1])
    ranks = np.empty(x.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.cumsum(dense, axis=0), axis=0)
    return np.ascontiguousarray(ranks.T)


def _tie_chain(scores):
    """Index the split tie rule picks from scores in scan order: a candidate
    replaces the best so far only when it is lower by more than 1e-12."""
    best, pick, pos = np.inf, -1, 0
    while (ahead := np.flatnonzero(scores[pos:] < best - 1e-12)).size:
        pos += ahead[0]
        best, pick = scores[pos], pos
        pos += 1
    return pick


def _scan_block(cols, feats, starts, counts, order, ranks, encoded, min_leaf, carry):
    """Screen and rescore the thresholds of a block of (node, feature) columns.

    Column c belongs to node ``c // m`` and scans feature ``feats.flat[c]``;
    threshold i of a column sends the node's i + 1 smallest rows left. Each
    threshold is screened by its exact integer class sums: with l the left
    class counts, C the node's and n its size, the Gini split score is
    n - sum(l^2) / n_l - sum((C - l)^2) / n_r, and sum(l^2) grows by
    2 * (rank of the row within its class) + 1 per row. A threshold is kept
    when its screened score is within twice the rounding bound of its node's
    running minimum in scan order (``carry`` enters a node continued from
    the previous block); the tie rule only ever picks a threshold lower than
    every earlier one, so the kept set holds every one it can pick. Kept
    thresholds are rescored by ``_gini`` on their class counts.

    Returns per kept threshold (node, column, score, row at it, row after it,
    value rank at it), and the running minimum of the block's last node.
    """
    m, n_classes = feats.shape[1], counts.shape[1]
    node = cols // m
    col_counts = counts[node]
    sizes = col_counts.sum(axis=1)
    seg, pos, offsets = _ranges(sizes)
    cell_node = node[seg]
    rows = order[(starts[node] - offsets)[seg] + np.arange(len(seg))]
    rank = ranks.ravel()[(feats.ravel()[cols] * ranks.shape[1])[seg] + rows]
    # keys are unique, so the unstable sort is the stable one by (rank, position)
    by_value = np.argsort((offsets * ranks.shape[1])[seg] + rank * sizes[seg] + pos)
    rows, rank = rows[by_value], rank[by_value]
    labels = encoded[rows]

    # Each row's rank within its class in its column: a stable sort by
    # (column, class) groups the rows by class, in scan order within a group.
    group = seg * n_classes + labels
    small = np.uint16 if len(cols) * n_classes <= 1 << 16 else np.int64
    by_class = np.argsort(group.astype(small), kind="stable")
    firsts = (offsets[:, None] + np.cumsum(col_counts, axis=1) - col_counts).ravel()
    slot = np.empty(len(seg), dtype=np.int64)
    slot[by_class] = np.arange(len(seg))
    squares = np.cumsum(2 * (slot - firsts[group]) + 1)
    cross = np.cumsum(counts.ravel()[cell_node * n_classes + labels])
    sq = squares - np.concatenate(([0], squares))[offsets][seg]
    cr = cross - np.concatenate(([0], cross))[offsets][seg]

    n_left = pos + 1
    n_right = sizes[seg] - n_left
    right_sq = (counts * counts).sum(axis=1)[cell_node] - 2 * cr + sq
    valid = (n_left >= min_leaf) & (n_right >= min_leaf)
    valid[:-1] &= rank[1:] != rank[:-1]
    screened = np.where(
        valid, sizes[seg] - sq / n_left - right_sq / np.maximum(n_right, 1), np.inf
    )

    # With gamma_k = k u / (1 - k u), u = 2^-53, the rescored score lies
    # within n * gamma_{classes + 8} of the exact one and the screened score
    # within n * gamma_5; the bound adds three roundings for the comparison.
    bound = 2.0 * sizes * _gamma(n_classes + 16)
    first_col = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    edges = offsets[first_col].tolist() + [len(seg)]
    running = np.empty(len(seg))
    for a, b in zip(edges, edges[1:]):
        np.minimum.accumulate(screened[a:b], out=running[a:b])
    running[: edges[1]] = np.minimum(running[: edges[1]], carry)
    prior = np.empty(len(seg))
    prior[0] = carry
    prior[1:] = running[:-1]
    prior[edges[1:-1]] = np.inf
    kept = np.flatnonzero(valid & (screened <= prior + bound[seg]))

    # Class counts left of each kept threshold: the block's cumulative
    # counts at it, less those of the block's earlier columns.
    is_kept = np.bincount(kept, minlength=len(seg))
    before = np.cumsum(is_kept) - is_kept
    inside = before < len(kept)
    left = np.cumsum(
        np.bincount(
            before[inside] * n_classes + labels[inside], minlength=len(kept) * n_classes
        ).reshape(len(kept), n_classes),
        axis=0,
    ) - (np.cumsum(col_counts, axis=0) - col_counts)[seg[kept]]
    total = counts[cell_node[kept]]
    scores = (
        _gini(left.astype(np.float64)) * n_left[kept]
        + _gini((total - left).astype(np.float64)) * n_right[kept]
    )
    found = (cell_node[kept], cols[seg[kept]], scores, rows[kept], rows[kept + 1], rank[kept])
    return found, running[-1]


def _best_splits(feats, starts, counts, order, ranks, encoded, min_leaf):
    """Split of each node the scalar CART scan picks, over blocks of at most
    ``_SCAN_CELLS`` row cells: (node index, column, row at and after the
    threshold, value rank at it) for the nodes that split."""
    k, m = feats.shape
    cells = np.cumsum(np.repeat(counts.sum(axis=1), m))
    parts, carry, c0 = [], np.inf, 0
    while c0 < k * m:
        base = cells[c0 - 1] if c0 else 0
        c1 = max(c0 + 1, int(np.searchsorted(cells, base + _SCAN_CELLS, side="right")))
        found, running = _scan_block(
            np.arange(c0, c1), feats, starts, counts, order, ranks, encoded, min_leaf,
            carry if c0 % m else np.inf,
        )
        parts.append(found)
        carry, c0 = running, c1
    found = [np.concatenate(p) for p in zip(*parts)]
    if not found or not len(found[0]):
        return (np.zeros(0, dtype=np.int64),) * 5
    node, col, scores, row_lo, row_hi, rank_lo = found

    # The tie rule picks a node's first minimum unless an earlier kept score
    # lies within 1e-12 above it; those nodes run the rule itself.
    heads = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
    group = np.cumsum(np.r_[False, node[1:] != node[:-1]])
    low = np.minimum.reduceat(scores, heads)
    hits = np.flatnonzero(scores == low[group])
    pick = hits[np.r_[True, group[hits][1:] != group[hits][:-1]]]
    near = (scores - 1e-12 <= scores[pick][group]) & (np.arange(len(scores)) < pick[group])
    ends = np.r_[heads[1:], len(scores)]
    for g in np.unique(group[near]):
        pick[g] = heads[g] + _tie_chain(scores[heads[g] : ends[g]])

    sizes = counts.sum(axis=1)
    nodes = node[pick]
    split = ~(scores[pick] >= _gini(counts[nodes].astype(np.float64)) * sizes[nodes] - 1e-12)
    pick = pick[split]
    return node[pick], col[pick], row_lo[pick], row_hi[pick], rank_lo[pick]


@dataclass
class _Trees:
    """CART trees as flat node arrays; tree t's root is node t.

    An internal node sends a row left when its ``feature`` value is at most
    ``threshold`` and right otherwise. A leaf has feature -1 and scores
    ``probs``, its training class frequencies.
    """

    n_trees: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    probs: np.ndarray

    def leaves(self, x):
        """(trees, rows) leaf each row reaches in each tree; all rows descend
        all trees together, one level per pass."""
        node = np.repeat(np.arange(self.n_trees), len(x))
        row = np.tile(np.arange(len(x)), self.n_trees)
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            at = node[live]
            goes_left = x[row[live], self.feature[at]] <= self.threshold[at]
            node[live] = np.where(goes_left, self.left[at], self.right[at])
            live = live[self.feature[node[live]] >= 0]
        return node.reshape(self.n_trees, len(x))

    def scores(self, x):
        """Leaf class frequencies summed over the trees in index order, over
        the number of trees."""
        out = np.zeros((len(x), self.probs.shape[1]))
        for leaf in self.leaves(x):
            out += self.probs[leaf]
        return out / self.n_trees


def _grow_trees(x, samples, encoded, n_classes, max_depth, min_leaf, m_features=None, rngs=None):
    """Grow one CART per row of ``samples`` (its training rows of x, in
    order), all trees in lockstep; the result equals growing each tree by
    depth-first recursion.

    Where ``m_features < d``, every node that scans draws its sorted
    candidate features from its tree's generator in ``rngs``, so each step
    takes the next depth-first node of every tree and the draws keep their
    order. Otherwise every node scans all features and each step takes every
    open node.
    """
    n_trees, n = samples.shape
    d = x.shape[1]
    draws = m_features is not None and m_features < d
    ranks = _value_ranks(x)
    # tree t's rows are order[t * n : (t + 1) * n], each node's a range of them
    order = samples.ravel().copy()
    cap = 2 * n_trees
    start = np.zeros(cap, dtype=np.int64)
    depth = np.zeros(cap, dtype=np.int64)
    counts = np.zeros((cap, n_classes), dtype=np.int64)
    feature = np.full(cap, -1, dtype=np.int64)
    threshold = np.zeros(cap)
    left = np.full(cap, -1, dtype=np.int64)
    right = np.full(cap, -1, dtype=np.int64)

    def open_nodes(ids):
        """Which of the new nodes ids scan; the rest stay leaves."""
        c = counts[ids]
        return ~(
            (depth[ids] >= max_depth if max_depth is not None else False)
            | (c.sum(axis=1) < 2 * min_leaf)
            | (_gini(c.astype(np.float64)) == 0.0)
        )

    start[:n_trees] = np.arange(n_trees) * n
    counts[:n_trees] = np.bincount(
        (np.arange(n_trees)[:, None] * n_classes + encoded[samples]).ravel(),
        minlength=n_trees * n_classes,
    ).reshape(n_trees, n_classes)
    size = n_trees
    stacks = [[t] if scans else [] for t, scans in enumerate(open_nodes(np.arange(n_trees)))]

    while True:
        if draws:
            taken = [(t, stack.pop()) for t, stack in enumerate(stacks) if stack]
        else:
            taken = [(t, i) for t, stack in enumerate(stacks) for i in stack]
            stacks = [[] for _ in stacks]
        if not taken:
            break
        trees = np.array([t for t, _ in taken])
        ids = np.array([i for _, i in taken])
        if draws:
            feats = np.array(
                [np.sort(rngs[t].choice(d, size=m_features, replace=False)) for t, _ in taken]
            )
        else:
            feats = np.tile(np.arange(d), (len(ids), 1))
        at, col, row_lo, row_hi, rank_lo = _best_splits(
            feats, start[ids], counts[ids], order, ranks, encoded, min_leaf
        )
        if not len(at):
            continue

        parents = ids[at]
        f = feats.ravel()[col]
        lo, hi = x[row_lo, f], x[row_hi, f]
        with np.errstate(invalid="ignore", over="ignore"):
            midpoint = (lo + hi) / 2.0
        # A midpoint not below hi (lo and hi one ulp apart, an infinite sum
        # or a NaN hi) would not send the rows at hi right: split at lo.
        feature[parents] = f
        threshold[parents] = np.where(midpoint < hi, midpoint, lo)

        # stable partition of each parent's rows: left rows first, by value rank
        sizes = counts[parents].sum(axis=1)
        seg, _, offsets = _ranges(sizes)
        spots = (start[parents] - offsets)[seg] + np.arange(len(seg))
        rows = order[spots]
        goes_right = ranks.ravel()[f[seg] * ranks.shape[1] + rows] > rank_lo[seg]
        small = np.uint16 if 2 * len(parents) <= 1 << 16 else np.int64
        order[spots] = rows[np.argsort((2 * seg + goes_right).astype(small), kind="stable")]
        left_counts = np.bincount(
            (seg * n_classes + encoded[rows])[~goes_right], minlength=len(parents) * n_classes
        ).reshape(len(parents), n_classes)

        new = size + np.arange(2 * len(parents))
        size += len(new)
        if size > len(start):
            grow = max(size, 2 * len(start)) - len(start)
            start, depth, threshold = (np.pad(a, (0, grow)) for a in (start, depth, threshold))
            counts = np.pad(counts, ((0, grow), (0, 0)))
            feature, left, right = (
                np.pad(a, (0, grow), constant_values=-1) for a in (feature, left, right)
            )
        left[parents], right[parents] = new[::2], new[1::2]
        start[new[::2]] = start[parents]
        start[new[1::2]] = start[parents] + left_counts.sum(axis=1)
        depth[new] = np.repeat(depth[parents] + 1, 2)
        counts[new[::2]] = left_counts
        counts[new[1::2]] = counts[parents] - left_counts
        scans = open_nodes(new).reshape(-1, 2)
        for t, (l_id, r_id), (l_scans, r_scans) in zip(
            trees[at].tolist(), new.reshape(-1, 2).tolist(), scans.tolist()
        ):
            # right first, so that the left subtree is grown (and draws) first
            if r_scans:
                stacks[t].append(r_id)
            if l_scans:
                stacks[t].append(l_id)

    c = counts[:size]
    return _Trees(
        n_trees, feature[:size], threshold[:size], left[:size], right[:size],
        c / c.sum(axis=1, keepdims=True),
    )


def _check_tree_params(max_depth, min_leaf):
    if max_depth is not None:
        check_int("max_depth", max_depth, 0)
    check_int("min_leaf", min_leaf, 1)


class DecisionTree(_TimedFit):
    """Binary CART on Gini impurity with midpoint thresholds.

    When two adjacent values are one ulp apart and their midpoint rounds up,
    the lower value is the threshold, so both sides stay non-empty; so it is
    when the midpoint overflows or is NaN. NaN sorts above every number.

    Split ties go to the lower feature index then the lower threshold;
    ``max_depth=0`` yields a majority-class stump.
    """

    algorithm = "decision_tree"

    def __init__(self, max_depth: Optional[int] = None, min_leaf: int = 1):
        _check_tree_params(max_depth, min_leaf)
        self.max_depth = max_depth
        self.min_leaf = min_leaf

    def _fit(self, x, y):
        x, self.classes_, encoded = _prepare(x, y)
        self._trees = _grow_trees(
            x, np.arange(len(x))[None], encoded, len(self.classes_),
            self.max_depth, self.min_leaf,
        )

    def _scores(self, x):
        return self._trees.scores(x)


class RandomForest(_TimedFit):
    """Bootstrap-aggregated CARTs with per-split feature subsampling.

    ``feature_frac=None`` uses the sqrt(d) rule; prediction averages the tree
    class-frequency scores. With one tree, full features and no bootstrap the
    forest degenerates to :class:`DecisionTree`.
    """

    algorithm = "random_forest"

    def __init__(
        self,
        n_trees: int = 50,
        max_depth: Optional[int] = None,
        min_leaf: int = 1,
        feature_frac: Optional[float] = None,
        bootstrap: bool = True,
        seed: int = 0,
    ):
        check_int("n_trees", n_trees, 1)
        _check_tree_params(max_depth, min_leaf)
        if feature_frac is not None and not 0.0 < feature_frac <= 1.0:
            raise ConfigError("feature_frac must lie in (0, 1]")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.feature_frac = feature_frac
        self.bootstrap = bootstrap
        self.seed = seed

    def _fit(self, x, y):
        x, self.classes_, encoded = _prepare(x, y)
        n, d = x.shape
        if self.feature_frac is None:
            m = max(1, int(round(np.sqrt(d))))
        else:
            m = max(1, int(round(self.feature_frac * d)))
        master = np.random.default_rng(self.seed)
        tree_seeds = master.integers(0, 2**31, size=self.n_trees)
        rngs = [np.random.default_rng(int(s)) for s in tree_seeds]
        samples = np.array(
            [rng.integers(0, n, size=n) if self.bootstrap else np.arange(n) for rng in rngs]
        )
        self._trees = _grow_trees(
            x, samples, encoded, len(self.classes_), self.max_depth, self.min_leaf,
            m if m < d else None, rngs,
        )

    def _scores(self, x):
        return self._trees.scores(x)


CLASSIFIERS = {
    "knn": KNNClassifier,
    "logistic_regression": LogisticRegression,
    "gaussian_nb": GaussianNB,
    "linear_svm": LinearSVM,
    "decision_tree": DecisionTree,
    "random_forest": RandomForest,
}

DEFAULT_GRIDS = {
    "knn": ({"k_votes": 1}, {"k_votes": 5}, {"k_votes": 15}),
    "logistic_regression": ({"l2": 1e-3}, {"l2": 1e-1}),
    "gaussian_nb": ({},),
    "linear_svm": ({"C": 0.1}, {"C": 1.0}, {"C": 10.0}),
    "decision_tree": ({"max_depth": 8}, {"max_depth": 16}, {"max_depth": None}),
    "random_forest": ({"n_trees": 30, "max_depth": 8}, {"n_trees": 30, "max_depth": None}),
}

METRIC_FIELDS = (
    "accuracy",
    "precision_weighted",
    "recall_weighted",
    "f1_weighted",
    "f1_macro",
    "roc_auc_ovr",
    "train_time_sec",
)


def _classifier_class(name: str):
    if name not in CLASSIFIERS:
        raise ConfigError(f"unknown classifier {name!r}")
    return CLASSIFIERS[name]


def make_classifier(name: str, **params):
    return _classifier_class(name)(**params)


@dataclass
class ExperimentResult:
    """Mean and std of every metric per (embedding method, classifier) cell."""

    methods: tuple[str, ...]
    classifiers: tuple[str, ...]
    seeds: tuple[int, ...]
    reports: dict = field(default_factory=dict)  # (method, clf) -> [ClassificationReport]

    def metric_values(self, method, classifier, metric) -> np.ndarray:
        reports = self.reports[(method, classifier)]
        return np.array([getattr(r, metric) for r in reports])

    def mean_rows(self) -> list[dict]:
        return self._rows(np.mean)

    def std_rows(self) -> list[dict]:
        return self._rows(np.std)

    def _rows(self, reducer) -> list[dict]:
        rows = []
        for method in self.methods:
            for clf in self.classifiers:
                row = {"embedding": method, "classifier": clf}
                for metric in METRIC_FIELDS:
                    row[metric] = float(reducer(self.metric_values(method, clf, metric)))
                rows.append(row)
        return rows


def save_result_csv(rows: Sequence[dict], path) -> None:
    columns = ["embedding", "classifier", *METRIC_FIELDS]
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            values = [row[col] for col in columns]
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in values) + "\n")


def _with_context(exc: Exception, context: str) -> Exception:
    """exc's message prefixed with context, as exc's type or, where that
    constructor does not take one message, the nearest base class whose does
    (``Exception`` itself always does). An ``except`` clause for that class
    or a base of it, and the CLI exit code, still catch the result; one for
    exc's own type does not after such a fallback, e.g. ``except
    UnicodeDecodeError`` misses the ``UnicodeError`` it becomes."""
    for cls in type(exc).__mro__:
        try:
            return cls(f"{context} {exc}")
        except TypeError:
            continue


def run_cell(x, labels, seed, classifier, grid, test_fraction, num_folds) -> ClassificationReport:
    """One protocol cell: the seeded stratified split of ``labels`` (an array),
    grid selection by mean CV accuracy over the folds (the classifier's
    ``cv_accuracies``; the first best entry wins), a refit on the whole
    training part and its report on the held-out part. It reads only its
    arguments and mutates nothing, so cells can run in any order or process.
    """
    cls = _classifier_class(classifier)
    plan = split_indices(labels, test_fraction, num_folds, seed)
    train, test = np.asarray(plan.train_indices, np.intp), np.asarray(plan.test_indices, np.intp)
    params = grid[0]
    if len(grid) > 1:
        folds = [(np.asarray(fit, np.intp), np.asarray(val, np.intp)) for fit, val in plan.folds]
        params = grid[int(np.argmax(cls.cv_accuracies(grid, x, labels, folds)))]
    model = cls(**params)
    scores, pred = _fit_and_score(model, x, labels, train, test)
    # a class the training part lacks still gets its score column, all zero
    y_test = labels[test]
    classes = sorted(set(y_test.tolist()) | set(model.classes_.tolist()))
    full = np.zeros((len(test), len(classes)))
    full[:, [classes.index(c) for c in model.classes_.tolist()]] = scores
    return classification_report(
        y_test, pred, scores=full, classes=classes, train_time_sec=model.train_time_sec
    )


def run_experiment(
    embeddings: dict,
    labels: Sequence,
    seeds: Sequence[int],
    classifiers: Optional[Sequence[str]] = None,
    grids: Optional[dict] = None,
    test_fraction: float = 0.3,
    num_folds: int = 5,
) -> ExperimentResult:
    """:func:`run_cell` for every (seed, method, classifier) in that order;
    ``reports[(method, classifier)]`` holds one report per seed, in seed order.

    ``embeddings`` maps method name to an EmbeddingMatrix (or array) row-aligned
    with ``labels``. Returns per-cell reports ready for mean/std tables.
    """
    labels = np.asarray(labels)
    classifiers = tuple(classifiers) if classifiers else tuple(CLASSIFIERS)
    grids = dict(DEFAULT_GRIDS, **(grids or {}))
    result = ExperimentResult(tuple(embeddings), classifiers, tuple(int(s) for s in seeds))
    if not result.seeds:
        raise ConfigError("seeds must name at least one seed")
    for i, name in enumerate(classifiers):
        if name not in CLASSIFIERS:
            raise ConfigError(f"unknown classifier {name!r}")
        if name in classifiers[:i]:
            raise ConfigError(f"classifier {name!r} named twice")
        if not grids[name]:
            raise ConfigError(f"classifier {name!r} has an empty grid")
        # a bad entry fails here, before any fit, not as a -inf CV score
        for params in grids[name]:
            try:
                CLASSIFIERS[name](**params)
            except (ConfigError, TypeError) as exc:
                raise ConfigError(f"classifier {name!r} grid entry {params!r}: {exc}") from exc
    matrices = {}
    for method, emb in embeddings.items():
        x = emb.vectors if hasattr(emb, "vectors") else np.asarray(emb, dtype=np.float64)
        if len(x) != len(labels):
            raise ConfigError(f"embedding {method!r} has {len(x)} rows for {len(labels)} labels")
        matrices[method] = x
    # the split's checks depend on the labels and sizes only, not on a cell
    split_indices(labels, test_fraction, num_folds, result.seeds[0])
    for seed, method, name in itertools.product(result.seeds, result.methods, classifiers):
        try:
            report = run_cell(
                matrices[method], labels, seed, name, grids[name], test_fraction, num_folds
            )
        except Exception as exc:
            raise _with_context(exc, f"[method={method} classifier={name} seed={seed}]") from exc
        result.reports.setdefault((method, name), []).append(report)
    return result
