"""Six classifiers over node embeddings plus the seeded experiment protocol.

Every classifier follows the same surface: ``fit(X, y)`` returning self,
``predict(X)`` and ``predict_scores(X)`` (one column per class in sorted
class order). Vote and argmax ties always resolve to the smallest class id,
and every model records its training wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cluster import _log_gaussian_diag
from .distances import _dense, _rows, k_nearest
from .errors import ConfigError
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


class _TimedFit:
    """Mixin recording fit wall time in ``train_time_sec``; ``predict_scores``
    hands ``_scores`` a float64 2-D array, a 1-D query being one row."""

    train_time_sec: float = 0.0

    def fit(self, x, y):
        t0 = time.perf_counter()
        self._fit(x, y)
        self.train_time_sec = time.perf_counter() - t0
        return self

    def predict_scores(self, x):
        return self._scores(np.atleast_2d(np.asarray(x, dtype=np.float64)))

    def predict(self, x):
        scores = self.predict_scores(x)
        return self.classes_[np.argmax(scores, axis=1)]


class KNNClassifier(_TimedFit):
    """Majority vote among the k nearest training rows (Euclidean).

    Scores are vote fractions; distance ties prefer the lower training index
    and vote ties the smaller class id.
    """

    algorithm = "knn"

    def __init__(self, k_votes: int = 5):
        if k_votes < 1:
            raise ConfigError("k_votes must be >= 1")
        self.k_votes = k_votes

    def _fit(self, x, y):
        self._x, self.classes_, self._y = _prepare(x, y)
        if self.k_votes > len(self._x):
            raise ConfigError(
                f"k_votes={self.k_votes} exceeds training size {len(self._x)}"
            )

    def _scores(self, x):
        votes = self._y[k_nearest(self._x, self.k_votes, queries=x)]
        scores = np.zeros((len(x), len(self.classes_)))
        for c in range(len(self.classes_)):
            scores[:, c] = (votes == c).sum(axis=1)
        return scores / self.k_votes


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
        self.var_smoothing = var_smoothing

    def _fit(self, x, y):
        x, self.classes_, encoded = _prepare(x, y)
        k, d = len(self.classes_), x.shape[1]
        eps = max(self.var_smoothing * float(x.var(axis=0).max()), 1e-12)
        self._means = np.empty((k, d))
        self._vars = np.empty((k, d))
        self._priors = np.empty(k)
        for c in range(k):
            members = x[encoded == c]
            self._means[c] = members.mean(axis=0)
            self._vars[c] = members.var(axis=0) + eps
            self._priors[c] = len(members) / len(x)

    def _scores(self, x):
        log_post = _log_gaussian_diag(x, self._means, self._vars, self._priors)
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post / post.sum(axis=1, keepdims=True)


def hinge_loss_and_grad(w, x, y_signed, lam):
    """Pegasos objective lam/2 ||w||^2 + mean hinge, with its subgradient."""
    margins = y_signed * (x @ w)
    violating = margins < 1.0
    loss = 0.5 * lam * float(w @ w) + float(np.maximum(0.0, 1.0 - margins).mean())
    grad = lam * w - (y_signed[violating, None] * x[violating]).sum(axis=0) / len(x)
    return loss, grad


class LinearSVM(_TimedFit):
    """One-vs-rest hinge loss trained with the Pegasos step schedule.

    The regularization weight is 1 / (C n); a constant feature carries the
    bias. Scores are signed margins.
    """

    algorithm = "linear_svm"

    def __init__(self, C: float = 1.0, epochs: int = 20, seed: int = 0):
        if C <= 0:
            raise ConfigError("C must be positive")
        self.C = C
        self.epochs = epochs
        self.seed = seed

    def _fit(self, x, y):
        x, self.classes_, encoded = _prepare(x, y)
        if len(self.classes_) < 2:
            raise ConfigError("need at least 2 classes")
        xa = np.hstack([x, np.ones((len(x), 1))])
        n, d = xa.shape
        lam = 1.0 / (self.C * n)
        k = len(self.classes_)
        rng = np.random.default_rng(self.seed)
        # Each class visits the rows in its own per-epoch permutations, drawn
        # class by class as if the classes were trained one after another;
        # all k one-vs-rest weight vectors then advance in lockstep.
        visits = np.array(
            [rng.permutation(n) for _ in range(k * self.epochs)], dtype=np.intp
        ).reshape(k, self.epochs * n)
        signs = np.where(encoded[visits] == np.arange(k)[:, None], 1.0, -1.0)
        w = np.zeros((k, d))
        for t, (rows, s) in enumerate(zip(visits.T, signs.T), start=1):
            xt = xa[rows]
            eta = 1.0 / (lam * t)
            # batched row @ column products are the same dot as ``w[c] @ xt[c]``
            violated = s * np.matmul(w[:, None, :], xt[:, :, None])[:, 0, 0] < 1.0
            w *= 1.0 - eta * lam
            np.add(w, (eta * s)[:, None] * xt, out=w, where=violated[:, None])
        self._w = w

    def _scores(self, x):
        xa = np.hstack([x, np.ones((len(x), 1))])
        return xa @ self._w.T


# Class-count cells in one block of the CART split scan. It keeps each float64
# temporary of the scan to 8 MB unless a single feature needs more.
_SCAN_CELLS = 1 << 20


def _gini(counts):
    """Gini impurity of each row of a ``(..., classes)`` array of class counts."""
    frac = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - (frac * frac).sum(axis=-1)


@dataclass
class _Leaf:
    probs: np.ndarray


@dataclass
class _Split:
    feature: int
    threshold: float
    left: object
    right: object


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


class DecisionTree(_TimedFit):
    """Binary CART on Gini impurity with midpoint thresholds.

    When two adjacent values are one ulp apart and their midpoint rounds up,
    the lower value is the threshold, so both sides stay non-empty.

    Split ties go to the lower feature index then the lower threshold;
    ``max_depth=0`` yields a majority-class stump.
    """

    algorithm = "decision_tree"

    def __init__(self, max_depth: Optional[int] = None, min_leaf: int = 1):
        if min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf

    def _fit(self, x, y):
        x, self.classes_, encoded = _prepare(x, y)
        self._root = _grow_tree(
            x, encoded, len(self.classes_), 0, self.max_depth, self.min_leaf, None, None
        )

    def _scores(self, x):
        out = np.zeros((len(x), len(self.classes_)))
        _tree_scores(self._root, x, out, np.arange(len(x)))
        return out


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
        if n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
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
            if not 0.0 < self.feature_frac <= 1.0:
                raise ConfigError("feature_frac must lie in (0, 1]")
            m = max(1, int(round(self.feature_frac * d)))
        master = np.random.default_rng(self.seed)
        tree_seeds = master.integers(0, 2**31, size=self.n_trees)
        self._trees = []
        for s in tree_seeds:
            rng = np.random.default_rng(int(s))
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            self._trees.append(
                _grow_tree(
                    x[idx], encoded[idx], len(self.classes_), 0,
                    self.max_depth, self.min_leaf, m if m < d else None, rng,
                )
            )

    def _scores(self, x):
        out = np.zeros((len(x), len(self.classes_)))
        scratch = np.zeros_like(out)
        for tree in self._trees:
            scratch[:] = 0.0
            _tree_scores(tree, x, scratch, np.arange(len(x)))
            out += scratch
        return out / self.n_trees


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


def make_classifier(name: str, **params):
    if name not in CLASSIFIERS:
        raise ConfigError(f"unknown classifier {name!r}")
    return CLASSIFIERS[name](**params)


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


def _cv_accuracy(name, params, x, y, folds):
    """Mean validation accuracy; -inf for params infeasible on these folds."""
    scores = []
    for train_idx, val_idx in folds:
        try:
            model = make_classifier(name, **params).fit(
                x[list(train_idx)], y[list(train_idx)]
            )
        except ConfigError:
            return float("-inf")
        pred = model.predict(x[list(val_idx)])
        scores.append(float((pred == y[list(val_idx)]).mean()))
    return float(np.mean(scores))


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


def run_experiment(
    embeddings: dict,
    labels: Sequence,
    seeds: Sequence[int],
    classifiers: Optional[Sequence[str]] = None,
    grids: Optional[dict] = None,
    test_fraction: float = 0.3,
    num_folds: int = 5,
) -> ExperimentResult:
    """Per seed: stratified split, grid selection by mean CV accuracy over the
    folds, refit on the full training part, evaluation on the held-out part.

    ``embeddings`` maps method name to an EmbeddingMatrix (or array) row-aligned
    with ``labels``. Returns per-cell reports ready for mean/std tables.
    """
    labels = np.asarray(labels)
    classifiers = tuple(classifiers) if classifiers else tuple(CLASSIFIERS)
    grids = dict(DEFAULT_GRIDS, **(grids or {}))
    methods = tuple(embeddings)
    matrices = {}
    for method, emb in embeddings.items():
        x = emb.vectors if hasattr(emb, "vectors") else np.asarray(emb, dtype=np.float64)
        if len(x) != len(labels):
            raise ConfigError(f"embedding {method!r} has {len(x)} rows for {len(labels)} labels")
        matrices[method] = x

    result = ExperimentResult(methods, classifiers, tuple(int(s) for s in seeds))
    for seed in result.seeds:
        plan = split_indices(labels, test_fraction, num_folds, seed)
        train_idx = list(plan.train_indices)
        test_idx = list(plan.test_indices)
        y_train, y_test = labels[train_idx], labels[test_idx]
        for method in methods:
            x = matrices[method]
            x_train, x_test = x[train_idx], x[test_idx]
            for name in classifiers:
                try:
                    grid = grids.get(name, ({},))
                    if len(grid) > 1:
                        cv_scores = [
                            _cv_accuracy(name, params, x, labels, plan.folds)
                            for params in grid
                        ]
                        params = grid[int(np.argmax(cv_scores))]
                    else:
                        params = grid[0]
                    model = make_classifier(name, **params).fit(x_train, y_train)
                    pred = model.predict(x_test)
                    scores = model.predict_scores(x_test)
                    report = _score_report(
                        y_test, pred, scores, model.classes_, model.train_time_sec
                    )
                except Exception as exc:
                    where = f"[method={method} classifier={name} seed={seed}]"
                    raise _with_context(exc, where) from exc
                result.reports.setdefault((method, name), []).append(report)
    return result


def _score_report(y_true, y_pred, scores, model_classes, train_time) -> ClassificationReport:
    """Expand model scores to the full class set seen in y_true before reporting."""
    classes = sorted(set(np.asarray(y_true).tolist()) | set(np.asarray(model_classes).tolist()))
    if len(classes) != len(model_classes):
        expanded = np.zeros((len(scores), len(classes)))
        col = {c: i for i, c in enumerate(classes)}
        for j, c in enumerate(np.asarray(model_classes).tolist()):
            expanded[:, col[c]] = scores[:, j]
        scores = expanded
    return classification_report(
        y_true, y_pred, scores=scores, classes=classes, train_time_sec=train_time
    )
