import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import classify_reference
import numpy as np
import pytest
from classify_reference import (
    GaussianNBReference,
    LinearSVMReference,
    LogisticRegressionReference,
    _Leaf,
    _Split,
    _grow_tree,
    _tree_scores,
    cv_accuracy_reference,
    grow_tree_reference,
    hinge_loss_and_grad,
    pegasos_reference,
    softmax_loss_and_grad_reference,
)
from conftest import finite_difference, relative_error
from hypothesis import example, given, settings, strategies as st

from seqnet import classify
from seqnet.classify import (
    DEFAULT_GRIDS,
    DecisionTree,
    GaussianNB,
    KNNClassifier,
    LinearSVM,
    LogisticRegression,
    RandomForest,
    make_classifier,
    run_experiment,
    save_result_csv,
    softmax_loss_and_grad,
    METRIC_FIELDS,
)
from seqnet.errors import ConfigError
from seqnet.seqio import split_indices

# a divide-by-zero or invalid-value warning, e.g. from a one-sided or tied
# threshold of the split scan, is a failure
pytestmark = pytest.mark.filterwarnings("error")


def two_blob_data(rng, per=30, dim=3, sep=8.0):
    x = np.vstack(
        [rng.normal(0, 1.0, (per, dim)), rng.normal(sep, 1.0, (per, dim))]
    )
    y = np.array(["a"] * per + ["b"] * per)
    return x, y


def knn_oracle(train_x, train_y, query, k):
    """Exhaustive search, fully independent of the module under test."""
    ranked = sorted(
        (float(np.linalg.norm(query - tx)), i) for i, tx in enumerate(train_x)
    )
    votes = {}
    for _, i in ranked[:k]:
        votes[train_y[i]] = votes.get(train_y[i], 0) + 1
    top = max(votes.values())
    return min(c for c, v in votes.items() if v == top)


class TestKnn:
    def test_one_neighbor_recovers_training_point(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        y = np.array([0, 1, 2])
        model = KNNClassifier(k_votes=1).fit(x, y)
        assert model.predict(x).tolist() == [0, 1, 2]

    def test_vote_fraction_scores(self):
        x = np.array([[0.0], [0.2], [0.4], [10.0]])
        y = np.array(["A", "A", "B", "B"])
        model = KNNClassifier(k_votes=3).fit(x, y)
        scores = model.predict_scores(np.array([[0.1]]))
        assert scores[0].tolist() == [2 / 3, 1 / 3]
        assert model.predict(np.array([[0.1]]))[0] == "A"

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        train_x = rng.normal(size=(60, 4))
        train_y = rng.integers(0, 3, size=60)
        queries = rng.normal(size=(40, 4))
        for k in (1, 3, 7):
            model = KNNClassifier(k_votes=k).fit(train_x, train_y)
            pred = model.predict(queries)
            for i, q in enumerate(queries):
                assert pred[i] == knn_oracle(train_x, train_y, q, k)

    def test_vote_tie_prefers_smaller_class(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([5, 2])
        model = KNNClassifier(k_votes=2).fit(x, y)
        assert model.predict(np.array([[0.5]]))[0] == 2

    def test_empty_training_set(self):
        with pytest.raises(ConfigError):
            KNNClassifier(1).fit(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_vote_fractions_equal_per_class_counts(self, k):
        rng = np.random.default_rng(k)
        model = KNNClassifier(k).fit(rng.normal(size=(30, 2)), rng.integers(0, 5, 30))
        votes = rng.integers(0, 5, size=(40, k))
        expected = np.zeros((40, 5))
        for c in range(5):
            expected[:, c] = (votes == c).sum(axis=1)
        assert np.array_equal(model._vote_fractions(votes), expected / k)


class TestLogisticRegression:
    def test_uniform_probabilities_at_zero_weights(self):
        # epochs must be >= 1, so the fitted weights are zeroed by hand
        model = LogisticRegression(epochs=1)
        x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        model.fit(x, np.array([0, 1, 2]))
        model._w[:] = 0.0
        model._b[:] = 0.0
        scores = model.predict_scores(x)
        assert np.allclose(scores, 1.0 / 3.0)

    def test_separable_data_fits_perfectly(self):
        rng = np.random.default_rng(1)
        x, y = two_blob_data(rng)
        model = LogisticRegression(l2=1e-4, lr=0.5, epochs=300).fit(x, y)
        assert (model.predict(x) == y).mean() == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 3))
        encoded = rng.integers(0, 3, size=12)
        worst = 0.0
        for _ in range(10):
            w = rng.normal(size=(3, 3))
            b = rng.normal(size=3)
            _, gw, gb = softmax_loss_and_grad(w, b, x, encoded, l2=0.01)
            fd_w = finite_difference(
                lambda z: softmax_loss_and_grad(z, b, x, encoded, 0.01)[0], w
            )
            fd_b = finite_difference(
                lambda z: softmax_loss_and_grad(w, z, x, encoded, 0.01)[0], b
            )
            worst = max(worst, relative_error(gw, fd_w), relative_error(gb, fd_b))
        assert worst < 1e-4

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            LogisticRegression().fit(np.zeros((4, 2)), np.zeros(4))

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(3)
        x, y = two_blob_data(rng)
        model = LogisticRegression(epochs=50).fit(x, y)
        assert np.allclose(model.predict_scores(x).sum(axis=1), 1.0, atol=1e-9)


class TestGaussianNB:
    def test_symmetric_midpoint_tie_break(self):
        x = np.array([[0.0, 0.0], [10.0, 10.0]])
        y = np.array([1, 3])
        model = GaussianNB().fit(x, y)
        assert model.predict(np.array([[5.0, 5.0]]))[0] == 1

    def test_singleton_class_no_nan(self):
        x = np.array([[0.0, 1.0], [4.0, 5.0], [4.1, 5.2]])
        y = np.array([0, 1, 1])
        model = GaussianNB().fit(x, y)
        scores = model.predict_scores(x)
        assert np.isfinite(scores).all()

    def test_hand_computed_posterior(self):
        # two classes, one feature, unit empirical setup kept tiny by hand:
        # class 0 at {0, 2} (mean 1, var 1), class 1 at {8, 10} (mean 9, var 1)
        x = np.array([[0.0], [2.0], [8.0], [10.0]])
        y = np.array([0, 0, 1, 1])
        model = GaussianNB(var_smoothing=0.0).fit(x, y)
        query = np.array([[3.0]])
        # log N(3; 1, 1) vs log N(3; 9, 1): diff = (36 - 4) / 2 = 16
        expected_ratio = np.exp(-0.5 * (3 - 1) ** 2) / (
            np.exp(-0.5 * (3 - 1) ** 2) + np.exp(-0.5 * (3 - 9) ** 2)
        )
        scores = model.predict_scores(query)
        assert scores[0, 0] == pytest.approx(expected_ratio, rel=1e-9)

    def test_priors_from_frequencies(self):
        x = np.array([[0.0], [0.1], [0.2], [9.0]])
        y = np.array([0, 0, 0, 1])
        model = GaussianNB().fit(x, y)
        assert model._priors.tolist() == pytest.approx([0.75, 0.25])


@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-9, 1e-3]), st.sampled_from([1.0, 1e-3, 1e6]))
@settings(max_examples=100, deadline=None)
def test_gaussian_nb_matches_per_class_members(dim, n_classes, seed, smoothing, scale):
    """Means, variances, priors and scores keep the bits of each class's
    own members.mean/var(axis=0), at d = 1 too (one column sums pairwise)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_classes, 60))
    y = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, n - n_classes)])
    x = rng.normal(size=(n, dim)) * scale + rng.normal(size=dim) * 10 * scale
    got = GaussianNB(var_smoothing=smoothing).fit(x, y)
    want = GaussianNBReference(var_smoothing=smoothing).fit(x, y)
    for attr in ("_means", "_vars", "_priors"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
    assert np.array_equal(got.predict_scores(x), want.predict_scores(x))


@given(st.integers(1, 4), st.integers(2, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 1.0, 1e3]), st.sampled_from([0.0, 1e-2]))
@settings(max_examples=60, deadline=None)
def test_softmax_matches_written_out_reference(dim, n_classes, seed, scale, l2):
    """Logistic regression's fitted weights, its loss and gradient, and the
    scores of it and Gaussian NB keep the bits of their own written-out
    max-subtract, exp and normalise; large scales push exp to 0 for a class."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_classes, 40))
    y = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, n - n_classes)])
    x = rng.normal(size=(n, dim)) * scale + rng.normal(size=dim) * scale
    queries = rng.normal(size=(7, dim)) * scale
    got = LogisticRegression(l2=l2, lr=0.5, epochs=15).fit(x, y)
    want = LogisticRegressionReference(l2=l2, lr=0.5, epochs=15).fit(x, y)
    assert np.array_equal(got._w, want._w) and np.array_equal(got._b, want._b)
    for rows in (x, queries):
        assert np.array_equal(got.predict_scores(rows), want.predict_scores(rows))
    encoded = np.unique(y, return_inverse=True)[1]
    loss, grad_w, grad_b = softmax_loss_and_grad(got._w, got._b, x, encoded, l2)
    ref_loss, ref_w, ref_b = softmax_loss_and_grad_reference(want._w, want._b, x, encoded, l2)
    assert loss == ref_loss and np.array_equal(grad_w, ref_w) and np.array_equal(grad_b, ref_b)
    got, want = GaussianNB().fit(x, y), GaussianNBReference().fit(x, y)
    for rows in (x, queries):
        assert np.array_equal(got.predict_scores(rows), want.predict_scores(rows))


class TestLinearSVM:
    def test_separable_one_dimensional(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = LinearSVM(C=10.0, epochs=100, seed=0).fit(x, y)
        assert model.predict(x).tolist() == [0, 0, 1, 1]
        margins = model.predict_scores(x)
        assert (margins[:2, 0] > margins[:2, 1]).all()

    def test_hinge_gradient_away_from_kink(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 3))
        y_signed = np.where(rng.random(15) < 0.5, -1.0, 1.0)
        worst = 0.0
        trials = 0
        while trials < 10:
            w = rng.normal(size=3)
            margins = y_signed * (x @ w)
            if np.abs(margins - 1.0).min() < 1e-3:
                continue  # too close to the hinge for finite differences
            trials += 1
            _, grad = hinge_loss_and_grad(w, x, y_signed, lam=0.1)
            fd = finite_difference(lambda z: hinge_loss_and_grad(z, x, y_signed, 0.1)[0], w)
            worst = max(worst, relative_error(grad, fd))
        assert worst < 1e-4

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x, y = two_blob_data(rng)
        a = LinearSVM(seed=3).fit(x, y)
        b = LinearSVM(seed=3).fit(x, y)
        assert np.array_equal(a._w, b._w)

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            LinearSVM().fit(np.zeros((4, 2)), np.zeros(4))

    @pytest.mark.parametrize("n_classes", [2, 3, 7])
    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("dim", [4, 16])
    def test_weights_equal_per_class_reference(self, n_classes, C, dim):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(35, dim))
        encoded = rng.permutation(np.arange(35) % n_classes)
        model = LinearSVM(C=C, epochs=4, seed=5).fit(x, encoded)
        expected = pegasos_reference(x, encoded, n_classes, C, 4, 5)
        assert np.array_equal(model._w, expected)

    def test_lockstep_jobs_equal_their_own_fits(self):
        # jobs of different sizes, class counts, epochs and seeds; they stop
        # after 740, 580, 533 and 96 steps, in the first and second span
        rng = np.random.default_rng(23)
        x = rng.normal(size=(60, 5))
        labels = rng.permutation(np.arange(60) % 4)
        subsets = [np.arange(37), np.arange(20, 49), rng.permutation(60)[:41],
                   np.flatnonzero(labels < 2)[:24]]
        params = [(1.0, 20, 0), (0.3, 20, 9), (10.0, 13, 2), (2.0, 4, 5)]
        jobs = [(rows, 1.0 / (C * len(rows)), epochs, seed)
                for rows, (C, epochs, seed) in zip(subsets, params)]
        xa = np.hstack([x, np.ones((len(x), 1))])
        fitted = classify._pegasos(xa, labels, jobs)
        for rows, (C, epochs, seed), (codes, w) in zip(subsets, params, fitted):
            classes, encoded = np.unique(labels[rows], return_inverse=True)
            assert np.array_equal(codes, classes)
            assert np.array_equal(w, pegasos_reference(x[rows], encoded, len(classes), C, epochs, seed))
            alone = LinearSVMReference(C=C, epochs=epochs, seed=seed).fit(x[rows], labels[rows])
            assert np.array_equal(w, alone._w)


@st.composite
def tree_cases(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 4))
    # a handful of distinct values per case makes tied feature values common
    pool = draw(st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=6))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    return dict(
        x=np.array(cells).reshape(n, d),
        encoded=np.array(labels),
        n_classes=n_classes,
        max_depth=draw(st.none() | st.integers(0, 5)),
        min_leaf=draw(st.integers(1, 4)),
        m_features=draw(st.none() | st.integers(1, d)),
        seed=draw(st.integers(0, 2**32 - 1)),
        scan_cells=draw(st.sampled_from([1, 64, classify._SCAN_CELLS])),
    )


def nested(trees, node):
    """The flat tree below ``node`` as the reference's linked nodes."""
    if trees.feature[node] < 0:
        return _Leaf(trees.probs[node])
    return _Split(
        int(trees.feature[node]), float(trees.threshold[node]),
        nested(trees, trees.left[node]), nested(trees, trees.right[node]),
    )


def assert_same_tree(got, expected):
    if isinstance(expected, _Leaf):
        assert isinstance(got, _Leaf)
        assert np.array_equal(got.probs, expected.probs)
        return
    assert isinstance(got, _Split)
    assert (got.feature, got.threshold) == (expected.feature, expected.threshold)
    assert_same_tree(got.left, expected.left)
    assert_same_tree(got.right, expected.right)


@settings(max_examples=300, deadline=None)
@given(tree_cases())
def test_grow_tree_equals_scalar_reference(case):
    args = (
        case["x"], case["encoded"], case["n_classes"], 0,
        case["max_depth"], case["min_leaf"], case["m_features"],
    )
    expected = grow_tree_reference(*args, np.random.default_rng(case["seed"]))
    # small scan blocks split the features of a node across several blocks
    with mock.patch.object(classify, "_SCAN_CELLS", case["scan_cells"]):
        trees = classify._grow_trees(
            case["x"], np.arange(len(case["x"]))[None], case["encoded"], case["n_classes"],
            case["max_depth"], case["min_leaf"], case["m_features"],
            [np.random.default_rng(case["seed"])],
        )
    assert_same_tree(nested(trees, 0), expected)
    # the recursive one-hot scan the lockstep grower replaced
    with mock.patch.object(classify_reference, "_SCAN_CELLS", case["scan_cells"]):
        assert_same_tree(_grow_tree(*args, np.random.default_rng(case["seed"])), expected)


@st.composite
def scan_cases(draw):
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 4) | st.integers(20, 30))
    pool = draw(st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=8))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    return dict(
        x=np.array(cells).reshape(n, d),
        encoded=np.array(labels),
        n_classes=n_classes,
        min_leaf=draw(st.integers(1, 3)),
        block_end=draw(st.integers(0, d)),
    )


@settings(max_examples=100, deadline=None)
@given(scan_cases())
# in each, a threshold whose exact score ties an earlier one's rescores one
# rounding lower, while its screened score ties (first) or exceeds (second)
@example(dict(
    x=np.array([[1.0], [0.0], [0.0], [0.0], [2.0], [1.0]]),
    encoded=np.array([5, 1, 0, 3, 0, 8]), n_classes=9, min_leaf=1, block_end=1,
))
@example(dict(
    x=np.array([[0.0], [3.0], [1.0], [1.0], [2.0], [0.0], [1.0], [3.0]]),
    encoded=np.array([1, 1, 0, 1, 1, 1, 1, 0]), n_classes=2, min_leaf=1, block_end=0,
))
def test_screen_keeps_every_strict_prefix_minimum(case):
    """The tie rule can pick only a threshold scoring strictly below every
    earlier one of its node; the screen must keep all of those, also when a
    node's features span two blocks."""
    x, encoded, n_classes, min_leaf = (
        case["x"], case["encoded"], case["n_classes"], case["min_leaf"]
    )
    n, d = x.shape
    counts = np.bincount(encoded, minlength=n_classes)[None]
    args = (
        np.arange(d)[None], np.zeros(1, dtype=np.int64), counts, np.arange(n),
        classify._value_ranks(x), encoded, min_leaf,
    )
    kept, carry = set(), np.inf
    for cols in np.split(np.arange(d), [case["block_end"]]):
        if len(cols):
            found, carry = classify._scan_block(cols, *args, carry)
            kept |= set(zip(found[1].tolist(), found[3].tolist()))
    # every threshold scored as the recursive one-hot scan scores it
    n_left = np.arange(1, n)
    lowest = np.inf
    for f in range(d):
        order = np.argsort(x[:, f], kind="stable")
        left = np.cumsum(np.eye(n_classes)[encoded[order[:-1]]], axis=0)
        scores = (
            classify._gini(left) * n_left + classify._gini(counts[0] - left) * (n - n_left)
        )
        feasible = (
            (n_left >= min_leaf) & (n - n_left >= min_leaf)
            & (x[order[1:], f] != x[order[:-1], f])
        )
        for i in np.flatnonzero(feasible):
            if scores[i] < lowest:
                assert (f, int(order[i])) in kept
            lowest = min(lowest, scores[i])


@st.composite
def forest_cases(draw):
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 5))
    # many classes over few rows make equal exact split scores common, whose
    # screened scores then differ by less than the rounding bound
    n_classes = draw(st.integers(1, 4) | st.integers(20, 30))
    pool = draw(st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=8))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    return dict(
        x=np.array(cells).reshape(n, d),
        y=np.array(labels),
        n_trees=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**31 - 1)),
        feature_frac=draw(st.none() | st.sampled_from([0.2, 0.5, 1.0])),
        max_depth=draw(st.none() | st.integers(0, 6)),
        min_leaf=draw(st.integers(1, 3)),
        scan_cells=draw(st.sampled_from([1, 64])),
    )


@settings(max_examples=30, deadline=None)
@given(forest_cases())
def test_forest_equals_scalar_reference_per_tree(case):
    x, n_trees = case["x"], case["n_trees"]
    params = {k: case[k] for k in ("n_trees", "seed", "feature_frac", "max_depth", "min_leaf")}
    with mock.patch.object(classify, "_SCAN_CELLS", case["scan_cells"]):
        forest = RandomForest(**params).fit(x, case["y"])
    classes, encoded = np.unique(case["y"], return_inverse=True)
    n, d = x.shape
    frac = case["feature_frac"]
    m = max(1, int(round(np.sqrt(d) if frac is None else frac * d)))
    queries = np.vstack([x, x[::-1] + 0.25])
    expected = np.zeros((len(queries), len(classes)))
    seeds = np.random.default_rng(case["seed"]).integers(0, 2**31, size=n_trees)
    for t, s in enumerate(seeds):
        rng = np.random.default_rng(int(s))
        idx = rng.integers(0, n, size=n)
        tree = grow_tree_reference(
            x[idx], encoded[idx], len(classes), 0, case["max_depth"], case["min_leaf"],
            m if m < d else None, rng,
        )
        assert_same_tree(nested(forest._trees, t), tree)
        scratch = np.zeros_like(expected)
        _tree_scores(tree, queries, scratch, np.arange(len(queries)))
        expected += scratch
    assert forest.predict_scores(queries).tobytes() == (expected / n_trees).tobytes()


class TestDecisionTree:
    def test_pure_input_single_leaf(self):
        x = np.arange(6.0)[:, None]
        y = np.ones(6)
        model = DecisionTree().fit(x, y)
        assert (model.predict(x) == 1).all()

    def test_one_split_threshold_at_midpoint(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array(["A", "A", "B", "B"])
        model = DecisionTree().fit(x, y)
        assert model._trees.threshold[0] == pytest.approx(5.5)
        assert (model.predict(x) == y).all()

    def test_depth_zero_majority_stump(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        model = DecisionTree(max_depth=0).fit(x, y)
        assert (model.predict(x) == 1).all()

    def test_gini_enumeration_oracle(self):
        # brute-force the best (feature, threshold) over all candidates
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 2))
        y = (x[:, 0] + 0.3 * rng.normal(size=25) > 0).astype(int)
        model = DecisionTree(max_depth=1).fit(x, y)
        feature, threshold = model._trees.feature[0], model._trees.threshold[0]

        def weighted_gini(mask):
            def gini(labels):
                if len(labels) == 0:
                    return 0.0
                _, counts = np.unique(labels, return_counts=True)
                frac = counts / counts.sum()
                return 1.0 - (frac**2).sum()

            return gini(y[mask]) * mask.sum() + gini(y[~mask]) * (~mask).sum()

        best = min(
            weighted_gini(x[:, f] <= (a + b) / 2)
            for f in range(2)
            for a, b in zip(np.unique(x[:, f]), np.unique(x[:, f])[1:])
        )
        got = weighted_gini(x[:, feature] <= threshold)
        assert got == pytest.approx(best)

    def test_near_tie_keeps_the_earlier_feature(self):
        # Both splits weigh 14/5 exactly. In floating point the feature-1 split
        # scores one rounding error lower, inside the 1e-12 tie tolerance.
        x = np.array([[0, 1], [0, 1], [1, 1], [1, 1], [0, 0], [0, 0], [0, 1]], dtype=float)
        y = np.array([0, 1, 1, 1, 2, 2, 2])
        model = DecisionTree(max_depth=1).fit(x, y)
        assert model._trees.feature[0] == 0

    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_one_ulp_gap_splits_at_lower_value(self, max_depth):
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        assert (lo + hi) / 2.0 == hi  # the midpoint rounds up
        x = np.array([[lo], [hi]])
        y = np.array([0, 1])
        model = DecisionTree(max_depth=max_depth).fit(x, y)
        assert model._trees.threshold[0] == lo
        assert model.predict(x).tolist() == [0, 1]
        assert np.isfinite(model.predict_scores(x)).all()

    def test_growth_and_prediction_use_no_recursion(self):
        # Singleton classes on one feature tie every threshold, so each split
        # peels the lowest row off into a leaf: a chain n - 1 splits deep.
        n = 400
        x = np.arange(n, dtype=float)[:, None]
        y = np.arange(n)
        frames, frame = 0, sys._getframe()
        while frame is not None:
            frames, frame = frames + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames + 100)
        try:
            model = DecisionTree().fit(x, y)
            pred = model.predict(x)
        finally:
            sys.setrecursionlimit(limit)
        trees, node, splits = model._trees, 0, 0
        while trees.feature[node] >= 0:
            assert trees.feature[trees.left[node]] == -1
            node, splits = trees.right[node], splits + 1
        assert splits == n - 1 > frames + 100
        assert (pred == y).all()

    def test_non_finite_values_split_where_they_sort(self):
        # NaN sorts above +inf; each split next to an infinite or NaN value,
        # or between -inf and +inf, sits at the lower value
        x = np.array([[np.nan], [-np.inf], [np.inf], [np.nan], [0.0], [-np.inf], [np.inf]])
        y = np.array([3, 0, 2, 3, 1, 0, 2])
        model = DecisionTree().fit(x, y)
        assert model.predict(x).tolist() == y.tolist()
        assert model.predict(np.array([[np.nan], [1e308], [-np.inf], [0.5]])).tolist() == [3, 2, 0, 2]
        assert RandomForest(n_trees=3, seed=1).fit(x, y).predict(x).shape == (7,)

    def test_training_accuracy_one_on_distinct_points(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        model = DecisionTree().fit(x, y)
        assert (model.predict(x) == y).all()


class TestRandomForest:
    def test_degenerate_forest_equals_tree(self):
        rng = np.random.default_rng(8)
        x, y = two_blob_data(rng, per=20)
        forest = RandomForest(n_trees=1, feature_frac=1.0, bootstrap=False, seed=0).fit(x, y)
        tree = DecisionTree().fit(x, y)
        assert np.array_equal(forest.predict_scores(x), tree.predict_scores(x))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x, y = two_blob_data(rng, per=15)
        a = RandomForest(n_trees=5, seed=2).fit(x, y)
        b = RandomForest(n_trees=5, seed=2).fit(x, y)
        assert np.array_equal(a.predict_scores(x), b.predict_scores(x))

    def test_at_least_tree_accuracy_on_noisy_data(self):
        # paired comparison averaged over 10 seeds
        rng = np.random.default_rng(10)
        tree_accs, forest_accs = [], []
        for trial in range(10):
            x = rng.normal(size=(80, 6))
            y = (x[:, 0] + x[:, 1] + rng.normal(0, 1.0, 80) > 0).astype(int)
            x_test = rng.normal(size=(60, 6))
            y_test = (x_test[:, 0] + x_test[:, 1] > 0).astype(int)
            tree_accs.append((DecisionTree().fit(x, y).predict(x_test) == y_test).mean())
            forest_accs.append(
                (RandomForest(n_trees=25, seed=trial).fit(x, y).predict(x_test) == y_test).mean()
            )
        assert np.mean(forest_accs) >= np.mean(tree_accs)


class TestScoresInvariants:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("knn", {"k_votes": 3}),
            ("logistic_regression", {"epochs": 50}),
            ("gaussian_nb", {}),
            ("linear_svm", {"epochs": 10}),
            ("decision_tree", {}),
            ("random_forest", {"n_trees": 5}),
        ],
    )
    def test_scores_finite_and_probabilistic_rows_normalized(self, name, params):
        rng = np.random.default_rng(11)
        x, y = two_blob_data(rng, per=15)
        model = make_classifier(name, **params).fit(x, y)
        scores = model.predict_scores(x)
        assert np.isfinite(scores).all()
        assert scores.shape == (len(x), 2)
        if name in ("knn", "logistic_regression", "gaussian_nb", "decision_tree", "random_forest"):
            assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("knn", {"k_votes": 1}),
            ("logistic_regression", {"l2": 1e-6, "lr": 1.0, "epochs": 500}),
            ("linear_svm", {"C": 100.0, "epochs": 100}),
            ("decision_tree", {}),
        ],
    )
    def test_perfect_fit_on_separable_toy(self, name, params):
        rng = np.random.default_rng(12)
        x, y = two_blob_data(rng, per=10, sep=20.0)
        model = make_classifier(name, **params).fit(x, y)
        assert (model.predict(x) == y).mean() == 1.0


def assert_same_report(got, want):
    """Every field but the training time, with the same type and bytes."""
    for f in dataclasses.fields(want):
        if f.name != "train_time_sec":
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b), f.name
            assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


class TestRunExperiment:
    def _embeddings_and_labels(self, rng, per=20):
        x = np.vstack(
            [rng.normal(0, 0.5, (per, 4)), rng.normal(6, 0.5, (per, 4)),
             rng.normal([0, 6, 0, 6], 0.5, (per, 4))]
        )
        labels = np.array(["a"] * per + ["b"] * per + ["c"] * per)
        return {"toy": x}, labels

    def test_report_covers_methods_by_classifiers(self):
        rng = np.random.default_rng(13)
        embeddings, labels = self._embeddings_and_labels(rng)
        embeddings["noisy"] = embeddings["toy"] + rng.normal(0, 0.1, embeddings["toy"].shape)
        result = run_experiment(
            embeddings, labels, seeds=[0, 1], classifiers=("knn", "gaussian_nb"),
            grids={"knn": ({"k_votes": 1},)},
        )
        rows = result.mean_rows()
        assert len(rows) == len(embeddings) * 2  # |methods| x |classifiers|
        assert {(r["embedding"], r["classifier"]) for r in rows} == {
            (m, c) for m in ("toy", "noisy") for c in ("knn", "gaussian_nb")
        }
        for row in rows:
            for metric in METRIC_FIELDS:
                assert np.isfinite(row[metric])

    def test_identical_seeds_zero_metric_std(self):
        rng = np.random.default_rng(14)
        embeddings, labels = self._embeddings_and_labels(rng)
        result = run_experiment(
            embeddings, labels, seeds=[3, 3, 3], classifiers=("knn",),
            grids={"knn": ({"k_votes": 1},)},
        )
        stds = result.std_rows()[0]
        for metric in METRIC_FIELDS:
            if metric != "train_time_sec":
                assert stds[metric] == 0.0

    def test_holdout_never_seen_in_training(self):
        from seqnet.seqio import split_indices

        labels = np.array(["a"] * 30 + ["b"] * 30)
        for seed in range(5):
            plan = split_indices(labels, 0.3, 5, seed)
            assert not set(plan.train_indices) & set(plan.test_indices)
            for tr, val in plan.folds:
                assert not set(tr) & set(plan.test_indices)
                assert not set(val) & set(plan.test_indices)

    def test_high_accuracy_on_separated_blobs(self):
        rng = np.random.default_rng(15)
        embeddings, labels = self._embeddings_and_labels(rng)
        result = run_experiment(
            embeddings, labels, seeds=[0, 1, 2], classifiers=("knn",),
        )
        acc = result.metric_values("toy", "knn", "accuracy")
        assert acc.mean() > 0.95

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(16)
        embeddings, labels = self._embeddings_and_labels(rng)
        result = run_experiment(
            embeddings, labels, seeds=[0], classifiers=("gaussian_nb",),
        )
        path = tmp_path / "mean.csv"
        save_result_csv(result.mean_rows(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("embedding,classifier,accuracy")
        assert len(lines) == 2
        # the measured runtime; the CLI zeroes it without --timings
        assert lines[1].split(",")[-1] == repr(result.mean_rows()[0]["train_time_sec"])

    @pytest.mark.parametrize("error, raised", [
        (ConfigError("bad grid"), ConfigError),
        (ValueError("bad value"), ValueError),
        # its constructor takes five arguments; UnicodeError takes a message
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), UnicodeError),
    ])
    def test_cell_failure_names_the_cell(self, error, raised):
        embeddings, labels = self._embeddings_and_labels(np.random.default_rng(17))
        with mock.patch.object(classify.GaussianNB, "fit", side_effect=error):
            with pytest.raises(raised) as info:
                run_experiment(embeddings, labels, seeds=[4], classifiers=("gaussian_nb",))
        assert type(info.value) is raised
        assert str(info.value) == f"[method=toy classifier=gaussian_nb seed=4] {error}"
        assert info.value.__cause__ is error

    def test_held_out_part_scored_once(self):
        embeddings, labels = self._embeddings_and_labels(np.random.default_rng(18))
        scores = mock.Mock(wraps=classify.GaussianNB._scores)
        with mock.patch.object(classify.GaussianNB, "_scores", autospec=True, side_effect=scores):
            run_experiment(embeddings, labels, seeds=[0], classifiers=("gaussian_nb",))
        assert scores.call_count == 1

    def test_cells_on_their_own_in_reversed_order_match(self):
        rng = np.random.default_rng(19)
        embeddings, labels = self._embeddings_and_labels(rng, per=12)
        embeddings["toy"] = embeddings["toy"] + rng.normal(0, 2.0, embeddings["toy"].shape)
        embeddings["other"] = rng.normal(0, 1, embeddings["toy"].shape)
        seeds = (0, 5)
        result = run_experiment(embeddings, labels, seeds=seeds, num_folds=3)
        cells = [(s, m, c) for s in seeds for m in embeddings for c in DEFAULT_GRIDS]
        alone = {
            cell: classify.run_cell(
                embeddings[cell[1]], labels, cell[0], cell[2], DEFAULT_GRIDS[cell[2]], 0.3, 3
            )
            for cell in reversed(cells)
        }
        for seed, method, name in cells:
            assert_same_report(alone[seed, method, name], result.reports[method, name][seeds.index(seed)])

    def test_empty_seed_list_rejected(self):
        embeddings, labels = self._embeddings_and_labels(np.random.default_rng(20))
        with pytest.raises(ConfigError, match="seeds"):
            run_experiment(embeddings, labels, seeds=[], classifiers=("gaussian_nb",))

    @pytest.mark.parametrize("classifiers, message", [
        (("gaussian_nb", "gaussian_nb"), "'gaussian_nb' named twice"),
        (("gaussian_nb", "no_such_model"), "unknown classifier 'no_such_model'"),
    ])
    def test_bad_classifier_list_rejected_before_any_fit(self, classifiers, message):
        embeddings, labels = self._embeddings_and_labels(np.random.default_rng(21))
        with mock.patch.object(classify.GaussianNB, "fit") as fit:
            with pytest.raises(ConfigError, match=message):
                run_experiment(embeddings, labels, seeds=[0, 1], classifiers=classifiers)
        fit.assert_not_called()

    @pytest.mark.parametrize("unlabeled", [[5], [3, 30, 31, 50], list(range(0, 60, 2))])
    def test_rows_without_a_label_refused_before_the_split_and_any_fit(self, unlabeled):
        """Few unlabeled rows once formed a class None, many made np.unique
        compare None with str; either way the run now stops first."""
        embeddings, labels = self._embeddings_and_labels(np.random.default_rng(23))
        labels = [None if i in unlabeled else label for i, label in enumerate(labels.tolist())]
        with mock.patch.object(classify, "split_indices") as split, \
                mock.patch.object(classify.GaussianNB, "fit") as fit:
            with pytest.raises(ConfigError, match=f"^{len(unlabeled)} of 60 rows have no label; "
                                                  f"the first is row {unlabeled[0]}$"):
                run_experiment(embeddings, labels, seeds=[0], classifiers=("gaussian_nb",),
                               num_folds=2)
        split.assert_not_called()
        fit.assert_not_called()

    @pytest.mark.parametrize("name", ["knn", "gaussian_nb", "decision_tree", "random_forest"])
    def test_class_missing_from_training_part_is_reported(self, name):
        # 2 of 22 rows are "a"; a 0.9 test fraction puts both in the test part
        labels = np.array(["a"] * 2 + ["b"] * 20)
        x = np.random.default_rng(22).normal(0, 1, (22, 3))
        result = run_experiment(
            {"toy": x}, labels, seeds=[0], classifiers=(name,), test_fraction=0.9, num_folds=2
        )
        (report,) = result.reports["toy", name]
        assert report.classes == ("a", "b")
        assert report.confusion[0].tolist() == [0, 2]
        for metric in METRIC_FIELDS:
            assert np.isfinite(getattr(report, metric)), metric

    @pytest.mark.parametrize("name, grid", [
        ("knn", ({"k_votes": 3}, {"k_votes": 0})),
        ("linear_svm", ({"C": float("nan")}, {"C": 1.0})),
        ("linear_svm", ({"C": 1.0}, {"c": 1.0})),
        ("gaussian_nb", ()),
    ])
    def test_bad_grid_entry_rejected_before_any_fit(self, name, grid):
        embeddings, labels = self._embeddings_and_labels(np.random.default_rng(24))
        with mock.patch.object(classify.CLASSIFIERS[name], "fit") as fit:
            with pytest.raises(ConfigError, match=f"classifier '{name}'"):
                run_experiment(embeddings, labels, seeds=[0], classifiers=(name,),
                               grids={name: grid})
        fit.assert_not_called()

    def test_k_votes_above_a_fold_scores_minus_inf(self):
        embeddings, labels = self._embeddings_and_labels(np.random.default_rng(25))
        plan = split_indices(labels, 0.3, 5, 0)
        folds = [(np.asarray(f), np.asarray(v)) for f, v in plan.folds]
        grid = ({"k_votes": 1000}, {"k_votes": 3})
        assert KNNClassifier.cv_accuracies(grid, embeddings["toy"], labels, folds)[0] == -np.inf
        (got,) = run_experiment(embeddings, labels, seeds=[0], classifiers=("knn",),
                                grids={"knn": grid}).reports["toy", "knn"]
        (want,) = run_experiment(embeddings, labels, seeds=[0], classifiers=("knn",),
                                 grids={"knn": grid[1:]}).reports["toy", "knn"]
        assert_same_report(got, want)

    def test_grid_defaults_cover_all_classifiers(self):
        assert set(DEFAULT_GRIDS) == {
            "knn", "logistic_regression", "gaussian_nb",
            "linear_svm", "decision_tree", "random_forest",
        }


class TestHyperparameters:
    @pytest.mark.parametrize("name, params", [
        *[("linear_svm", {"C": c}) for c in (float("nan"), float("inf"), 0.0, -1.0)],
        *[("logistic_regression", {"lr": v}) for v in (float("nan"), float("inf"), 0.0, -0.5)],
        *[("logistic_regression", {"l2": v}) for v in (float("nan"), float("inf"), -1e-3)],
        *[("gaussian_nb", {"var_smoothing": v}) for v in (float("nan"), float("inf"), -1e-9)],
        *[(name, {"epochs": e}) for name in ("linear_svm", "logistic_regression")
          for e in (0, -3, 2.5)],
        ("random_forest", {"feature_frac": 1.5}),
    ])
    def test_rejected_at_construction(self, name, params):
        with pytest.raises(ConfigError):
            make_classifier(name, **params)

    @pytest.mark.parametrize("name, params", [
        ("logistic_regression", {"l2": 0.0}),
        ("gaussian_nb", {"var_smoothing": 0.0}),
        ("linear_svm", {"C": 1e-6, "epochs": 1}),
    ])
    def test_boundary_values_accepted(self, name, params):
        make_classifier(name, **params)


# The CV grid of each classifier: entries that set ``epochs`` or ``seed``,
# and a KNN ``k_votes`` above every fold's training size.
ORACLE_GRIDS = {
    "knn": ({"k_votes": 1}, {"k_votes": 5}, {"k_votes": 15}, {"k_votes": 10_000}),
    "logistic_regression": ({"l2": 1e-3, "epochs": 30}, {"l2": 1e-1, "lr": 0.3, "epochs": 20}),
    "gaussian_nb": ({}, {"var_smoothing": 1e-3}),
    "linear_svm": (
        {"C": 0.1}, {"C": 1.0, "epochs": 3}, {"C": 10.0, "seed": 7},
        {"C": 2.0, "epochs": 7, "seed": 3},
    ),
    "decision_tree": ({"max_depth": 2}, {"max_depth": None, "min_leaf": 2}),
    "random_forest": (
        {"n_trees": 4, "max_depth": 3, "seed": 1}, {"n_trees": 3, "feature_frac": 0.5},
    ),
}


def oracle_case(kind):
    """(x, labels, test_fraction, num_folds, seed) of one CV layout."""
    rng = np.random.default_rng(26)
    if kind == "unequal_folds":
        labels = np.repeat(["a", "b", "c"], [13, 11, 9])
        args = (0.3, 4, 0)
    elif kind == "class_missing_from_a_fold":
        labels = np.repeat(["a", "b", "c"], [2, 15, 14])
        args = (0.3, 2, 1)
    else:  # "one_class_in_a_fold": SVM and logistic regression cannot fit it
        labels = np.repeat(["a", "b"], [2, 15])
        args = (0.3, 2, 1)
    centres = {c: rng.normal(0, 2, 4) for c in np.unique(labels)}
    x = np.array([centres[c] for c in labels]) + rng.normal(0, 1.5, (len(labels), 4))
    return x, labels, *args


class TestLockstepCV:
    @pytest.mark.parametrize("kind", ["unequal_folds", "class_missing_from_a_fold",
                                      "one_class_in_a_fold"])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
    def test_equal_to_per_fit_oracle(self, name, kind):
        x, labels, test_fraction, num_folds, seed = oracle_case(kind)
        plan = split_indices(labels, test_fraction, num_folds, seed)
        folds = [(np.asarray(f, np.intp), np.asarray(v, np.intp)) for f, v in plan.folds]
        n_classes = len(np.unique(labels))
        missing = [len(np.unique(labels[f])) < n_classes for f, _ in folds]
        if kind == "unequal_folds":
            assert len({len(f) for f, _ in folds}) > 1
        else:
            assert any(missing)
        grid = ORACLE_GRIDS[name]
        cls = classify.CLASSIFIERS[name]
        want = np.array([cv_accuracy_reference(name, p, x, labels, folds) for p in grid])
        assert np.array_equal(cls.cv_accuracies(grid, x, labels, folds), want)
        if name == "knn":
            assert want[-1] == -np.inf
        if name in ("linear_svm", "logistic_regression") and kind == "one_class_in_a_fold":
            assert (want == -np.inf).all()

        def run():
            return run_experiment({"toy": x}, labels, seeds=[seed], classifiers=(name,),
                                  grids={name: grid}, test_fraction=test_fraction,
                                  num_folds=num_folds).reports["toy", name][0]

        def per_fit(_cls, grid, x, y, folds):
            return np.array([cv_accuracy_reference(name, p, x, y, folds) for p in grid])

        got = run()
        with mock.patch.object(cls, "cv_accuracies", classmethod(per_fit)):
            assert_same_report(got, run())

    def test_reports_do_not_depend_on_blas_threads(self):
        root = Path(__file__).resolve().parents[1]
        script = (
            "import dataclasses, sys, numpy as np\n"
            "from seqnet.classify import run_experiment\n"
            "rng = np.random.default_rng(27)\n"
            "labels = np.repeat(np.arange(5), 24)\n"
            "x = rng.normal(0, 1, (120, 24)) + labels[:, None] * 0.3\n"
            "result = run_experiment({'toy': x}, labels, seeds=[0, 1],\n"
            "                        classifiers=('knn', 'linear_svm'))\n"
            "for key in sorted(result.reports):\n"
            "    for report in result.reports[key]:\n"
            "        for f in dataclasses.fields(report):\n"
            "            if f.name != 'train_time_sec':\n"
            "                sys.stdout.buffer.write(np.asarray(getattr(report, f.name)).tobytes())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]
