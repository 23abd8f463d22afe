from unittest import mock

import numpy as np
import pytest
from classify_reference import grow_tree_reference, pegasos_reference
from conftest import finite_difference, relative_error
from hypothesis import given, settings, strategies as st

from seqnet import classify
from seqnet.classify import (
    DEFAULT_GRIDS,
    DecisionTree,
    GaussianNB,
    KNNClassifier,
    LinearSVM,
    LogisticRegression,
    RandomForest,
    hinge_loss_and_grad,
    make_classifier,
    run_experiment,
    save_result_csv,
    softmax_loss_and_grad,
    METRIC_FIELDS,
)
from seqnet.errors import ConfigError


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


class TestLogisticRegression:
    def test_uniform_probabilities_at_zero_weights(self):
        model = LogisticRegression(epochs=0)
        x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        model.fit(x, np.array([0, 1, 2]))
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


def assert_same_tree(got, expected):
    if isinstance(expected, classify._Leaf):
        assert isinstance(got, classify._Leaf)
        assert np.array_equal(got.probs, expected.probs)
        return
    assert isinstance(got, classify._Split)
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
        got = classify._grow_tree(*args, np.random.default_rng(case["seed"]))
    assert_same_tree(got, expected)


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
        root = model._root
        assert root.threshold == pytest.approx(5.5)
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
        root = model._root

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
        got = weighted_gini(x[:, root.feature] <= root.threshold)
        assert got == pytest.approx(best)

    def test_near_tie_keeps_the_earlier_feature(self):
        # Both splits weigh 14/5 exactly. In floating point the feature-1 split
        # scores one rounding error lower, inside the 1e-12 tie tolerance.
        x = np.array([[0, 1], [0, 1], [1, 1], [1, 1], [0, 0], [0, 0], [0, 1]], dtype=float)
        y = np.array([0, 1, 1, 1, 2, 2, 2])
        model = DecisionTree(max_depth=1).fit(x, y)
        assert model._root.feature == 0

    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_one_ulp_gap_splits_at_lower_value(self, max_depth):
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        assert (lo + hi) / 2.0 == hi  # the midpoint rounds up
        x = np.array([[lo], [hi]])
        y = np.array([0, 1])
        model = DecisionTree(max_depth=max_depth).fit(x, y)
        assert model._root.threshold == lo
        assert model.predict(x).tolist() == [0, 1]
        assert np.isfinite(model.predict_scores(x)).all()

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

    def test_grid_defaults_cover_all_classifiers(self):
        assert set(DEFAULT_GRIDS) == {
            "knn", "logistic_regression", "gaussian_nb",
            "linear_svm", "decision_tree", "random_forest",
        }
