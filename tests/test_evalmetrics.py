import tracemalloc

import numpy as np
import pytest
from evalmetrics_reference import (
    calinski_harabasz_reference,
    cluster_quality_reference,
    davies_bouldin_reference,
    silhouette_reference,
)
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.stats import rankdata

from seqnet.errors import ConfigError, MissingScoresError, UndefinedMetricError
from seqnet.evalmetrics import (
    _midranks,
    calinski_harabasz,
    classification_report,
    cluster_quality,
    davies_bouldin,
    roc_auc_ovr,
    silhouette,
)
from seqnet.featurize import FeatureMatrix

FOUR_POINTS = np.array([[0.0], [1.0], [10.0], [11.0]])
FOUR_LABELS = np.array([0, 0, 1, 1])


def silhouette_oracle(x, labels):
    """Textbook O(n^2) double loop, written independently of the module."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    keep = labels != -1
    x, labels = x[keep], labels[keep]
    values = []
    for i in range(len(x)):
        same = [j for j in range(len(x)) if labels[j] == labels[i] and j != i]
        if not same:
            values.append(0.0)
            continue
        a = np.mean([np.linalg.norm(x[i] - x[j]) for j in same])
        b = np.inf
        for other in set(labels.tolist()) - {labels[i]}:
            members = [j for j in range(len(x)) if labels[j] == other]
            b = min(b, np.mean([np.linalg.norm(x[i] - x[j]) for j in members]))
        denom = max(a, b)
        values.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(values))


class TestSilhouette:
    def test_two_pair_instance(self):
        # hand computation: a=1 everywhere, b in {9.5, 10.5} per point
        assert silhouette(FOUR_POINTS, FOUR_LABELS) == pytest.approx(0.899749, abs=1e-6)

    def test_coincident_duplicate_clusters_score_zero(self):
        x = np.zeros((4, 2))
        labels = [0, 0, 1, 1]
        assert silhouette(x, labels) == 0.0

    def test_far_blobs_approach_one(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(0, 0.01, (20, 3)), rng.normal(100, 0.01, (20, 3))])
        labels = [0] * 20 + [1] * 20
        assert silhouette(x, labels) > 0.999

    def test_single_cluster_undefined(self):
        with pytest.raises(UndefinedMetricError):
            silhouette(FOUR_POINTS, [0, 0, 0, 0])

    def test_noise_points_excluded(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0], [500.0]])
        labels = [0, 0, 1, 1, -1]
        assert silhouette(x, labels) == pytest.approx(0.899749, abs=1e-6)

    def test_singleton_cluster_scores_zero(self):
        x = np.array([[0.0], [0.5], [9.0]])
        labels = [0, 0, 1]
        assert silhouette(x, labels) == pytest.approx(silhouette_oracle(x, labels), abs=1e-12)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(2, 5))
            x = rng.normal(size=(n, 3))
            labels = rng.integers(0, k, size=n)
            if len(np.unique(labels)) < 2:
                continue
            assert silhouette(x, labels) == pytest.approx(
                silhouette_oracle(x, labels), abs=1e-9
            )

    def test_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.normal(size=(30, 2))
            labels = rng.integers(0, 3, size=30)
            if len(np.unique(labels)) < 2:
                continue
            assert -1.0 <= silhouette(x, labels) <= 1.0


class TestCalinskiHarabasz:
    def test_two_pair_instance(self):
        # B = 100, W = 1, n = 4, k = 2 -> (100/1) / (1/2) = 200
        assert calinski_harabasz(FOUR_POINTS, FOUR_LABELS) == pytest.approx(200.0, abs=1e-6)

    def test_zero_within_dispersion_is_inf(self):
        x = np.array([[0.0], [0.0], [5.0], [5.0]])
        assert calinski_harabasz(x, [0, 0, 1, 1]) == float("inf")

    def test_translation_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 4))
        labels = rng.integers(0, 3, size=40)
        shifted = x + 123.4
        assert calinski_harabasz(x, labels) == pytest.approx(
            calinski_harabasz(shifted, labels), rel=1e-9
        )

    def test_scale_invariant(self):
        # both dispersions scale by s^2, so their ratio is unchanged
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 4))
        labels = rng.integers(0, 3, size=40)
        assert calinski_harabasz(x * 7.5, labels) == pytest.approx(
            calinski_harabasz(x, labels), rel=1e-9
        )

    def test_degenerate_counts(self):
        with pytest.raises(UndefinedMetricError):
            calinski_harabasz(FOUR_POINTS, [0, 0, 0, 0])
        with pytest.raises(UndefinedMetricError):
            calinski_harabasz(FOUR_POINTS, [0, 1, 2, 3])


class TestDaviesBouldin:
    def test_two_pair_instance(self):
        # S = 0.5 each, centroid distance 10 -> (0.5 + 0.5) / 10 = 0.1
        assert davies_bouldin(FOUR_POINTS, FOUR_LABELS) == pytest.approx(0.1, abs=1e-6)

    def test_tighter_clusters_score_lower(self):
        tight = np.array([[0.0], [0.2], [10.0], [10.2]])
        assert davies_bouldin(tight, FOUR_LABELS) < davies_bouldin(
            FOUR_POINTS, FOUR_LABELS
        )

    def test_scale_invariant(self):
        assert davies_bouldin(FOUR_POINTS * 2, FOUR_LABELS) == pytest.approx(
            davies_bouldin(FOUR_POINTS, FOUR_LABELS), rel=1e-12
        )

    def test_coincident_centroids_undefined(self):
        x = np.array([[0.0], [2.0], [0.5], [1.5]])
        with pytest.raises(UndefinedMetricError):
            davies_bouldin(x, [0, 0, 1, 1])

    def test_quality_report_bundle(self):
        report = cluster_quality(FOUR_POINTS, FOUR_LABELS, runtime_sec=1.5)
        assert report.silhouette == pytest.approx(0.899749, abs=1e-6)
        assert report.calinski_harabasz == pytest.approx(200.0, abs=1e-6)
        assert report.davies_bouldin == pytest.approx(0.1, abs=1e-6)
        assert report.runtime_sec == 1.5


INDICES = (
    (silhouette, silhouette_reference),
    (calinski_harabasz, calinski_harabasz_reference),
    (davies_bouldin, davies_bouldin_reference),
)


def outcome(index, x, labels):
    """An index's value, or the type of the error it raised."""
    try:
        return index(x, labels)
    except UndefinedMetricError as exc:
        return type(exc)


def assert_close(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def assert_matches_reference(x, labels, dense):
    """Each index and ``cluster_quality`` on x agree with the reference code
    on the dense rows: the same value to 1e-12 relative, or the same error."""
    want = [outcome(reference, dense, labels) for _, reference in INDICES]
    for (index, _), value in zip(INDICES, want):
        assert_close(outcome(index, x, labels), value)
    if any(isinstance(value, type) for value in want):
        with pytest.raises(UndefinedMetricError):
            cluster_quality(x, labels)
        return
    report = cluster_quality(x, labels, runtime_sec=2.5)
    reference = cluster_quality_reference(dense, labels, runtime_sec=2.5)
    for field in ("silhouette", "calinski_harabasz", "davies_bouldin"):
        assert_close(getattr(report, field), getattr(reference, field))
    assert report.runtime_sec == 2.5


def forms(dense):
    """The rows as a dense array, CSR, and (20 columns) a k=1 FeatureMatrix."""
    out = [dense, sparse.csr_matrix(dense)]
    if dense.shape[1] == 20:
        out.append(FeatureMatrix(sparse.csr_matrix(dense), 1))
    return out


@st.composite
def clusterings(draw):
    """(dense rows, labels): rows drawn from a small pool, so duplicate rows,
    coincident clusters and coincident centroids are common; integer counts
    (20 wide, or 1-5) or floats; labels 0-5 with -1 noise."""
    kind = draw(st.sampled_from(["features", "counts", "floats"]))
    dim = 20 if kind == "features" else draw(st.integers(1, 5))
    if kind == "floats":
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    else:
        values = st.integers(0, 6)
    pool = draw(st.lists(st.lists(values, min_size=dim, max_size=dim), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    labels = draw(st.lists(st.integers(-1, 5), min_size=len(picks), max_size=len(picks)))
    return np.array(pool, dtype=np.float64)[picks], np.array(labels)


class TestAgainstReference:
    """The indices from one per-cluster summary against the code that
    densified the rows once per index (tests/evalmetrics_reference.py)."""

    @given(clusterings())
    @settings(max_examples=200, deadline=None)
    def test_random_clusterings(self, case):
        dense, labels = case
        for x in forms(dense):
            assert_matches_reference(x, labels, dense)

    @pytest.mark.parametrize("dense, labels", [
        # noise rows are left out
        (np.array([[0.0], [1.0], [10.0], [11.0], [500.0]]), [0, 0, 1, 1, -1]),
        # a singleton cluster scores 0 in silhouette
        (np.array([[0.0, 1.0], [0.5, 2.0], [9.0, 3.0], [4.0, 4.0]]), [0, 0, 1, 2]),
        # coincident clusters: silhouette 0, within = 0 so CH is inf, DB raises
        (np.zeros((4, 3)), [0, 0, 1, 1]),
        # within = 0 with distinct centroids: CH inf, DB 0
        (np.array([[0.0], [0.0], [5.0], [5.0]]), [0, 0, 1, 1]),
        # coincident centroids: DB raises
        (np.array([[0.0], [2.0], [0.5], [1.5]]), [0, 0, 1, 1]),
        # k >= n: every row its own cluster; CH raises
        (np.array([[1.0, 0.0], [0.0, 3.0], [2.0, 2.0]]), [2, 0, 1]),
        # one cluster left after the noise: every index raises
        (np.array([[1.0], [2.0], [3.0]]), [4, -1, 4]),
        # all noise
        (np.array([[1.0], [2.0]]), [-1, -1]),
    ])
    def test_degenerate_clusterings(self, dense, labels):
        for x in forms(dense):
            assert_matches_reference(x, np.array(labels), dense)

    def test_counts_many_tiles(self):
        # more rows than one 512-row tile, counts 20 wide with noise
        rng = np.random.default_rng(5)
        dense = rng.integers(0, 4, size=(1100, 20)).astype(np.float64)
        labels = rng.integers(-1, 6, size=1100)
        for x in forms(dense):
            assert_matches_reference(x, labels, dense)

    def test_length_mismatch_is_a_config_error(self):
        for index in (silhouette, calinski_harabasz, davies_bouldin, cluster_quality):
            with pytest.raises(ConfigError):
                index(FOUR_POINTS, [0, 1, 0])
        assert issubclass(ConfigError, ValueError)


def test_quality_holds_no_n_by_n_matrix():
    n = 3000
    rng = np.random.default_rng(0)
    counts = sparse.random(n, 400, density=0.1, format="csr", random_state=rng,
                           data_rvs=lambda size: rng.integers(1, 6, size).astype(np.float64))
    labels = rng.integers(-1, 5, size=n)
    for x in (counts, counts.toarray(), FeatureMatrix(counts, 2)):
        tracemalloc.start()
        try:
            cluster_quality(x, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # holding the n x n distances would take 72 MB
        assert peak < n * n * 8 / 2


def test_davies_bouldin_on_wide_centroids_holds_a_few_mb():
    """22 centroids of 8,000 columns: their pairwise differences are taken a
    capped block at a time, not as one 31 MB block, and the index is the
    reference's."""
    rng = np.random.default_rng(8)
    labels = np.repeat(np.arange(22), 13)
    counts = sparse.random(286, 8000, density=0.1, format="csr", random_state=rng,
                           data_rvs=lambda size: rng.integers(1, 6, size).astype(np.float64))
    dense = counts.toarray()
    tracemalloc.start()
    try:
        got = davies_bouldin(dense, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert got == pytest.approx(davies_bouldin_reference(dense, labels), rel=1e-12)


class TestClassificationReport:
    def test_hand_confusion_example(self):
        rep = classification_report([0, 0, 1, 1], [0, 1, 1, 1], auc=False)
        assert rep.accuracy == pytest.approx(0.75)
        assert rep.f1_macro == pytest.approx((2 / 3 + 0.8) / 2, abs=1e-6)
        assert rep.f1_weighted == pytest.approx(0.733333, abs=1e-6)
        assert rep.confusion.tolist() == [[1, 1], [0, 2]]

    def test_perfect_prediction(self):
        y = [0, 1, 2, 0, 1, 2]
        scores = np.eye(3)[np.asarray(y)]
        rep = classification_report(y, y, scores=scores)
        assert rep.accuracy == 1.0
        assert rep.precision_weighted == 1.0
        assert rep.recall_weighted == 1.0
        assert rep.f1_weighted == 1.0
        assert rep.f1_macro == 1.0
        assert rep.roc_auc_ovr == 1.0

    def test_binary_auc_three_of_four_concordant(self):
        y = [1, 1, 0, 0]
        pos_scores = np.array([0.9, 0.4, 0.5, 0.1])
        scores = np.column_stack([1 - pos_scores, pos_scores])
        rep = classification_report(y, [1, 1, 0, 0], scores=scores)
        assert rep.roc_auc_ovr == pytest.approx(0.75)

    def test_constant_scores_auc_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 3, size=60)
        scores = np.full((60, 3), 0.5)
        assert roc_auc_ovr(y, scores, classes=[0, 1, 2]) == pytest.approx(0.5)

    def test_confusion_row_sums_are_support(self):
        rng = np.random.default_rng(5)
        y_true = rng.integers(0, 4, size=100)
        y_pred = rng.integers(0, 4, size=100)
        rep = classification_report(y_true, y_pred, auc=False)
        for i, cls in enumerate(rep.classes):
            assert rep.confusion[i].sum() == (y_true == cls).sum()
        assert rep.accuracy == pytest.approx(
            np.trace(rep.confusion) / len(y_true)
        )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        y_true = rng.integers(0, 3, size=50)
        y_pred = rng.integers(0, 3, size=50)
        perm = rng.permutation(50)
        a = classification_report(y_true, y_pred, auc=False)
        b = classification_report(y_true[perm], y_pred[perm], auc=False)
        assert a.accuracy == b.accuracy
        assert a.f1_weighted == pytest.approx(b.f1_weighted)
        assert a.f1_macro == pytest.approx(b.f1_macro)

    def test_zero_denominator_scores_zero(self):
        # class 2 never predicted and never true-positive
        rep = classification_report([0, 0, 2], [0, 0, 0], auc=False)
        assert rep.accuracy == pytest.approx(2 / 3)
        assert np.isfinite(rep.f1_macro)

    def test_missing_scores_raise(self):
        with pytest.raises(MissingScoresError):
            classification_report([0, 1], [0, 1])

    def test_midrank_tie_handling(self):
        # all four scores tied -> every pair gets half credit -> AUC 0.5
        y = [1, 1, 0, 0]
        scores = np.column_stack([np.zeros(4), np.full(4, 0.7)])
        assert roc_auc_ovr(y, scores, classes=[0, 1]) == pytest.approx(0.5)


# scores from a small pool, so ties are the rule: integers, or floats with
# signed zeros and both infinities
tied_scores = st.lists(st.integers(-3, 3), min_size=1, max_size=60) | st.lists(
    st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 1e-300, 0.25, 1e300, np.inf]),
    min_size=1, max_size=60,
)


class TestMidranks:
    """``scipy.stats.rankdata`` ("average", NaN propagated) is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(tied_scores)
    def test_tied_scores_match_rankdata(self, values):
        score = np.array(values, dtype=np.float64)
        assert _midranks(score).tobytes() == rankdata(score).tobytes()

    @given(st.floats(allow_nan=False), st.integers(1, 40))
    def test_equal_scores_share_the_middle_rank(self, value, n):
        score = np.full(n, value)
        assert _midranks(score).tobytes() == rankdata(score).tobytes()
        assert _midranks(score).tolist() == [(n + 1) / 2] * n

    def test_one_row(self):
        assert _midranks(np.array([0.3])).tolist() == rankdata([0.3]).tolist() == [1.0]

    def test_nan_makes_every_rank_and_the_auc_nan(self):
        score = np.array([0.2, np.nan, 0.2, 0.9])
        assert np.isnan(_midranks(score)).all() and np.isnan(rankdata(score)).all()
        scores = np.column_stack([1 - score, score])
        assert np.isnan(roc_auc_ovr([0, 1, 0, 1], scores, classes=[0, 1]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=n, max_size=n),
    )))
    def test_auc_keeps_the_bits_of_rankdata_ranks(self, case):
        y, scores = np.array(case[0]), np.array(case[1], dtype=np.float64) / 4
        want = []
        for col in range(3):
            truth = y == col
            npos = int(truth.sum())
            if 0 < npos < len(y):
                ranks = rankdata(scores[:, col])
                pos = float(ranks[truth].sum()) - npos * (npos + 1) / 2
                want.append(pos / (npos * (len(y) - npos)))
        if want:
            assert roc_auc_ovr(y, scores, classes=[0, 1, 2]) == float(np.mean(want))
