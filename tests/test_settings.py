"""Every count setting goes through ``errors.check_int`` and every real one
through ``errors.check_number``: a value of the wrong kind or out of range
is a ConfigError at the entry point, never a TypeError or an IndexError
from deep inside numpy, and never accepted."""

import numpy as np
import pytest

from seqnet.classify import DecisionTree, KNNClassifier, RandomForest
from seqnet.cluster import dbscan, elbow_select_k, gaussian_mixture, kmeans, pca_project
from seqnet.embed import WalkConfig, graph_factorization, hope_embed
from seqnet.errors import ConfigError, check_int
from seqnet.ssn import build_ssn, knn_query

X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [5.0, 5.0], [5.0, 6.0], [6.0, 5.0]])
GRAPH = build_ssn(X, 2)

# each count setting: its call and a value below its low bound
COUNTS = {
    "kmeans k": (lambda v: kmeans(X, v), 0),
    "kmeans n_init": (lambda v: kmeans(X, 2, n_init=v), 0),
    "kmeans max_iter": (lambda v: kmeans(X, 2, max_iter=v), 0),
    "gaussian_mixture max_iter": (lambda v: gaussian_mixture(X, 2, max_iter=v), 0),
    "KNNClassifier k_votes": (lambda v: KNNClassifier(v), 0),
    "RandomForest n_trees": (lambda v: RandomForest(n_trees=v), 0),
    "RandomForest min_leaf": (lambda v: RandomForest(min_leaf=v), 0),
    "RandomForest max_depth": (lambda v: RandomForest(max_depth=v), -1),
    "DecisionTree max_depth": (lambda v: DecisionTree(max_depth=v), -1),
    "graph_factorization epochs": (lambda v: graph_factorization(GRAPH, 2, epochs=v), 0),
    "build_ssn K": (lambda v: build_ssn(X, v), 0),
    "elbow_select_k k_min": (lambda v: elbow_select_k(X, v, 4), 0),
    "knn_query i": (lambda v: knn_query(X, v, 2), -1),
    "WalkConfig walks_per_node": (lambda v: WalkConfig(walks_per_node=v), 0),
    "WalkConfig seed": (lambda v: WalkConfig(seed=v), -1),
    "dbscan min_pts": (lambda v: dbscan(X, 1.0, v), 0),
    "gaussian_mixture pca_dim": (lambda v: gaussian_mixture(X, 2, pca_dim=v), 0),
    "pca_project dim": (lambda v: pca_project(X, v), 0),
}
# each real setting: its call and a value at or below its low bound
REALS = {
    "hope_embed beta": (lambda v: hope_embed(GRAPH, 2, beta=v), 0.0),
    "gaussian_mixture var_floor": (lambda v: gaussian_mixture(X, 2, var_floor=v), 0.0),
    "kmeans tol": (lambda v: kmeans(X, 2, tol=v), -1.0),
    "gaussian_mixture tol": (lambda v: gaussian_mixture(X, 2, tol=v), -1.0),
}
CASES = (
    [(name, value) for name, (_, low) in COUNTS.items() for value in (2.5, np.nan, low)]
    + [(name, value) for name, (_, low) in REALS.items() for value in (np.inf, np.nan, low)]
    + [("knn_query i", len(X)), ("RandomForest min_leaf", -2),
       ("gaussian_mixture pca_dim", -3), ("gaussian_mixture var_floor", -1.0),
       ("kmeans n_init", -3), ("kmeans max_iter", -1)]
)


@pytest.mark.parametrize("name, value", CASES)
def test_bad_setting_is_a_config_error(name, value):
    call = {**COUNTS, **REALS}[name][0]
    with pytest.raises(ConfigError, match=" must be "):
        call(value)


@pytest.mark.parametrize("value, high, message", [
    (2.5, None, "k must be an integer, got 2.5"),
    ("3", None, "k must be an integer, got '3'"),
    (0, None, "k must be >= 1, got 0"),
    (25, 20, "k must be in [1, 20], got 25"),
    (np.int64(0), 20, "k must be in [1, 20], got 0"),
])
def test_check_int_messages(value, high, message):
    with pytest.raises(ConfigError) as info:
        check_int("k", value, 1, high)
    assert str(info.value) == message


@pytest.mark.parametrize("value, high", [(1, None), (np.int64(7), None), (20, 20)])
def test_check_int_accepts_integers_in_range(value, high):
    check_int("k", value, 1, high)
