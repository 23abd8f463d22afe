import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from cluster_reference import (
    agglomerative_reference,
    densify_labels_reference,
    gaussian_mixture_reference,
    kmeans_reference,
    load_assignment_reference,
)
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import sparse

from seqnet import cluster, distances, errors, tables
from seqnet.cluster import (
    ClusterAssignment,
    _densify_labels,
    agglomerative,
    dbscan,
    elbow_select_k,
    gaussian_mixture,
    kmeans,
    knee_index,
    load_assignment,
    pca_project,
    save_assignment,
    save_elbow,
    spectral_clustering,
)
from seqnet.distances import k_nearest, sq_distances
from seqnet.errors import ConfigError, MemoryLimitError, ParseError
from seqnet.featurize import FeatureMatrix, featurize_dataset
from seqnet.seqio import synthesize_dataset
from seqnet.ssn import build_ssn, network_from_edges


def complete_graph(n):
    return network_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def partition_sse(x, labels):
    sse = 0.0
    for c in np.unique(labels):
        members = x[labels == c]
        sse += float(((members - members.mean(axis=0)) ** 2).sum())
    return sse


def split_entries(dense):
    """dense as a CSR matrix that is not canonical: each stored value is two
    halves at the same column, which ``toarray`` sums back to the value."""
    csr = sparse.csr_matrix(dense)
    return sparse.csr_matrix((np.repeat(csr.data / 2, 2), np.repeat(csr.indices, 2),
                              2 * csr.indptr), shape=csr.shape)


def co_membership(labels):
    labels = np.asarray(labels)
    return labels[:, None] == labels[None, :]


def four_blobs(rng, per=40, sep=20.0, sigma=1.0, dim=3):
    centers = np.zeros((4, dim))
    centers[1, 0] = sep
    centers[2, 1] = sep
    centers[3, :2] = sep
    rows = [rng.normal(c, sigma, size=(per, dim)) for c in centers]
    truth = np.repeat(np.arange(4), per)
    return np.vstack(rows), truth


class TestKMeans:
    def test_k_equals_n_gives_zero_sse(self):
        x = np.array([[0.0], [1.0], [5.0], [9.0]])
        out = kmeans(x, 4, seed=0)
        assert out.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(out.labels.tolist()) == [0, 1, 2, 3]

    def test_two_blob_partition_matches_enumeration(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        out = kmeans(x, 2, seed=1)
        # enumerate all 2-partitions: the optimum keeps the pairs together
        best = min(
            (
                partition_sse(x, np.array(assign))
                for assign in itertools.product([0, 1], repeat=4)
                if len(set(assign)) == 2
            )
        )
        assert best == pytest.approx(1.0)
        assert out.inertia == pytest.approx(1.0)
        assert out.labels.tolist() == [0, 0, 1, 1]

    def test_sse_history_non_increasing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(120, 5))
        for seed in range(5):
            out = kmeans(x, 6, seed=seed)
            diffs = np.diff(out.history)
            assert (diffs <= 1e-9).all()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 3))
        a = kmeans(x, 4, seed=7)
        b = kmeans(x, 4, seed=7)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_minibatch_reports_full_sse(self):
        rng = np.random.default_rng(2)
        x = np.vstack([rng.normal(0, 0.5, (40, 2)), rng.normal(20, 0.5, (40, 2))])
        out = kmeans(x, 2, seed=3, batch_size=16, max_iter=100)
        assert out.k_found == 2
        # inertia is full-data SSE against the learned centers, which can only
        # exceed the SSE against the assignment's own means
        optimal = partition_sse(x, out.labels)
        assert optimal <= out.inertia <= optimal * 1.05
        # well-separated blobs: minibatch still recovers them
        assert (co_membership(out.labels) == co_membership([0] * 40 + [1] * 40)).all()

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 1)), 4)

    def test_labels_dense(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        out = kmeans(x, 5, seed=0)
        assert set(out.labels.tolist()) == set(range(out.k_found))


@st.composite
def kmeans_inputs(draw):
    """(x, dense x, k): rows drawn from a small pool, so duplicate rows are
    common; integer counts as an array, CSR or a k=1 FeatureMatrix (20
    columns), or float embeddings."""
    form = draw(st.sampled_from(["counts", "csr", "features", "floats"]))
    dim = 20 if form == "features" else draw(st.integers(1, 5))
    if form == "floats":
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    else:
        values = st.integers(0, 6)
    pool = draw(st.lists(st.lists(values, min_size=dim, max_size=dim), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=14))
    dense = np.array(pool, dtype=np.float64)[picks]
    k = draw(st.integers(1, len(dense)))
    x = dense
    if form == "csr":
        x = sparse.csr_matrix(dense)
    elif form == "features":
        x = FeatureMatrix(sparse.csr_matrix(dense), 1)
    return x, dense, k


def same_fit(got, want):
    assert np.array_equal(got.labels, want.labels)
    assert got.k_found == want.k_found
    assert repr(got.inertia) == repr(want.inertia)
    assert [repr(h) for h in got.history] == [repr(h) for h in want.history]


@given(kmeans_inputs(), st.integers(0, 3), st.sampled_from([None, 1, 3, 8]),
       st.sampled_from([1, 2, 300]), st.integers(1, 3), st.sampled_from([1, 7, 1 << 20]),
       st.sampled_from([1, 2, 512]))
@settings(max_examples=150, deadline=None)
def test_kmeans_matches_dense_reference(case, seed, batch_size, max_iter, n_init, block, tile):
    """At every block size of the explicit differences (the bounded tiles'
    open pairs and the assigned costs) and every row tile."""
    x, dense, k = case
    with mock.patch.multiple(distances, _ASSIGNED_ELEMS=block, _BLOCK_ELEMS=block,
                             _TILE_ROWS=tile):
        got = kmeans(x, k, seed=seed, batch_size=batch_size, max_iter=max_iter, n_init=n_init)
    same_fit(got, kmeans_reference(dense, k, seed=seed, batch_size=batch_size,
                                   max_iter=max_iter, n_init=n_init))


@given(st.lists(st.one_of(st.just(-1), st.integers(-3, 8), st.integers(-2**40, 2**40)),
                max_size=40))
@settings(max_examples=200, deadline=None)
def test_densify_labels_matches_row_loop(raw):
    raw = np.array(raw, dtype=np.int64)
    got, k = _densify_labels(raw)
    want, want_k = densify_labels_reference(raw)
    assert got.dtype == want.dtype and np.array_equal(got, want) and k == want_k


def assign_nearest(x, centers):
    """k-means' assignment step: each row's nearest centre, then its cost."""
    best = k_nearest(centers, 1, queries=x)[:, 0]
    return best, distances._assigned_sq(x, centers, best)


def test_assignment_sums_only_the_pairs_the_bound_leaves_open():
    centers = np.array([[11736.5], [11733.5 - 2.0**-29], [0.0], [2.0]])
    x = np.array([
        # Gram ranks centre 1 first, explicit differences rank centre 0 first
        [11735.0],
        # equidistant from centres 2 and 3
        [1.0],
        # centre 2 nearer by 2**-41: far outside the bound, so certified
        [1.0 - 2.0**-43],
        [11000.0],
    ])
    d2 = sq_distances(x, centers)
    sq_x = np.einsum("ij,ij->i", x, x)
    gram = sq_x[:, None] + np.einsum("ij,ij->i", centers, centers) - 2.0 * x @ centers.T
    assert gram[0].argmin() == 1 and d2[0].argmin() == 0
    seen, paired_sq = [], distances._paired_sq

    def spy(a, b, out=None):
        seen.append((a.tolist(), b.tolist()))  # before ``out`` takes the differences
        return paired_sq(a, b, out=out)

    with mock.patch.object(distances, "_paired_sq", spy):
        best, cost = assign_nearest(x, centers)
    # the open pairs of rows 0 and 1 in one block, then every row's own cost
    assert seen == [(x[[0, 0, 1, 1]].tolist(), centers[[0, 1, 2, 3]].tolist()),
                    (x.tolist(), centers[best].tolist())]
    assert best.tolist() == d2.argmin(axis=1).tolist() == [0, 2, 2, 1]
    assert cost.tobytes() == d2[np.arange(len(x)), best].tobytes()


def test_assignment_keeps_the_bits_of_one_long_row():
    # numpy orders a one-row einsum's sum differently past 8,192 columns
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 8530)) * 100
    centers = rng.normal(size=(3, 8530)) * 100
    d2 = sq_distances(x, centers)
    best, cost = assign_nearest(x, centers)
    assert best.tolist() == [d2[0].argmin()]
    assert cost.tobytes() == d2[0, best].tobytes()


def lineage_features(n_lineages=22, per=13):
    data = synthesize_dataset(
        num_lineages=n_lineages, per_lineage=[per] * n_lineages, length=1274,
        within_mut_rate=0.01, between_mut_count=8, seed=5,
    )
    return featurize_dataset(data, k=3)


def test_kmeans_on_counts_stays_sparse_and_small():
    features = lineage_features()
    assert features.n == 286
    with mock.patch.object(FeatureMatrix, "to_dense", side_effect=AssertionError("densified")):
        tracemalloc.start()
        try:
            got = kmeans(features, 22, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the dense path peaked at 339 MB here; the count matrix itself is 18 MB dense
    assert peak <= 64 * 2**20
    same_fit(got, kmeans_reference(features, 22, seed=0))


def test_elbow_on_counts_matches_dense_reference():
    features = lineage_features(n_lineages=4, per=10)
    with mock.patch.object(FeatureMatrix, "to_dense", side_effect=AssertionError("densified")):
        curve = elbow_select_k(features, 1, 6, seed=2, n_init=2)
    dense = features.matrix.toarray()
    want = [kmeans_reference(dense, k, seed=2, n_init=2).inertia for k in curve.ks]
    assert [repr(s) for s in curve.sse] == [repr(s) for s in want]
    assert curve.chosen_k == curve.ks[knee_index(curve.ks, want)]


class TestAgglomerative:
    def test_fully_connected_ward_two_pairs(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        out = agglomerative(x, complete_graph(4), 2, linkage="ward")
        assert out.labels.tolist() == [0, 0, 1, 1]
        assert out.forced_merges == 0
        # enumeration oracle: that partition has minimal ESS among 2-partitions
        ess = {
            assign: partition_sse(x, np.array(assign))
            for assign in itertools.product([0, 1], repeat=4)
            if len(set(assign)) == 2
        }
        assert min(ess, key=ess.get) in ((0, 0, 1, 1), (1, 1, 0, 0))

    def test_k_equals_n_all_singletons(self):
        x = np.arange(5.0)[:, None]
        out = agglomerative(x, complete_graph(5), 5)
        assert out.labels.tolist() == [0, 1, 2, 3, 4]

    def test_chain_constraint_forces_merge_order(self):
        # (0, 3) is by far the closest pair in feature space but the chain
        # graph 0-1-2-3 has no 0-3 edge; hand trace: merge (1,2) first
        # (cost 0.125), then {1,2} with 3 (cost ~10.4 vs 12.04 for 0).
        x = np.array([[0.0], [4.0], [4.5], [0.3]])
        g = network_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        out = agglomerative(x, g, 2, linkage="ward")
        assert out.labels.tolist() == [0, 1, 1, 1]
        assert out.forced_merges == 0

    def test_disconnected_pair_flagged(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        g = network_from_edges(4, [(0, 1), (2, 3)])
        out = agglomerative(x, g, 1)
        assert out.k_found == 1
        assert out.forced_merges == 1

    def test_average_linkage_two_pairs(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        out = agglomerative(x, complete_graph(4), 2, linkage="average")
        assert out.labels.tolist() == [0, 0, 1, 1]

    def test_unknown_linkage(self):
        with pytest.raises(ConfigError):
            agglomerative(np.zeros((3, 1)), complete_graph(3), 2, linkage="single")

    @pytest.mark.parametrize("linkage", ["ward", "average"])
    def test_matches_naive_reference(self, linkage):
        # plain quadratic re-scan of every connected pair at every step
        def reference(x, graph, k):
            n = len(x)
            size = np.ones(n)
            centroid = x.astype(float).copy()
            cross = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
            members = {i: [i] for i in range(n)}
            adj = {i: set(graph.neighbors(i)) for i in range(n)}
            active = set(range(n))

            def cost(a, b):
                if linkage == "ward":
                    diff = centroid[a] - centroid[b]
                    return size[a] * size[b] / (size[a] + size[b]) * float(diff @ diff)
                return float(cross[a, b]) / (size[a] * size[b])

            while len(active) > k:
                pairs = [
                    (a, b) for a in sorted(active) for b in sorted(adj[a])
                    if a < b and b in active
                ]
                if not pairs:
                    ordered = sorted(active)
                    pairs = [
                        (a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]
                    ]
                a, b = min(pairs, key=lambda p: (cost(*p), p))
                centroid[a] = (size[a] * centroid[a] + size[b] * centroid[b]) / (
                    size[a] + size[b]
                )
                size[a] += size[b]
                cross[a, :] += cross[b, :]
                cross[:, a] += cross[:, b]
                members[a].extend(members.pop(b))
                merged = (adj[a] | adj.pop(b)) - {a, b}
                adj[a] = merged
                for c in merged:
                    adj[c].discard(b)
                    adj[c].add(a)
                active.remove(b)
            labels = np.empty(n, dtype=int)
            for new_id, c in enumerate(sorted(active, key=lambda c: min(members[c]))):
                labels[members[c]] = new_id
            return labels

        rng = np.random.default_rng(33)
        for trial in range(10):
            n = int(rng.integers(5, 16))
            x = rng.normal(size=(n, 2))
            edges = [
                (int(min(u, v)), int(max(u, v)))
                for u, v in rng.integers(0, n, size=(2 * n, 2))
                if u != v
            ]
            g = network_from_edges(n, edges)
            k = int(rng.integers(1, n))
            got = agglomerative(x, g, k, linkage=linkage)
            expected = reference(x, g, k)
            assert got.labels.tolist() == expected.tolist(), (trial, linkage)

    def test_matches_reference_on_random_graphs(self):
        # 1,000+ seeded cases against the merge loop with a members dict and
        # an active set: sparse graphs force merges, small integer rows tie
        rng = np.random.default_rng(10)
        forced = ties = forced_csr = 0
        for trial in range(250):
            n = int(rng.integers(2, 31))
            if trial % 2:
                x = rng.integers(0, 3, size=(n, int(rng.integers(1, 4)))).astype(float)
            else:
                x = rng.normal(size=(n, int(rng.integers(1, 4))))
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n + 1)), 2))
            g = network_from_edges(n, [(int(u), int(v)) for u, v in pairs if u != v])
            ties += len(np.unique(x, axis=0)) < n
            # integer rows are also passed as CSR, as k-mer counts are, and as a
            # CSR that stores each value as two halves at the same column
            forms = (x, sparse.csr_matrix(x), split_entries(x)) if trial % 2 else (x,)
            for k in sorted({1, n, int(rng.integers(1, n + 1))}):
                for linkage in ("ward", "average"):
                    want = agglomerative_reference(x, g, k, linkage=linkage)
                    for form in forms:
                        got = agglomerative(form, g, k, linkage=linkage)
                        case = (trial, k, linkage, type(form).__name__)
                        assert got.labels.tolist() == want.labels.tolist(), case
                        assert (got.k_found, got.forced_merges) == (
                            want.k_found, want.forced_merges,
                        ), case
                        forced_csr += len(forms) > 1 and got.forced_merges > 0
                    forced += got.forced_merges > 0
        assert forced > 100 and ties > 50 and forced_csr > 50

    def test_ward_on_counts_stays_sparse_and_small(self):
        """Ward on 300 CSR count rows of 8,000 columns holds less than one
        dense copy of them and gives the all-dense reference's labels."""
        features = lineage_features(n_lineages=20, per=15)
        assert features.matrix.shape == (300, 8000)
        graph = build_ssn(features, k=5)
        with mock.patch.object(FeatureMatrix, "to_dense", side_effect=AssertionError("densified")):
            tracemalloc.start()
            try:
                got = agglomerative(features, graph, 20)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the dense rows and their centroid copy took 2 x 19.2 MB here
        assert peak < 300 * 8000 * 8
        want = agglomerative_reference(features.matrix.toarray(), graph, 20)
        assert got.labels.tolist() == want.labels.tolist()
        assert got.forced_merges == want.forced_merges


class TestDbscan:
    def test_two_tight_triples(self):
        x = np.array([[0.0], [0.5], [1.0], [20.0], [20.5], [21.0]])
        out = dbscan(x, eps=2.0, min_pts=2)
        assert out.k_found == 2
        assert out.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_isolated_point_is_noise(self):
        x = np.array([[0.0], [0.5], [1.0], [100.0]])
        out = dbscan(x, eps=2.0, min_pts=2)
        assert out.labels[3] == -1
        assert out.labels[:3].tolist() == [0, 0, 0]

    def test_huge_eps_single_cluster(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 2))
        out = dbscan(x, eps=1e9, min_pts=2)
        assert out.k_found == 1
        assert (out.labels == 0).all()

    def test_order_independent_up_to_relabeling(self):
        rng = np.random.default_rng(5)
        x = np.vstack(
            [rng.normal(0, 0.3, (15, 2)), rng.normal(10, 0.3, (15, 2))]
        )
        out = dbscan(x, eps=1.5, min_pts=3)
        perm = rng.permutation(len(x))
        out_perm = dbscan(x[perm], eps=1.5, min_pts=3)
        noise = out.labels[perm] == -1
        assert (noise == (out_perm.labels == -1)).all()
        keep = ~noise
        assert (
            co_membership(out.labels[perm][keep])
            == co_membership(out_perm.labels[keep])
        ).all()

    def test_neighborhood_includes_self(self):
        # min_pts=1 makes every point core, even fully isolated ones
        x = np.array([[0.0], [50.0]])
        out = dbscan(x, eps=1.0, min_pts=1)
        assert out.labels.tolist() == [0, 1]

    def test_reads_one_tile_of_distances_at_a_time(self):
        """No n x n matrix is held, and the labels are those of the full
        distance matrix in one tile; integer rows give the same as CSR."""
        rng = np.random.default_rng(7)
        x = np.vstack([rng.normal(c, 0.5, (1000, 2)) for c in (0.0, 5.0, 10.0)])
        tracemalloc.start()
        try:
            got = dbscan(x, eps=0.3, min_pts=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 3000 * 8 / 4  # the full matrix is 72 MB
        one_tile = lambda a, b: iter([(0, sq_distances(a, b))])
        with mock.patch.object(cluster, "_row_tiles", one_tile):
            want = dbscan(x, eps=0.3, min_pts=5)
        assert got.labels.tolist() == want.labels.tolist() and got.k_found >= 3
        counts = np.rint(x * 4)
        assert (dbscan(sparse.csr_matrix(counts), 2.0, 5).labels.tolist()
                == dbscan(counts, 2.0, 5).labels.tolist())


class TestMemoryGuard:
    FITS = {
        "average": lambda x: agglomerative(x, complete_graph(x.shape[0]), 2, linkage="average"),
        "gmm": lambda x: gaussian_mixture(x, 2),
        "gmm_pca": lambda x: gaussian_mixture(x, 2, pca_dim=2),
        "spectral": lambda x: spectral_clustering(x, 2),
        "pca": lambda x: pca_project(x, 2),
    }

    @pytest.mark.parametrize("name", sorted(FITS))
    def test_refuses_an_allocation_beyond_available_memory(self, name):
        x = sparse.csr_matrix(np.random.default_rng(3).integers(0, 4, size=(30, 5)))
        with mock.patch.object(errors, "available_memory", return_value=0):
            with pytest.raises(MemoryLimitError, match="needs about") as info:
                self.FITS[name](x)
        assert not isinstance(info.value, ConfigError)
        with mock.patch.object(errors, "available_memory", return_value=None):
            self.FITS[name](x)

    def test_estimate_is_in_the_message(self):
        x = np.zeros((2000, 1))
        with mock.patch.object(errors, "available_memory", return_value=10**6):
            with pytest.raises(MemoryLimitError, match="2000 x 2000 distance sums needs "
                                                       "about 32 MB, but only 1 MB"):
                agglomerative(x, network_from_edges(2000, [(0, 1)]), 2, linkage="average")

    def test_available_memory_reads_meminfo_then_sysconf(self):
        meminfo = "MemTotal:  8000 kB\nMemFree:  100 kB\nMemAvailable:  7000 kB\n"
        with mock.patch("builtins.open", mock.mock_open(read_data=meminfo)):
            assert errors.available_memory() == 7000 * 1024
        pages = {"SC_AVPHYS_PAGES": 5, "SC_PAGE_SIZE": 4096}
        with mock.patch("builtins.open", side_effect=OSError), \
                mock.patch.object(errors.os, "sysconf", side_effect=pages.__getitem__):
            assert errors.available_memory() == 5 * 4096
        with mock.patch("builtins.open", side_effect=OSError), \
                mock.patch.object(errors.os, "sysconf", side_effect=ValueError):
            assert errors.available_memory() is None


class TestGaussianMixture:
    def test_single_component_is_sample_mean(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 1.0, size=(50, 2))
        out = gaussian_mixture(x, 1, seed=0)
        assert (out.labels == 0).all()
        assert out.responsibilities.shape == (50, 1)
        assert np.allclose(out.responsibilities, 1.0)

    def test_loglik_non_decreasing(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(80, 3))
        for seed in range(5):
            out = gaussian_mixture(x, 3, seed=seed)
            diffs = np.diff(out.history)
            assert (diffs >= -1e-9).all()

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(6)
        x = np.vstack([rng.normal(0, 0.5, (30, 2)), rng.normal(15, 0.5, (30, 2))])
        truth = np.array([0] * 30 + [1] * 30)
        out = gaussian_mixture(x, 2, seed=1)
        assert (co_membership(out.labels) == co_membership(truth)).all()
        # posterior near-certain for clearly separated data
        assert out.responsibilities.max(axis=1).min() > 0.999

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            gaussian_mixture(np.zeros((3, 2)), 4)

    def test_pca_preprojection_runs(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(40, 30))
        out = gaussian_mixture(x, 2, seed=0, pca_dim=5)
        assert len(out.labels) == 40


    # (options, passes): max_iter caps the updates, a tol of 1e300 stops
    # after the second pass's update, tol 0 runs until the likelihood falls
    @pytest.mark.parametrize("options, passes", [
        ({"max_iter": 1}, 2), ({"max_iter": 2}, 3), ({"tol": 1e300}, 3),
        ({"tol": 0.0, "max_iter": 40}, None), ({}, None), ({"pca_dim": 3}, None),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_with_its_own_final_e_step(self, options, passes, seed):
        """Labels, history, log-likelihood and responsibilities keep the bits
        of the EM loop that ran one more E-step after the loop; dense rows
        and CSR counts."""
        rng = np.random.default_rng(seed)
        dense = np.vstack([rng.normal(0, 1, (25, 6)), rng.normal(2, 1, (25, 6))])
        counts = sparse.csr_matrix(rng.poisson(1.0, size=(40, 8)).astype(np.float64))
        for x in (dense, counts):
            got = gaussian_mixture(x, 3, seed=seed, **options)
            want = gaussian_mixture_reference(x, 3, seed=seed, **options)
            assert np.array_equal(got.labels, want.labels) and got.k_found == want.k_found
            assert got.history == want.history
            assert got.log_likelihood == want.log_likelihood == got.history[-1]
            assert np.array_equal(got.responsibilities, want.responsibilities)
            assert passes is None or len(got.history) == passes


class TestSpectral:
    def test_far_blobs_perfect_split(self):
        rng = np.random.default_rng(2)
        x = np.vstack([rng.normal(0, 0.3, (25, 2)), rng.normal(30, 0.3, (25, 2))])
        truth = np.array([0] * 25 + [1] * 25)
        out = spectral_clustering(x, 2, seed=0)
        assert (co_membership(out.labels) == co_membership(truth)).all()

    def test_single_cluster(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        out = spectral_clustering(x, 1, seed=0)
        assert (out.labels == 0).all()

    def test_agreement_with_kmeans_on_separable_blobs(self):
        rng = np.random.default_rng(10)
        x = np.vstack(
            [rng.normal(0, 0.4, (20, 2)), rng.normal(12, 0.4, (20, 2)),
             rng.normal([0, 12], 0.4, (20, 2))]
        )
        km = kmeans(x, 3, seed=0, n_init=5)
        sp = spectral_clustering(x, 3, seed=0)
        assert (co_membership(km.labels) == co_membership(sp.labels)).all()


class TestElbow:
    def test_four_blob_knee(self):
        rng = np.random.default_rng(0)
        x, _ = four_blobs(rng)
        curve = elbow_select_k(x, 1, 10, seed=0)
        assert curve.chosen_k == 4

    def test_linear_curve_falls_back_to_first_interior(self):
        from seqnet.cluster import knee_index

        ks = [1, 2, 3, 4, 5]
        linear_sse = [100.0, 80.0, 60.0, 40.0, 20.0]
        assert knee_index(ks, linear_sse) == 1  # all deviations 0 -> k_min + 1

    def test_knee_picks_maximum_deviation(self):
        from seqnet.cluster import knee_index

        ks = [1, 2, 3, 4, 5, 6]
        sse = [100.0, 55.0, 20.0, 5.0, 4.0, 3.0]
        assert ks[knee_index(ks, sse)] == 3

    def test_sse_non_increasing_in_k(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 4))
        curve = elbow_select_k(x, 1, 8, seed=1)
        diffs = np.diff(curve.sse)
        assert (diffs <= 1e-6 * max(curve.sse)).all()

    def test_chosen_in_range_and_runtimes_recorded(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 2))
        curve = elbow_select_k(x, 2, 6, seed=0)
        assert curve.chosen_k in curve.ks
        assert len(curve.runtimes_sec) == len(curve.ks)
        assert all(t >= 0 for t in curve.runtimes_sec)


class TestPermutationEquivariance:
    def test_kmeans_labels_follow_rows(self):
        rng = np.random.default_rng(21)
        x = np.vstack([rng.normal(0, 0.3, (20, 2)), rng.normal(25, 0.3, (20, 2))])
        out = kmeans(x, 2, seed=0)
        perm = rng.permutation(len(x))
        out_perm = kmeans(x[perm], 2, seed=0)
        assert (
            co_membership(out.labels[perm]) == co_membership(out_perm.labels)
        ).all()


class TestExports:
    def test_assignment_round_trip(self, tmp_path):
        a = ClusterAssignment(np.array([0, 1, 1, -1]), 2)
        path = tmp_path / "assign.csv"
        save_assignment(a, path)
        assert load_assignment(path).tolist() == [0, 1, 1, -1]

    def test_saved_assignment_is_parsed_without_the_line_scan(self, tmp_path):
        labels = np.array([0, 12, -1, 3, 10**6, -1, 7, 0] * 40)
        path = tmp_path / "assign.csv"
        save_assignment(ClusterAssignment(labels, 5), path, runtime_sec=0.25)
        with mock.patch.object(tables, "_scan", side_effect=AssertionError):
            assert np.array_equal(load_assignment(path), labels)

    def test_elbow_csv_marks_choice(self, tmp_path):
        rng = np.random.default_rng(1)
        x, _ = four_blobs(rng, per=15)
        curve = elbow_select_k(x, 1, 6, seed=0)
        path = tmp_path / "elbow.csv"
        save_elbow(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,sse,runtime_sec,chosen"
        assert [l.split(",")[2] for l in lines[1:]] == [repr(r) for r in curve.runtimes_sec]
        chosen_rows = [l for l in lines[1:] if l.endswith(",1")]
        assert len(chosen_rows) == 1
        assert chosen_rows[0].startswith(f"{curve.chosen_k},")

    def test_pca_projection_shape_and_determinism(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 10))
        p1 = pca_project(x, 2)
        p2 = pca_project(x, 2)
        assert p1.shape == (30, 2)
        assert np.array_equal(p1, p2)


ASSIGNMENT_MUTATIONS = (
    None, "1.5", "1_0", "non_ascii_digit", "comment", "hash_line", "one_field",
    "three_fields", "index_skipped", "indices_swapped", "negative_index",
)


@st.composite
def assignment_files(draw):
    """An assignment CSV after up to two comment lines, with blank and padded
    lines, LF or CRLF, possibly no rows, and at most one mutation."""
    labels = draw(st.lists(st.integers(-1, 12), max_size=8))
    lines = [[str(i), str(label)] for i, label in enumerate(labels)]
    mutation = draw(st.sampled_from(ASSIGNMENT_MUTATIONS)) if lines else None
    if mutation is not None:
        at = draw(st.integers(0, len(lines) - 1))
        field = draw(st.integers(0, 1))
        line = lines[at]
        if mutation == "1.5":
            line[field] = "1.5"
        elif mutation == "1_0":
            line[field] = "0_" + line[field]  # int() reads the same value
        elif mutation == "non_ascii_digit":
            line[field] = line[field].replace("1", "\u0661").replace("0", "\u0660")
        elif mutation == "comment":
            line[1] += " # c"
        elif mutation == "hash_line":
            lines.insert(at, ["#x"])
        elif mutation == "one_field":
            del line[field]
        elif mutation == "three_fields":
            line.append(line[1])
        elif mutation == "index_skipped":
            for later in lines[at:]:
                later[0] = str(int(later[0]) + 1)
        elif mutation == "indices_swapped":
            other = lines[draw(st.integers(0, len(lines) - 1))]
            line[0], other[0] = other[0], line[0]
        else:
            line[0] = "-1"
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    text = [",".join(draw(pad) + f + draw(pad) for f in line) for line in lines]
    for _ in range(draw(st.integers(0, 2))):
        text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from(["", " ", "\t"])))
    comments = draw(st.lists(st.sampled_from(["# runtime_sec=0.5", "#", " # x"]), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    body = comments + ["node_index,cluster"] + text
    return newline.join(body) + draw(st.sampled_from(["", newline]))


def parse_outcome(load, path):
    try:
        return load(path).tolist()
    except ParseError as exc:
        return type(exc), exc.line


# tmp_path is shared by the examples; each one overwrites the file
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(assignment_files())
def test_load_assignment_matches_line_by_line_reference(tmp_path, text):
    """The same labels as the per-line loop, or a ParseError on its line."""
    path = tmp_path / "assign.csv"
    path.write_bytes(text.encode("utf-8"))
    assert parse_outcome(load_assignment, path) == parse_outcome(load_assignment_reference, path)
