from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy import sparse
from ssn_reference import (
    components_reference,
    edges_reference,
    neighbors_reference,
    save_edges_reference,
    subgraph_reference,
)

from seqnet import featurize
from seqnet.errors import NeighborCountError
from seqnet.featurize import featurize_dataset
from seqnet.seqio import synthesize_dataset
from seqnet.ssn import (
    SimilarityNetwork,
    build_ssn,
    connected_components,
    knn_query,
    load_graph,
    network_from_edges,
    save_graph,
)


def subgraph(graph, nodes):
    """Induced subgraph by CSR slicing, renumbered in the given order: the
    slice the spectral embeddings take of each component's block."""
    keep = np.asarray(nodes, dtype=np.int64)
    adjacency = graph.adjacency[keep][:, keep]
    adjacency.sort_indices()
    return SimilarityNetwork(adjacency, tuple(str(v) for v in nodes))


def oracle_knn_edges(x, k, mode="union"):
    """Naive full-sort KNN graph: per node sort all (distance, index) pairs."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = len(x)
    lists = []
    for i in range(n):
        cand = sorted(
            (float(np.linalg.norm(x[i] - x[j])), j) for j in range(n) if j != i
        )
        lists.append([j for _, j in cand[:k]])
    edges = set()
    for i in range(n):
        for j in lists[i]:
            if mode == "union" or i in lists[j]:
                edges.add((min(i, j), max(i, j)))
    return edges


def random_count_matrix(rng, n, dim, density=0.3):
    """Integer count vectors, like sparse k-mer rows."""
    x = rng.integers(0, 6, size=(n, dim)).astype(np.float64)
    x *= rng.random((n, dim)) < density
    return x


class TestKnnQuery:
    def test_one_dimensional_example(self):
        x = np.array([[0.0], [1.0], [3.0]])
        # exhaustive distances from row 2: d(2,0)=3, d(2,1)=2
        assert knn_query(x, 2, 1) == [1]

    def test_duplicate_rows_find_each_other(self):
        x = np.array([[5.0, 5.0], [1.0, 1.0], [5.0, 5.0]])
        assert knn_query(x, 0, 1) == [2]
        assert knn_query(x, 2, 1) == [0]

    def test_equidistant_tie_prefers_lower_index(self):
        x = np.array([[0.0], [2.0], [1.0], [4.0]])
        # from row 2 both 0 and 1 are at distance 1
        assert knn_query(x, 2, 2) == [0, 1]

    def test_k_out_of_range(self):
        x = np.zeros((3, 2))
        with pytest.raises(NeighborCountError):
            knn_query(x, 0, 3)

    def test_feature_matrix_query_matches_dense(self):
        ds = synthesize_dataset(2, [6, 6], 40, 0.05, 8, seed=1)
        mat = featurize_dataset(ds, k=2)
        dense = mat.to_dense()
        for i in (0, 5, 11):
            want = knn_query(dense, i, 3)
            for features in (mat, mat.to_csr(), sparse.coo_matrix(dense)):
                assert knn_query(features, i, 3) == want


class TestBuildSsn:
    def test_three_point_line(self):
        g = build_ssn(np.array([[0.0], [1.0], [3.0]]), k=1)
        assert set(g.edges()) == {(0, 1), (1, 2)}
        assert set(g.edges()) == oracle_knn_edges([[0.0], [1.0], [3.0]], 1)

    def test_identical_rows_tie_rule_enumeration(self):
        # All pairwise distances are 0, so every list fills with the smallest
        # indices: node 0 -> [1, 2], every other node -> [0, 1]. The union is
        # 7 edges (not the complete graph) and min degree still reaches K.
        x = np.ones((5, 3))
        g = build_ssn(x, k=2)
        assert set(g.edges()) == oracle_knn_edges(x, 2)
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)}
        assert min(g.degree(i) for i in range(5)) >= min(2, 4)

    def test_min_degree_bound(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n = int(rng.integers(5, 60))
            x = random_count_matrix(rng, n, 30)
            k = int(rng.integers(1, min(21, n)))
            g = build_ssn(x, k=k)
            assert min(g.degree(i) for i in range(n)) >= min(k, n - 1)

    def test_matches_oracle_on_random_counts(self):
        rng = np.random.default_rng(17)
        for trial in range(8):
            n = int(rng.integers(4, 80))
            x = random_count_matrix(rng, n, 25)
            k = int(rng.integers(1, min(8, n)))
            g = build_ssn(x, k=k)
            assert set(g.edges()) == oracle_knn_edges(x, k)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(23)
        x = random_count_matrix(rng, 40, 20)
        prev = set()
        for k in (1, 3, 5, 10):
            edges = set(build_ssn(x, k=k).edges())
            assert prev <= edges
            prev = edges

    def test_mutual_mode_is_subset_of_union(self):
        rng = np.random.default_rng(31)
        x = random_count_matrix(rng, 30, 15)
        union = set(build_ssn(x, k=3, mode="union").edges())
        mutual = set(build_ssn(x, k=3, mode="mutual").edges())
        assert mutual <= union
        assert mutual == oracle_knn_edges(x, 3, mode="mutual")

    def test_no_self_loops_and_symmetry(self):
        rng = np.random.default_rng(41)
        x = random_count_matrix(rng, 25, 10)
        g = build_ssn(x, k=4)
        for i in range(g.n):
            nbrs = g.neighbors(i)
            assert i not in nbrs
            assert list(nbrs) == sorted(nbrs)
            for j in nbrs:
                assert i in g.neighbors(j)

    def test_feature_matrix_input_matches_dense(self):
        ds = synthesize_dataset(2, [10, 10], 60, 0.05, 15, seed=2)
        mat = featurize_dataset(ds, k=2)
        for mode in ("union", "mutual"):
            want = build_ssn(mat.to_dense(), k=3, mode=mode)
            for features in (mat, mat.to_csr(), sparse.coo_matrix(mat.to_dense())):
                assert build_ssn(features, k=3, mode=mode) == want

    def test_k_too_large(self):
        with pytest.raises(NeighborCountError):
            build_ssn(np.zeros((4, 2)), k=4)


class TestComponents:
    def test_single_chain_component(self):
        g = network_from_edges(3, [(0, 1), (1, 2)])
        assert connected_components(g).tolist() == [0, 0, 0]

    def test_no_edges_all_singletons(self):
        g = network_from_edges(3, [])
        assert connected_components(g).tolist() == [0, 1, 2]

    def test_two_triangles(self):
        g = network_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(g).tolist() == [0, 0, 0, 1, 1, 1]

    def test_subgraph_renumbers(self):
        g = network_from_edges(5, [(0, 1), (1, 4), (2, 3)])
        sub = subgraph(g, [0, 1, 4])
        assert set(sub.edges()) == {(0, 1), (1, 2)}


class TestGraphIO:
    def test_edge_file_content(self, tmp_path):
        g = network_from_edges(3, [(1, 2), (0, 1)])
        edges_path = tmp_path / "g.tsv"
        save_graph(g, edges_path)
        assert edges_path.read_text() == "0\t1\n1\t2\n"

    def test_round_trip(self, tmp_path):
        g = network_from_edges(
            4,
            [(0, 1), (2, 3), (1, 3)],
            node_ids=["a", "b", "c", "d"],
            labels=["x", "x", None, "y"],
        )
        edges_path = tmp_path / "g.tsv"
        save_graph(g, edges_path)
        assert load_graph(edges_path) == g

    def test_node_attribute_rows(self, tmp_path):
        g = network_from_edges(3, [(0, 1)], labels=["u", "v", "w"])
        edges_path = tmp_path / "g.tsv"
        nodes_path = tmp_path / "nodes.csv"
        save_graph(g, edges_path, nodes_path)
        lines = nodes_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per node


@st.composite
def edge_lists(draw):
    """n nodes and an edge list with self-loops, repeats, both orientations
    and isolated nodes; ``nodes`` is an ordered subset for subgraph checks."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=40)) if n else []
    nodes = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    return n, edges, nodes


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_network_matches_set_reference(case):
    n, edges, nodes = case
    g = network_from_edges(n, edges)
    want = neighbors_reference(n, edges)
    assert tuple(tuple(g.neighbors(i).tolist()) for i in range(n)) == want
    assert list(g.edges()) == edges_reference(want)
    assert g.num_edges == len(edges_reference(want))
    assert connected_components(g).tolist() == components_reference(want).tolist()
    sub = subgraph(g, nodes)
    sub_want = subgraph_reference(want, nodes)
    assert tuple(tuple(sub.neighbors(i).tolist()) for i in range(len(nodes))) == sub_want
    assert list(sub.edges()) == edges_reference(sub_want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.lists(st.tuples(st.integers(-2, 8), st.integers(-2, 8)), max_size=8))
def test_out_of_range_edges_match_reference(n, edges):
    try:
        want = neighbors_reference(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            network_from_edges(n, edges)
        assert str(err.value) == str(exc)
        return
    g = network_from_edges(n, edges)
    assert tuple(tuple(g.neighbors(i).tolist()) for i in range(n)) == want


@st.composite
def digit_boundary_graphs(draw):
    """Graphs with no nodes, no edges or isolated nodes, whose node ids sit
    either side of a new digit, up to 20^3 - 1."""
    n = draw(st.one_of(st.integers(0, 12), st.sampled_from([101, 160, 1001, 8000])))
    if not n:
        return network_from_edges(0, [])
    node = st.one_of(st.sampled_from([v for v in (0, 9, 10, 99, 100, 999, 1000, n - 1)
                                      if v < n]),
                     st.integers(0, n - 1))
    return network_from_edges(n, draw(st.lists(st.tuples(node, node), max_size=40)))


# tmp_path is shared by the examples; each one overwrites the files
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(digit_boundary_graphs(), st.sampled_from([1, 2, 7, featurize._WRITE_ROWS]))
@example(network_from_edges(0, []), 1)
@example(network_from_edges(4, [(2, 2)]), 2)  # edgeless
def test_edge_file_matches_line_by_line_reference(tmp_path, graph, block):
    got, want = tmp_path / "got.tsv", tmp_path / "want.tsv"
    with mock.patch.object(featurize, "_WRITE_ROWS", block):
        save_graph(graph, got)
    save_edges_reference(graph, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("mode", ["union", "mutual"])
def test_build_ssn_matches_set_reference(mode):
    rng = np.random.default_rng(17)
    x = random_count_matrix(rng, 60, 8)
    k = 5
    g = build_ssn(x, k=k, mode=mode)
    knn = [knn_query(x, i, k) for i in range(60)]
    if mode == "union":
        edges = [(i, j) for i in range(60) for j in knn[i]]
    else:
        edges = [(i, j) for i in range(60) for j in knn[i] if i in knn[j]]
    want = neighbors_reference(60, edges)
    assert tuple(tuple(g.neighbors(i).tolist()) for i in range(60)) == want
    assert list(g.edges()) == edges_reference(want)
    assert g.adjacency.has_canonical_format
