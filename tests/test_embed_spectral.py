from unittest import mock

import numpy as np
import pytest
import spectral_reference as ref
from scipy.linalg import eigh, subspace_angles

from seqnet.embed import EMBED_METHODS, hope_embed, laplacian_eigenmaps, lle_embed, spectral
from seqnet.errors import ConfigError, ConnectivityError, DimensionError, DivergenceError
from seqnet.ssn import connected_components, network_from_edges

# a SparseEfficiencyWarning, eigsh's k >= n fallback warning or a
# RuntimeWarning from the sparse path fails the test
pytestmark = pytest.mark.filterwarnings("error")

PATH3 = network_from_edges(3, [(0, 1), (1, 2)])
TRIANGLE = network_from_edges(3, [(0, 1), (1, 2), (0, 2)])


def random_connected_graph(rng, n, extra_edges):
    """Random spanning tree plus extra random edges: connected by design."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    for _ in range(extra_edges):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(min(u, v)), int(max(u, v))))
    return network_from_edges(n, edges)


def katz_series_oracle(adjacency, beta, terms=200):
    """Neumann series sum_{i>=1} beta^i A^i, evaluated term by term."""
    n = adjacency.shape[0]
    total = np.zeros((n, n))
    power = np.eye(n)
    for _ in range(terms):
        power = power @ (beta * adjacency)
        total += power
    return total


class TestLaplacianEigenmaps:
    def test_path_analytic_mode(self):
        emb = laplacian_eigenmaps(PATH3, 1)
        lam = emb.info["eigenvalues"][0]
        assert lam == pytest.approx(1.0, abs=1e-9)
        vec = emb.vectors[:, 0]
        expected = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert min(
            np.abs(vec - expected).max(), np.abs(vec + expected).max()
        ) < 1e-9

    def test_triangle_eigenvalue_three_halves(self):
        emb = laplacian_eigenmaps(TRIANGLE, 1)
        assert emb.info["eigenvalues"][0] == pytest.approx(1.5, abs=1e-9)

    def test_residuals_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            graph = random_connected_graph(rng, n, n)
            d = min(3, n - 1)
            emb = laplacian_eigenmaps(graph, d)
            adjacency = graph.adjacency.toarray()
            degree = np.diag(adjacency.sum(axis=1))
            lap = degree - adjacency
            for j, lam in enumerate(emb.info["eigenvalues"]):
                y = emb.vectors[:, j]
                assert np.abs(lap @ y - lam * degree @ y).max() < 1e-6

    def test_eigenvalues_ascending_and_d_orthonormal(self):
        rng = np.random.default_rng(1)
        graph = random_connected_graph(rng, 20, 30)
        emb = laplacian_eigenmaps(graph, 4)
        vals = emb.info["eigenvalues"]
        assert list(vals) == sorted(vals)
        degree = np.diag(graph.adjacency.toarray().sum(axis=1))
        gram = emb.vectors.T @ degree @ emb.vectors
        assert np.abs(gram - np.eye(4)).max() < 1e-8

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            laplacian_eigenmaps(PATH3, 3)


class TestLle:
    def test_row_stochastic_weights_kill_ones_direction(self):
        rng = np.random.default_rng(2)
        graph = random_connected_graph(rng, 12, 10)
        adjacency = graph.adjacency.toarray()
        weights = adjacency / adjacency.sum(axis=1)[:, None]
        residual = np.eye(12) - weights
        assert np.abs(residual @ np.ones(12)).max() < 1e-12

    def test_path_antisymmetric_mode(self):
        emb = lle_embed(PATH3, 1)
        vec = emb.vectors[:, 0]
        assert vec[0] == pytest.approx(-vec[2], abs=1e-9)

    def test_eigenvalues_positive_ascending(self):
        rng = np.random.default_rng(3)
        graph = random_connected_graph(rng, 15, 20)
        emb = lle_embed(graph, 4)
        vals = emb.info["eigenvalues"]
        assert list(vals) == sorted(vals)
        assert all(v > 1e-9 for v in vals)

    def test_residuals_against_dense_oracle(self):
        rng = np.random.default_rng(4)
        graph = random_connected_graph(rng, 18, 25)
        emb = lle_embed(graph, 3)
        adjacency = graph.adjacency.toarray()
        weights = adjacency / adjacency.sum(axis=1)[:, None]
        residual = np.eye(18) - weights
        gram = residual.T @ residual
        for j, lam in enumerate(emb.info["eigenvalues"]):
            y = emb.vectors[:, j]
            assert np.abs(gram @ y - lam * y).max() < 1e-6

    def test_unit_norm_columns(self):
        rng = np.random.default_rng(5)
        graph = random_connected_graph(rng, 14, 12)
        emb = lle_embed(graph, 3)
        norms = np.linalg.norm(emb.vectors, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-9


class TestHope:
    def test_single_edge_closed_form(self):
        g = network_from_edges(2, [(0, 1)])
        emb = hope_embed(g, 4, beta=0.4)  # full rank: S = source @ target.T
        expected = np.array([[0.190476, 0.476190], [0.476190, 0.190476]])
        assert np.abs(emb.vectors[:, :2] @ emb.vectors[:, 2:].T - expected).max() < 1e-6

    def test_matches_neumann_series_oracle(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 10, 8)
        adjacency = g.adjacency.toarray()
        emb = hope_embed(g, 20)
        beta = emb.info["beta"]
        assert np.abs(
            ref.katz_similarity(adjacency, beta) - katz_series_oracle(adjacency, beta)
        ).max() < 1e-9
        assert np.abs(
            emb.vectors[:, :10] @ emb.vectors[:, 10:].T - katz_series_oracle(adjacency, beta)
        ).max() < 1e-9

    def test_reconstruction_error_non_increasing_and_tail_energy(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 12, 15)
        adjacency = g.adjacency.toarray()
        sim = ref.katz_similarity(adjacency, hope_embed(g, 2).info["beta"])
        singular = np.linalg.svd(sim, compute_uv=False)
        errors = []
        for d in (2, 4, 6, 8):
            emb = hope_embed(g, d)
            half = d // 2
            source, target = emb.vectors[:, :half], emb.vectors[:, half:]
            err = np.linalg.norm(sim - source @ target.T)
            errors.append(err)
            assert err == pytest.approx(
                np.sqrt((singular[half:] ** 2).sum()), abs=1e-8
            )
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_empty_graph_embeds_to_zero(self):
        for n in (4, 40):  # 40 nodes would go to ARPACK, which cannot start on A = 0
            emb = hope_embed(network_from_edges(n, []), 2)
            assert np.abs(emb.vectors).max() == 0.0
            assert emb.info["spectral_radius"] == 0.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            hope_embed(TRIANGLE, 3)

    def test_divergent_beta_rejected(self):
        with pytest.raises(DivergenceError):
            hope_embed(TRIANGLE, 2, beta=0.51)  # rho(K3) = 2

    def test_spectral_radius_triangle(self):
        assert hope_embed(TRIANGLE, 2).info["spectral_radius"] == pytest.approx(2.0, abs=1e-12)
        assert ref.spectral_radius(TRIANGLE.adjacency.toarray()) == pytest.approx(2.0, abs=1e-6)


def disjoint_union(*graphs):
    """One network holding the given graphs as components, in order."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return network_from_edges(offset, edges)


def eigenvalue_clusters(values, rtol=1e-8):
    """Runs of consecutive ascending values that agree within rtol."""
    breaks = np.flatnonzero(np.diff(values) > rtol * np.abs(values[1:])) + 1
    return np.split(np.arange(len(values)), breaks)


def oracle_cases():
    """(graph, d) pairs: connected random graphs and disjoint unions holding
    a block of fewer than d+1 nodes and two copies of one graph; d=3 takes a
    block of 20 or more nodes through eigsh and smaller ones through eigh."""
    rng = np.random.default_rng(11)
    twin = random_connected_graph(rng, 24, 30)
    return [
        (random_connected_graph(rng, 12, 12), 3),
        (random_connected_graph(rng, 60, 90), 3),
        (random_connected_graph(rng, 60, 90), 8),
        (disjoint_union(random_connected_graph(rng, 40, 60), TRIANGLE, twin,
                        network_from_edges(2, [(0, 1)]), twin), 3),
        (disjoint_union(twin, PATH3, twin, random_connected_graph(rng, 9, 6)), 12),
    ]


SPARSE_PATH = [
    (laplacian_eigenmaps, ref.laplacian_operator),
    (lle_embed, ref.lle_operator),
]


class TestDenseOracles:
    """The per-component sparse path against one dense solve of the whole
    graph's operator: eigenvalues, supports, subspaces and the tie rule."""

    @pytest.mark.parametrize("method, operator", SPARSE_PATH)
    @pytest.mark.parametrize("case", range(5))
    def test_per_component_path_matches_whole_graph_spectrum(self, method, operator, case):
        graph, d = oracle_cases()[case]
        adjacency = graph.adjacency.toarray()
        comp = connected_components(graph)
        n_comp = int(comp.max()) + 1
        with mock.patch.object(spectral, "eigsh", wraps=spectral.eigsh) as arpack:
            emb = method(graph, d)
        # blocks of 5(d+1) nodes or more go through ARPACK, the others through eigh
        sizes = np.bincount(comp)
        assert arpack.call_count == int((5 * (d + 1) <= sizes).sum())
        assert emb.info["components"] == n_comp

        got = np.array(emb.info["eigenvalues"])
        want = ref.whole_spectrum(operator, adjacency, n_comp)
        assert np.all(np.abs(got - want[:d]) <= 1e-9 * np.abs(want[:d]))

        # each column is exactly zero outside one component
        owners = comp[np.abs(emb.vectors).argmax(axis=0)]
        assert np.all(emb.vectors[comp[:, None] != owners[None, :]] == 0.0)
        embedded = np.isin(comp, owners)
        assert emb.info["zero_rows"] == int((~embedded).sum())

        # per eigenvalue cluster, the columns span a subspace of the oracle's
        # eigenspace for that cluster's values
        op, mass = operator(adjacency)
        values, vectors = eigh(op, mass)
        values, vectors = values[n_comp:], vectors[:, np.argsort(values)[n_comp:]]
        for cluster in eigenvalue_clusters(got):
            lo, hi = got[cluster[0]], got[cluster[-1]]
            space = vectors[:, (values >= lo - 1e-8 * lo) & (values <= hi + 1e-8 * hi)]
            cosines = np.cos(subspace_angles(emb.vectors[:, cluster], space))
            assert cosines.min() > 1 - 1e-9

    @pytest.mark.parametrize("method, operator", SPARSE_PATH)
    def test_twin_components_tie_by_component_id(self, method, operator):
        rng = np.random.default_rng(12)
        twin = random_connected_graph(rng, 30, 40)
        for d in (4, 20):  # each twin block through eigsh, then through eigh
            emb = method(disjoint_union(twin, twin), d)
            # each value comes once from each copy, the first copy first,
            # with the same bits
            vals = emb.info["eigenvalues"]
            assert vals[0::2] == vals[1::2]
            first, second = emb.vectors[:30, 0::2], emb.vectors[30:, 1::2]
            assert np.array_equal(first, second)
            assert not emb.vectors[30:, 0::2].any() and not emb.vectors[:30, 1::2].any()

    @pytest.mark.parametrize("method, operator", SPARSE_PATH)
    def test_small_component_keeps_zero_rows_when_outranked(self, method, operator):
        rng = np.random.default_rng(13)
        # K4's nontrivial eigenvalues (4/3 for LE) rank above a sparse
        # random graph's first few
        k4 = network_from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        graph = disjoint_union(random_connected_graph(rng, 30, 10), k4)
        emb = method(graph, 3)
        assert emb.info["zero_rows"] == 4
        assert not emb.vectors[30:].any()

    @pytest.mark.parametrize("method, operator", SPARSE_PATH)
    def test_isolated_node_and_too_few_modes_are_refused(self, method, operator):
        with pytest.raises(ConnectivityError):
            method(network_from_edges(4, [(0, 1), (1, 2)]), 1)
        two_edges = network_from_edges(4, [(0, 1), (2, 3)])
        assert method(two_edges, 2).vectors.shape == (4, 2)
        with pytest.raises(DimensionError):
            method(two_edges, 3)  # n - components = 2

    @pytest.mark.parametrize("case", range(5))
    def test_hope_matches_dense_svd(self, case):
        graph, d = oracle_cases()[case]
        d = 2 * d
        adjacency = graph.adjacency.toarray()
        rho = float(np.linalg.eigvalsh(adjacency)[-1])
        emb = hope_embed(graph, d)
        assert emb.info["spectral_radius"] == pytest.approx(rho, rel=1e-9)
        _, beta, _, singular = ref.hope_embed(adjacency, d, beta=emb.info["beta"])
        got = np.array(emb.info["singular_values"])
        assert np.all(np.abs(got - singular) <= 1e-9 * singular)
        sim = ref.katz_similarity(adjacency, beta)
        half = d // 2
        approx = emb.vectors[:, :half] @ emb.vectors[:, half:].T
        full = np.linalg.svd(sim, compute_uv=False)
        tail = np.sqrt((full[half:] ** 2).sum())
        assert np.linalg.norm(sim - approx) == pytest.approx(tail, abs=1e-9 * full[0])


class TestDeterminism:
    def test_spectral_methods_reproduce_exactly(self):
        rng = np.random.default_rng(9)
        small = random_connected_graph(rng, 16, 20)
        large = random_connected_graph(rng, 60, 90)
        for graph in (small, large, disjoint_union(large, small, PATH3, large)):
            for method, kwargs in (
                (laplacian_eigenmaps, {"d": 3}),
                (lle_embed, {"d": 3}),
                (hope_embed, {"d": 4}),
            ):
                a = method(graph, **kwargs)
                b = method(graph, **kwargs)
                assert np.array_equal(a.vectors, b.vectors), method.__name__
                assert a.info == b.info, method.__name__


@pytest.mark.parametrize("method", sorted(EMBED_METHODS))
def test_dimension_below_one_is_config_error(method):
    with pytest.raises(ConfigError):
        EMBED_METHODS[method](TRIANGLE, 0)
