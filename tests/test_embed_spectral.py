import numpy as np
import pytest

from seqnet.embed import (
    EMBED_METHODS,
    hope_embed,
    katz_similarity,
    laplacian_eigenmaps,
    lle_embed,
    spectral_radius,
)
from seqnet.errors import ConfigError, ConnectivityError, DimensionError, DivergenceError
from seqnet.ssn import network_from_edges

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
            adjacency = graph.adjacency_matrix()
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
        degree = np.diag(graph.adjacency_matrix().sum(axis=1))
        gram = emb.vectors.T @ degree @ emb.vectors
        assert np.abs(gram - np.eye(4)).max() < 1e-8

    def test_disconnected_graph_errors(self):
        g = network_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ConnectivityError):
            laplacian_eigenmaps(g, 1)

    def test_largest_component_mode_zero_fills(self):
        g = network_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        emb = laplacian_eigenmaps(g, 1, on_disconnected="largest")
        assert emb.vectors.shape == (5, 1)
        assert emb.vectors[3, 0] == 0.0 and emb.vectors[4, 0] == 0.0
        assert emb.info["embedded_nodes"] == 3

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            laplacian_eigenmaps(PATH3, 3)


class TestLle:
    def test_row_stochastic_weights_kill_ones_direction(self):
        rng = np.random.default_rng(2)
        graph = random_connected_graph(rng, 12, 10)
        adjacency = graph.adjacency_matrix()
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
        adjacency = graph.adjacency_matrix()
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

    def test_disconnected_errors(self):
        g = network_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ConnectivityError):
            lle_embed(g, 1)


class TestHope:
    def test_single_edge_closed_form(self):
        g = network_from_edges(2, [(0, 1)])
        sim = katz_similarity(g.adjacency_matrix(), 0.4)
        expected = np.array([[0.190476, 0.476190], [0.476190, 0.190476]])
        assert np.abs(sim - expected).max() < 1e-6

    def test_matches_neumann_series_oracle(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 10, 8)
        adjacency = g.adjacency_matrix()
        beta = 0.5 / spectral_radius(adjacency)
        assert np.abs(
            katz_similarity(adjacency, beta) - katz_series_oracle(adjacency, beta)
        ).max() < 1e-9

    def test_reconstruction_error_non_increasing_and_tail_energy(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 12, 15)
        adjacency = g.adjacency_matrix()
        sim = katz_similarity(adjacency, 0.5 / spectral_radius(adjacency))
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
        g = network_from_edges(4, [])
        emb = hope_embed(g, 2)
        assert np.abs(emb.vectors).max() == 0.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            hope_embed(TRIANGLE, 3)

    def test_divergent_beta_rejected(self):
        with pytest.raises(DivergenceError):
            hope_embed(TRIANGLE, 2, beta=0.51)  # rho(K3) = 2

    def test_spectral_radius_triangle(self):
        assert spectral_radius(TRIANGLE.adjacency_matrix()) == pytest.approx(2.0, abs=1e-6)


class TestDeterminism:
    def test_spectral_methods_reproduce_exactly(self):
        rng = np.random.default_rng(9)
        graph = random_connected_graph(rng, 16, 20)
        for method, kwargs in (
            (laplacian_eigenmaps, {"d": 3}),
            (lle_embed, {"d": 3}),
            (hope_embed, {"d": 4}),
        ):
            a = method(graph, **kwargs)
            b = method(graph, **kwargs)
            assert np.array_equal(a.vectors, b.vectors), method.__name__


@pytest.mark.parametrize("method", sorted(EMBED_METHODS))
def test_dimension_below_one_is_config_error(method):
    with pytest.raises(ConfigError):
        EMBED_METHODS[method](TRIANGLE, 0)
