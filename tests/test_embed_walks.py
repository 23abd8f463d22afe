import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import walks_reference as reference
from conftest import finite_difference, relative_error
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, poisson

from seqnet.config import PipelineConfig
from seqnet.embed import (
    EmbeddingMatrix,
    WalkConfig,
    deepwalk,
    generate_walks,
    gf_gradient,
    gf_objective,
    graph_factorization,
    load_embedding,
    node2vec,
    pair_gradients,
    pair_loss,
    save_embedding,
    sgns_train,
    step_distribution,
    unigram_distribution,
)
from seqnet.embed import sgns
from seqnet.embed import walks as walks_module
from seqnet.embed.sgns import _sgns_batch, corpus_pairs
from seqnet.embed.walks import WalkCorpus
from seqnet.errors import ConfigError, ParseError
from seqnet.ssn import network_from_edges

TRIANGLE = network_from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = network_from_edges(3, [(0, 1), (1, 2)])


def two_cliques(size=5):
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
    edges += [(size + i, size + j) for i, j in edges[: len(edges)]]
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
    edges += [(size + i, size + j) for i in range(size) for j in range(i + 1, size)]
    edges.append((size - 1, size))  # single bridge
    return network_from_edges(2 * size, edges)


class TestWalkConfig:
    def test_defaults(self):
        cfg = WalkConfig()
        assert (cfg.walks_per_node, cfg.walk_length, cfg.window) == (10, 80, 10)
        assert (cfg.p, cfg.q) == (1.0, 1.0)

    def test_defaults_are_the_pipeline_defaults(self):
        for f in fields(WalkConfig):
            assert f.default == getattr(PipelineConfig, f.name), f.name

    def test_validation(self):
        with pytest.raises(ConfigError):
            WalkConfig(p=0.0)
        with pytest.raises(ConfigError):
            WalkConfig(walk_length=0)
        with pytest.raises(ConfigError):
            WalkConfig(learning_rate=-1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0, 1e-320])
    def test_p_and_q_and_their_inverses_are_finite(self, bad):
        # 1e-320 is finite, but its inverse is not
        for pq in ({"p": bad}, {"q": bad}):
            with pytest.raises(ConfigError, match="finite"):
                WalkConfig(**pq)


class TestGenerateWalks:
    def test_isolated_node_walk_is_singleton(self):
        g = network_from_edges(3, [(0, 1)])
        corpus = generate_walks(g, WalkConfig(walks_per_node=2, walk_length=10, seed=0))
        isolated = corpus.walks[corpus.walks[:, 0] == 2]
        assert len(isolated) == 2
        assert (isolated[:, 1:] == -1).all()
        assert (corpus.walks[corpus.walks[:, 0] != 2] >= 0).all()

    def test_walk_count_and_length(self):
        cfg = WalkConfig(walks_per_node=3, walk_length=7, seed=1)
        corpus = generate_walks(TRIANGLE, cfg)
        assert len(corpus) == 9
        assert corpus.walks.shape == (9, 7) and corpus.walks.dtype == np.int32
        assert (corpus.walks >= 0).all()

    def test_every_step_is_an_edge(self):
        rng = np.random.default_rng(2)
        edges = [(int(rng.integers(0, i)), i) for i in range(1, 20)]
        g = network_from_edges(20, edges)
        cfg = WalkConfig(walks_per_node=4, walk_length=15, p=0.5, q=2.0, seed=3)
        corpus = generate_walks(g, cfg)
        for walk in corpus.walks:
            for a, b in zip(walk, walk[1:]):
                assert b in g.neighbors(a)

    def test_triangle_uniform_step_frequencies(self):
        # p = q = 1: both neighbors equally likely at every step
        cfg = WalkConfig(walks_per_node=150, walk_length=80, seed=5)
        corpus = generate_walks(TRIANGLE, cfg)
        from_zero = {1: 0, 2: 0}
        for walk in corpus.walks:
            for a, b in zip(walk, walk[1:]):
                if a == 0:
                    from_zero[b] += 1
        total = sum(from_zero.values())
        assert total > 10_000
        assert abs(from_zero[1] / total - 0.5) < 0.05

    def test_bias_law_forces_return(self):
        nbrs, probs = step_distribution(PATH3, prev=0, cur=1, p=0.1, q=1e6)
        law = dict(zip(nbrs, probs))
        # weights: back to 0 gets 1/p = 10, node 2 (two hops from 0) gets 1/q
        assert law[0] == pytest.approx(10.0 / (10.0 + 1e-6), rel=1e-9)
        assert law[0] > 0.999999

    def test_bias_law_monte_carlo(self):
        cfg = WalkConfig(walks_per_node=200, walk_length=3, p=0.1, q=1e6, seed=7)
        corpus = generate_walks(PATH3, cfg)
        returns = 0
        chances = 0
        for walk in corpus.walks:
            if len(walk) == 3 and walk[0] == 0 and walk[1] == 1:
                chances += 1
                returns += walk[2] == 0
        assert chances > 50
        assert returns == chances  # probability ~ 1 - 1e-7

    def test_deterministic(self):
        cfg = WalkConfig(walks_per_node=2, walk_length=10, p=0.5, q=2.0, seed=11)
        assert generate_walks(TRIANGLE, cfg) == generate_walks(TRIANGLE, cfg)


def rows(corpus):
    """The walks of an array corpus as the reference's tuples."""
    return tuple(tuple(row[row >= 0].tolist()) for row in corpus.walks)


def padded(walks, width):
    """A reference corpus as an int32 array, -1 after each walk."""
    out = np.full((len(walks), width), -1, dtype=np.int32)
    for i, walk in enumerate(walks):
        out[i, : len(walk)] = walk
    return WalkCorpus(out)


@st.composite
def graphs(draw):
    """Small random graphs; most have isolated nodes."""
    n = draw(st.integers(1, 16))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return network_from_edges(n, edges)


BIASES = [(1.0, 1.0), (0.5, 2.0), (1 / 3, 0.7)]
SGNS_EPS = 32 * np.finfo(np.float32).eps


class TestArrayCorpusMatchesReference:
    """The array corpus against the tuple reference: the same walks at p = q = 1
    and for walks of at most two nodes, and on any corpus the same noise and
    pairs."""

    def check(self, graph, cfg):
        corpus = generate_walks(graph, cfg)
        walks = rows(corpus)
        assert corpus.walks.dtype == np.int32
        assert corpus.walks.shape == (cfg.walks_per_node * graph.n, cfg.walk_length)
        if cfg.p == cfg.q == 1.0 or cfg.walk_length <= 2:
            assert walks == reference.generate_walks(graph, cfg)
        steps = (corpus.walks[:, :-1] >= 0) & (corpus.walks[:, 1:] >= 0)
        ends = corpus.walks[:, :-1][steps], corpus.walks[:, 1:][steps]
        assert (graph.adjacency.toarray()[ends] == 1).all()
        # only a walk rooted at a node without neighbors ends early
        isolated = np.diff(graph.adjacency.indptr)[corpus.walks[:, 0]] == 0
        early = (corpus.walks < 0).any(axis=1)
        assert np.array_equal(early, isolated & (cfg.walk_length > 1))
        assert np.array_equal(
            unigram_distribution(corpus, graph.n), reference.unigram_distribution(walks, graph.n)
        )
        for window in (1, 3, cfg.walk_length, cfg.walk_length + 2):
            targets, contexts = corpus_pairs(corpus, window)
            want_targets, want_contexts = reference.corpus_pairs(walks, window)
            assert targets.dtype == contexts.dtype == np.int32
            assert np.array_equal(targets, want_targets)
            assert np.array_equal(contexts, want_contexts)
        return corpus, walks

    @given(graphs(), st.sampled_from(BIASES), st.sampled_from([1, 2, 3, 9]),
           st.integers(1, 3), st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_walks_noise_and_pairs(self, graph, bias, walk_length, walks_per_node, seed):
        p, q = bias
        self.check(graph, WalkConfig(walks_per_node=walks_per_node, walk_length=walk_length,
                                     p=p, q=q, seed=seed))

    @pytest.mark.parametrize("p, q", BIASES)
    def test_larger_graph(self, p, q):
        rng = np.random.default_rng(8)
        graph = network_from_edges(80, rng.integers(0, 80, size=(400, 2)))
        self.check(graph, WalkConfig(walks_per_node=2, walk_length=30, p=p, q=q, seed=3))

    @pytest.mark.parametrize("p, q", BIASES)
    @pytest.mark.parametrize("walk_length, window", [(1, 2), (2, 1), (2, 5), (12, 4), (12, 12)])
    def test_sgns_vectors(self, p, q, walk_length, window):
        # two bridged cliques plus the isolated nodes 10 and 11
        graph = network_from_edges(12, zip(*two_cliques(5).adjacency.nonzero()))
        cfg = WalkConfig(walks_per_node=3, walk_length=walk_length, window=window, p=p, q=q,
                         epochs=2, seed=7)
        corpus, walks = self.check(graph, cfg)
        got = sgns_train(corpus, graph.n, 6, cfg)
        want = reference.sgns_train(walks, graph.n, 6, cfg)
        # float32 rounding only; the largest deviation seen on this grid is
        # 8.3e-7 at |want| <= 1.58, about 4.4 eps
        assert np.abs(got - want).max() <= SGNS_EPS * np.abs(want).max()

    @given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=8), max_size=6),
           st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_ragged_corpora(self, walks, window):
        walks = tuple(tuple(walk) for walk in walks)
        corpus = padded(walks, max((len(w) for w in walks), default=1))
        targets, contexts = corpus_pairs(corpus, window)
        want_targets, want_contexts = reference.corpus_pairs(walks, window)
        assert np.array_equal(targets, want_targets)
        assert np.array_equal(contexts, want_contexts)
        if walks:
            want = reference.unigram_distribution(walks, 10)
            assert np.array_equal(unigram_distribution(corpus, 10), want)

    def test_empty_graph_is_an_empty_corpus(self):
        graph = network_from_edges(0, [])
        cfg = WalkConfig(walks_per_node=2, walk_length=5)
        corpus = generate_walks(graph, cfg)
        walks = reference.generate_walks(graph, cfg)
        assert corpus.walks.shape == (0, 5) and walks == ()
        for train in (lambda: sgns_train(corpus, 0, 4, cfg),
                      lambda: reference.sgns_train(walks, 0, 4, cfg)):
            with pytest.raises(ConfigError, match="empty corpus"):
                train()


def step_law_tests(graph, walks, p, q):
    """Chi-square tests of each (prev, cur) cell's next-node counts against
    ``step_distribution``, over the cells with at least 200 visits: the cell
    p-values, and the p-value of their pooled statistic. In each cell the
    least expected next nodes are merged into one category until it is
    expected at least 5 times."""
    prev, cur, nxt = (walks[:, i : walks.shape[1] - 2 + i].ravel() for i in range(3))
    cells = prev.astype(np.int64) * graph.n + cur
    stats, dofs = [], []
    for cell, visits in zip(*np.unique(cells, return_counts=True)):
        if visits < 200:
            continue
        nbrs, probs = step_distribution(graph, cell // graph.n, cell % graph.n, p, q)
        seen = np.bincount(np.searchsorted(nbrs, nxt[cells == cell]), minlength=len(nbrs))
        expected = probs * visits
        order = np.argsort(expected)
        merged, rest = np.split(order, [np.searchsorted(np.cumsum(expected[order]), 5.0) + 1])
        if rest.size:
            seen = np.append(seen[rest], seen[merged].sum())
            expected = np.append(expected[rest], expected[merged].sum())
            stats.append(((seen - expected) ** 2 / expected).sum())
            dofs.append(len(rest))
    stats, dofs = np.array(stats), np.array(dofs)
    return chi2.sf(stats, dofs), chi2.sf(stats.sum(), dofs.sum())


def law_graph():
    """24 nodes, about 70 edges, no isolated node: every step law has returns,
    triangles and outward moves."""
    rng = np.random.default_rng(12)
    ring = [(i, (i + 1) % 24) for i in range(24)]
    return network_from_edges(24, ring + rng.integers(0, 24, size=(48, 2)).tolist())


STEP_LAW_BIASES = [(0.5, 2.0), (1 / 3, 0.7), (4.0, 0.25), (0.01, 1.0), (0.05, 20.0), (2.0, 2.0),
                   (1e3, 1e3)]


class TestBiasedStepLaw:
    """Biased walks follow ``step_distribution`` in every well-visited
    (prev, cur) cell: seeded chi-square tests, Bonferroni-corrected at a
    family-wise level of 0.001. The reference's inverse-CDF walker passes the
    same test. The pooled statistic of all cells adds power against small
    errors spread over many cells."""

    @staticmethod
    def walk(walker, graph, p, q):
        cfg = WalkConfig(walks_per_node=100, walk_length=42, p=p, q=q, seed=5)
        if walker == "reference":
            return padded(reference.generate_walks(graph, cfg), cfg.walk_length).walks
        return generate_walks(graph, cfg).walks

    @staticmethod
    def check(graph, walks, p, q):
        cells, pooled = step_law_tests(graph, walks, p, q)
        assert len(cells) >= 20
        assert cells.min() * len(cells) > 1e-3
        assert pooled > 1e-3

    @pytest.mark.parametrize("walker", ["rejection", "reference"])
    @pytest.mark.parametrize("p, q", STEP_LAW_BIASES)
    def test_step_law(self, walker, p, q):
        graph = law_graph()
        self.check(graph, self.walk(walker, graph, p, q), p, q)

    def test_extreme_bias_finishes_with_the_law(self):
        """A return box of area 1/p - 1 = 1e6 - 1 beside an envelope of height 1:
        the law all but always returns, so each cell is one merged category and
        the check is the count of steps that do not return, a Poisson count."""
        graph = law_graph()
        walks = self.walk("rejection", graph, 1e-6, 1e3)
        prev, cur, nxt = walks[:, :-2].ravel(), walks[:, 1:-1].ravel(), walks[:, 2:].ravel()
        expected = 0.0
        for a, b in set(zip(prev.tolist(), cur.tolist())):
            nbrs, probs = step_distribution(graph, a, b, 1e-6, 1e3)
            visits = np.count_nonzero((prev == a) & (cur == b))
            expected += visits * (1.0 - probs[nbrs == a][0])
        assert expected < 1
        assert poisson.sf(np.count_nonzero(nxt != prev) - 1, expected) > 1e-3

    @pytest.mark.parametrize("p", [1e9, 1e-300])
    def test_extreme_p_on_a_path(self, p):
        """At p = 1e9 a step from node 1 goes on to the leaf it did not come
        from (odds 1e9 : 1) and a leaf returns without a draw; at p = 1e-300
        every step returns, through a return box 1e300 columns wide."""
        walks = generate_walks(PATH3, WalkConfig(walks_per_node=50, walk_length=60, p=p, seed=2))
        back = walks.walks[:, 2:] == walks.walks[:, :-2]
        assert back.all() if p < 1 else np.array_equal(back, walks.walks[:, 1:-1] != 1)

    def test_rejected_walkers_invert_the_law(self):
        """On a ring no step has a neighbor of prev to go to, so at p = q = 1e9
        every candidate weighs 1e-9 against an envelope of 1: all but a few
        walkers exhaust their rejection rounds and invert ``step_distribution``."""
        ring = network_from_edges(24, [(i, (i + 1) % 24) for i in range(24)])
        cfg = WalkConfig(walks_per_node=20, walk_length=42, p=1e9, q=1e9, seed=5)
        with mock.patch.object(walks_module, "step_distribution",
                               wraps=walks_module.step_distribution) as law:
            walks = generate_walks(ring, cfg).walks
        steps = walks.shape[0] * (walks.shape[1] - 2)
        assert law.call_count > 0.99 * steps
        self.check(ring, walks, 1e9, 1e9)

    def test_step_distribution_from_two_rows_matches_whole_graph_keys(self):
        graph = law_graph()
        keys = walks_module._edge_keys(graph)
        for prev, cur in zip(*graph.adjacency.nonzero()):
            nbrs, probs = step_distribution(graph, prev, cur, 0.5, 2.0)
            weights = walks_module._bias_weights(keys, graph.n, prev, nbrs, 0.5, 2.0)
            assert np.array_equal(probs, weights / weights.sum())

    def test_unsorted_rows_are_refused(self):
        graph = law_graph()
        graph.adjacency.indices[:2] = graph.adjacency.indices[1::-1]
        with pytest.raises(ValueError, match="sorted"):
            generate_walks(graph, WalkConfig(walks_per_node=1, walk_length=3, p=0.5))


class TestNegativeDraw:
    """The guide-table negatives of ``sgns_train`` are exactly
    ``np.searchsorted`` on its clamped noise CDF: on the trainer's own draws,
    and on draws forced onto the CDF values, their float neighbors, 0.0 and the
    largest draw below 1. Corpora over 10 nodes leave runs of zero noise weight."""

    @staticmethod
    def check(walks, forced):
        corpus = padded(walks, max(len(w) for w in walks))
        cfg = WalkConfig(walks_per_node=1, walk_length=corpus.walks.shape[1], window=3,
                         negatives=5, epochs=2)
        cdf = np.cumsum(unigram_distribution(corpus, 10))
        cdf[cdf == cdf[-1]] = max(cdf[-1], 1.0)
        on = cdf[cdf < 1.0]
        pool = np.concatenate([on, np.nextafter(on, 0.0), np.nextafter(on, 1.0),
                               [0.0, np.nextafter(1.0, 0.0)]])
        draws, picked = [], []
        seeded = np.random.default_rng

        class Draws:
            def __init__(self, seed):
                self.rng = seeded(seed)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def random(self, size):
                x = self.rng.random(size)
                if size[1] == cfg.negatives:  # the initial vectors are (10, 4)
                    if forced:
                        x[:] = np.resize(pool, x.shape)
                    draws.append(x.copy())
                return x

        def batch(u, v, t_idx, rows, alpha):
            picked.append(rows[:, 1:].copy())

        with mock.patch.object(sgns.np.random, "default_rng", Draws), \
                mock.patch.object(sgns, "_sgns_batch", batch):
            sgns_train(corpus, 10, 4, cfg)
        assert len(draws) == len(picked) > 0
        for x, got in zip(draws, picked):
            assert np.array_equal(got, np.searchsorted(cdf, x))

    @given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=8), min_size=1, max_size=6),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_negatives_are_searchsorted(self, walks, forced):
        self.check(tuple(tuple(w) for w in walks), forced)


class TestSgnsBatch:
    def test_update_is_the_sum_of_pair_gradients(self):
        """One batch moves each row by -alpha times the float64 sum of its
        pairs' ``pair_gradients``; contexts repeat among the negatives."""
        rng = np.random.default_rng(4)
        n, d, b, m, alpha = 7, 5, 12, 3, 0.3
        u0 = rng.normal(size=(n, d)).astype(np.float32)
        v0 = rng.normal(size=(n, d)).astype(np.float32)
        t_idx = rng.integers(0, n, b).astype(np.int32)
        batch_rows = rng.integers(0, n, (b, m + 1)).astype(np.int32)
        batch_rows[0, 2] = batch_rows[0, 0]
        u, v = u0.copy(), v0.copy()
        _sgns_batch(u, v, t_idx, batch_rows, np.float32(alpha))
        du, dv = np.zeros((n, d)), np.zeros((n, d))
        u64, v64 = u0.astype(np.float64), v0.astype(np.float64)
        for t, (c, *negs) in zip(t_idx, batch_rows):
            g_vt, g_uc, g_un = pair_gradients(v64[t], u64[c], u64[negs])
            dv[t] -= alpha * g_vt
            du[c] -= alpha * g_uc
            np.add.at(du, negs, -alpha * g_un)
        assert np.abs(dv).max() > 0.1 and np.abs(du).max() > 0.1
        scale = max(np.abs(u0).max(), np.abs(v0).max(), np.abs(du).max(), np.abs(dv).max())
        tol = 16 * np.finfo(np.float32).eps * scale
        assert np.abs((u - u0) - du).max() <= tol
        assert np.abs((v - v0) - dv).max() <= tol


class TestSgns:
    def test_pair_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(20):
            d, m = 6, 4
            v_t = rng.normal(size=d)
            u_c = rng.normal(size=d)
            u_neg = rng.normal(size=(m, d))
            g_vt, g_uc, g_un = pair_gradients(v_t, u_c, u_neg)
            fd_vt = finite_difference(lambda z: pair_loss(z, u_c, u_neg), v_t)
            fd_uc = finite_difference(lambda z: pair_loss(v_t, z, u_neg), u_c)
            fd_un = finite_difference(lambda z: pair_loss(v_t, u_c, z), u_neg)
            worst = max(
                worst,
                relative_error(g_vt, fd_vt),
                relative_error(g_uc, fd_uc),
                relative_error(g_un, fd_un),
            )
        assert worst < 1e-4

    def test_unigram_distribution_powers_counts(self):
        corpus = WalkCorpus(np.array([[0, 0, 1], [2, -1, -1]], dtype=np.int32))
        dist = unigram_distribution(corpus, 3)
        raw = np.array([2.0, 1.0, 1.0]) ** 0.75
        assert np.allclose(dist, raw / raw.sum())

    def test_corpus_pairs_window(self):
        targets, contexts = corpus_pairs(WalkCorpus(np.array([[0, 1, 2]], np.int32)), window=1)
        got = set(zip(targets.tolist(), contexts.tolist()))
        assert got == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_deterministic_training(self):
        cfg = WalkConfig(walks_per_node=3, walk_length=10, epochs=2, seed=4)
        corpus = generate_walks(TRIANGLE, cfg)
        a = sgns_train(corpus, 3, 4, cfg)
        b = sgns_train(corpus, 3, 4, cfg)
        assert np.array_equal(a, b)

    def test_negative_draw_above_the_last_noise_value(self):
        """Rounding leaves this corpus's noise CDF below the largest uniform
        draw; such a draw samples the last node, not index n."""
        corpus = WalkCorpus(np.arange(7, dtype=np.int32)[None, :])
        top = np.nextafter(1.0, 0.0)
        assert np.cumsum(unigram_distribution(corpus, 7))[-1] < top
        cfg = WalkConfig(walks_per_node=1, walk_length=7, negatives=5, epochs=1)
        seeded = np.random.default_rng

        class TopNegatives:
            def __init__(self, seed):
                self.rng = seeded(seed)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def random(self, size):
                draws = self.rng.random(size)
                if draws.shape[1] == cfg.negatives:
                    draws[:] = top
                return draws

        with mock.patch.object(sgns.np.random, "default_rng", TopNegatives):
            vectors = sgns_train(corpus, 7, 4, cfg)
        assert np.isfinite(vectors).all()

    def test_two_cliques_separate(self):
        g = two_cliques(5)
        cfg = WalkConfig(walks_per_node=20, walk_length=20, epochs=5, seed=1)
        emb = node2vec(g, 8, cfg).vectors
        unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        cosine = unit @ unit.T
        block = np.zeros((10, 10), dtype=bool)
        block[:5, :5] = block[5:, 5:] = True
        np.fill_diagonal(block, False)
        intra = cosine[block].mean()
        inter = cosine[~block & ~np.eye(10, dtype=bool)].mean()
        assert intra > inter


class TestGraphFactorization:
    def test_single_edge_rank_one_fit(self):
        g = network_from_edges(2, [(0, 1)])
        emb = graph_factorization(g, 1, lam=0.0, lr=0.1, epochs=500, seed=0)
        product = float(emb.vectors[0] @ emb.vectors[1])
        assert product == pytest.approx(1.0, abs=1e-3)
        assert emb.info["loss"] < 1e-5

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        edges = np.array([(0, 1), (1, 2), (2, 3), (0, 3)])
        worst = 0.0
        for _ in range(10):
            y = rng.normal(size=(4, 3))
            grad = gf_gradient(y, edges, lam=0.01)
            fd = finite_difference(lambda z: gf_objective(z, edges, 0.01), y)
            worst = max(worst, relative_error(grad, fd))
        assert worst < 1e-4

    def test_deterministic(self):
        g = two_cliques(4)
        a = graph_factorization(g, 3, epochs=20, seed=9)
        b = graph_factorization(g, 3, epochs=20, seed=9)
        assert np.array_equal(a.vectors, b.vectors)


class TestWalkEmbeddings:
    def test_deepwalk_equals_node2vec_at_unit_pq(self):
        cfg = WalkConfig(walks_per_node=3, walk_length=12, epochs=2, seed=2)
        a = deepwalk(TRIANGLE, 6, cfg)
        b = node2vec(TRIANGLE, 6, cfg)
        assert np.array_equal(a.vectors, b.vectors)
        assert a.method == "deepwalk" and b.method == "node2vec"

    def test_deepwalk_overrides_pq(self):
        biased = WalkConfig(walks_per_node=3, walk_length=12, epochs=2, p=0.25, q=4.0, seed=2)
        unit = WalkConfig(walks_per_node=3, walk_length=12, epochs=2, seed=2)
        assert np.array_equal(
            deepwalk(TRIANGLE, 6, biased).vectors, node2vec(TRIANGLE, 6, unit).vectors
        )

    def test_output_shape_and_finiteness(self):
        cfg = WalkConfig(walks_per_node=2, walk_length=10, epochs=1, seed=0)
        emb = node2vec(TRIANGLE, 16, cfg)
        assert emb.vectors.shape == (3, 16)
        assert np.isfinite(emb.vectors).all()

    def test_default_dimension_is_200(self):
        cfg = WalkConfig(walks_per_node=1, walk_length=4, epochs=1, seed=0)
        emb = deepwalk(TRIANGLE, config=cfg)
        assert emb.vectors.shape == (3, 200)

    def test_node2vec_bytes_do_not_depend_on_blas_threads(self):
        # node2vec, then the three spectral methods, whose ARPACK solves
        # (d=16 on 200 nodes) run through BLAS too
        root = Path(__file__).resolve().parents[1]
        script = (
            "import sys, numpy as np\n"
            "from seqnet.embed import WalkConfig, hope_embed, laplacian_eigenmaps, lle_embed, node2vec\n"
            "from seqnet.ssn import network_from_edges\n"
            "edges = np.random.default_rng(8).integers(0, 200, size=(1200, 2))\n"
            "graph = network_from_edges(200, edges)\n"
            "cfg = WalkConfig(walks_per_node=2, walk_length=20, p=0.5, q=2.0, epochs=1, seed=3)\n"
            "sys.stdout.buffer.write(node2vec(graph, 64, cfg).vectors.tobytes())\n"
            "for method in (laplacian_eigenmaps, lle_embed, hope_embed):\n"
            "    sys.stdout.buffer.write(method(graph, 16).vectors.tobytes())\n"
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
        assert len(outputs[0]) == 200 * (64 + 3 * 16) * 8
        assert outputs[0] == outputs[1]

    def test_save_embedding_text_is_the_per_float_repr(self, tmp_path):
        vectors = np.array([[-0.0, 5e-324, 1e300, -1e300],
                            [0.1, -2.5, 1 / 3, np.nextafter(1.0, 2.0)],
                            [np.inf, -np.inf, 7.0, 1e-7]])
        vectors = np.vstack([vectors, np.random.default_rng(3).normal(size=(4, 4))])
        path = tmp_path / "emb.csv"
        save_embedding(EmbeddingMatrix(vectors, "hope", 4), path)
        want = "node_index,e0,e1,e2,e3\n" + "".join(
            str(i) + "," + ",".join(repr(float(x)) for x in row) + "\n"
            for i, row in enumerate(vectors)
        )
        assert path.read_text() == want

    def test_load_embedding_round_trips_extreme_floats(self, tmp_path):
        vectors = np.array([[-0.0, 5e-324, 1e300, -1e300],
                            [np.inf, -np.inf, 0.1, np.nextafter(1.0, 2.0)]])
        vectors = np.vstack([vectors, np.random.default_rng(4).normal(size=(5, 4))])
        path = tmp_path / "emb.csv"
        save_embedding(EmbeddingMatrix(vectors, "hope", 4), path)
        back = load_embedding(path).vectors
        assert back.shape == (7, 4) and back.flags["C_CONTIGUOUS"]
        assert back.tobytes() == vectors.tobytes()  # -0.0 keeps its sign bit

    @pytest.mark.parametrize("body, line", [
        ("0,0.5\n1.0,0.5\n", 3),  # a node index numpy's float reader takes
        ("0,0.5\n2,0.5\n", 3),  # an index out of order
        ("0,0.5\n\n1,0.5,0.5\n", 4),  # a surplus field after a blank line
        ("0,0.5\n1,nope\n", 3),
    ])
    def test_load_embedding_names_the_bad_line(self, tmp_path, body, line):
        path = tmp_path / "emb.csv"
        path.write_text("node_index,e0\n" + body)
        with pytest.raises(ParseError) as info:
            load_embedding(path)
        assert info.value.line == line

    def test_load_embedding_line_scan_reads_what_float_reads(self, tmp_path):
        # numpy's reader refuses digit separators; the line scan, like
        # float(), takes them
        path = tmp_path / "emb.csv"
        path.write_text("node_index,e0\n0,1_000.5\n1,-2\n")
        assert load_embedding(path).vectors.tolist() == [[1000.5], [-2.0]]

    def test_save_load_round_trip(self, tmp_path):
        cfg = WalkConfig(walks_per_node=2, walk_length=8, epochs=1, seed=6)
        emb = node2vec(TRIANGLE, 5, cfg)
        path = tmp_path / "emb.csv"
        save_embedding(emb, path)
        back = load_embedding(path)
        assert back.method == "node2vec"
        assert np.array_equal(back.vectors, emb.vectors)
