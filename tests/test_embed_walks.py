import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import factorization_reference
import walks_reference as reference
from conftest import finite_difference, relative_error
from factorization_reference import gf_gradient
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, poisson
from walks_reference import pair_gradients, pair_loss

from seqnet import tables
from seqnet.config import PipelineConfig
from seqnet.embed import (
    EmbeddingMatrix,
    WalkConfig,
    deepwalk,
    generate_walks,
    gf_objective,
    graph_factorization,
    load_embedding,
    node2vec,
    save_embedding,
    sgns_train,
    step_distribution,
    unigram_distribution,
)
from seqnet.embed import factorization, sgns
from seqnet.embed import walks as walks_module
from seqnet.embed.factorization import _level_schedule
from seqnet.embed.sgns import _sgns_batch, corpus_pairs
from seqnet.embed.walks import WalkCorpus
from seqnet.errors import ConfigError, DivergenceError, ParseError
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_learning_rate_must_be_finite(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            WalkConfig(learning_rate=bad)

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
        want = reference.sgns_train(walks, graph.n, 6, cfg, group=sgns._GROUP)
        # float32 rounding only
        assert np.abs(got - want).max() <= SGNS_EPS * np.abs(want).max()

    @pytest.mark.parametrize("kernel", ["grouped", "per_pair"])
    def test_sgns_vectors_at_one_pair_per_group(self, kernel, monkeypatch):
        """At group 1 every pair draws its own m negatives, the law before
        shared negatives: the trainer matches the reference there with its own
        kernel and with the per-pair kernel it ran under that law."""
        monkeypatch.setattr(sgns, "_GROUP", 1)
        if kernel == "per_pair":
            def per_pair(u, v, t_idx, c_idx, negatives, alpha, group):
                reference.per_pair_batch(u, v, t_idx, np.column_stack([c_idx, negatives]), alpha)
                return 0.0

            monkeypatch.setattr(sgns, "_sgns_batch", per_pair)
        graph = network_from_edges(12, zip(*two_cliques(5).adjacency.nonzero()))
        cfg = WalkConfig(walks_per_node=3, walk_length=12, window=4, p=0.5, q=2.0, epochs=2,
                         seed=7)
        corpus, walks = self.check(graph, cfg)
        got = sgns_train(corpus, graph.n, 6, cfg)
        want = reference.sgns_train(walks, graph.n, 6, cfg, group=1)
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

    def test_corpus_nodes_must_be_graph_nodes(self):
        corpus = WalkCorpus(np.array([[0, 1, 4]], dtype=np.int32))
        with pytest.raises(ConfigError, match="node 4"):
            sgns_train(corpus, 4, 2, WalkConfig(walks_per_node=1, walk_length=3))

    def test_empty_graph_is_an_empty_corpus(self):
        graph = network_from_edges(0, [])
        cfg = WalkConfig(walks_per_node=2, walk_length=5)
        corpus = generate_walks(graph, cfg)
        walks = reference.generate_walks(graph, cfg)
        assert corpus.walks.shape == (0, 5) and walks == ()
        for train in (lambda: sgns_train(corpus, 0, 4, cfg),
                      lambda: reference.sgns_train(walks, 0, 4, cfg, group=sgns._GROUP)):
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
    ``np.searchsorted`` on its clamped noise CDF, one (G, m) block per batch
    for its G = ceil(b / group) pair groups: on the trainer's own draws, and on
    draws forced onto the CDF values, their float neighbors, 0.0 and the
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

        def batch(u, v, t_idx, c_idx, negatives, alpha, group):
            assert group == sgns._GROUP
            assert negatives.shape == (-(-len(t_idx) // group), cfg.negatives)
            picked.append(negatives.copy())
            return 0.0

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


def pair_gradient_step(u0, v0, t_idx, c_idx, pair_negatives, alpha):
    """The float64 moves of u and v for one batch, -alpha times the sum of its
    pairs' ``pair_gradients``, and the sum of their ``pair_loss``."""
    du, dv = np.zeros(u0.shape), np.zeros(v0.shape)
    u64, v64 = u0.astype(np.float64), v0.astype(np.float64)
    loss = 0.0
    for t, c, negs in zip(t_idx, c_idx, pair_negatives):
        g_vt, g_uc, g_un = pair_gradients(v64[t], u64[c], u64[negs])
        dv[t] -= alpha * g_vt
        du[c] -= alpha * g_uc
        np.add.at(du, negs, -alpha * g_un)
        loss += pair_loss(v64[t], u64[c], u64[negs])
    return du, dv, loss


def assert_step(u0, v0, u, v, du, dv):
    """Each row moved by its float64 sum, up to float32 rounding."""
    assert np.abs(dv).max() > 0.1 and np.abs(du).max() > 0.1
    scale = max(np.abs(u0).max(), np.abs(v0).max(), np.abs(du).max(), np.abs(dv).max())
    tol = 16 * np.finfo(np.float32).eps * scale
    assert np.abs((u - u0) - du).max() <= tol
    assert np.abs((v - v0) - dv).max() <= tol


class TestSgnsBatch:
    def test_update_is_the_sum_of_pair_gradients(self):
        """One batch moves each row by -alpha times the float64 sum of its
        pairs' ``pair_gradients``, where pair i takes the negatives of its
        group i // group, and returns the sum of their ``pair_loss``. The
        last group may be short; a context repeats among its group's shared
        negatives, a target repeats within a group, and a negative repeats
        within its set."""
        rng = np.random.default_rng(4)
        n, d, m, alpha = 7, 5, 3, 0.3
        for b, group in [(11, 4), (12, 4), (5, 8), (7, 1)]:
            u0 = rng.normal(size=(n, d)).astype(np.float32)
            v0 = rng.normal(size=(n, d)).astype(np.float32)
            t_idx = rng.integers(0, n, b).astype(np.int32)
            c_idx = rng.integers(0, n, b).astype(np.int32)
            negatives = rng.integers(0, n, (-(-b // group), m))
            negatives[0, 1] = c_idx[0]
            negatives[-1, 0] = negatives[-1, 2]
            t_idx[-1] = t_idx[-2]
            u, v = u0.copy(), v0.copy()
            loss = _sgns_batch(u, v, t_idx, c_idx, negatives, np.float32(alpha), group)
            du, dv, want_loss = pair_gradient_step(
                u0, v0, t_idx, c_idx, negatives[np.arange(b) // group], alpha)
            assert_step(u0, v0, u, v, du, dv)
            assert abs(loss - want_loss) <= 1e-5 * want_loss

    def test_per_pair_kernel_is_the_sum_of_pair_gradients(self):
        """The reference's per-pair kernel: negatives ``rows[i, 1:]`` for each
        pair, contexts repeating among them."""
        rng = np.random.default_rng(4)
        n, d, b, m, alpha = 7, 5, 12, 3, 0.3
        u0 = rng.normal(size=(n, d)).astype(np.float32)
        v0 = rng.normal(size=(n, d)).astype(np.float32)
        t_idx = rng.integers(0, n, b).astype(np.int32)
        batch_rows = rng.integers(0, n, (b, m + 1)).astype(np.int32)
        batch_rows[0, 2] = batch_rows[0, 0]
        u, v = u0.copy(), v0.copy()
        reference.per_pair_batch(u, v, t_idx, batch_rows, np.float32(alpha))
        du, dv, _ = pair_gradient_step(u0, v0, t_idx, batch_rows[:, 0], batch_rows[:, 1:], alpha)
        assert_step(u0, v0, u, v, du, dv)


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

    def test_divergence_raises_naming_the_epoch(self):
        cfg = WalkConfig(walks_per_node=5, walk_length=10, epochs=3, learning_rate=1e30, seed=0)
        corpus = generate_walks(TRIANGLE, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"diverged in epoch 1 of 3"):
                sgns_train(corpus, 3, 4, cfg)

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


GF_GRAPHS = {
    "star": network_from_edges(10, [(0, i) for i in range(1, 10)]),
    "path": network_from_edges(12, [(i, i + 1) for i in range(11)]),
    "two_cliques": two_cliques(5),
    "isolated": network_from_edges(9, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 7)]),
    "edgeless": network_from_edges(4, []),
    "random": network_from_edges(40, np.random.default_rng(6).integers(0, 40, size=(160, 2))),
}


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

    @pytest.mark.parametrize("name", sorted(GF_GRAPHS))
    @pytest.mark.parametrize("d", [1, 3, 16, 200])
    def test_bits_equal_the_per_edge_loop(self, name, d):
        graph = GF_GRAPHS[name]
        for seed, epochs in ((0, 1), (4, 3), (11, 6)):
            emb = graph_factorization(graph, d, epochs=epochs, seed=seed)
            vectors, loss = factorization_reference.graph_factorization(
                graph, d, epochs=epochs, seed=seed)
            assert np.array_equal(emb.vectors, vectors), (seed, epochs)
            assert emb.info["loss"] == loss, (seed, epochs)

    @pytest.mark.parametrize("gather_floats", [1, 7, 64, 1 << 18])
    def test_objective_blocks_keep_the_bits(self, monkeypatch, gather_floats):
        monkeypatch.setattr(factorization, "_GATHER_FLOATS", gather_floats)
        rng = np.random.default_rng(5)
        for d in (1, 3, 16, 200):
            y = rng.normal(size=(30, d))
            edges = rng.integers(0, 30, size=(97, 2))
            assert gf_objective(y, edges, 0.01) == factorization_reference.gf_objective(
                y, edges, 0.01)

    def test_bits_equal_the_per_edge_loop_with_other_steps(self):
        graph = GF_GRAPHS["random"]
        for lam, lr in ((0.0, 0.3), (0.05, 0.01)):
            emb = graph_factorization(graph, 5, lam=lam, lr=lr, epochs=4, seed=2)
            vectors, loss = factorization_reference.graph_factorization(
                graph, 5, lam=lam, lr=lr, epochs=4, seed=2)
            assert np.array_equal(emb.vectors, vectors)
            assert emb.info["loss"] == loss

    @given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                         max_size=40))
    def test_level_schedule_is_disjoint_and_keeps_each_nodes_order(self, n, pairs):
        edges = np.array([(i % n, j % n) for i, j in pairs if i % n != j % n],
                         dtype=np.int64).reshape(-1, 2)
        ordered, bounds = _level_schedule(edges, n)
        assert bounds[0] == 0 and bounds[-1] == len(edges)
        assert (np.diff(bounds) > 0).all()
        position = {}
        for e, (i, j) in enumerate(edges.tolist()):
            position.setdefault((i, j), []).append(e)
        # ordered is a permutation of edges that keeps repeats in order
        order = [position[(i, j)].pop(0) for i, j in ordered.tolist()]
        assert sorted(order) == list(range(len(edges)))
        level = np.empty(len(edges), dtype=np.int64)
        level[order] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            nodes = ordered[start:stop].ravel()
            assert len(set(nodes.tolist())) == len(nodes)
        for node in range(n):
            mine = [e for e in range(len(edges)) if node in edges[e]]
            assert all(level[a] < level[b] for a, b in zip(mine, mine[1:]))
        # as soon as possible: an edge past the first level meets one of the level before
        for e in range(len(edges)):
            if level[e] > 0:
                before = ordered[bounds[level[e] - 1]:bounds[level[e]]].ravel()
                assert np.isin(edges[e], before).any()

    def test_counters(self, tmp_path):
        star = GF_GRAPHS["star"]
        emb = graph_factorization(star, 2, epochs=3, seed=0)
        # every star edge meets the hub, so each level holds one edge
        assert emb.info["edge_updates"] == emb.info["batches"] == 3 * 9
        path = graph_factorization(network_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 2,
                                   epochs=4, seed=0)
        assert path.info["edge_updates"] == 16
        assert 4 * 2 <= path.info["batches"] <= 4 * 4
        empty = graph_factorization(GF_GRAPHS["edgeless"], 2, epochs=5, seed=0)
        assert empty.info["edge_updates"] == empty.info["batches"] == 0
        save_embedding(emb, tmp_path / "gf.csv")
        meta = (tmp_path / "gf.csv.meta").read_text().splitlines()
        assert "batches=27" in meta and "edge_updates=27" in meta
        assert graph_factorization(star, 2, epochs=3, seed=0).info == emb.info

    @pytest.mark.parametrize("bad", [
        {"lr": np.nan}, {"lr": np.inf}, {"lr": 0.0}, {"lr": -0.1},
        {"lam": np.nan}, {"lam": np.inf}, {"lam": -1e-4},
    ])
    def test_step_sizes_must_be_finite_and_in_range(self, bad):
        with pytest.raises(ConfigError):
            graph_factorization(PATH3, 2, **bad)

    def test_divergence_raises_naming_the_epoch(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"diverged in epoch \d+ of 5"):
                graph_factorization(PATH3, 2, lr=1e3, epochs=5, seed=0)


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
        # (d=16 on 200 nodes) run through BLAS too, then graph factorization,
        # whose residuals are BLAS dot products, then SGNS at b = 4,096 pairs a
        # batch (n = 1,500), where each group's score and gradient products
        # are (32 x 200)(200 x 5) and (5 x 32)(32 x 200) GEMMs
        root = Path(__file__).resolve().parents[1]
        script = (
            "import sys, numpy as np\n"
            "from seqnet.embed import (WalkConfig, generate_walks, graph_factorization,\n"
            "                          hope_embed, laplacian_eigenmaps, lle_embed, node2vec,\n"
            "                          sgns_train)\n"
            "from seqnet.ssn import network_from_edges\n"
            "edges = np.random.default_rng(8).integers(0, 200, size=(1200, 2))\n"
            "graph = network_from_edges(200, edges)\n"
            "cfg = WalkConfig(walks_per_node=2, walk_length=20, p=0.5, q=2.0, epochs=1, seed=3)\n"
            "sys.stdout.buffer.write(node2vec(graph, 64, cfg).vectors.tobytes())\n"
            "for method in (laplacian_eigenmaps, lle_embed, hope_embed):\n"
            "    sys.stdout.buffer.write(method(graph, 16).vectors.tobytes())\n"
            "sys.stdout.buffer.write(graph_factorization(graph, 200, epochs=3).vectors.tobytes())\n"
            "edges = np.random.default_rng(5).integers(0, 1500, size=(6000, 2))\n"
            "graph = network_from_edges(1500, edges)\n"
            "cfg = WalkConfig(walks_per_node=1, walk_length=12, window=3, epochs=2, seed=3)\n"
            "corpus = generate_walks(graph, cfg)\n"
            "sys.stdout.buffer.write(sgns_train(corpus, graph.n, 200, cfg).tobytes())\n"
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
        assert len(outputs[0]) == (200 * (64 + 3 * 16 + 200) + 1500 * 200) * 8
        assert outputs[0] == outputs[1]

    def test_counters(self, tmp_path, monkeypatch):
        """walk_steps counts real steps (none from the isolated roots 3 and 4),
        sgns_pairs and negative_sets count over all epochs, and final_loss is
        the mean of the last epoch's kernel losses over its pairs."""
        graph = network_from_edges(5, [(0, 1), (1, 2)])
        cfg = WalkConfig(walks_per_node=2, walk_length=6, window=2, epochs=3, seed=1)
        losses = []
        kernel = sgns._sgns_batch

        def recorded(*args):
            losses.append(kernel(*args))
            return losses[-1]

        monkeypatch.setattr(sgns, "_sgns_batch", recorded)
        emb = node2vec(graph, 4, cfg)
        pairs = len(corpus_pairs(generate_walks(graph, cfg), cfg.window)[0])
        assert pairs == 3 * 2 * 2 * (5 + 4) and len(losses) == 3  # one batch per epoch
        assert emb.info["walk_steps"] == 3 * 2 * 5
        assert emb.info["sgns_pairs"] == 3 * pairs
        assert emb.info["negative_sets"] == 3 * -(-pairs // sgns._GROUP)
        assert emb.info["final_loss"] == losses[-1] / pairs > 0
        assert deepwalk(graph, 4, cfg).info == emb.info
        save_embedding(emb, tmp_path / "n2v.csv")
        meta = (tmp_path / "n2v.csv.meta").read_text().splitlines()
        for key in ("walk_steps", "sgns_pairs", "negative_sets", "final_loss"):
            assert f"{key}={emb.info[key]}" in meta
        monkeypatch.undo()
        assert node2vec(graph, 4, cfg).info == emb.info

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

    def test_saved_embedding_is_parsed_without_the_line_scan(self, tmp_path):
        vectors = np.array([[-0.0, 5e-324, 1e300, np.nan],
                            [np.inf, -np.inf, 0.1, np.nextafter(1.0, 2.0)]])
        vectors = np.vstack([vectors, np.random.default_rng(5).normal(size=(30, 4))])
        path = tmp_path / "emb.csv"
        save_embedding(EmbeddingMatrix(vectors, "hope", 4), path)
        with mock.patch.object(tables, "_scan", side_effect=AssertionError):
            assert load_embedding(path).vectors.tobytes() == vectors.tobytes()

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
