"""Reference walk corpus: the tuple code ``seqnet.embed`` ran before the array corpus.

A corpus here is a tuple of walks, each a tuple of Python ints. The walker
draws one ``rng.random(walk_length - 1)`` per root and steps one walker at a
time; the unigram counts and the skip-gram pairs loop over the walks in
Python. ``seqnet.embed.generate_walks`` must give the same walks row for
row, ``unigram_distribution`` the same array and ``corpus_pairs`` the same
pairs in the same order, so that ``sgns_train`` returns the same vectors as
:func:`sgns_train` here, the trainer fed by these tuple functions.
"""

from unittest import mock

import numpy as np

from seqnet.embed import sgns
from seqnet.embed.walks import _bias_weights
from seqnet.errors import ConfigError


def generate_walks(graph, config):
    """``walks_per_node`` truncated walks from every node, roots shuffled per pass."""
    rng = np.random.default_rng(config.seed)
    n = graph.n
    neighbors = [graph.neighbors(u) for u in range(n)]
    uniform = config.p == 1.0 and config.q == 1.0

    walks = []
    for _ in range(config.walks_per_node):
        for start in rng.permutation(n):
            cur = int(start)
            walk = [cur]
            draws = rng.random(config.walk_length - 1)
            for step in range(config.walk_length - 1):
                nbrs = neighbors[cur]
                if nbrs.size == 0:
                    break
                if uniform or len(walk) == 1:
                    nxt = int(nbrs[int(draws[step] * nbrs.size)])
                else:
                    prev = walk[-2]
                    weights = _bias_weights(prev, neighbors[prev], nbrs, config.p, config.q)
                    cumulative = np.cumsum(weights)
                    pos = int(
                        np.searchsorted(cumulative, draws[step] * cumulative[-1], side="right")
                    )
                    nxt = int(nbrs[min(pos, nbrs.size - 1)])
                walk.append(nxt)
                cur = nxt
            walks.append(tuple(walk))
    return tuple(walks)


def unigram_distribution(walks, n):
    """Noise distribution: each node's corpus count to the 3/4 power, normalised."""
    counts = np.zeros(n)
    for walk in walks:
        for node in walk:
            counts[node] += 1
    weights = counts**0.75
    total = weights.sum()
    if total == 0:
        raise ConfigError("empty corpus")
    return weights / total


def corpus_pairs(walks, window):
    """All (target, context) pairs within the symmetric window, per walk and
    per offset, near->far before far->near."""
    t_parts = []
    c_parts = []
    for walk in walks:
        arr = np.asarray(walk, dtype=np.int64)
        for offset in range(1, min(window, len(arr) - 1) + 1):
            near, far = arr[:-offset], arr[offset:]
            t_parts.extend((near, far))
            c_parts.extend((far, near))
    if not t_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(t_parts), np.concatenate(c_parts)


def sgns_train(walks, n, d, config):
    """``seqnet.embed.sgns_train`` with its pairs and noise from the tuple corpus."""
    with mock.patch.object(sgns, "corpus_pairs", corpus_pairs), mock.patch.object(
        sgns, "unigram_distribution", unigram_distribution
    ):
        return sgns.sgns_train(walks, n, d, config)
