"""Reference walks and skip-gram trainer: the code ``seqnet.embed`` ran before
the rejection-sampled walker and the batch kernel.

A corpus here is a tuple of walks, each a tuple of Python ints. The walker
draws one ``rng.random(walk_length - 1)`` per root and steps one walker at a
time, a biased step by inverting the cumulative p/q weights; the unigram
counts and the skip-gram pairs loop over the walks in Python, and
:func:`sgns_train` is the einsum trainer with COO scatters, in which each
group of consecutive pairs shares one negative set (at group 1, each pair
draws its own). :func:`per_pair_batch` is the batch kernel ``seqnet.embed``
ran while every pair drew its own m negatives.

``seqnet.embed.generate_walks`` must give the same walks row for row at
p = q = 1 and for walks of at most two nodes; for other biases only the step
law (:func:`seqnet.embed.step_distribution`) is shared. ``unigram_distribution``
and ``corpus_pairs`` must give the same arrays on any corpus, and
``seqnet.embed.sgns_train`` the vectors of :func:`sgns_train` at its pair group
up to float32 rounding. :func:`pair_loss` and :func:`pair_gradients` are one
pair's negated skip-gram objective and its gradients, which the batch kernels
must sum.
"""

import numpy as np
from scipy import sparse
from scipy.special import expit

from seqnet.embed.sgns import _BATCH_CAP, _BATCH_PER_NODE, _MIN_LR_FRACTION
from seqnet.errors import ConfigError


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def pair_loss(v_t, u_c, u_neg):
    """Negative skip-gram objective for one (target, context, negatives) triple."""
    positive = _log_sigmoid(float(u_c @ v_t))
    negative = _log_sigmoid(-(u_neg @ v_t)).sum() if len(u_neg) else 0.0
    return -(positive + negative)


def pair_gradients(v_t, u_c, u_neg):
    """Gradients of :func:`pair_loss` w.r.t. v_t, u_c and each negative row."""
    s_pos = expit(float(u_c @ v_t))
    s_neg = expit(u_neg @ v_t) if len(u_neg) else np.zeros(0)
    g_vt = -(1.0 - s_pos) * u_c + (s_neg[:, None] * u_neg).sum(axis=0)
    g_uc = -(1.0 - s_pos) * v_t
    g_un = s_neg[:, None] * v_t[None, :]
    return g_vt, g_uc, g_un


def bias_weights(prev, prev_nbrs, nbrs, p, q):
    """Unnormalized p/q weights for stepping to each of ``nbrs`` after ``prev``."""
    pos = np.minimum(np.searchsorted(prev_nbrs, nbrs), len(prev_nbrs) - 1)
    weights = np.where(prev_nbrs[pos] == nbrs, 1.0, 1.0 / q)
    weights[nbrs == prev] = 1.0 / p
    return weights


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
                    weights = bias_weights(prev, neighbors[prev], nbrs, config.p, config.q)
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


def per_pair_batch(u, v, t_idx, rows, alpha):
    """One in-place step, from the batch-start parameters, for the pairs
    (``t_idx[i]``, ``rows[i, 0]``) with negatives ``rows[i, 1:]``: one
    ``u[rows]`` gather, two batched matmuls for the scores and the target
    gradients, and scatters through the transpose of a (b x n) CSR matrix
    with m+1 entries alpha * (label - sigmoid) per row for u, one alpha for v."""
    b, width = rows.shape
    vt, ur = v[t_idx], u[rows]
    coeff = -expit(np.matmul(ur, vt[:, :, None])[:, :, 0])
    coeff[:, 0] += 1.0
    dv = np.matmul(coeff[:, None, :], ur)[:, 0]
    layout = np.arange(0, b * width + 1, width)
    u += sparse.csr_matrix(((alpha * coeff).ravel(), rows.ravel(), layout), (b, len(u))).T @ vt
    v += sparse.csr_matrix((np.full(b, alpha), t_idx, np.arange(b + 1)), (b, len(v))).T @ dv


def sgns_train(walks, n, d, config, group):
    """Skip-gram vectors from the tuple corpus: negatives by ``np.searchsorted``
    on the noise CDF, three einsums per batch and scatters through COO-built
    CSR matrices, with the batch size, permutation, learning-rate schedule and
    RNG calls of ``seqnet.embed.sgns_train``. Each batch draws one (G, m)
    block for its G = ceil(b / group) groups of consecutive pairs, and each
    pair takes its group's row; at ``group=1`` every pair draws its own."""
    batch_size = min(_BATCH_CAP, max(256, _BATCH_PER_NODE * n))
    targets, contexts = corpus_pairs(walks, config.window)
    noise_cdf = np.cumsum(unigram_distribution(walks, n))
    noise_cdf[noise_cdf == noise_cdf[-1]] = max(noise_cdf[-1], 1.0)
    rng = np.random.default_rng(config.seed)
    v = ((rng.random((n, d)) - 0.5) / d).astype(np.float32)
    u = np.zeros((n, d), dtype=np.float32)
    n_pairs = len(targets)
    if n_pairs == 0:
        return v.astype(np.float64)
    m = config.negatives
    batches_total = config.epochs * ((n_pairs + batch_size - 1) // batch_size)
    batch_index = 0
    for _ in range(config.epochs):
        order = rng.permutation(n_pairs)
        for start in range(0, n_pairs, batch_size):
            chunk = order[start : start + batch_size]
            b = len(chunk)
            t_idx = targets[chunk]
            c_idx = contexts[chunk]
            sets = np.searchsorted(noise_cdf, rng.random((-(-b // group), m)))
            neg_idx = np.repeat(sets, group, axis=0)[:b]
            alpha = np.float32(
                config.learning_rate
                * max(1.0 - batch_index / batches_total, _MIN_LR_FRACTION)
            )
            vt = v[t_idx]
            uc = u[c_idx]
            un = u[neg_idx]
            s_pos = expit(np.einsum("bd,bd->b", vt, uc))
            s_neg = expit(np.einsum("bmd,bd->bm", un, vt))
            coeff = 1.0 - s_pos
            dv = coeff[:, None] * uc - np.einsum("bm,bmd->bd", s_neg, un)
            cols = np.arange(b)
            u_rows = np.concatenate([c_idx, neg_idx.ravel()])
            u_cols = np.concatenate([cols, np.repeat(cols, m)])
            u_data = np.concatenate([coeff, -s_neg.ravel()])
            scatter_u = sparse.csr_matrix((u_data, (u_rows, u_cols)), shape=(n, b))
            u += alpha * (scatter_u @ vt)
            scatter_v = sparse.csr_matrix(
                (np.ones(b, dtype=np.float32), (t_idx, cols)), shape=(n, b)
            )
            v += alpha * (scatter_v @ dv)
            batch_index += 1
    return v.astype(np.float64)
