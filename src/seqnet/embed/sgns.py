"""Skip-gram with negative sampling over walk corpora.

For every (target, context) pair within the window the trainer ascends

    log sigmoid(u_c . v_t) + sum_neg log sigmoid(-u_x . v_t)

with negatives drawn from the corpus unigram distribution raised to 3/4.
The pairs come from the walk array in one fixed order (:func:`corpus_pairs`),
and updates are applied in deterministic mini-batches over a seeded
permutation of them, so a fixed seed reproduces the embedding exactly. The
per-pair loss and gradients are exposed for finite-difference checking.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.special import expit

from ..errors import ConfigError
from .walks import WalkConfig, WalkCorpus

_MIN_LR_FRACTION = 1e-4
_BATCH_CAP = 4096
_BATCH_PER_NODE = 3


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def pair_loss(v_t: np.ndarray, u_c: np.ndarray, u_neg: np.ndarray) -> float:
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


def unigram_distribution(corpus: WalkCorpus, n: int) -> np.ndarray:
    """Noise distribution: each node's corpus count to the 3/4 power, normalised."""
    weights = np.bincount(corpus.walks[corpus.walks >= 0], minlength=n) ** 0.75
    total = weights.sum()
    if total == 0:
        raise ConfigError("empty corpus")
    return weights / total


def corpus_pairs(corpus: WalkCorpus, window: int) -> tuple[np.ndarray, np.ndarray]:
    """All (target, context) pairs within the symmetric window, in the corpus dtype.

    One position template over the corpus width is gathered from every walk,
    and a pair is dropped where either end is the -1 fill. The order is walk,
    then offset 1..window, then the offset's near->far pairs before its
    far->near pairs, each by position; the trainer's permutation indexes it.
    """
    pos = np.arange(corpus.walks.shape[1])
    # the empty slices keep the template defined when no offset fits a walk
    t_pos, c_pos = [pos[:0]], [pos[:0]]
    for offset in range(1, min(window, len(pos) - 1) + 1):
        t_pos += [pos[:-offset], pos[offset:]]
        c_pos += [pos[offset:], pos[:-offset]]
    targets = corpus.walks[:, np.concatenate(t_pos)].ravel()
    contexts = corpus.walks[:, np.concatenate(c_pos)].ravel()
    keep = (targets >= 0) & (contexts >= 0)
    return targets[keep], contexts[keep]


def sgns_train(corpus: WalkCorpus, n: int, d: int, config: WalkConfig) -> np.ndarray:
    """Train target vectors (n x d) for ``config.epochs`` passes over the pairs.

    The learning rate decays linearly per batch down to a small floor, the
    word2vec convention. Per-pair gradients within a batch are computed from
    the batch-start parameters and aggregated through sparse matrix products,
    which keeps the update deterministic and fast without changing what each
    pair contributes. The batch size grows with the node count so a
    parameter row only ever absorbs a few summed gradients per step (large
    batches on small graphs overshoot and diverge). Returns the target-side
    matrix.
    """
    batch_size = min(_BATCH_CAP, max(256, _BATCH_PER_NODE * n))
    targets, contexts = corpus_pairs(corpus, config.window)
    noise_cdf = np.cumsum(unigram_distribution(corpus, n))
    # rounding can leave the last value below 1.0, and a draw above it would
    # index n: the last node with noise weight takes every draw up to 1.0
    noise_cdf[noise_cdf == noise_cdf[-1]] = max(noise_cdf[-1], 1.0)
    rng = np.random.default_rng(config.seed)
    # float32 parameters: the trainer streams tens of GB of row gathers, and
    # single precision halves that without affecting the learned structure
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
            neg_idx = np.searchsorted(noise_cdf, rng.random((b, m)))
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
            # scatter row updates as one (n x b) sparse product per matrix:
            # contexts gain coeff * v_t, negatives lose s_neg * v_t
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
