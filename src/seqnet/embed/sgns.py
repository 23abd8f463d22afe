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


def _sgns_batch(u: np.ndarray, v: np.ndarray, t_idx, rows: np.ndarray, alpha) -> None:
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


def sgns_train(corpus: WalkCorpus, n: int, d: int, config: WalkConfig) -> np.ndarray:
    """Train target vectors (n x d) for ``config.epochs`` passes over the pairs.

    Each batch of a seeded permutation of the pairs takes one :func:`_sgns_batch`
    step at a learning rate decaying linearly per batch to a small floor, the
    word2vec convention. The batch grows with n so a row absorbs only a few
    summed gradients per step (large batches on small graphs overshoot and
    diverge). Returns the target-side matrix.
    """
    batch_size = min(_BATCH_CAP, max(256, _BATCH_PER_NODE * n))
    targets, contexts = corpus_pairs(corpus, config.window)
    noise_cdf = np.cumsum(unigram_distribution(corpus, n))
    # rounding can leave the last value below 1.0, and a draw above it would
    # index n: the last node with noise weight takes every draw up to 1.0
    noise_cdf[noise_cdf == noise_cdf[-1]] = max(noise_cdf[-1], 1.0)
    # Chen & Asau's guide table: cell j of 4n counts the CDF values in cells
    # below j, so a draw in cell j steps up from there to searchsorted's index
    guide = np.searchsorted(np.floor(noise_cdf * (4 * n)), np.arange(4 * n))
    rng = np.random.default_rng(config.seed)
    # float32 parameters: the trainer streams tens of GB of row gathers, and
    # single precision halves that without affecting the learned structure
    v = ((rng.random((n, d)) - 0.5) / d).astype(np.float32)
    u = np.zeros((n, d), dtype=np.float32)
    n_pairs = len(targets)
    m, batches = config.negatives, (n_pairs + batch_size - 1) // batch_size
    for epoch in range(config.epochs):
        order = rng.permutation(n_pairs)
        for batch, start in enumerate(range(0, n_pairs, batch_size), epoch * batches):
            chunk = order[start : start + batch_size]
            x = rng.random((len(chunk), m)).ravel()
            negatives = guide[(x * (4 * n)).astype(np.intp)]
            while (low := np.flatnonzero(noise_cdf[negatives] < x)).size:
                negatives[low] += 1
            rows = np.column_stack([contexts[chunk], negatives.reshape(-1, m)])
            rate = max(1.0 - batch / (config.epochs * batches), _MIN_LR_FRACTION)
            _sgns_batch(u, v, targets[chunk], rows, np.float32(config.learning_rate * rate))
    return v.astype(np.float64)
