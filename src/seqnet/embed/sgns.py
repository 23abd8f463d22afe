"""Skip-gram with negative sampling over walk corpora.

For every (target, context) pair within the window the trainer ascends

    log sigmoid(u_c . v_t) + sum_neg log sigmoid(-u_x . v_t)

with negatives drawn from the corpus unigram distribution raised to 3/4.
The pairs come from the walk array in one fixed order (:func:`corpus_pairs`),
and updates are applied in deterministic mini-batches over a seeded
permutation of them, so a fixed seed reproduces the embedding exactly. A
pair's loss is the negated objective,

    -log sigmoid(u_c . v_t) - sum_neg log sigmoid(-u_x . v_t).

Each run of ``_GROUP`` consecutive pairs of a batch shares one set of m
negatives (Ji et al. 2016, arXiv:1604.04661): each pair still sees m iid
noise draws, but a batch gathers b target rows, b context rows and G * m
negative rows instead of a (b, m+1, d) block, and scores its negatives
with one stacked (group x d)(d x m) ``matmul``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from ..errors import ConfigError, DivergenceError
from .walks import WalkConfig, WalkCorpus

_MIN_LR_FRACTION = 1e-4
_BATCH_CAP = 4096
_BATCH_PER_NODE = 3
# pairs of a batch that share one negative set
_GROUP = 32


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


def _scatter_add(out: np.ndarray, rows, weights, grads: np.ndarray) -> None:
    """``out[rows[i]] += weights[i] * grads[i]`` for each i in turn, in place
    on the C-contiguous ``out``: scipy's kernel behind a CSC matrix (one entry
    per gradient row) times a dense block, run on ``out`` instead of on a
    zeroed product."""
    k = len(rows)
    _sparsetools.csc_matvecs(len(out), k, out.shape[1], np.arange(k + 1, dtype=rows.dtype),
                             rows, weights.astype(out.dtype, copy=False), grads.ravel(),
                             out.ravel())


def _sgns_batch(u, v, t_idx, c_idx, negatives, alpha, group: int) -> float:
    """One in-place step, from the batch-start parameters, for the pairs
    (``t_idx[i]``, ``c_idx[i]``), where pair i takes the negatives
    ``negatives[i // group]``; returns the float64 sum of the pairs' losses
    (the module docstring's negated objective).

    The targets are gathered into a zero-padded (G * group, d) block, so the
    negative scores of each group are one (group x d)(d x m) product and the
    padding scores nothing. One stacked ``matmul`` gives those scores, one
    the target gradients' negative part and one each negative's summed
    gradient. u takes b + G * m gradient rows and v takes b, each by
    :func:`_scatter_add`.
    """
    b, (sets, m), d = len(t_idx), negatives.shape, v.shape[1]
    vt = np.empty((sets * group, d), dtype=v.dtype)
    # "clip" writes straight into out ("raise" buffers it); every index is a node
    np.take(v, t_idx, axis=0, out=vt[:b], mode="clip")
    vt[b:] = 0.0
    blocks = vt.reshape(sets, group, d)
    uc, un = u[c_idx], u[negatives]
    pos = np.einsum("ij,ij->i", vt[:b], uc)
    neg = np.matmul(blocks, un.transpose(0, 2, 1))
    # imported here, not at the top: scipy.special is ~90 ms of every CLI
    # process's start-up, and only the walk embeddings need it
    from scipy.special import expit

    s_pos, s_neg = expit(pos), expit(neg)
    loss = -np.log(s_pos).sum(dtype=np.float64)
    loss -= np.log(expit(-neg.reshape(-1, m)[:b])).sum(dtype=np.float64)
    # ascent coefficients: 1 - sigmoid for the context, -sigmoid for a negative
    c_pos = 1.0 - s_pos
    dv = np.matmul(s_neg, un).reshape(-1, d)[:b]
    np.multiply(uc, c_pos[:, None], out=uc)
    uc -= dv
    du = np.matmul(s_neg.transpose(0, 2, 1), blocks)
    _scatter_add(u, c_idx, alpha * c_pos, vt[:b])
    _scatter_add(u, negatives.ravel(), np.full(sets * m, -alpha), du)
    _scatter_add(v, t_idx, np.full(b, alpha), uc)
    return float(loss)


def sgns_fit(corpus: WalkCorpus, n: int, d: int, config: WalkConfig) -> tuple[np.ndarray, dict]:
    """Target vectors (n x d) for ``config.epochs`` passes over the pairs, and
    the trainer's counters.

    Each batch of a seeded permutation of the pairs takes one :func:`_sgns_batch`
    step at a learning rate decaying linearly per batch to a small floor, the
    word2vec convention. The batch grows with n so a row absorbs only a few
    summed gradients per step (large batches on small graphs overshoot and
    diverge). A batch draws one ``(G, m)`` block of negatives, a row for
    each of its G groups of ``_GROUP`` pairs (the last may be short). The
    counters are ``sgns_pairs``, ``negative_sets`` (the groups
    over all epochs) and ``final_loss``, the mean pair loss of the last
    epoch's pairs at their batches' starting parameters. Raises
    DivergenceError at the first epoch that leaves a non-finite value.
    """
    # the kernel's scatters write rows by index unchecked
    if (top := int(corpus.walks.max(initial=-1))) >= n:
        raise ConfigError(f"the corpus visits node {top} of a graph of {n} nodes")
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
    m, batches = config.negatives, (n_pairs + batch_size - 1) // batch_size
    sets_total = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n_pairs)
        loss = 0.0
        # a step that leaves the finite range is reported below, as the
        # epoch's divergence
        with np.errstate(all="ignore"):
            for batch, start in enumerate(range(0, n_pairs, batch_size), epoch * batches):
                chunk = order[start : start + batch_size]
                sets = -(-len(chunk) // _GROUP)
                negatives = np.searchsorted(noise_cdf, rng.random((sets, m)))
                rate = max(1.0 - batch / (config.epochs * batches), _MIN_LR_FRACTION)
                alpha = np.float32(config.learning_rate * rate)
                loss += _sgns_batch(u, v, targets[chunk], contexts[chunk],
                                    negatives, alpha, _GROUP)
                sets_total += sets
        if not (np.isfinite(v).all() and np.isfinite(u).all()):
            raise DivergenceError(
                f"SGNS diverged in epoch {epoch + 1} of {config.epochs} "
                f"(learning_rate={config.learning_rate}); lower learning_rate"
            )
    info = {"sgns_pairs": config.epochs * n_pairs, "negative_sets": sets_total,
            "final_loss": loss / n_pairs if n_pairs else 0.0}
    return v.astype(np.float64), info


def sgns_train(corpus: WalkCorpus, n: int, d: int, config: WalkConfig) -> np.ndarray:
    """The target vectors of :func:`sgns_fit`."""
    return sgns_fit(corpus, n, d, config)[0]
