"""Reference k-means: the dense Lloyd and mini-batch iterations
``seqnet.cluster`` ran before its certified Gram assignment step.

Every distance comes from ``sq_distances`` on the densified rows, so an
assignment takes explicit coordinate differences whenever a centre is not
an integer vector; centres are ``mean`` over the member rows.
``seqnet.cluster.kmeans`` must return the same labels, ``inertia`` and
``history``, bit for bit.
"""

import numpy as np
from scipy import sparse

from seqnet.cluster import ClusterAssignment, _densify_labels
from seqnet.distances import sq_distances
from seqnet.featurize import FeatureMatrix


def _as_array(x):
    if isinstance(x, FeatureMatrix):
        return x.to_dense()
    if sparse.issparse(x):
        return x.toarray()
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def kmeans_pp_init_reference(x, k, rng):
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = sq_distances(x, centers[:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = x[idx]
        d2 = np.minimum(d2, sq_distances(x, centers[c : c + 1])[:, 0])
    return centers


def _nearest_center(x, centers):
    d2 = sq_distances(x, centers)
    assign = d2.argmin(axis=1)
    return assign, d2[np.arange(len(x)), assign]


def _lloyd(x, centers, max_iter, tol):
    history = []
    for _ in range(max_iter):
        assign, point_cost = _nearest_center(x, centers)
        history.append(float(point_cost.sum()))

        new_centers = centers.copy()
        counts = np.bincount(assign, minlength=len(centers))
        for c in range(len(centers)):
            if counts[c] > 0:
                new_centers[c] = x[assign == c].mean(axis=0)
        spent = point_cost.copy()
        for c in np.flatnonzero(counts == 0):
            idx = int(np.argmax(spent))
            new_centers[c] = x[idx]
            spent[idx] = -1.0
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if shift < tol:
            break
    assign, point_cost = _nearest_center(x, centers)
    sse = float(point_cost.sum())
    history.append(sse)
    return assign, centers, sse, history


def _minibatch(x, centers, batch_size, max_iter, tol, rng):
    n = len(x)
    counts = np.zeros(len(centers))
    for _ in range(max_iter):
        batch = rng.integers(0, n, size=min(batch_size, n))
        xb = x[batch]
        assign, _ = _nearest_center(xb, centers)
        new_centers = centers.copy()
        for c in np.unique(assign):
            members = xb[assign == c]
            m = len(members)
            new_centers[c] = (counts[c] * centers[c] + members.sum(axis=0)) / (
                counts[c] + m
            )
            counts[c] += m
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if shift < tol:
            break
    assign, point_cost = _nearest_center(x, centers)
    return assign, centers, float(point_cost.sum())


def kmeans_reference(x, k, seed=0, batch_size=None, max_iter=300, tol=1e-6, n_init=1):
    x = _as_array(x)
    best = None
    for trial in range(max(1, n_init)):
        rng = np.random.default_rng([seed, trial])
        centers = kmeans_pp_init_reference(x, k, rng)
        if batch_size is None:
            assign, centers, sse, history = _lloyd(x, centers, max_iter, tol)
        else:
            assign, centers, sse = _minibatch(x, centers, batch_size, max_iter, tol, rng)
            history = [sse]
        if best is None or sse < best[1]:
            best = (assign, sse, history)
    assign, sse, history = best
    labels, k_found = _densify_labels(assign)
    return ClusterAssignment(labels, k_found, inertia=sse, history=tuple(history))
