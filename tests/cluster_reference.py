"""Reference clusterers: the code ``seqnet.cluster`` ran before its rewrites.

k-means: the dense Lloyd and mini-batch iterations from before the certified
Gram assignment step. Every distance comes from ``sq_distances`` on the
densified rows, so an assignment takes explicit coordinate differences
whenever a centre is not an integer vector; centres are ``mean`` over the
member rows. ``seqnet.cluster.kmeans`` must return the same labels,
``inertia`` and ``history``, bit for bit.

Agglomerative: the merge loop that tracked membership in a ``members`` dict
and an ``active`` set and branched on ``linkage`` at each step.
``seqnet.cluster.agglomerative`` must return the same labels, ``k_found``
and ``forced_merges``.

Labels: ``densify_labels_reference`` relabels by first appearance in a loop
over the rows, as ``seqnet.cluster._densify_labels`` did before it used
``np.unique``; tests require the same labels and count.

Assignments: ``load_assignment_reference`` reads the CSV one line at a time
with ``int()``, the way ``seqnet.cluster.load_assignment`` did before it read
the body through ``seqnet.tables.read_rows``; tests require the same labels,
or a ``ParseError`` on the same line.

Gaussian mixture: ``gaussian_mixture_reference`` is the EM loop that ran its
E-step once more after the loop, where ``seqnet.cluster.gaussian_mixture``
lets the loop's last pass take only the responsibilities; tests require the
same labels, ``log_likelihood``, ``history`` and responsibilities, bit for
bit.
"""

import numpy as np
from scipy import sparse

from seqnet.cluster import (
    ClusterAssignment,
    _densify_labels,
    _kmeans_pp_init,
    _log_gaussian_diag,
    check_gmm_params,
    pca_project,
)
from seqnet.distances import _dense, _rows, sq_distances
from seqnet.errors import ConfigError, ParseError, parse_numbers
from seqnet.featurize import FeatureMatrix
from seqnet.ssn import SimilarityNetwork


def densify_labels_reference(raw):
    """Relabel to dense 0..k-1 by first appearance; -1 (noise) passes through."""
    mapping: dict[int, int] = {}
    out = np.empty(len(raw), dtype=np.int64)
    for i, lab in enumerate(raw):
        lab = int(lab)
        if lab == -1:
            out[i] = -1
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out, len(mapping)


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
    labels, k_found = densify_labels_reference(assign)
    return ClusterAssignment(labels, k_found, inertia=sse, history=tuple(history))


def agglomerative_reference(
    x,
    graph: SimilarityNetwork,
    k: int,
    linkage: str = "ward",
) -> ClusterAssignment:
    """Bottom-up merging constrained to clusters connected in the network.

    Ward linkage merges the connected pair with the smallest increase in the
    error sum of squares; average linkage uses the mean pairwise Euclidean
    distance. When no connected pair remains before reaching ``k`` clusters,
    the nearest disconnected pair is merged and counted in ``forced_merges``.
    """
    if linkage not in ("ward", "average"):
        raise ConfigError(f"unknown linkage {linkage!r}")
    x = _dense(_rows(x))
    n = len(x)
    if graph.n != n:
        raise ConfigError(f"graph has {graph.n} nodes for {n} rows")
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} out of range for n={n}")

    size = np.ones(n)
    centroid = x.astype(np.float64).copy()
    if linkage == "average":
        cross = np.sqrt(sq_distances(x))  # cross[a, b] = sum of pairwise distances
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    adj: dict[int, set[int]] = {i: set(graph.neighbors(i).tolist()) for i in range(n)}
    active = set(range(n))
    forced = 0

    def cost(a: int, b: int) -> float:
        if linkage == "ward":
            diff = centroid[a] - centroid[b]
            return size[a] * size[b] / (size[a] + size[b]) * float(diff @ diff)
        return float(cross[a, b]) / (size[a] * size[b])

    # cache costs of connected pairs; Ward costs after a merge come from the
    # Lance-Williams recurrence so no O(dim) centroid work repeats per scan
    costs: dict[tuple[int, int], float] = {}
    for a in range(n):
        for b in adj[a]:
            if a < b:
                costs[(a, b)] = cost(a, b)

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    while len(active) > k:
        if costs:
            # ties resolve to the lexicographically smallest pair
            (a, b) = min(costs, key=lambda p: (costs[p], p))
        else:
            ordered = sorted(active)
            a, b = min(
                ((p, q) for i, p in enumerate(ordered) for q in ordered[i + 1 :]),
                key=lambda p: (cost(*p), p),
            )
            forced += 1

        cost_ab = costs.pop((a, b), None)
        if cost_ab is None:
            cost_ab = cost(a, b)
        merged_adj = (adj[a] | adj.pop(b)) - {a, b}
        if linkage == "ward":
            old = {
                c: (costs.pop(key(a, c), None), costs.pop(key(b, c), None))
                for c in merged_adj
            }
        else:
            for c in merged_adj:
                costs.pop(key(a, c), None)
                costs.pop(key(b, c), None)

        centroid[a] = (size[a] * centroid[a] + size[b] * centroid[b]) / (
            size[a] + size[b]
        )
        if linkage == "average":
            cross[a, :] += cross[b, :]
            cross[:, a] += cross[:, b]
        size_a, size_b = size[a], size[b]
        size[a] += size[b]
        members[a].extend(members.pop(b))
        adj[a] = merged_adj
        for c in merged_adj:
            adj[c].discard(b)
            adj[c].add(a)
            if linkage == "ward":
                ac, bc = old[c]
                if ac is not None and bc is not None:
                    total = size_a + size_b + size[c]
                    costs[key(a, c)] = (
                        (size_a + size[c]) * ac
                        + (size_b + size[c]) * bc
                        - size[c] * cost_ab
                    ) / total
                else:
                    costs[key(a, c)] = cost(a, c)
            else:
                costs[key(a, c)] = cost(a, c)
        active.remove(b)

    order = sorted(active, key=lambda c: min(members[c]))
    labels = np.empty(n, dtype=np.int64)
    for new_id, c in enumerate(order):
        labels[members[c]] = new_id
    return ClusterAssignment(labels, len(order), forced_merges=forced)


def load_assignment_reference(path):
    with open(path) as fh:
        lineno, header = 1, fh.readline().strip()
        while header.startswith("#"):
            lineno, header = lineno + 1, fh.readline().strip()
        if header != "node_index,cluster":
            raise ParseError(f"expected 'node_index,cluster' header in {path}", line=lineno)
        labels = []
        for lineno, line in enumerate(fh, start=lineno + 1):
            line = line.strip()
            if not line:
                continue
            parts = parse_numbers(line.split(","), lineno)
            if len(parts) != 2 or parts[0] != len(labels):
                raise ParseError(f"bad assignment row {line!r} in {path}", line=lineno)
            labels.append(parts[1])
    return np.asarray(labels, dtype=np.int64)


def gaussian_mixture_reference(x, k, seed=0, max_iter=100, var_floor=1e-6, tol=1e-8,
                               pca_dim=None):
    check_gmm_params(var_floor, pca_dim)
    x = _rows(x)
    if pca_dim is not None:
        x = pca_project(x, pca_dim)
    n, d = x.shape
    x = _dense(x)

    rng = np.random.default_rng(seed)
    means = _kmeans_pp_init(x, k, rng)
    variances = np.tile(np.maximum(x.var(axis=0), var_floor), (k, 1))
    weights = np.full(k, 1.0 / k)

    history = []
    resp = None
    for _ in range(max_iter):
        joint = _log_gaussian_diag(x, means, variances, weights)
        norm = np.logaddexp.reduce(joint, axis=1)
        history.append(float(norm.sum()))
        resp = np.exp(joint - norm[:, None])

        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        for c in range(k):
            diff2 = (x - means[c]) ** 2
            variances[c] = np.maximum((resp[:, c] @ diff2) / nk[c], var_floor)
        if len(history) > 1 and history[-1] - history[-2] < tol:
            break

    joint = _log_gaussian_diag(x, means, variances, weights)
    norm = np.logaddexp.reduce(joint, axis=1)
    history.append(float(norm.sum()))
    resp = np.exp(joint - norm[:, None])
    labels, k_found = _densify_labels(resp.argmax(axis=1))
    return ClusterAssignment(
        labels,
        k_found,
        log_likelihood=history[-1],
        history=tuple(history),
        responsibilities=resp,
    )
