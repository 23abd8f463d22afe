"""Unsupervised grouping: k-means (full and mini-batch), SSN-constrained
agglomerative merging, DBSCAN, diagonal-covariance Gaussian mixtures,
spectral clustering, and elbow-based selection of the cluster count.

Partitional methods run on feature rows; the agglomerative methods honor the
similarity network by only merging clusters that share at least one edge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh

from .distances import sq_distances
from .errors import ConfigError, ParseError, parse_numbers
from .featurize import FeatureMatrix
from .ssn import SimilarityNetwork

_LLOYD_TOL = 1e-6


@dataclass
class ClusterAssignment:
    """Per-row cluster ids (-1 marks DBSCAN noise) plus solver diagnostics.

    ``history`` traces full-data SSE per Lloyd iteration for k-means and the
    total log-likelihood per EM iteration for Gaussian mixtures.
    """

    labels: np.ndarray
    k_found: int
    inertia: Optional[float] = None
    log_likelihood: Optional[float] = None
    history: tuple = ()
    responsibilities: Optional[np.ndarray] = None
    forced_merges: int = 0


@dataclass(frozen=True)
class ElbowCurve:
    ks: tuple[int, ...]
    sse: tuple[float, ...]
    runtimes_sec: tuple[float, ...]
    chosen_k: int


def _as_array(x) -> np.ndarray:
    if isinstance(x, FeatureMatrix):
        return x.to_dense()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return x


def _densify_labels(raw: np.ndarray) -> tuple[np.ndarray, int]:
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


def pca_project(x, dim: int) -> np.ndarray:
    """Center and project onto the top principal components.

    Component signs are fixed (largest-magnitude loading positive) so the
    projection is reproducible byte for byte.
    """
    x = _as_array(x)
    dim = min(dim, *x.shape)
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:dim]
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return centered @ comps.T


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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
    """Each row's nearest centre (lowest index on ties) and its squared distance."""
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
        # an empty cluster is reseeded at the point farthest from its center
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
            # running-mean update: equivalent to the per-sample learning rates
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


def kmeans(
    x,
    k: int,
    seed: int = 0,
    batch_size: Optional[int] = None,
    max_iter: int = 300,
    tol: float = _LLOYD_TOL,
    n_init: int = 1,
) -> ClusterAssignment:
    """k-means++ seeded Lloyd iterations; mini-batch updates when
    ``batch_size`` is given. Reports full-data SSE either way."""
    x = _as_array(x)
    n = len(x)
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} out of range for n={n}")
    best = None
    for trial in range(max(1, n_init)):
        rng = np.random.default_rng([seed, trial])
        centers = _kmeans_pp_init(x, k, rng)
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


def agglomerative(
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
    x = _as_array(x)
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


def dbscan(x, eps: float, min_pts: int) -> ClusterAssignment:
    """Core/border/noise labeling with Euclidean eps-neighborhoods.

    A point's neighborhood includes itself; noise keeps label -1; cluster ids
    follow first-discovery order scanning points by ascending index.
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    if min_pts < 1:
        raise ConfigError("min_pts must be >= 1")
    x = _as_array(x)
    n = len(x)
    dist = np.sqrt(sq_distances(x))
    nbrs = [np.flatnonzero(dist[i] <= eps) for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in nbrs])

    labels = np.full(n, -1, dtype=np.int64)
    cid = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cid
        queue = list(nbrs[i])
        head = 0
        while head < len(queue):
            j = int(queue[head])
            head += 1
            if labels[j] != -1:
                continue
            labels[j] = cid
            if core[j]:
                queue.extend(nbrs[j])
        cid += 1
    labels, k_found = _densify_labels(labels)
    return ClusterAssignment(labels, k_found)


def _log_gaussian_diag(x, means, variances, weights):
    """Per-point, per-component joint log density log(w_c N(x; mu_c, sigma_c))."""
    n, d = x.shape
    parts = np.empty((n, len(means)))
    for c in range(len(means)):
        diff2 = (x - means[c]) ** 2
        parts[:, c] = -0.5 * (
            (diff2 / variances[c]).sum(axis=1)
            + np.log(2 * np.pi * variances[c]).sum()
        ) + np.log(weights[c])
    return parts


def gaussian_mixture(
    x,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    var_floor: float = 1e-6,
    tol: float = 1e-8,
    pca_dim: Optional[int] = None,
    return_responsibilities: bool = False,
) -> ClusterAssignment:
    """EM with diagonal covariances and k-means++ initialized means.

    Per-dimension variances are floored at ``var_floor``; ``pca_dim`` enables
    an optional PCA pre-reduction for high-dimensional count inputs. Labels
    take the posterior argmax; soft responsibilities are returned on request.
    """
    x = _as_array(x)
    if pca_dim is not None:
        x = pca_project(x, pca_dim)
    n, d = x.shape
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} out of range for n={n}")

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
        responsibilities=resp if return_responsibilities else None,
    )


def spectral_clustering(
    x, k: int, gamma: Optional[float] = None, seed: int = 0
) -> ClusterAssignment:
    """RBF affinity, normalized-Laplacian embedding, then k-means on its rows."""
    x = _as_array(x)
    n, d = x.shape
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} out of range for n={n}")
    if gamma is None:
        mean_var = float(x.var(axis=0).mean())
        gamma = 1.0 / (d * mean_var) if mean_var > 0 else 1.0
    affinity = np.exp(-gamma * sq_distances(x))
    inv_sqrt_deg = 1.0 / np.sqrt(affinity.sum(axis=1))
    lap = np.eye(n) - inv_sqrt_deg[:, None] * affinity * inv_sqrt_deg[None, :]
    lap = (lap + lap.T) / 2.0
    _, vecs = eigh(lap, subset_by_index=(0, k - 1))
    norms = np.sqrt((vecs**2).sum(axis=1))
    rows = vecs / np.where(norms > 0, norms, 1.0)[:, None]
    inner = kmeans(rows, k, seed=seed, n_init=5)
    return ClusterAssignment(inner.labels, inner.k_found, inertia=inner.inertia)


def knee_index(ks, sse) -> int:
    """Index of the knee: interior point farthest from the endpoint chord.

    Endpoints always sit on the chord, so they are excluded; on an exactly
    linear curve every deviation is 0 and the first interior point wins.
    """
    p0 = np.array([ks[0], sse[0]], dtype=np.float64)
    p1 = np.array([ks[-1], sse[-1]], dtype=np.float64)
    chord = p1 - p0
    chord_len = float(np.linalg.norm(chord))
    if chord_len == 0.0 or len(ks) <= 2:
        return min(1, len(ks) - 1)
    best_idx = 1
    best_dist = -1.0
    for i in range(1, len(ks) - 1):
        point = np.array([ks[i], sse[i]]) - p0
        dist = abs(chord[0] * point[1] - chord[1] * point[0]) / chord_len
        if dist > best_dist:
            best_dist, best_idx = dist, i
    return best_idx


def elbow_select_k(
    x, k_min: int, k_max: int, seed: int = 0, n_init: int = 5
) -> ElbowCurve:
    """SSE-versus-k sweep with knee selection.

    The knee maximizes perpendicular distance from the SSE curve to the chord
    joining its endpoints (see :func:`knee_index`). Runtimes are recorded but
    play no part in the choice.
    """
    x = _as_array(x)
    if not 1 <= k_min < k_max <= len(x):
        raise ConfigError(f"need 1 <= k_min < k_max <= n, got [{k_min}, {k_max}]")
    ks = list(range(k_min, k_max + 1))
    sse = []
    runtimes = []
    for k in ks:
        t0 = time.perf_counter()
        sse.append(float(kmeans(x, k, seed=seed, n_init=n_init).inertia))
        runtimes.append(time.perf_counter() - t0)
    return ElbowCurve(tuple(ks), tuple(sse), tuple(runtimes), ks[knee_index(ks, sse)])


def save_assignment(
    assignment: ClusterAssignment, path, runtime_sec: Optional[float] = None
) -> None:
    """Write labels as a node_index,cluster CSV, after a ``# runtime_sec=``
    comment line when a runtime is given."""
    with open(path, "w") as fh:
        if runtime_sec is not None:
            fh.write(f"# runtime_sec={runtime_sec!r}\n")
        fh.write("node_index,cluster\n")
        for i, lab in enumerate(assignment.labels):
            fh.write(f"{i},{int(lab)}\n")


def load_assignment(path) -> np.ndarray:
    with open(path) as fh:
        lineno, header = 1, fh.readline().strip()
        while header.startswith("#"):
            lineno, header = lineno + 1, fh.readline().strip()
        if header != "node_index,cluster":
            raise ConfigError(f"expected 'node_index,cluster' header in {path}")
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


def save_elbow(curve: ElbowCurve, path, timings: bool = True) -> None:
    """Write the k,sse,runtime_sec,chosen table; runtimes zeroed when disabled."""
    with open(path, "w") as fh:
        fh.write("k,sse,runtime_sec,chosen\n")
        for k, s, r in zip(curve.ks, curve.sse, curve.runtimes_sec):
            rt = r if timings else 0.0
            fh.write(f"{k},{s!r},{rt!r},{int(k == curve.chosen_k)}\n")
