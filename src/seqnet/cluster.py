"""Unsupervised grouping: k-means (full and mini-batch), SSN-constrained
agglomerative merging, DBSCAN, diagonal-covariance Gaussian mixtures,
spectral clustering, and elbow-based selection of the cluster count.

Partitional methods run on feature rows; the agglomerative methods honor the
similarity network by only merging clusters that share at least one edge.
k-means, the elbow sweep, the agglomerative methods and DBSCAN read a
``FeatureMatrix`` or ``scipy.sparse`` input as CSR rows; the Gaussian
mixture, spectral clustering and ``pca_project`` densify it. Each dense
n x n or n x dim allocation that remains is first checked against the
available memory (:func:`seqnet.errors.check_memory`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.linalg import eigh

from .distances import _assigned_sq, _dense, _gram_is_exact, _group_sums, _row_tiles, _rows
from .distances import _sq_norms, k_nearest, sq_distances
from .errors import ConfigError, ParseError, check_int, check_memory, check_number
from .ssn import SimilarityNetwork
from .tables import read_rows

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


def _row(x, i: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row i of x as a dense vector: a view of a dense x, not to be written
    to; a CSR row's stored values summed in order into zeros, or into
    ``out`` when it is given, the bits of ``toarray``."""
    if not sparse.issparse(x):
        return x[i]
    if out is None:
        out = np.zeros(x.shape[1])
    else:
        out.fill(0.0)
    lo, hi = x.indptr[i], x.indptr[i + 1]
    np.add.at(out, x.indices[lo:hi], x.data[lo:hi])
    return out


def _densify_labels(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel to dense 0..k-1 by first appearance; -1 (noise) passes through."""
    raw = np.asarray(raw)
    kept = raw != -1
    _, first, inverse = np.unique(raw[kept], return_index=True, return_inverse=True)
    out = np.full(len(raw), -1, dtype=np.int64)
    out[kept] = np.argsort(np.argsort(first))[inverse]  # each value's rank by first row
    return out, len(first)


def pca_project(x, dim: int) -> np.ndarray:
    """Center and project onto the top principal components.

    Component signs are fixed (largest-magnitude loading positive) so the
    projection is reproducible byte for byte.
    """
    check_int("dim", dim, 1)
    x = _rows(x)
    n, d = x.shape
    m = min(n, d)
    # the rows, their centred copy and the SVD's copy, factors and workspace
    check_memory(8 * (3 * n * d + m * (n + d)), f"pca_project on {n} x {d} rows")
    x = _dense(x)
    dim = min(dim, m)
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:dim]
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return centered @ comps.T


def _kmeans_pp_init(x, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds with ``sq_distances``' bits: a matrix-vector product a
    centre where x's Gram expansion is exact, else explicit differences."""
    n = x.shape[0]
    sq_x = _sq_norms(x) if _gram_is_exact(x, x) else None

    def dist_to(idx):
        row = _row(x, idx)
        if sq_x is None:
            return _assigned_sq(x, row[None, :], np.zeros(n, np.int64))
        return sq_x + sq_x[idx] - 2.0 * (x @ row)

    centers = np.empty((k, x.shape[1]))
    idx = int(rng.integers(n))
    centers[0] = _row(x, idx)
    d2 = dist_to(idx)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = _row(x, idx)
        d2 = np.minimum(d2, dist_to(idx))
    return centers


def _lloyd(x, centers, max_iter, tol):
    history, shift = [], np.inf
    # the last pass only assigns, to the centres the updates ended on
    for step in itertools.count():
        assign = k_nearest(centers, 1, queries=x)[:, 0]
        point_cost = _assigned_sq(x, centers, assign)
        history.append(float(point_cost.sum()))
        if step >= max_iter or shift < tol:
            break

        counts = np.bincount(assign, minlength=len(centers))[:, None]
        sums = _group_sums(x, assign, len(centers))
        new_centers = np.where(counts > 0, sums / np.maximum(counts, 1), centers)
        # an empty cluster is reseeded at the point farthest from its center
        spent = point_cost.copy()
        for c in np.flatnonzero(counts == 0):
            idx = int(np.argmax(spent))
            new_centers[c] = _row(x, idx)
            spent[idx] = -1.0
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
    return assign, centers, history[-1], history


def _minibatch(x, centers, batch_size, max_iter, tol, rng):
    n, k = x.shape[0], len(centers)
    counts = np.zeros((k, 1))
    for _ in range(max_iter):
        batch = rng.integers(0, n, size=min(batch_size, n))
        xb = x[batch]
        assign = k_nearest(centers, 1, queries=xb)[:, 0]
        m = np.bincount(assign, minlength=k)[:, None]
        # running-mean update: equivalent to the per-sample learning rates
        sums = counts * centers + _group_sums(xb, assign, k)
        new_centers = np.where(m > 0, sums / np.maximum(counts + m, 1), centers)
        counts += m
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if shift < tol:
            break
    assign = k_nearest(centers, 1, queries=x)[:, 0]
    return assign, centers, float(_assigned_sq(x, centers, assign).sum())


# the checks of each clusterer's own settings, which need no data: the
# clusterer makes them first, and the CLI before it reads the features
def check_kmeans_params(batch_size: Optional[int] = None) -> None:
    if batch_size is not None:
        check_int("batch_size", batch_size, 1)


def check_dbscan_params(eps: float, min_pts: int) -> None:
    check_number("eps", eps, 0, strict=True)
    check_int("min_pts", min_pts, 1)


def check_gmm_params(var_floor: float, pca_dim: Optional[int]) -> None:
    check_number("var_floor", var_floor, 0, strict=True)
    if pca_dim is not None:
        check_int("pca_dim", pca_dim, 1)


def check_spectral_params(gamma: Optional[float] = None) -> None:
    if gamma is not None:
        check_number("gamma", gamma, 0, strict=True)


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
    ``batch_size`` is given. Reports full-data SSE either way.

    A ``FeatureMatrix`` or ``scipy.sparse`` input stays CSR: each row takes
    ``k_nearest(centers, 1, queries=x)``, and centres ``distances._group_sums``
    row sums. Labels, ``inertia`` and ``history`` keep the bits of dense
    explicit-difference Lloyd iterations.
    """
    check_kmeans_params(batch_size)
    x = _rows(x)
    check_int("k", k, 1, x.shape[0])
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
    Ties go to the lexicographically smallest pair. Every merge joins ids
    a < b and keeps a, so a cluster is named by its smallest row.

    A ``FeatureMatrix`` or ``scipy.sparse`` input stays CSR. Ward keeps a
    dense centroid only for each merged cluster. A cost densifies a
    singleton's row only while it needs it, or subtracts the row's stored
    values from a dense copy of the other side, and takes the BLAS dot of
    the full dense difference, so the labels keep the bits of an all-dense
    run. Average linkage holds the n x n sums of pairwise distances,
    checked against the available memory first.
    """
    if linkage not in ("ward", "average"):
        raise ConfigError(f"unknown linkage {linkage!r}")
    x = _rows(x)
    n = x.shape[0]
    if graph.n != n:
        raise ConfigError(f"graph has {graph.n} nodes for {n} rows")
    check_int("k", k, 1, n)

    # each linkage's cluster state: the cost of a pair, and folding b into a
    # while size still holds both clusters' old sizes
    size = np.ones(n)
    ward = linkage == "ward"
    if ward:
        merged = {}  # a merged cluster's centroid; a singleton's is its row
        # with no duplicate entries, subtracting a CSR row's stored values
        # from a dense vector gives the bits of subtracting the dense row
        stored = sparse.issparse(x) and x.has_canonical_format
        # one difference row for every cost: at k=4 a fresh 1.3 MB array a
        # cost would be fresh pages from the system each time
        diff = np.empty(x.shape[1])

        def centroid(a: int) -> np.ndarray:
            return merged[a] if a in merged else _row(x, a)

        def cost(a: int, b: int) -> float:
            if b in merged:
                a, b = b, a  # the difference's sign is lost in its square
            if b in merged or not stored:
                np.subtract(centroid(a), centroid(b), out=diff)
            else:
                if a in merged:
                    np.copyto(diff, merged[a])
                else:
                    _row(x, a, out=diff)
                lo, hi = x.indptr[b], x.indptr[b + 1]
                np.subtract.at(diff, x.indices[lo:hi], x.data[lo:hi])
            return size[a] * size[b] / (size[a] + size[b]) * float(diff @ diff)

        def absorb(a: int, b: int) -> None:
            merged[a] = (size[a] * centroid(a) + size[b] * centroid(b)) / (size[a] + size[b])
            merged.pop(b, None)

    else:
        check_memory(8 * n * n, f"average linkage's {n} x {n} distance sums")
        cross = sq_distances(x)
        np.sqrt(cross, out=cross)  # cross[a, b] = sum of pairwise distances

        def cost(a: int, b: int) -> float:
            return float(cross[a, b]) / (size[a] * size[b])

        def absorb(a: int, b: int) -> None:
            cross[a, :] += cross[b, :]
            cross[:, a] += cross[:, b]

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    owner = np.arange(n)  # owner[i]: row i's cluster, named by its smallest row
    adj = {i: set(graph.neighbors(i).tolist()) for i in range(n)}
    costs = {(a, b): cost(a, b) for a in range(n) for b in adj[a] if a < b}
    forced = 0
    for _ in range(n - k):
        if costs:
            a, b = min(costs, key=lambda p: (costs[p], p))
        else:
            # costs holds every connected pair, so no cluster has a neighbour
            live = np.flatnonzero(owner == np.arange(n)).tolist()
            a, b = min(
                ((p, q) for i, p in enumerate(live) for q in live[i + 1 :]),
                key=lambda p: (cost(*p), p),
            )
            forced += 1
        cost_ab = costs.pop((a, b), None)
        size_a, size_b = size[a], size[b]
        absorb(a, b)
        size[a] += size_b
        owner[owner == b] = a
        adj[a] = (adj[a] | adj.pop(b)) - {a, b}
        for c in adj[a]:
            adj[c].discard(b)
            adj[c].add(a)
            ac, bc = costs.pop(key(a, c), None), costs.pop(key(b, c), None)
            if ward and ac is not None and bc is not None:
                # Lance-Williams: no O(dim) centroid work for a pair both sides reached
                costs[key(a, c)] = (
                    (size_a + size[c]) * ac + (size_b + size[c]) * bc - size[c] * cost_ab
                ) / (size_a + size_b + size[c])
            else:
                costs[key(a, c)] = cost(a, c)

    labels, k_found = _densify_labels(owner)
    return ClusterAssignment(labels, k_found, forced_merges=forced)


def dbscan(x, eps: float, min_pts: int) -> ClusterAssignment:
    """Core/border/noise labeling with Euclidean eps-neighborhoods.

    A point's neighborhood includes itself; noise keeps label -1; cluster ids
    follow first-discovery order scanning points by ascending index. The
    neighborhoods are read from one tile of distances at a time, so no
    n x n matrix is held, and a ``scipy.sparse`` input stays CSR.
    """
    check_dbscan_params(eps, min_pts)
    x = _rows(x)
    n = x.shape[0]
    nbrs = []
    for _, d2 in _row_tiles(x, x):
        nbrs.extend(np.flatnonzero(row) for row in np.sqrt(d2, out=d2) <= eps)
        del d2  # with _row_tiles' own del, one tile is held at a time
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
) -> ClusterAssignment:
    """EM with diagonal covariances and k-means++ initialized means.

    Per-dimension variances are floored at ``var_floor``; ``pca_dim`` enables
    an optional PCA pre-reduction for high-dimensional count inputs. Labels
    take the posterior argmax of the returned soft responsibilities.
    """
    check_gmm_params(var_floor, pca_dim)
    x = _rows(x)
    if pca_dim is not None:
        x = pca_project(x, pca_dim)
    n, d = x.shape
    check_int("k", k, 1, n)
    # the rows and the two n x d temporaries of each component's density
    check_memory(8 * 3 * n * d, f"gaussian_mixture on {n} x {d} rows")
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


def spectral_clustering(
    x, k: int, gamma: Optional[float] = None, seed: int = 0
) -> ClusterAssignment:
    """RBF affinity, normalized-Laplacian embedding, then k-means on its rows.
    ``gamma=None`` takes 1 / (d · mean column variance)."""
    check_spectral_params(gamma)
    x = _rows(x)
    n, d = x.shape
    check_int("k", k, 1, n)
    # the dense rows, then the affinity, the Laplacian and two n x n temporaries
    check_memory(8 * (n * d + 4 * n * n), f"spectral_clustering on {n} x {d} rows")
    x = _dense(x)
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
    # inertia is taken on the spectral rows; the inner k-means' history is not reported
    return replace(inner, history=())


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
    x = _rows(x)
    check_int("k_min", k_min, 1)
    check_int("k_max", k_max, k_min + 1, x.shape[0])
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
    """Labels of a CSV written by :func:`save_assignment`; the body is read by
    :func:`tables.read_rows`, so a bad line is named."""
    with open(path) as fh:
        lineno, header = 1, fh.readline().strip()
        while header.startswith("#"):
            lineno, header = lineno + 1, fh.readline().strip()
    if header != "node_index,cluster":
        raise ParseError(f"expected 'node_index,cluster' header in {path}", line=lineno)
    rows, _ = read_rows(path, lineno + 1, "node_index,cluster", "assignment row", ints=2,
                        counted=True)
    return np.ascontiguousarray(rows[:, 1])


def save_elbow(curve: ElbowCurve, path) -> None:
    """Write the k,sse,runtime_sec,chosen table."""
    with open(path, "w") as fh:
        fh.write("k,sse,runtime_sec,chosen\n")
        for k, s, r in zip(curve.ks, curve.sse, curve.runtimes_sec):
            fh.write(f"{k},{s!r},{r!r},{int(k == curve.chosen_k)}\n")
