"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest
from classify_reference import hinge_loss_and_grad
from conftest import finite_difference, relative_error
from factorization_reference import gf_gradient
from walks_reference import pair_gradients, pair_loss

from seqnet.classify import (
    run_experiment,
    softmax_loss_and_grad,
)
from seqnet.cli import main as cli_main
from seqnet.cluster import elbow_select_k, gaussian_mixture, kmeans
from seqnet.embed import (
    generate_walks,
    gf_objective,
    laplacian_eigenmaps,
    node2vec,
    WalkConfig,
)
from seqnet.evalmetrics import (
    calinski_harabasz,
    classification_report,
    davies_bouldin,
    silhouette,
)
from seqnet.featurize import featurize_dataset
from seqnet.seqio import (
    ALPHABET,
    REFERENCE_LINEAGE_COUNTS,
    Dataset,
    SequenceRecord,
    synthesize_dataset,
)
from seqnet.ssn import build_ssn, network_from_edges


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} failed: {name} ({detail})"


def random_strict_sequence(rng, length):
    codes = rng.integers(0, len(ALPHABET), size=length)
    return "".join(ALPHABET[c] for c in codes)


def test_criterion_01_window_count_identity():
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(1000):
        length = int(rng.integers(10, 2001))
        k = int(rng.choice([2, 3, 4]))
        cases.append((random_strict_sequence(rng, length), length, k))
    t0 = time.perf_counter()
    exact = all(
        featurize_dataset(Dataset([SequenceRecord("s", seq)]), k=k).to_csr().sum()
        == (length - k) + 1
        for seq, length, k in cases
    )
    elapsed = time.perf_counter() - t0
    report(
        1, "frequency vectors sum to (N-k)+1",
        exact and elapsed < 5.0,
        f"1000 sequences, {elapsed:.2f}s (< 5s)",
    )


def _oracle_knn_edges(x, k):
    n = len(x)
    lists = []
    for i in range(n):
        ranked = sorted(
            (float(np.linalg.norm(x[i] - x[j])), j) for j in range(n) if j != i
        )
        lists.append([j for _, j in ranked[:k]])
    edges = set()
    for i in range(n):
        for j in lists[i]:
            edges.add((min(i, j), max(i, j)))
    return edges


def test_criterion_02_ssn_oracle_equivalence():
    rng = np.random.default_rng(202)
    all_equal = True
    degree_ok = True
    for trial in range(50):
        k = int((1, 5, 20)[trial % 3])
        n = int(rng.integers(k + 1, 201))
        x = rng.integers(0, 5, size=(n, 30)).astype(float)
        x *= rng.random((n, 30)) < 0.4
        graph = build_ssn(x, k=k)
        all_equal &= set(graph.edges()) == _oracle_knn_edges(x, k)
        degree_ok &= min(graph.degree(i) for i in range(n)) >= min(k, n - 1)
    report(
        2, "build_ssn equals the naive full-sort oracle",
        all_equal and degree_ok,
        "50 random matrices, K in {1,5,20}, min-degree bound held",
    )


def test_criterion_03_spectral_correctness():
    rng = np.random.default_rng(303)
    worst_residual = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 61))
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        for _ in range(n):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.append((int(min(u, v)), int(max(u, v))))
        graph = network_from_edges(n, edges)
        d = min(3, n - 1)
        emb = laplacian_eigenmaps(graph, d)
        adjacency = graph.adjacency.toarray()
        degree = np.diag(adjacency.sum(axis=1))
        lap = degree - adjacency
        for j, lam in enumerate(emb.info["eigenvalues"]):
            y = emb.vectors[:, j]
            worst_residual = max(
                worst_residual, float(np.abs(lap @ y - lam * degree @ y).max())
            )
    path3 = network_from_edges(3, [(0, 1), (1, 2)])
    emb = laplacian_eigenmaps(path3, 1)
    lam_err = abs(emb.info["eigenvalues"][0] - 1.0)
    vec = emb.vectors[:, 0]
    expected = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    vec_err = min(np.abs(vec - expected).max(), np.abs(vec + expected).max())
    report(
        3, "Laplacian eigenpairs satisfy L y = lambda D y",
        worst_residual < 1e-6 and lam_err < 1e-9 and vec_err < 1e-9,
        f"max residual {worst_residual:.2e} (<1e-6), path-P3 errors "
        f"{lam_err:.1e}/{vec_err:.1e} (<1e-9)",
    )


def test_criterion_04_gradient_suite():
    rng = np.random.default_rng(404)
    worst = {"sgns": 0.0, "gf": 0.0, "logistic": 0.0, "svm": 0.0}

    for _ in range(100):
        v_t = rng.normal(size=5)
        u_c = rng.normal(size=5)
        u_n = rng.normal(size=(4, 5))
        g_vt, g_uc, g_un = pair_gradients(v_t, u_c, u_n)
        fd = np.concatenate([
            finite_difference(lambda z: pair_loss(z, u_c, u_n), v_t).ravel(),
            finite_difference(lambda z: pair_loss(v_t, z, u_n), u_c).ravel(),
            finite_difference(lambda z: pair_loss(v_t, u_c, z), u_n).ravel(),
        ])
        analytic = np.concatenate([g_vt.ravel(), g_uc.ravel(), g_un.ravel()])
        worst["sgns"] = max(worst["sgns"], relative_error(analytic, fd))

    edges = np.array([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    for _ in range(100):
        y = rng.normal(size=(4, 3))
        lam = float(rng.uniform(0.0, 0.5))
        grad = gf_gradient(y, edges, lam)
        fd = finite_difference(lambda z: gf_objective(z, edges, lam), y)
        worst["gf"] = max(worst["gf"], relative_error(grad, fd))

    x = rng.normal(size=(12, 3))
    encoded = rng.integers(0, 3, size=12)
    for _ in range(100):
        w = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        _, gw, gb = softmax_loss_and_grad(w, b, x, encoded, l2=0.05)
        fd_w = finite_difference(lambda z: softmax_loss_and_grad(z, b, x, encoded, 0.05)[0], w)
        fd_b = finite_difference(lambda z: softmax_loss_and_grad(w, z, x, encoded, 0.05)[0], b)
        worst["logistic"] = max(
            worst["logistic"],
            relative_error(np.concatenate([gw.ravel(), gb]), np.concatenate([fd_w.ravel(), fd_b])),
        )

    xs = rng.normal(size=(15, 3))
    ys = np.where(rng.random(15) < 0.5, -1.0, 1.0)
    count = 0
    while count < 100:
        w = rng.normal(size=3)
        if np.abs(ys * (xs @ w) - 1.0).min() < 1e-3:
            continue  # keep finite differences away from the hinge point
        count += 1
        _, grad = hinge_loss_and_grad(w, xs, ys, lam=0.1)
        fd = finite_difference(lambda z: hinge_loss_and_grad(z, xs, ys, 0.1)[0], w)
        worst["svm"] = max(worst["svm"], relative_error(grad, fd))

    ok = all(err < 1e-4 for err in worst.values())
    report(
        4, "analytic gradients match central finite differences",
        ok,
        "worst rel err: " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()),
    )


def _silhouette_oracle(x, labels):
    values = []
    for i in range(len(x)):
        same = [j for j in range(len(x)) if labels[j] == labels[i] and j != i]
        if not same:
            values.append(0.0)
            continue
        a = np.mean([np.linalg.norm(x[i] - x[j]) for j in same])
        b = np.inf
        for other in set(labels.tolist()) - {labels[i]}:
            members = [j for j in range(len(x)) if labels[j] == other]
            b = min(b, np.mean([np.linalg.norm(x[i] - x[j]) for j in members]))
        denom = max(a, b)
        values.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(values))


def test_criterion_05_metric_oracles():
    x4 = np.array([[0.0], [1.0], [10.0], [11.0]])
    y4 = np.array([0, 0, 1, 1])
    sil_err = abs(silhouette(x4, y4) - 0.899749)
    ch_err = abs(calinski_harabasz(x4, y4) - 200.0)
    db_err = abs(davies_bouldin(x4, y4) - 0.1)

    rng = np.random.default_rng(505)
    worst_oracle = 0.0
    for _ in range(50):
        n = int(rng.integers(6, 101))
        k = int(rng.integers(2, 6))
        x = rng.normal(size=(n, 3))
        labels = rng.integers(0, k, size=n)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0, 1
        worst_oracle = max(
            worst_oracle, abs(silhouette(x, labels) - _silhouette_oracle(x, labels))
        )
    report(
        5, "internal index oracles",
        max(sil_err, ch_err, db_err) < 1e-6 and worst_oracle < 1e-9,
        f"4-point errors sil={sil_err:.1e} ch={ch_err:.1e} db={db_err:.1e} (<1e-6); "
        f"textbook-oracle gap {worst_oracle:.1e} (<1e-9, 50 instances)",
    )


def test_criterion_06_iteration_monotonicity():
    rng = np.random.default_rng(606)
    kmeans_ok = True
    gmm_ok = True
    for seed in range(20):
        x = rng.normal(size=(100, 4)) * rng.uniform(0.5, 2.0)
        history = kmeans(x, 5, seed=seed).history
        kmeans_ok &= bool((np.diff(history) <= 1e-9).all())
        history = gaussian_mixture(x, 3, seed=seed).history
        gmm_ok &= bool((np.diff(history) >= -1e-9).all())
    report(
        6, "k-means SSE and GMM log-likelihood are monotone per iteration",
        kmeans_ok and gmm_ok,
        "20 seeded runs each, tolerance 1e-9",
    )


def test_criterion_07_elbow_finds_four_blobs():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]])
        x = np.vstack([rng.normal(c, 1.0, size=(40, 2)) for c in centers])
        curve = elbow_select_k(x, 1, 10, seed=seed)
        hits += curve.chosen_k == 4
    report(
        7, "elbow selects k=4 on four separated blobs",
        hits >= 19,
        f"{hits}/20 seeds (needs >= 19); separation 20 = 20 sigma",
    )


def test_criterion_08_end_to_end_synthetic_benchmark():
    t0 = time.perf_counter()
    dataset = synthesize_dataset(4, [100, 100, 100, 100], 300, 0.01, 30, seed=8)
    features = featurize_dataset(dataset, k=3)
    graph = build_ssn(features, k=20, labels=dataset.labels())
    embedding = node2vec(graph, 64, WalkConfig(seed=8))
    result = run_experiment(
        {"node2vec": embedding},
        dataset.labels(),
        seeds=[0, 1, 2, 3, 4],
        classifiers=("knn",),
    )
    elapsed = time.perf_counter() - t0
    acc = float(result.metric_values("node2vec", "knn", "accuracy").mean())
    f1_macro = float(result.metric_values("node2vec", "knn", "f1_macro").mean())
    report(
        8, "synthetic 4-lineage pipeline",
        acc >= 0.90 and f1_macro >= 0.85 and elapsed < 120.0,
        f"accuracy {acc:.3f} (>=0.90), macro F1 {f1_macro:.3f} (>=0.85), "
        f"{elapsed:.0f}s (<120s), 5 seeds",
    )


def test_criterion_09_majority_baseline_exposes_imbalance():
    counts = REFERENCE_LINEAGE_COUNTS
    classes = sorted(counts)
    majority = max(counts, key=counts.get)
    y_true = np.concatenate([np.full(c, i) for i, c in enumerate(counts[k] for k in classes)])
    majority_idx = classes.index(majority)
    y_pred = np.full(len(y_true), majority_idx)
    scores = np.zeros((len(y_true), len(classes)))
    scores[:, majority_idx] = 1.0
    rep = classification_report(
        y_true, y_pred, scores=scores, classes=list(range(len(classes)))
    )
    acc_ok = abs(rep.accuracy - 0.481) <= 0.005
    f1_ok = rep.f1_macro < 0.05
    auc_ok = abs(rep.roc_auc_ovr - 0.5) < 1e-9  # constant scores carry no signal
    report(
        9, "majority baseline on the reference imbalance",
        acc_ok and f1_ok and auc_ok,
        f"accuracy {rep.accuracy:.4f} (0.481 +/- 0.005), macro F1 "
        f"{rep.f1_macro:.4f} (<0.05), AUC {rep.roc_auc_ovr:.3f}",
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    out = tmp_path / "run"

    def run_pipeline(workers):
        out.mkdir(exist_ok=True)
        paths = {
            "fasta": out / "d.fa", "labels": out / "l.csv",
            "features": out / "f.csv", "edges": out / "g.tsv",
            "embedding": out / "e.csv", "assign": out / "a.csv",
            "quality": out / "q.csv", "elbow": out / "k.csv",
            "proj": out / "p.csv",
        }
        w = str(workers)
        steps = [
            ["synth", "--output", paths["fasta"], "--labels-output", paths["labels"],
             "--lineages", "3", "--per-lineage", "15", "--length", "60",
             "--within-rate", "0.02", "--between-count", "12", "--seed", "7",
             "--workers", w],
            ["featurize", "--input", paths["fasta"], "--output", paths["features"],
             "--k", "2", "--workers", w],
            ["graph", "--input", paths["features"], "--output", paths["edges"],
             "--labels", paths["labels"], "--K", "4", "--workers", w],
            ["embed", "--input", paths["edges"], "--output", paths["embedding"],
             "--method", "node2vec", "--dim", "8", "--seed", "0",
             "--walks-per-node", "4", "--walk-length", "12", "--epochs", "2",
             "--workers", w],
            ["cluster", "--features", paths["features"], "--output", paths["assign"],
             "--method", "kmeans", "--k-clusters", "3", "--seed", "0", "--workers", w],
            ["evaluate", "--features", paths["features"], "--assignments",
             paths["assign"], "--output", paths["quality"], "--name", "kmeans",
             "--workers", w],
            ["elbow", "--features", paths["features"], "--output", paths["elbow"],
             "--k-min", "1", "--k-max", "5", "--seed", "0", "--workers", w],
            ["pca2d", "--input", paths["embedding"], "--output", paths["proj"],
             "--workers", w],
            ["classify", "--embedding", f"node2vec={paths['embedding']}",
             "--labels", paths["labels"], "--output-prefix", str(out / "cls"),
             "--classifiers", "knn,gaussian_nb", "--seeds", "0,1", "--num-folds", "2",
             "--workers", w],
        ]
        for argv in steps:
            code = cli_main([str(a) for a in argv])
            assert code == 0, argv
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}

    first = run_pipeline(workers=1)
    second = run_pipeline(workers=2)
    same_names = first.keys() == second.keys()
    diffs = [name for name in first if first.get(name) != second.get(name)]
    report(
        10, "pipeline rerun is byte-identical (workers 1 vs 2)",
        same_names and not diffs,
        f"{len(first)} artifacts compared" + (f"; diffs: {diffs}" if diffs else ""),
    )
