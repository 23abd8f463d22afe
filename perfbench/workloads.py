"""The benchmark workloads and the checks and counts on their outputs.

Each workload prepares the program's input once (``setup``), then runs one
pipeline pass per ``run`` call through a :class:`Recorder`, which counts
every call into the program and, in the traced run, records a span around
it. ``inspect`` turns the outputs of a pass into deterministic work counts,
pass/fail output checks and the held-out quality score; ``layer_metrics``
turns the spans of a traced pass into the per-layer metrics.

Layers are named after the program's modules: seqio, featurize, ssn, walks
and sgns (embed's random walks and skip-gram), spectral, factorization,
cluster, evalmetrics, classify and cli.
"""

from __future__ import annotations

import traceback
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
from scipy import sparse

import oracles
import tracing
from lineage import LENGTH

from seqnet import cli
from seqnet.classify import DEFAULT_GRIDS, run_experiment
from seqnet.cluster import agglomerative, kmeans
from seqnet.embed import (
    EmbeddingMatrix,
    WalkConfig,
    deepwalk,
    generate_walks,
    graph_factorization,
    hope_embed,
    laplacian_eigenmaps,
    lle_embed,
    node2vec,
    sgns_train,
)
from seqnet.evalmetrics import calinski_harabasz, cluster_quality, davies_bouldin, silhouette
from seqnet.featurize import featurize_dataset
from seqnet.seqio import Dataset, SequenceRecord
from seqnet.ssn import build_ssn

K_MER = 3
NEIGHBOURS = 20
ORACLE_ROWS = 32
NUM_FOLDS = 5
CLASSIFIERS = tuple(DEFAULT_GRIDS)
LAYERS = (
    "seqio", "featurize", "ssn", "walks", "sgns", "spectral",
    "factorization", "cluster", "evalmetrics", "classify", "cli",
)

# every per-layer metric, with its unit; a layer a workload bypasses reads 0
LAYER_METRICS = {
    "seqio.parse_fasta_s": "s",
    "featurize.featurize_s": "s",
    "featurize.windows": "count",
    "featurize.windows_per_s": "windows/s",
    "featurize.save_s": "s",
    "featurize.load_s": "s",
    "featurize.file_mb": "MB",
    "ssn.build_s": "s",
    "ssn.pairs_scored": "count",
    "ssn.pairs_per_s": "pairs/s",
    "ssn.edges": "count",
    "ssn.edge_frac": "ratio",
    "ssn.components": "count",
    "ssn.cpu_util": "cores",
    "ssn.save_s": "s",
    "walks.uniform_s": "s",
    "walks.biased_s": "s",
    "walks.steps": "count",
    "walks.uniform_steps_per_s": "steps/s",
    "walks.biased_steps_per_s": "steps/s",
    "sgns.train_s": "s",
    "sgns.pairs": "count",
    "sgns.pairs_per_s": "pairs/s",
    "sgns.cpu_util": "cores",
    "spectral.laplacian_s": "s",
    "spectral.lle_s": "s",
    "spectral.hope_s": "s",
    "factorization.gf_s": "s",
    "factorization.edge_updates": "count",
    "factorization.edge_updates_per_s": "updates/s",
    "factorization.final_loss": "loss",
    "cluster.kmeans_s": "s",
    "cluster.kmeans_iters": "count",
    "cluster.ward_s": "s",
    "cluster.ward_forced_merges": "count",
    "evalmetrics.silhouette_s": "s",
    "evalmetrics.ch_db_s": "s",
    **{f"classify.{name}_s": "s" for name in CLASSIFIERS},
    "classify.fits": "count",
    "classify.fits_per_s": "fits/s",
    "classify.cpu_util": "cores",
    "cli.featurize_s": "s",
    "cli.graph_s": "s",
    "cli.overhead_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class Recorder:
    """Counts calls into the program; with a run id it also records spans."""

    def __init__(self, run_id: str | None = None):
        self.tracer = tracing.Tracer(run_id) if run_id else tracing.NullTracer()
        self.traced = run_id is not None
        self.calls = 0
        self.failed = 0

    @contextmanager
    def span(self, name: str, layer: str):
        self.calls += 1
        try:
            with self.tracer.span(name, layer):
                yield
        except Exception:
            self.failed += 1
            raise

    @property
    def spans(self) -> list[dict]:
        return self.tracer.spans


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _cpu_util(spans, names):
    wall, cpu = tracing.durations(spans), tracing.cpu_seconds(spans)
    busy = sum(wall.get(n, 0.0) for n in names)
    return sum(cpu.get(n, 0.0) for n in names) / busy if busy > 0 else 0.0


def _protocol_fits(classifiers, embeddings: int, seeds: int) -> int:
    """Model fits run_experiment makes: grid x folds for selection, then one refit."""
    per_cell = 0
    for name in classifiers:
        grid = DEFAULT_GRIDS[name]
        per_cell += (len(grid) * NUM_FOLDS if len(grid) > 1 else 0) + 1
    return per_cell * embeddings * seeds


def _spanned(rec: Recorder, fn, name: str, layer: str):
    def call(*args, **kwargs):
        with rec.span(name, layer):
            return fn(*args, **kwargs)
    return call


def _graph_neighbours(n, edges):
    neighbours = [set() for _ in range(n)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return neighbours


class Workload:
    name = ""
    scale = 0.0

    def __init__(self, data, workdir: Path, seed: int):
        self.data = data
        self.workdir = workdir
        self.seed = seed
        self.labels = list(data.labels)
        self._counts = None

    def oracle_counts(self):
        if self._counts is None:
            self._counts = oracles.kmer_counts(self.data.codes, K_MER)
        return self._counts

    def oracle_sample(self):
        rng = np.random.default_rng(self.seed)
        rows = rng.choice(self.data.n, size=min(ORACLE_ROWS, self.data.n), replace=False)
        return sorted(rows.tolist())

    def graph_checks(self, neighbours):
        n = self.data.n
        edges = sum(len(nb) for nb in neighbours) // 2
        work = {
            "pairs_scored": n * (n - 1),
            "edges": edges,
            "components": oracles.components(neighbours),
        }
        bad = oracles.ssn_mismatches(
            neighbours, self.oracle_counts(), self.oracle_sample(), NEIGHBOURS)
        return work, {"ssn_matches_knn_oracle": not bad}

    def feature_checks(self, program_counts):
        """Windows per row and equality with the benchmark's own k-mer counts."""
        windows = int(program_counts.sum())
        rows = np.asarray(program_counts.sum(axis=1)).ravel()
        expected = self.oracle_counts()
        same = program_counts.shape == expected.shape and (program_counts != expected).nnz == 0
        checks = {
            "windows_per_row": bool(np.all(rows == LENGTH - K_MER + 1)),
            "features_match_oracle": bool(same),
        }
        return {"windows": windows}, checks

    def f1_check(self, f1):
        return {"f1_above_majority_baseline": f1 >= oracles.majority_baseline_f1(self.labels)}


class Build(Workload):
    """CLI featurize then graph on a FASTA file, with every artifact on disk."""

    name = "build"
    scale = 0.1
    # the library calls the two subcommands make, and their layers
    cli_calls = {
        "parse_fasta": "seqio",
        "featurize_dataset": "featurize",
        "save_features": "featurize",
        "load_features": "featurize",
        "build_ssn": "ssn",
        "save_graph": "ssn",
    }

    def setup(self):
        self.fasta = self.workdir / "input.fa"
        self.fasta.write_text(self.data.fasta())
        self.features = self.workdir / "features.csv"
        self.edges = self.workdir / "edges.tsv"

    def run(self, rec: Recorder):
        k, big_k = str(K_MER), str(NEIGHBOURS)
        codes = []
        with ExitStack() as stack:
            if rec.traced:
                self._trace_library_calls(rec, stack)
            with rec.span("cli.featurize", "cli"):
                codes.append(cli.main(["featurize", "--input", str(self.fasta),
                                       "--output", str(self.features), "--k", k]))
            with rec.span("cli.graph", "cli"):
                codes.append(cli.main(["graph", "--input", str(self.features),
                                       "--output", str(self.edges), "--K", big_k]))
        return {"exit_codes": codes}

    def _trace_library_calls(self, rec: Recorder, stack: ExitStack):
        """For the rest of the pass, the CLI module's names for the library
        calls record a span each, so they nest inside the subcommand spans."""
        for name, layer in self.cli_calls.items():
            if hasattr(cli, name):  # otherwise its metrics read 0
                traced = _spanned(rec, getattr(cli, name), name, layer)
                stack.enter_context(mock.patch.object(cli, name, traced))

    def fingerprint(self, out):
        return (tuple(out["exit_codes"]), self.features.stat().st_size,
                self.edges.read_bytes().count(b"\n"))

    def exit_checks(self, out):
        return {"cli_exit_codes_zero": all(code == 0 for code in out["exit_codes"])}

    def inspect(self, out):
        """Read the artifacts the CLI wrote and check them against the oracles."""
        triplets = np.loadtxt(self.features, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        n = self.data.n
        program = sparse.csr_matrix(
            (triplets[:, 2], (triplets[:, 0], triplets[:, 1])),
            shape=self.oracle_counts().shape,
        )
        work, checks = self.feature_checks(program)
        edges = np.loadtxt(self.edges, delimiter="\t", dtype=np.int64, ndmin=2)
        neighbours = _graph_neighbours(n, edges.tolist())
        graph_work, graph_checks = self.graph_checks(neighbours)
        work.update(graph_work)
        checks.update(graph_checks)
        checks.update(self.exit_checks(out))
        f1 = oracles.neighbour_vote_f1(neighbours, self.labels)
        checks.update(self.f1_check(f1))
        work["file_bytes"] = self.features.stat().st_size
        return work, checks, f1

    def layer_metrics(self, spans, work):
        wall = tracing.durations(spans)
        return {
            "seqio.parse_fasta_s": wall.get("parse_fasta", 0.0),
            "featurize.save_s": wall.get("save_features", 0.0),
            "featurize.load_s": wall.get("load_features", 0.0),
            "featurize.file_mb": work["file_bytes"] / 1e6,
            "ssn.save_s": wall.get("save_graph", 0.0),
            "cli.featurize_s": wall["cli.featurize"],
            "cli.graph_s": wall["cli.graph"],
            # argparse, config and the SHA-256 sidecars
            "cli.overhead_s": tracing.self_times(spans)["cli"],
        }


def _window_pairs(length: int, window: int) -> int:
    """(target, context) pairs of one walk: both directions at offsets 1..window."""
    return 2 * sum(length - offset for offset in range(1, min(window, length - 1) + 1))


class Analyze(Workload):
    """In memory from a Dataset: every embedding, the classification protocol,
    k-means and SSN-constrained Ward clustering, and cluster quality."""

    name = "analyze"
    scale = 0.01
    spectral_dim = 16
    walk_dim = 128
    gf_epochs = 20
    clusters = 22
    walk_configs = {
        "deepwalk": WalkConfig(walks_per_node=2, epochs=1),
        "node2vec": WalkConfig(walks_per_node=2, epochs=1, p=0.5, q=2.0),
    }
    # (embeddings, classifiers, split seeds): KNN on both walk embeddings over
    # five splits, and all six classifiers on HOPE over one
    protocols = (
        (("deepwalk", "node2vec"), ("knn",), (0, 1, 2, 3, 4)),
        (("hope",), CLASSIFIERS, (0,)),
    )

    def setup(self):
        self.dataset = Dataset(
            SequenceRecord(i, seq, label)
            for i, seq, label in zip(self.data.ids, self.data.residues(), self.data.labels)
        )

    def run(self, rec: Recorder):
        with rec.span("featurize_dataset", "featurize"):
            features = featurize_dataset(self.dataset, k=K_MER)
        with rec.span("build_ssn", "ssn"):
            graph = build_ssn(features, k=NEIGHBOURS)
        d = self.spectral_dim
        embeddings = {}
        with rec.span("laplacian_eigenmaps", "spectral"):
            embeddings["laplacian_eigenmaps"] = laplacian_eigenmaps(graph, d)
        with rec.span("lle_embed", "spectral"):
            embeddings["lle"] = lle_embed(graph, d)
        with rec.span("hope_embed", "spectral"):
            embeddings["hope"] = hope_embed(graph, d)
        with rec.span("graph_factorization", "factorization"):
            embeddings["graph_factorization"] = graph_factorization(
                graph, d, epochs=self.gf_epochs, seed=0)
        steps = self._walk_embeddings(rec, graph, embeddings)
        results = [
            result
            for methods, classifiers, seeds in self.protocols
            for result in self._classify(
                rec, {m: embeddings[m] for m in methods}, classifiers, seeds)
        ]
        with rec.span("kmeans", "cluster"):
            km = kmeans(features, self.clusters, seed=0)
        with rec.span("agglomerative", "cluster"):
            ward = agglomerative(features, graph, self.clusters, linkage="ward")
        with rec.span("to_dense", "featurize"):
            dense = features.to_dense()
        return {"features": features, "graph": graph, "embeddings": embeddings,
                "results": results, "kmeans": km, "ward": ward, "walk_steps": steps,
                "quality": self._quality(rec, dense, ward.labels)}

    def _walk_embeddings(self, rec: Recorder, graph, embeddings):
        """DeepWalk and Node2Vec; traced, as separate walk and SGNS calls."""
        steps = {}
        for name, config in self.walk_configs.items():
            if not rec.traced:
                method = deepwalk if name == "deepwalk" else node2vec
                with rec.span(name, "embed"):
                    embeddings[name] = method(graph, self.walk_dim, config)
                continue
            kind = "uniform" if name == "deepwalk" else "biased"
            with rec.span(f"generate_walks.{kind}", "walks"):
                corpus = generate_walks(graph, config)
            with rec.span(f"sgns_train.{name}", "sgns"):
                vectors = sgns_train(corpus, graph.n, self.walk_dim, config)
            embeddings[name] = EmbeddingMatrix(vectors, name, self.walk_dim)
            steps[kind] = sum(len(walk) - 1 for walk in corpus.walks)
        return steps

    def _classify(self, rec: Recorder, embeddings, classifiers, seeds):
        """One run_experiment call per classifier. The cells are independent,
        so a classifier that raises is counted as failed and the rest still run."""
        results = []
        for name in classifiers:
            try:
                with rec.span(f"run_experiment.{name}", "classify"):
                    results.append(run_experiment(embeddings, self.labels, seeds=seeds,
                                                  classifiers=(name,)))
            except Exception:
                traceback.print_exc()
        return results

    def _quality(self, rec: Recorder, dense, labels):
        """cluster_quality; traced, its three indices as separate calls."""
        if not rec.traced:
            with rec.span("cluster_quality", "evalmetrics"):
                report = cluster_quality(dense, labels)
            return {"silhouette": report.silhouette,
                    "calinski_harabasz": report.calinski_harabasz,
                    "davies_bouldin": report.davies_bouldin}
        quality = {}
        for name, index in (("silhouette", silhouette),
                            ("calinski_harabasz", calinski_harabasz),
                            ("davies_bouldin", davies_bouldin)):
            with rec.span(name, "evalmetrics"):
                quality[name] = index(dense, labels)
        return quality

    def fingerprint(self, out):
        f1 = [r.f1_macro for result in out["results"] for rs in result.reports.values() for r in rs]
        return (out["graph"].num_edges, sorted(f1))

    def inspect(self, out):
        n = self.data.n
        work, checks = self.feature_checks(out["features"].to_csr().astype(np.int64))
        graph = out["graph"]
        neighbours = _graph_neighbours(graph.n, graph.edges())
        graph_work, graph_checks = self.graph_checks(neighbours)
        work.update(graph_work)
        checks.update(graph_checks)
        for name, emb in out["embeddings"].items():
            vectors = np.asarray(emb.vectors)
            d = self.walk_dim if name in self.walk_configs else self.spectral_dim
            checks[f"embedding_{name}_finite_n_by_d"] = bool(
                vectors.shape == (n, d) and np.all(np.isfinite(vectors)))

        expected = {(m, c): len(seeds) for methods, classifiers, seeds in self.protocols
                    for m in methods for c in classifiers}
        got = {cell: len(reports) for result in out["results"]
               for cell, reports in result.reports.items()}
        checks["every_cell_has_report"] = got == expected
        reports = [r for result in out["results"] for rs in result.reports.values() for r in rs]
        f1 = float(np.mean([r.f1_macro for r in reports])) if reports else 0.0
        checks.update(self.f1_check(f1))
        expected_quality = oracles.cluster_indices(self.oracle_counts(), out["ward"].labels)
        for key, value in expected_quality.items():
            got_value = out["quality"][key]
            checks[f"{key}_matches_gram_oracle"] = abs(got_value - value) <= 1e-9 * abs(value)

        work["fits"] = sum(_protocol_fits(classifiers, len(methods), len(seeds))
                           for methods, classifiers, seeds in self.protocols)
        work["walk_steps"] = sum(
            n * c.walks_per_node * (c.walk_length - 1) for c in self.walk_configs.values())
        if out["walk_steps"]:
            checks["walk_steps_match_config"] = sum(out["walk_steps"].values()) == work["walk_steps"]
        work["sgns_pairs"] = sum(
            c.epochs * n * c.walks_per_node * _window_pairs(c.walk_length, c.window)
            for c in self.walk_configs.values())
        work["gf_edge_updates"] = self.gf_epochs * work["edges"]
        work["gf_final_loss"] = float(out["embeddings"]["graph_factorization"].info["loss"])
        work["kmeans_iters"] = len(out["kmeans"].history) - 1
        work["forced_merges"] = int(out["ward"].forced_merges)
        return work, checks, f1

    def layer_metrics(self, spans, work):
        wall = tracing.durations(spans)
        half = work["walk_steps"] / 2  # both walk configs take the same number of steps
        sgns = ["sgns_train.deepwalk", "sgns_train.node2vec"]
        train = sum(wall[n] for n in sgns)
        classify = [f"run_experiment.{c}" for c in CLASSIFIERS]
        busy = sum(wall[n] for n in classify)
        return {
            "walks.uniform_s": wall["generate_walks.uniform"],
            "walks.biased_s": wall["generate_walks.biased"],
            "walks.steps": work["walk_steps"],
            "walks.uniform_steps_per_s": _rate(half, wall["generate_walks.uniform"]),
            "walks.biased_steps_per_s": _rate(half, wall["generate_walks.biased"]),
            "sgns.train_s": train,
            "sgns.pairs": work["sgns_pairs"],
            "sgns.pairs_per_s": _rate(work["sgns_pairs"], train),
            "sgns.cpu_util": _cpu_util(spans, sgns),
            "spectral.laplacian_s": wall["laplacian_eigenmaps"],
            "spectral.lle_s": wall["lle_embed"],
            "spectral.hope_s": wall["hope_embed"],
            "factorization.gf_s": wall["graph_factorization"],
            "factorization.edge_updates": work["gf_edge_updates"],
            "factorization.edge_updates_per_s": _rate(work["gf_edge_updates"],
                                                      wall["graph_factorization"]),
            "factorization.final_loss": work["gf_final_loss"],
            "cluster.kmeans_s": wall["kmeans"],
            "cluster.kmeans_iters": work["kmeans_iters"],
            "cluster.ward_s": wall["agglomerative"],
            "cluster.ward_forced_merges": work["forced_merges"],
            "evalmetrics.silhouette_s": wall["silhouette"],
            "evalmetrics.ch_db_s": wall["calinski_harabasz"] + wall["davies_bouldin"],
            **{f"classify.{c}_s": wall[f"run_experiment.{c}"] for c in CLASSIFIERS},
            "classify.fits": work["fits"],
            "classify.fits_per_s": _rate(work["fits"], busy),
            "classify.cpu_util": _cpu_util(spans, classify),
        }


WORKLOADS = {w.name: w for w in (Build, Analyze)}


def common_layer_metrics(spans, work):
    """Per-layer metrics every workload has: featurize and SSN times and counts."""
    wall = tracing.durations(spans)
    featurize_s = wall.get("featurize_dataset", 0.0)
    build_s = wall.get("build_ssn", 0.0)
    return {
        "featurize.featurize_s": featurize_s,
        "featurize.windows": work["windows"],
        "featurize.windows_per_s": _rate(work["windows"], featurize_s),
        "ssn.build_s": build_s,
        "ssn.pairs_scored": work["pairs_scored"],
        "ssn.pairs_per_s": _rate(work["pairs_scored"], build_s),
        "ssn.edges": work["edges"],
        "ssn.edge_frac": work["edges"] / work["pairs_scored"],
        "ssn.components": work["components"],
        "ssn.cpu_util": _cpu_util(spans, ["build_ssn"]),
    }
