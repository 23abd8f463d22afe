import argparse
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from evalmetrics_reference import cluster_quality_reference

from seqnet import classify, cli, errors, featurize
from seqnet.cli import _effective, build_parser, main
from seqnet.config import SECTIONS, PipelineConfig, load_config
from seqnet.embed import EmbeddingMatrix, load_embedding, save_embedding
from seqnet.errors import ConfigError, DimensionError
from seqnet.cluster import agglomerative, kmeans, load_assignment, pca_project
from seqnet.featurize import FeatureMatrix, load_features
from seqnet.ssn import connected_components, load_graph, network_from_edges, save_graph


ROOT = Path(__file__).resolve().parents[1]
# scipy subpackages no stage uses (importing scipy.stats alone loads all
# five), and scipy.special, which only SGNS uses and imports where it calls it
UNUSED_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.interpolate",
                "scipy.ndimage", "scipy.special")


def run(*argv):
    return main([str(a) for a in argv])


def test_import_loads_no_unused_scipy_subpackage():
    """Every subcommand is a fresh process, so each pays for what
    ``import seqnet.cli`` loads; a fresh interpreter must not load these."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = "import sys, seqnet, seqnet.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = [m for m in proc.stdout.split() if m.startswith(UNUSED_SCIPY)]
    assert loaded == []


def config_flags():
    """{field: (subcommand parser, its required argv, flag)} for every config
    field some subcommand takes as a flag."""
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {}
    for sub in subs.choices.values():
        required = [s for a in sub._actions if a.required for s in (a.option_strings[0], "x")]
        for action in sub._actions:
            if action.dest in PipelineConfig.__dataclass_fields__:
                found.setdefault(action.dest, (sub, required, action.option_strings[0]))
    return found


@pytest.fixture
def pipeline_dir(tmp_path):
    """synth -> featurize -> graph, shared by downstream subcommand tests."""
    fasta = tmp_path / "data.fa"
    labels = tmp_path / "labels.csv"
    features = tmp_path / "features.csv"
    edges = tmp_path / "graph.tsv"
    assert run(
        "synth", "--output", fasta, "--labels-output", labels,
        "--lineages", 3, "--per-lineage", 12, "--length", 60,
        "--within-rate", 0.02, "--between-count", 12, "--seed", 5,
    ) == 0
    assert run("featurize", "--input", fasta, "--output", features, "--k", 2) == 0
    assert run(
        "graph", "--input", features, "--output", edges, "--labels", labels, "--K", 4
    ) == 0
    return tmp_path


class TestConfigFile:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        cfg = load_config(path)
        assert (cfg.k, cfg.K, cfg.dim) == (3, 20, 200)

    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert (cfg.k, cfg.K, cfg.dim) == (3, 20, 200)
        assert cfg.method == "node2vec"
        assert cfg.seeds == (0, 1, 2, 3, 4)

    def test_file_values_parsed(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text("[pipeline]\nk = 4\nK = 10\ndim = 64\n\n[walks]\np = 0.5\n")
        cfg = load_config(path)
        assert (cfg.k, cfg.K, cfg.dim, cfg.p) == (4, 10, 64, 0.5)

    def test_seed_list_and_booleans_parsed(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text(
            "[pipeline]\nseeds = 3, 5, 8\nstrict = true\ntimings = off\n"
            "\n[cluster]\nbatch_size = none\npca_dim = 100\n"
        )
        cfg = load_config(path)
        assert cfg.seeds == (3, 5, 8)
        assert cfg.strict is True
        assert cfg.timings is False
        assert cfg.batch_size is None
        assert cfg.pca_dim == 100

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[pipeline]\nkmer = 4\n")
        with pytest.raises(ConfigError, match="kmer"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[misc]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_default_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[DEFAULT]\nk = 4\n")
        with pytest.raises(ConfigError, match="DEFAULT"):
            load_config(path)

    def test_section_table_names_every_field_once(self):
        named = [name for names in SECTIONS.values() for name in names]
        assert sorted(named) == sorted(f.name for f in fields(PipelineConfig))

    def test_every_field_but_var_floor_has_a_flag(self):
        flagless = {f.name for f in fields(PipelineConfig)} - set(config_flags())
        assert flagless == {"var_floor"}

    @pytest.mark.parametrize("name", sorted(config_flags()))
    def test_flag_and_ini_key_parse_alike(self, tmp_path, name):
        samples = {"seeds": "1,,2", "batch_size": "none", "gamma": "none", "method": "hope"}
        text = samples.get(name, "7")  # reads as an int and as a float
        sub, required, flag = config_flags()[name]
        switch = isinstance(PipelineConfig.__dataclass_fields__[name].default, bool)
        if switch:
            text = "true"
        args = sub.parse_args(required + ([flag] if switch else [flag, text]))
        section = next(s for s, names in SECTIONS.items() if name in names)
        path = tmp_path / "conf.ini"
        path.write_text(f"[{section}]\n{name} = {text}\n")
        assert getattr(args, name) == getattr(load_config(path), name)

    def test_flag_none_overrides_file(self, tmp_path):
        conf = tmp_path / "conf.ini"
        conf.write_text("[cluster]\nbatch_size = 64\ngamma = 0.5\n")
        sub, required, _ = config_flags()["batch_size"]
        cfg = _effective(sub.parse_args(required + ["--config", str(conf)]))
        assert (cfg.batch_size, cfg.gamma) == (64, 0.5)
        cfg = _effective(sub.parse_args(
            required + ["--config", str(conf), "--batch-size", "none", "--gamma", "none"]
        ))
        assert (cfg.batch_size, cfg.gamma) == (None, None)

    def test_flag_overrides_file(self, tmp_path):
        conf = tmp_path / "conf.ini"
        conf.write_text("[pipeline]\nK = 20\n")
        fasta = tmp_path / "d.fa"
        features = tmp_path / "f.csv"
        edges = tmp_path / "g.tsv"
        run("synth", "--output", fasta, "--lineages", 2, "--per-lineage", 8,
            "--length", 40, "--within-rate", 0.0, "--between-count", 8, "--seed", 1)
        run("featurize", "--input", fasta, "--output", features, "--k", 2)
        assert run(
            "graph", "--input", features, "--output", edges,
            "--config", conf, "--K", 3,
        ) == 0
        graph = load_graph(edges)
        # min degree under union symmetrization reflects K=3, not 20
        assert min(graph.degree(i) for i in range(graph.n)) >= 3
        meta = (tmp_path / "g.tsv.meta").read_text()
        assert "config.K=3" in meta


class TestPipelineCommands:
    def test_featurize_row_sum_matches_window_count(self, tmp_path):
        # spike-protein length: 1274 residues give 1272 3-mer windows
        residues = ("ACDEFGHIKLMNPQRSTVWY" * 64)[:1274]
        fasta = tmp_path / "one.fa"
        fasta.write_text(">s|L\n" + residues + "\n")
        out = tmp_path / "f.csv"
        assert run("featurize", "--input", fasta, "--output", out, "--k", 3) == 0
        matrix = load_features(out)
        assert matrix.to_csr()[0].sum() == 1272

    def test_featurize_sidecar_counts_empty_rows_and_skipped_windows(self, tmp_path):
        """A record made only of X counts no window: its row is all zero, and
        the sidecar says so beside the windows that an X kept from counting."""
        fasta = tmp_path / "x.fa"
        fasta.write_text(">a|L\nACDEFG\n>b|L\nXXXXXX\n>c|L\nACXDEF\n")
        out = tmp_path / "f.csv"
        assert run("featurize", "--input", fasta, "--output", out, "--k", 3) == 0
        assert load_features(out).to_csr().getnnz(axis=1).tolist() == [4, 0, 1]
        meta = Path(str(out) + ".meta").read_text().splitlines()
        # b's 4 windows and 3 of c's 4 hold an X
        assert "empty_rows=1" in meta and "windows_skipped=7" in meta

    def test_graph_export_round_trip(self, pipeline_dir):
        graph = load_graph(pipeline_dir / "graph.tsv")
        assert graph.n == 36
        assert graph.labels is not None

    def test_embed_node2vec(self, pipeline_dir):
        out = pipeline_dir / "emb.csv"
        assert run(
            "embed", "--input", pipeline_dir / "graph.tsv", "--output", out,
            "--method", "node2vec", "--dim", 16, "--seed", 0,
            "--walks-per-node", 3, "--walk-length", 10, "--epochs", 1,
        ) == 0
        emb = load_embedding(out)
        assert emb.vectors.shape == (36, 16)
        assert emb.method == "node2vec"

    def test_embed_spectral_methods(self, pipeline_dir):
        comp = connected_components(load_graph(pipeline_dir / "graph.tsv"))
        n_comp = int(comp.max()) + 1
        assert n_comp > 1
        for method in ("laplacian_eigenmaps", "lle", "hope"):
            out = pipeline_dir / f"{method}.csv"
            code = run(
                "embed", "--input", pipeline_dir / "graph.tsv", "--output", out,
                "--method", method, "--dim", 4,
            )
            assert code == 0, method
            emb = load_embedding(out)
            assert emb.vectors.shape == (36, 4)
            if method != "hope":
                # the disconnected graph embeds per component; the sidecar
                # says how many and how many rows got no column
                assert emb.info["components"] == str(n_comp)
                embedded = np.isin(comp, comp[emb.vectors.any(axis=1)])
                assert emb.info["zero_rows"] == str(int((~embedded).sum()))

    def test_embed_factorization_and_deepwalk(self, pipeline_dir):
        for method, extra in (
            ("graph_factorization", ["--gf-epochs", "10"]),
            ("deepwalk", ["--walks-per-node", "2", "--walk-length", "8", "--epochs", "1"]),
        ):
            out = pipeline_dir / f"{method}.csv"
            code = run(
                "embed", "--input", pipeline_dir / "graph.tsv", "--output", out,
                "--method", method, "--dim", 6, "--seed", 1, *extra,
            )
            assert code == 0, method
            emb = load_embedding(out)
            assert emb.vectors.shape == (36, 6)
            assert emb.method == method

    def test_cluster_all_feature_methods(self, pipeline_dir):
        for method in ("minibatch_kmeans", "dbscan", "gmm", "spectral"):
            out = pipeline_dir / f"assign_{method}.csv"
            code = run(
                "cluster", "--features", pipeline_dir / "features.csv",
                "--output", out, "--method", method, "--k-clusters", 3,
                "--eps", 8.0, "--min-pts", 2, "--seed", 0,
            )
            assert code == 0, method

    def test_cluster_and_evaluate(self, pipeline_dir):
        assign = pipeline_dir / "assign.csv"
        report = pipeline_dir / "quality.csv"
        assert run(
            "cluster", "--features", pipeline_dir / "features.csv",
            "--output", assign, "--method", "kmeans", "--k-clusters", 3,
            "--seed", 0,
        ) == 0
        assert run(
            "evaluate", "--features", pipeline_dir / "features.csv",
            "--assignments", assign, "--output", report, "--name", "kmeans",
        ) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "algorithm,silhouette,calinski_harabasz,davies_bouldin,runtime_sec"
        assert lines[1].startswith("kmeans,")
        assert lines[1].endswith(",0.0")  # timings off by default

    def test_evaluate_and_pca2d_on_sparse_features(self, pipeline_dir):
        features = pipeline_dir / "features.csv"
        assign = pipeline_dir / "assign.csv"
        report = pipeline_dir / "quality.csv"
        proj = pipeline_dir / "proj.csv"
        assert run(
            "cluster", "--features", features, "--output", assign,
            "--method", "kmeans", "--k-clusters", 3, "--seed", 0,
        ) == 0
        dense = load_features(features).to_dense()
        with mock.patch.object(FeatureMatrix, "to_dense",
                               side_effect=AssertionError("densified")):
            assert run(
                "evaluate", "--features", features, "--assignments", assign,
                "--output", report,
            ) == 0
            assert run("pca2d", "--input", features, "--output", proj) == 0
        want = cluster_quality_reference(dense, load_assignment(assign))
        row = report.read_text().splitlines()[1].split(",")
        got = [float(v) for v in row[1:4]]
        assert got == pytest.approx(
            [want.silhouette, want.calinski_harabasz, want.davies_bouldin], rel=1e-12
        )
        # the projection of the features' dense rows, byte for byte
        expected = "node_index,pc0,pc1\n" + "".join(
            f"{i},{pc0!r},{pc1!r}\n" for i, (pc0, pc1) in enumerate(pca_project(dense, 2).tolist())
        )
        assert proj.read_text() == expected

    def test_timings_flag_round_trip(self, pipeline_dir):
        assign = pipeline_dir / "assign_t.csv"
        report = pipeline_dir / "quality_t.csv"
        assert run(
            "cluster", "--features", pipeline_dir / "features.csv",
            "--output", assign, "--method", "kmeans", "--k-clusters", 3,
            "--seed", 0, "--timings",
        ) == 0
        first = assign.read_text().splitlines()[0]
        assert first.startswith("# runtime_sec=")
        runtime = float(first.split("=", 1)[1])
        assert runtime > 0
        assert run(
            "evaluate", "--features", pipeline_dir / "features.csv",
            "--assignments", assign, "--output", report, "--name", "kmeans",
            "--timings",
        ) == 0
        row = report.read_text().splitlines()[1]
        assert row.endswith(repr(runtime))

    def test_cluster_ward_requires_graph(self, pipeline_dir, monkeypatch):
        monkeypatch.setattr(cli, "_load_features", mock.Mock(side_effect=AssertionError("read")))
        code = run(
            "cluster", "--features", pipeline_dir / "features.csv",
            "--output", pipeline_dir / "a.csv", "--method", "ward",
            "--k-clusters", 3,
        )
        assert code == 4

    def test_cluster_ward_with_graph(self, pipeline_dir):
        assign = pipeline_dir / "ward.csv"
        assert run(
            "cluster", "--features", pipeline_dir / "features.csv",
            "--output", assign, "--method", "ward", "--k-clusters", 3,
            "--graph", pipeline_dir / "graph.tsv",
        ) == 0
        meta = (pipeline_dir / "ward.csv.meta").read_text().splitlines()
        assert f"input.1.path={pipeline_dir / 'graph.tsv'}" in meta
        assert f"input.2.path={pipeline_dir / 'graph.tsv.nodes.csv'}" in meta

    def test_cluster_ward_reads_nodes_input(self, pipeline_dir):
        """A graph written with --nodes-output clusters through --nodes-input."""
        edges, nodes = pipeline_dir / "g2.tsv", pipeline_dir / "nodes2.csv"
        assert run(
            "graph", "--input", pipeline_dir / "features.csv", "--output", edges,
            "--nodes-output", nodes, "--K", 4,
        ) == 0
        assign = pipeline_dir / "ward2.csv"
        assert run(
            "cluster", "--features", pipeline_dir / "features.csv",
            "--output", assign, "--method", "ward", "--k-clusters", 3,
            "--graph", edges, "--nodes-input", nodes,
        ) == 0
        meta = (pipeline_dir / "ward2.csv.meta").read_text().splitlines()
        assert f"input.2.path={nodes}" in meta

    def test_cluster_sidecar_counters(self, pipeline_dir):
        """Ward and average record their forced merges and k-means its Lloyd
        iterations; a rerun writes the same sidecar byte for byte."""
        features, graph = pipeline_dir / "features.csv", pipeline_dir / "graph.tsv"
        rows = load_features(features)
        want = {
            "ward": ("forced_merges", agglomerative(rows, load_graph(graph), 2).forced_merges),
            "average": ("forced_merges", agglomerative(
                rows, load_graph(graph), 2, linkage="average").forced_merges),
            "kmeans": ("kmeans_iters", len(kmeans(rows, 2, seed=0).history) - 1),
        }
        for method, (key, value) in want.items():
            metas = []
            for rerun in range(2):
                out = pipeline_dir / f"{method}{rerun}.csv"
                assert run(
                    "cluster", "--features", features, "--output", out, "--method", method,
                    "--k-clusters", 2, "--graph", graph, "--seed", 0,
                ) == 0
                metas.append((pipeline_dir / f"{method}{rerun}.csv.meta").read_text())
            assert metas[0].replace(f"{method}0.csv", "") == metas[1].replace(f"{method}1.csv", "")
            assert f"{key}={value}" in metas[0].splitlines(), method
        # the graph's three lineages are three components: k=2 forces a merge
        assert want["ward"][1] >= 1

    @pytest.mark.parametrize("argv", [
        ("cluster", "--method", "average", "--k-clusters", 2, "--graph", "graph.tsv"),
        ("cluster", "--method", "gmm", "--k-clusters", 2),
        ("cluster", "--method", "spectral", "--k-clusters", 2),
        ("pca2d",),
    ])
    def test_dense_allocation_beyond_available_memory_exit_5(self, pipeline_dir, capsys, argv):
        """A dense n x n or n x dim allocation larger than the available
        memory stops with exit 5 and its estimate, before it is made."""
        argv = [pipeline_dir / a if a == "graph.tsv" else a for a in argv]
        flag = "--features" if argv[0] == "cluster" else "--input"
        out = pipeline_dir / "out.csv"
        with mock.patch.object(errors, "available_memory", return_value=1000):
            assert run(*argv, flag, pipeline_dir / "features.csv", "--output", out) == 5
        err = capsys.readouterr().err
        assert "seqnet: error[5]:" in err and "needs about" in err and "0 MB" in err
        assert not out.exists()
        with mock.patch.object(errors, "available_memory", return_value=None):
            assert run(*argv, flag, pipeline_dir / "features.csv", "--output", out) == 0

    def test_elbow_csv(self, pipeline_dir):
        out = pipeline_dir / "elbow.csv"
        assert run(
            "elbow", "--features", pipeline_dir / "features.csv",
            "--output", out, "--k-min", 1, "--k-max", 6, "--seed", 0,
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,sse,runtime_sec,chosen"
        assert sum(line.endswith(",1") for line in lines[1:]) == 1
        assert all(line.split(",")[2] == "0.0" for line in lines[1:])  # no --timings
        assert run(
            "elbow", "--features", pipeline_dir / "features.csv",
            "--output", out, "--k-min", 1, "--k-max", 3, "--seed", 0, "--timings",
        ) == 0
        assert all(float(line.split(",")[2]) > 0 for line in out.read_text().splitlines()[1:])

    def test_classify_end_to_end(self, pipeline_dir):
        emb = pipeline_dir / "emb.csv"
        run(
            "embed", "--input", pipeline_dir / "graph.tsv", "--output", emb,
            "--method", "node2vec", "--dim", 8, "--seed", 0,
            "--walks-per-node", 4, "--walk-length", 12, "--epochs", 2,
        )
        prefix = str(pipeline_dir / "result")
        assert run(
            "classify", "--embedding", f"node2vec={emb}",
            "--labels", pipeline_dir / "labels.csv",
            "--output-prefix", prefix, "--classifiers", "knn",
            "--seeds", "0,1", "--num-folds", 2,
        ) == 0
        mean_lines = (pipeline_dir / "result_mean.csv").read_text().splitlines()
        std_lines = (pipeline_dir / "result_std.csv").read_text().splitlines()
        assert mean_lines[0].startswith("embedding,classifier,accuracy")
        assert mean_lines[0].endswith(",train_time_sec")
        assert len(mean_lines) == 2 and len(std_lines) == 2
        # no --timings: the runtime column reads 0.0
        assert mean_lines[1].endswith(",0.0") and std_lines[1].endswith(",0.0")

    @pytest.mark.parametrize("error, code", [
        (ConfigError("bad grid"), 4),
        (DimensionError("too few rows"), 5),
        (ValueError("bad value"), 1),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 1),
    ])
    def test_classify_cell_failure_exit_code(self, pipeline_dir, capsys, error, code):
        emb = pipeline_dir / "hope.csv"
        assert run(
            "embed", "--input", pipeline_dir / "graph.tsv", "--output", emb,
            "--method", "hope", "--dim", 4,
        ) == 0
        with mock.patch.object(classify.KNNClassifier, "fit", side_effect=error):
            assert run(
                "classify", "--embedding", f"hope={emb}",
                "--labels", pipeline_dir / "labels.csv",
                "--output-prefix", pipeline_dir / "result", "--classifiers", "knn",
                "--seeds", "3", "--num-folds", 2,
            ) == code
        assert f"[method=hope classifier=knn seed=3] {error}" in capsys.readouterr().err

    def test_classify_empty_cv_fold_exit_5(self, tmp_path, capsys):
        # a x 3 + b x 3 at test fraction 0.6: each class keeps one training
        # row, so two folds dealt per class would leave one fold empty
        emb = tmp_path / "emb.csv"
        vectors = np.random.default_rng(0).normal(size=(6, 2))
        save_embedding(EmbeddingMatrix(vectors, "hope", 2), emb)
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\n" + "".join(f"s{i},{c}\n" for i, c in enumerate("aaabbb")))
        assert run(
            "classify", "--embedding", emb, "--labels", labels,
            "--output-prefix", tmp_path / "result", "--classifiers", "knn",
            "--seeds", "0", "--test-fraction", 0.6, "--num-folds", 2,
        ) == 5
        assert "no class keeps num_folds=2 training rows" in capsys.readouterr().err
        assert not (tmp_path / "result_mean.csv").exists()

    @pytest.mark.parametrize("blank", [(7,), (0, 5, 9, 13), tuple(range(0, 24, 2))])
    def test_classify_rows_without_a_label_exit_4(self, tmp_path, capsys, blank):
        # one blank label made a class None (exit 5 at 2 folds); num_folds or
        # more made np.unique compare None with str (exit 1)
        emb = tmp_path / "emb.csv"
        vectors = np.random.default_rng(1).normal(size=(24, 2))
        save_embedding(EmbeddingMatrix(vectors, "hope", 2), emb)
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\n" + "".join(
            f"s{i},{'' if i in blank else 'ab'[i % 2]}\n" for i in range(24)))
        assert run(
            "classify", "--embedding", emb, "--labels", labels,
            "--output-prefix", tmp_path / "result", "--classifiers", "knn",
            "--seeds", "0", "--num-folds", 2,
        ) == 4
        err = capsys.readouterr().err
        assert f"{len(blank)} of 24 rows have no label; the first is row {blank[0]}" in err
        assert not (tmp_path / "result_mean.csv").exists()

    def test_embed_factorization_divergence_exit_5(self, pipeline_dir, capsys):
        out = pipeline_dir / "gf.csv"
        assert run(
            "embed", "--input", pipeline_dir / "graph.tsv", "--output", out,
            "--method", "graph_factorization", "--dim", 4, "--gf-lr", 1e3,
        ) == 5
        assert "diverged in epoch" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate, code", [("nan", 4), ("inf", 4), ("1e30", 5)])
    def test_embed_walk_learning_rate_exit_code(self, pipeline_dir, capsys, rate, code):
        out = pipeline_dir / "n2v.csv"
        assert run(
            "embed", "--input", pipeline_dir / "graph.tsv", "--output", out,
            "--method", "node2vec", "--dim", 4, "--walks-per-node", 2, "--walk-length", 10,
            "--learning-rate", rate,
        ) == code
        err = capsys.readouterr().err
        assert ("finite" if code == 4 else "diverged in epoch 1") in err
        assert not out.exists()

    def test_embed_walk_setting_checked_before_the_graph_is_read(self, pipeline_dir, monkeypatch,
                                                                capsys):
        """A bad walk setting, a bad d of any method, and a bad HOPE or graph
        factorization setting exit 4 before the graph is read, so a missing
        graph with a bad setting exits 4 too, not 3."""
        monkeypatch.setattr(cli, "load_graph", mock.Mock(side_effect=AssertionError("read")))
        out = pipeline_dir / "e.csv"
        cases = [
            (("node2vec", "--window", 0), "window must be >= 1"),
            (("graph_factorization", "--dim", 2, "--gf-epochs", 0), "epochs must be >= 1"),
            (("graph_factorization", "--dim", 2, "--gf-lr", "nan"), "lr must be a finite"),
            (("graph_factorization", "--dim", 2, "--lam", -1), "lam must be a finite"),
            (("graph_factorization", "--dim", 0), "d must be >= 1"),
            (("hope", "--dim", 0), "d must be >= 1"),
            (("hope", "--dim", 3), "d must be even"),
            (("hope", "--dim", 2, "--beta", "nan"), "beta must be a finite"),
            (("hope", "--dim", 2, "--beta", 0), "beta must be a finite"),
            (("lle", "--dim", 0), "d must be >= 1"),
            (("laplacian_eigenmaps", "--dim", -1), "d must be >= 1"),
            (("deepwalk", "--dim", 0), "d must be >= 1"),
        ]
        for (method, *options), message in cases:
            for graph in (pipeline_dir / "graph.tsv", pipeline_dir / "missing.tsv"):
                assert run("embed", "--input", graph, "--output", out, "--method", method,
                           *options) == 4, (method, options)
                assert message in capsys.readouterr().err
        assert not out.exists()

    def test_report_merges_matching_schemas(self, pipeline_dir):
        a = pipeline_dir / "qa.csv"
        b = pipeline_dir / "qb.csv"
        header = "algorithm,silhouette,calinski_harabasz,davies_bouldin,runtime_sec\n"
        a.write_text(header + "x,0.1,1.0,0.5,0.0\n")
        b.write_text(header + "y,0.2,2.0,0.4,0.0\n")
        out = pipeline_dir / "merged.csv"
        assert run("report", "--inputs", a, b, "--output", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_report_schema_mismatch_exit_code(self, pipeline_dir):
        a = pipeline_dir / "ra.csv"
        b = pipeline_dir / "rb.csv"
        a.write_text("x,y\n1,2\n")
        b.write_text("p,q\n1,2\n")
        assert run("report", "--inputs", a, b, "--output", pipeline_dir / "m.csv") == 4

    def test_pca2d_from_features_and_embeddings(self, pipeline_dir):
        emb = pipeline_dir / "hope.csv"
        assert run(
            "embed", "--input", pipeline_dir / "graph.tsv", "--output", emb,
            "--method", "hope", "--dim", 4,
        ) == 0
        for source in (pipeline_dir / "features.csv", emb):
            out = pipeline_dir / "proj.csv"
            assert run("pca2d", "--input", source, "--output", out) == 0
            lines = out.read_text().strip().splitlines()
            assert lines[0] == "node_index,pc0,pc1"
            assert len(lines) == 37
            # every cell is a plain number, not a NumPy scalar repr
            for i, line in enumerate(lines[1:]):
                index, pc0, pc1 = line.split(",")
                assert int(index) == i
                float(pc0), float(pc1)


class TestErrorChannels:
    def test_missing_input_exit_3(self, tmp_path):
        assert run(
            "featurize", "--input", tmp_path / "nope.fa",
            "--output", tmp_path / "o.csv",
        ) == 3

    def test_schema_mismatch_exit_4(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("definitely,not,triplets\n")
        assert run("graph", "--input", bad, "--output", tmp_path / "g.tsv") == 4

    @pytest.mark.parametrize(
        "files, argv, line",
        [
            (  # a triplet count that is not an integer
                {"f.csv": "# n=2 k=1 logical_length=20\n0,1,1\n0,2,1.5\n"},
                ["graph", "--input", "f.csv", "--output", "g.tsv"],
                3,
            ),
            (  # an edge endpoint that is not an integer
                {"g.tsv": "0\t1\n0\tx\n", "g.tsv.nodes.csv": "index,id,label\n0,a,\n1,b,\n"},
                ["embed", "--input", "g.tsv", "--output", "e.csv", "--method", "hope"],
                2,
            ),
            (  # a node index that is not an integer
                {"g.tsv": "0\t1\n", "g.tsv.nodes.csv": "index,id,label\n0,a,\nx,b,\n"},
                ["embed", "--input", "g.tsv", "--output", "e.csv", "--method", "hope"],
                3,
            ),
            (  # an embedding coordinate that is not a number
                {"e.csv": "node_index,d0\n0,0.5\n1,abc\n"},
                ["pca2d", "--input", "e.csv", "--output", "p.csv"],
                3,
            ),
            (  # a cluster id that is not an integer
                {
                    "f.csv": "# n=2 k=1 logical_length=20\n0,1,1\n1,2,1\n",
                    "a.csv": "# runtime_sec=0.0\nnode_index,cluster\n0,0\n1,z\n",
                },
                ["evaluate", "--features", "f.csv", "--assignments", "a.csv", "--output", "q.csv"],
                4,
            ),
            (  # an edge endpoint past the last node
                {"g.tsv": "0\t1\n0\t5\n", "g.tsv.nodes.csv": "index,id,label\n0,a,\n1,b,\n"},
                ["embed", "--input", "g.tsv", "--output", "e.csv", "--method", "hope"],
                2,
            ),
            (  # a negative edge endpoint
                {"g.tsv": "-1\t1\n", "g.tsv.nodes.csv": "index,id,label\n0,a,\n1,b,\n"},
                ["embed", "--input", "g.tsv", "--output", "e.csv", "--method", "hope"],
                1,
            ),
            (  # a runtime comment that is not a number, read under --timings
                {
                    "f.csv": "# n=2 k=1 logical_length=20\n0,1,1\n1,2,1\n",
                    "a.csv": "# runtime_sec=abc\nnode_index,cluster\n0,0\n1,1\n",
                },
                [
                    "evaluate", "--features", "f.csv", "--assignments", "a.csv",
                    "--output", "q.csv", "--timings",
                ],
                1,
            ),
            (  # a labels file without its id,label header
                {
                    "f.csv": "# n=2 k=1 logical_length=20\n0,1,1\n1,2,1\n",
                    "l.csv": "name,label\na,x\nb,y\n",
                },
                ["graph", "--input", "f.csv", "--output", "g.tsv", "--labels", "l.csv"],
                1,
            ),
            (  # a labels row with one field
                {
                    "f.csv": "# n=2 k=1 logical_length=20\n0,1,1\n1,2,1\n",
                    "l.csv": "id,label\na,x\nb\n",
                },
                ["graph", "--input", "f.csv", "--output", "g.tsv", "--labels", "l.csv"],
                3,
            ),
            (  # a node CSV without its index,id,label header
                {"g.tsv": "0\t1\n", "g.tsv.nodes.csv": "node,id,label\n0,a,\n1,b,\n"},
                ["embed", "--input", "g.tsv", "--output", "e.csv", "--method", "hope"],
                1,
            ),
            (  # an assignment file without its node_index,cluster header
                {
                    "f.csv": "# n=2 k=1 logical_length=20\n0,1,1\n1,2,1\n",
                    "a.csv": "# runtime_sec=0.0\nnode,cluster\n0,0\n1,1\n",
                },
                ["evaluate", "--features", "f.csv", "--assignments", "a.csv", "--output", "q.csv"],
                2,
            ),
        ],
        ids=[
            "triplet", "edge", "node_row", "embedding", "assignment",
            "edge_out_of_range", "edge_negative", "runtime",
            "labels_header", "labels_short_row", "nodes_header", "assignment_header",
        ],
    )
    def test_malformed_number_exit_4_with_line(self, tmp_path, capsys, files, argv, line):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if (tmp_path / a).suffix in (".csv", ".tsv") else a for a in argv]
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("seqnet: error[4]:") and f"line {line}:" in err

    def test_bad_config_key_exit_4(self, pipeline_dir, tmp_path):
        conf = tmp_path / "bad.ini"
        conf.write_text("[pipeline]\nnot_a_key = 1\n")
        assert run(
            "featurize", "--input", pipeline_dir / "data.fa",
            "--output", tmp_path / "o.csv", "--config", conf,
        ) == 4

    def test_invalid_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run("graph", "--no-such-flag")
        assert exit_info.value.code == 2

    def test_allow_disconnected_flag_is_gone_exit_2(self, pipeline_dir):
        with pytest.raises(SystemExit) as exit_info:
            run("embed", "--input", pipeline_dir / "graph.tsv", "--output",
                pipeline_dir / "e.csv", "--method", "lle", "--allow-disconnected")
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("method", ["laplacian_eigenmaps", "lle"])
    def test_isolated_node_exit_5(self, tmp_path, capsys, method):
        edges = tmp_path / "g.tsv"
        save_graph(network_from_edges(5, [(0, 1), (1, 2), (2, 3)]), edges)
        assert run("embed", "--input", edges, "--output", tmp_path / "e.csv",
                   "--method", method, "--dim", 2) == 5
        assert "isolated" in capsys.readouterr().err

    def test_linkage_key_rejected_exit_4(self, pipeline_dir, tmp_path, capsys):
        conf = tmp_path / "linkage.ini"
        conf.write_text("[cluster]\nlinkage = ward\n")
        assert run(
            "cluster", "--features", pipeline_dir / "features.csv",
            "--output", tmp_path / "c.csv", "--config", conf,
        ) == 4
        assert "'linkage'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["synth", "--output", "d.fa", "--per-lineage", "3,x"],
        ["classify", "--embedding", "e.csv", "--labels", "l.csv", "--output-prefix", "r",
         "--seeds", "1,x"],
        ["cluster", "--features", "f.csv", "--output", "c.csv", "--batch-size", "x"],
    ])
    def test_bad_flag_value_exit_2(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            run(*argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["featurize", "--input", "data.fa", "--output", "o.csv", "--k", 0],
        ["graph", "--input", "features.csv", "--output", "g.tsv", "--K", 0],
        ["graph", "--input", "features.csv", "--output", "g.tsv", "--K", -3],
        ["embed", "--input", "graph.tsv", "--output", "e.csv", "--method",
         "graph_factorization", "--dim", 0],
        ["embed", "--input", "graph.tsv", "--output", "e.csv", "--method", "node2vec",
         "--dim", -2],
        ["embed", "--input", "graph.tsv", "--output", "e.csv", "--method", "hope", "--dim", 0],
        ["embed", "--input", "graph.tsv", "--output", "e.csv", "--method", "hope", "--dim", 3],
        ["embed", "--input", "graph.tsv", "--output", "e.csv", "--method",
         "graph_factorization", "--dim", 2, "--gf-lr", "nan"],
        ["embed", "--input", "graph.tsv", "--output", "e.csv", "--method",
         "graph_factorization", "--dim", 2, "--lam", "inf"],
        ["embed", "--input", "graph.tsv", "--output", "e.csv", "--method", "hope", "--dim", 2,
         "--beta", "nan"],
        ["synth", "--seed", -1, "--output", "s.fa"],
    ])
    def test_parameter_out_of_range_exit_4(self, pipeline_dir, monkeypatch, argv):
        """A value invalid whatever the data is a config error, not a data error."""
        monkeypatch.chdir(pipeline_dir)
        assert run(*argv) == 4
        assert not (pipeline_dir / argv[4]).exists()

    @pytest.mark.parametrize("method, flag, value", [
        ("dbscan", "--eps", "nan"),
        ("spectral", "--gamma", "nan"),
        ("spectral", "--gamma", "-1"),
        ("minibatch_kmeans", "--batch-size", "0"),
        ("minibatch_kmeans", "--batch-size", "-5"),
        ("dbscan", "--min-pts", "0"),
        ("gmm", "--pca-dim", "0"),
        ("gmm", "--pca-dim", "-3"),
    ])
    def test_cluster_hyperparameter_out_of_range_exit_4(self, pipeline_dir, monkeypatch, capsys,
                                                        method, flag, value):
        """A non-finite or non-positive eps or gamma, a batch size or min_pts
        below 1, is a config error before the features are read, and nothing
        is written."""
        monkeypatch.chdir(pipeline_dir)
        monkeypatch.setattr(cli, "_load_features", mock.Mock(side_effect=AssertionError("read")))
        assert run("cluster", "--features", "features.csv", "--output", "c.csv",
                   "--method", method, "--k-clusters", 3, flag, value) == 4
        assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
        assert not (pipeline_dir / "c.csv").exists()
        assert not (pipeline_dir / "c.csv.meta").exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_cluster_var_floor_out_of_range_exit_4(self, pipeline_dir, monkeypatch, capsys,
                                                   value):
        """var_floor has no flag: from a config file, a variance floor that is
        not a finite number above 0 fails before the features are read."""
        monkeypatch.chdir(pipeline_dir)
        monkeypatch.setattr(cli, "_load_features", mock.Mock(side_effect=AssertionError("read")))
        (pipeline_dir / "floor.ini").write_text(f"[cluster]\nvar_floor = {value}\n")
        assert run("cluster", "--features", "features.csv", "--output", "c.csv",
                   "--method", "gmm", "--k-clusters", 3, "--config", "floor.ini") == 4
        assert "var_floor must be" in capsys.readouterr().err
        assert not (pipeline_dir / "c.csv").exists()
        assert not (pipeline_dir / "c.csv.meta").exists()

    @pytest.mark.parametrize("flags", [
        ["--per-lineage", "-1"],
        ["--per-lineage", "0"],
        ["--lineages", 2, "--per-lineage", "3,-2"],
    ])
    def test_synth_per_lineage_below_zero_or_empty_exit_4(self, tmp_path, capsys, flags):
        """Every lineage size is at least 0 and their sum at least 1."""
        out = tmp_path / "d.fa"
        assert run("synth", "--output", out, *flags) == 4
        assert "per_lineage" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "d.fa.meta").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--output", "d.fa", "--workers", 0],
        ["featurize", "--input", "data.fa", "--output", "o.csv", "--workers", -1],
    ])
    def test_workers_below_one_exit_4(self, pipeline_dir, monkeypatch, capsys, argv):
        monkeypatch.chdir(pipeline_dir)
        assert run(*argv) == 4
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (pipeline_dir / argv[argv.index("--output") + 1]).exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_workers_environment_value_exit_4(self, pipeline_dir, monkeypatch, capsys,
                                                  value):
        monkeypatch.setenv("SEQNET_WORKERS", value)
        out = pipeline_dir / "o.csv"
        assert run("featurize", "--input", pipeline_dir / "data.fa", "--output", out) == 4
        assert "SEQNET_WORKERS must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_classify_duplicate_embedding_names_exit_4(self, pipeline_dir, capsys):
        embeddings = []
        for beta in ("0.01", "0.02"):
            emb = pipeline_dir / f"hope_{beta}.csv"
            assert run(
                "embed", "--input", pipeline_dir / "graph.tsv", "--output", emb,
                "--method", "hope", "--dim", 4, "--beta", beta,
            ) == 0
            embeddings += ["--embedding", emb]
        assert run(
            "classify", *embeddings, "--labels", pipeline_dir / "labels.csv",
            "--output-prefix", pipeline_dir / "result", "--classifiers", "knn",
            "--seeds", 0, "--num-folds", 2,
        ) == 4
        assert "'hope'" in capsys.readouterr().err
        assert not (pipeline_dir / "result_mean.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--seeds", ""], "seeds"),
        (["--config", "empty_seeds.ini"], "seeds"),
        (["--seeds", "0,-2"], "seeds must be >= 0"),
        (["--seeds", 0, "--classifiers", "knn,gaussian_nb,knn"], "'knn' named twice"),
    ])
    def test_classify_empty_seeds_or_repeated_classifier_exit_4(
        self, pipeline_dir, monkeypatch, capsys, flags, message
    ):
        monkeypatch.chdir(pipeline_dir)
        (pipeline_dir / "empty_seeds.ini").write_text("[pipeline]\nseeds =\n")
        assert run(
            "embed", "--input", "graph.tsv", "--output", "hope.csv", "--method", "hope",
            "--dim", 4,
        ) == 0
        assert run(
            "classify", "--embedding", "hope.csv", "--labels", "labels.csv",
            "--output-prefix", "result", "--num-folds", 2, *flags,
        ) == 4
        assert message in capsys.readouterr().err
        assert not (pipeline_dir / "result_mean.csv").exists()

    def test_data_error_exit_5(self, tmp_path):
        fasta = tmp_path / "short.fa"
        fasta.write_text(">s\nAC\n")
        assert run(
            "featurize", "--input", fasta, "--output", tmp_path / "o.csv", "--k", 5
        ) == 5

    def test_default_neighbor_count_too_large_exit_5(self, tmp_path, capsys):
        fasta = tmp_path / "tiny.fa"
        fasta.write_text(">a\nACDEFG\n>b\nGFEDCA\n")
        features = tmp_path / "f.csv"
        run("featurize", "--input", fasta, "--output", features, "--k", 2)
        # two sequences cannot support the default K=20
        assert run("graph", "--input", features, "--output", tmp_path / "g.tsv") == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("seqnet: error[5]:")


class TestSidecarsAndDeterminism:
    def test_sidecar_written_with_digests(self, pipeline_dir):
        meta = (pipeline_dir / "features.csv.meta").read_text()
        assert "tool=seqnet" in meta
        assert "subcommand=featurize" in meta
        assert "input.0.sha256=" in meta
        assert "config.k=2" in meta

    def test_sidecars_list_the_config_fields_their_subcommand_reads(self, pipeline_dir):
        def config_keys(path):
            lines = path.read_text().splitlines()
            return {line.split("=")[0][len("config."):] for line in lines
                    if line.startswith("config.")}

        assert run("cluster", "--features", pipeline_dir / "features.csv",
                   "--output", pipeline_dir / "c.csv", "--k-clusters", 3) == 0
        assert run("report", "--inputs", pipeline_dir / "c.csv",
                   "--output", pipeline_dir / "r.csv") == 0
        assert config_keys(pipeline_dir / "data.fa.meta") == {"seed"}
        assert config_keys(pipeline_dir / "features.csv.meta") == {"k", "strict"}
        assert config_keys(pipeline_dir / "graph.tsv.meta") == {"K"}
        assert config_keys(pipeline_dir / "c.csv.meta") == {
            "k_clusters", "eps", "min_pts", "batch_size", "gamma", "pca_dim", "var_floor",
            "seed", "timings",
        }
        assert config_keys(pipeline_dir / "r.csv.meta") == set()

    @pytest.mark.parametrize("argv", [
        ("graph", "--input", "features.csv", "--output", "g.tsv", "--K", 3),
        ("cluster", "--features", "features.csv", "--output", "c.csv", "--k-clusters", 3),
        ("elbow", "--features", "features.csv", "--output", "e.csv", "--k-max", 3),
        ("pca2d", "--input", "features.csv", "--output", "p.csv"),
    ])
    def test_feature_readers_hash_once_and_read_the_companion(self, pipeline_dir, argv):
        """A subcommand that reads the triplet CSV takes each input's digest
        once: it checks the companion, so the CSV is not parsed, and the
        sidecar records it."""
        features = pipeline_dir / "features.csv"
        argv = [pipeline_dir / a if str(a).endswith((".csv", ".tsv")) else a for a in argv]
        sha256 = featurize.file_sha256
        with mock.patch.object(cli, "file_sha256", wraps=sha256) as digests, \
                mock.patch.object(featurize, "file_sha256", side_effect=AssertionError("again")), \
                mock.patch.object(featurize, "read_rows", side_effect=AssertionError("parsed")):
            assert run(*argv) == 0
        hashed = [str(call.args[0]) for call in digests.call_args_list]
        assert str(features) in hashed and len(hashed) == len(set(hashed))
        meta = dict(line.split("=", 1) for line in
                    Path(str(argv[4]) + ".meta").read_text().splitlines())
        assert meta["input.0.sha256"] == hashlib.sha256(features.read_bytes()).hexdigest()

    def test_graph_sidecar_records_mutual(self, pipeline_dir):
        metas = []
        for flags in ([], ["--mutual"]):
            edges = pipeline_dir / "g.tsv"
            assert run("graph", "--input", pipeline_dir / "features.csv", "--output", edges,
                       "--K", 3, *flags) == 0
            metas.append(set((pipeline_dir / "g.tsv.meta").read_text().splitlines()))
        assert "mutual=False" in metas[0] and "mutual=True" in metas[1]

    @pytest.mark.parametrize("mutual, components, isolated", [(False, 1, 0), (True, 2, 1)])
    def test_graph_sidecar_records_components_and_isolated_nodes(self, tmp_path, mutual,
                                                                 components, isolated):
        """At K=1, c's nearest row is b, but b's is a: the mutual graph
        leaves c without a neighbor, the union graph joins it to b."""
        fasta, features, edges = tmp_path / "d.fa", tmp_path / "f.csv", tmp_path / "g.tsv"
        fasta.write_text(">a\nAAAAAAAAAA\n>b\nAAAAAAAAAC\n>c\nCCCCCCCCCC\n")
        assert run("featurize", "--input", fasta, "--output", features, "--k", 1) == 0
        assert run("graph", "--input", features, "--output", edges, "--K", 1,
                   *(["--mutual"] if mutual else [])) == 0
        meta = (tmp_path / "g.tsv.meta").read_text().splitlines()
        assert f"components={components}" in meta and f"isolated={isolated}" in meta
        assert connected_components(load_graph(edges)).max() + 1 == components

    def test_inputs_are_listed_in_read_order(self, pipeline_dir, monkeypatch):
        """A path read twice is listed twice; an embedding CSV that evaluate
        sniffs and then loads is listed once; an input is hashed as it is
        read, before the run overwrites it."""
        monkeypatch.chdir(pipeline_dir)
        assert run("embed", "--input", "graph.tsv", "--output", "hope.csv", "--method", "hope",
                   "--dim", 4) == 0
        assert run("cluster", "--features", "features.csv", "--output", "c.csv",
                   "--k-clusters", 3) == 0
        assert run("evaluate", "--features", "hope.csv", "--assignments", "c.csv",
                   "--output", "q.csv") == 0
        assert run("report", "--inputs", "q.csv", "q.csv", "--output", "r.csv") == 0

        def inputs(meta):
            lines = Path(meta).read_text().splitlines()
            return [line.split("=", 1)[1] for line in lines if line.startswith("input.")]

        def digest(path):
            return hashlib.sha256(Path(path).read_bytes()).hexdigest()

        assert inputs("q.csv.meta") == ["hope.csv", digest("hope.csv"), "c.csv", digest("c.csv")]
        assert inputs("r.csv.meta") == ["q.csv", digest("q.csv")] * 2
        read = digest("r.csv")
        assert run("report", "--inputs", "r.csv", "r.csv", "--output", "r.csv") == 0
        assert digest("r.csv") != read and inputs("r.csv.meta") == ["r.csv", read] * 2

    @pytest.mark.parametrize("subcommand, argv, outputs", [
        ("synth", ["--output", "OUT.fa", "--labels-output", "OUT.csv", "--lineages", 2,
                   "--per-lineage", 3, "--length", 30], ["OUT.fa", "OUT.csv"]),
        ("featurize", ["--input", "data.fa", "--output", "OUT.csv", "--k", 2], ["OUT.csv"]),
        ("graph", ["--input", "features.csv", "--labels", "labels.csv", "--output", "OUT.tsv",
                   "--K", 3], ["OUT.tsv"]),
        ("embed", ["--input", "graph.tsv", "--output", "OUT.csv", "--method", "hope",
                   "--dim", 4], ["OUT.csv"]),
        ("cluster", ["--features", "features.csv", "--output", "OUT.csv", "--method", "ward",
                     "--k-clusters", 3, "--graph", "graph.tsv"], ["OUT.csv"]),
        ("elbow", ["--features", "features.csv", "--output", "OUT.csv", "--k-max", 3],
         ["OUT.csv"]),
        ("evaluate", ["--features", "features.csv", "--assignments", "c.csv",
                      "--output", "OUT.csv"], ["OUT.csv"]),
        ("classify", ["--embedding", "hope.csv", "--labels", "labels.csv",
                      "--output-prefix", "OUT", "--classifiers", "knn", "--seeds", 0,
                      "--num-folds", 2], ["OUT_mean.csv", "OUT_std.csv"]),
        ("report", ["--inputs", "labels.csv", "--output", "OUT.csv"], ["OUT.csv"]),
        ("pca2d", ["--input", "features.csv", "--output", "OUT.csv"], ["OUT.csv"]),
    ])
    def test_timings_add_wall_s_and_peak_rss_mb_to_every_sidecar(
        self, pipeline_dir, monkeypatch, subcommand, argv, outputs
    ):
        """With --timings, every sidecar of every subcommand holds one finite,
        positive wall_s and peak_rss_mb; without those two and config.timings
        it is the plain run's sidecar."""
        monkeypatch.chdir(pipeline_dir)
        assert run("embed", "--input", "graph.tsv", "--output", "hope.csv", "--method", "hope",
                   "--dim", 4) == 0
        assert run("cluster", "--features", "features.csv", "--output", "c.csv",
                   "--k-clusters", 3) == 0
        for stem, flags in (("plain", []), ("timed", ["--timings"])):
            assert run(subcommand, *[str(a).replace("OUT", stem) for a in argv], *flags) == 0

        def sidecar(output, stem):
            lines = Path(output.replace("OUT", stem) + ".meta").read_text().splitlines()
            return [line for line in lines if not line.startswith("config.timings=")]

        for output in outputs:
            plain, timed = sidecar(output, "plain"), sidecar(output, "timed")
            for key in ("wall_s", "peak_rss_mb"):
                values = [float(line.split("=", 1)[1]) for line in timed
                          if line.startswith(key + "=")]
                assert len(values) == 1 and math.isfinite(values[0]) and values[0] > 0, key
            assert [line for line in timed
                    if not line.startswith(("wall_s=", "peak_rss_mb="))] == plain

    def test_synth_sidecar_records_the_dataset_flags(self, tmp_path):
        fasta, labels = tmp_path / "d.fa", tmp_path / "l.csv"
        assert run("synth", "--output", fasta, "--labels-output", labels, "--lineages", 2,
                   "--per-lineage", "3,4", "--length", 30, "--within-rate", 0.05,
                   "--between-count", 6) == 0
        for meta in (fasta, labels):
            lines = (tmp_path / (meta.name + ".meta")).read_text().splitlines()
            assert {"lineages=2", "per_lineage=3,4", "length=30", "within_rate=0.05",
                    "between_count=6"} <= set(lines)

    def test_embed_sidecar_keeps_provenance_and_embedding_fields(self, pipeline_dir):
        out = pipeline_dir / "hope.csv"
        assert run(
            "embed", "--input", pipeline_dir / "graph.tsv", "--output", out,
            "--method", "hope", "--dim", 4,
        ) == 0
        meta = dict(line.split("=", 1) for line in (pipeline_dir / "hope.csv.meta")
                    .read_text().splitlines())
        assert meta["subcommand"] == "embed" and meta["input.0.sha256"]
        # the node CSV sets n and the node ids, so it is an input too
        nodes = pipeline_dir / "graph.tsv.nodes.csv"
        assert meta["input.1.path"] == str(nodes)
        assert meta["input.1.sha256"] == hashlib.sha256(nodes.read_bytes()).hexdigest()
        assert meta["method"] == "hope" and meta["d"] == "4"
        assert float(meta["spectral_radius"]) > 0 and "beta" in meta
        assert load_embedding(out).method == "hope"

    def test_rerun_is_byte_identical(self, tmp_path):
        def run_pipeline(out_dir, workers):
            out_dir.mkdir(exist_ok=True)
            fasta = out_dir / "d.fa"
            labels = out_dir / "l.csv"
            features = out_dir / "f.csv"
            edges = out_dir / "g.tsv"
            emb = out_dir / "e.csv"
            run("synth", "--output", fasta, "--labels-output", labels,
                "--lineages", 2, "--per-lineage", 10, "--length", 50,
                "--within-rate", 0.02, "--between-count", 10, "--seed", 3,
                "--workers", workers)
            run("featurize", "--input", fasta, "--output", features, "--k", 2,
                "--workers", workers)
            run("graph", "--input", features, "--output", edges,
                "--labels", labels, "--K", 3, "--workers", workers)
            run("embed", "--input", edges, "--output", emb, "--method",
                "node2vec", "--dim", 8, "--seed", 0, "--walks-per-node", 2,
                "--walk-length", 8, "--epochs", 1, "--workers", workers)
            return {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
            }

        # rerun in place with a different worker cap: every artifact,
        # sidecars included, must come back byte for byte. No stage reads
        # workers yet, so only the rerun leg checks something for now
        first = run_pipeline(tmp_path / "run", 1)
        second = run_pipeline(tmp_path / "run", 2)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name
