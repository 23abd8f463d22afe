import numpy as np
import pytest

from seqnet.cli import main
from seqnet.config import load_config
from seqnet.embed import load_embedding
from seqnet.errors import ConfigError
from seqnet.featurize import load_features
from seqnet.ssn import load_graph


def run(*argv):
    return main([str(a) for a in argv])


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
        for method in ("laplacian_eigenmaps", "lle", "hope"):
            out = pipeline_dir / f"{method}.csv"
            code = run(
                "embed", "--input", pipeline_dir / "graph.tsv", "--output", out,
                "--method", method, "--dim", 4, "--allow-disconnected",
            )
            assert code == 0, method
            assert load_embedding(out).vectors.shape == (36, 4)

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

    def test_cluster_ward_requires_graph(self, pipeline_dir):
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

    def test_elbow_csv(self, pipeline_dir):
        out = pipeline_dir / "elbow.csv"
        assert run(
            "elbow", "--features", pipeline_dir / "features.csv",
            "--output", out, "--k-min", 1, "--k-max", 6, "--seed", 0,
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,sse,runtime_sec,chosen"
        assert sum(line.endswith(",1") for line in lines[1:]) == 1

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
        assert len(mean_lines) == 2 and len(std_lines) == 2

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
        out = pipeline_dir / "proj.csv"
        assert run(
            "pca2d", "--input", pipeline_dir / "features.csv", "--output", out
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "node_index,pc0,pc1"
        assert len(lines) == 37


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
        ],
        ids=["triplet", "edge", "node_row", "embedding", "assignment"],
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
        # sidecars included, must come back byte for byte
        first = run_pipeline(tmp_path / "run", 1)
        second = run_pipeline(tmp_path / "run", 2)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name
