"""Subcommand front end chaining the whole pipeline.

    seqnet synth | featurize | graph | embed | cluster | elbow |
           classify | evaluate | report | pca2d

Every subcommand reads and writes only the documented file formats, accepts
`--config` (INI) with CLI flags taking precedence, and drops a `<output>.meta`
sidecar per artifact recording the tool version, the config fields the
subcommand reads and input digests. Runtime columns are written as 0.0 unless
`--timings` is given, so identical configs and seeds reproduce artifacts byte
for byte.

Exit codes: 0 success, 2 usage, 3 missing input file, 4 schema/config error,
5 data error, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from . import __version__, classify as classify_mod, cluster as cluster_mod
from .config import PARSERS, PipelineConfig, config_items, load_config, parse_bool, parse_int_list
from .embed import EMBED_METHODS, WalkConfig, load_embedding, save_embedding
from .errors import ConfigError, ParseError, SeqnetError, parse_numbers
from .evalmetrics import cluster_quality
from .featurize import featurize_dataset, file_sha256, load_features, save_features
from .seqio import (
    parse_fasta,
    read_labels_csv,
    synthesize_dataset,
    write_fasta,
    write_labels_csv,
)
from .ssn import _default_nodes_path, build_ssn, load_graph, save_graph

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_SCHEMA = 4
EXIT_DATA = 5
EXIT_UNEXPECTED = 1


def _sha256(args, path) -> str:
    """SHA-256 of an input file, taken once per subcommand run: the digest
    that checks a triplet CSV's companion is the one its sidecar records."""
    digests = vars(args).setdefault("input_sha256", {})
    if path not in digests:
        digests[path] = file_sha256(path)
    return digests[path]


def _sidecar_lines(args, config, inputs, extra=None) -> list[str]:
    lines = ["tool=seqnet", f"version={__version__}", f"subcommand={args.subcommand}"]
    for key, value in config_items(config, args.config_fields):
        lines.append(f"config.{key}={value}")
    for i, path in enumerate(inputs):
        lines.append(f"input.{i}.path={path}")
        lines.append(f"input.{i}.sha256={_sha256(args, path)}")
    for key in sorted(extra or {}):
        lines.append(f"{key}={extra[key]}")
    return lines


def _write_sidecar(output, args, config, inputs, extra=None):
    lines = _sidecar_lines(args, config, inputs, extra)
    Path(str(output) + ".meta").write_text("\n".join(lines) + "\n")


def _require_input(path):
    if not Path(path).exists():
        raise FileNotFoundError(f"missing input file: {path}")
    return path


def _load_features(args, path):
    """The triplet CSV's k-mer rows; its companion is checked by the sidecar's digest."""
    return load_features(_require_input(path), sha256=_sha256(args, path))


def _load_graph(edges, nodes=None):
    """The graph, and the edge file and node CSV it was read from (sidecar inputs)."""
    nodes = nodes or _default_nodes_path(edges)
    return load_graph(_require_input(edges), nodes), [edges, nodes]


def _effective(args) -> PipelineConfig:
    """Defaults, then the --config file, then the config flags given."""
    config = load_config(args.config and _require_input(args.config))
    return replace(config, **{key: value for key, value in vars(args).items() if key in PARSERS})


def _walk_config(cfg: PipelineConfig) -> WalkConfig:
    return WalkConfig(**{f.name: getattr(cfg, f.name) for f in fields(WalkConfig)})


# keyword arguments of the EMBED_METHODS entries that take any beyond the
# graph and d; a None value is left out, so the method's own default applies
_EMBED_OPTIONS = {
    "hope": lambda cfg, args: {"beta": args.beta},
    "graph_factorization": lambda cfg, args: {
        "lam": args.lam, "lr": args.gf_lr, "epochs": args.gf_epochs, "seed": cfg.seed,
    },
    "deepwalk": lambda cfg, args: {"config": _walk_config(cfg)},
    "node2vec": lambda cfg, args: {"config": _walk_config(cfg)},
}


# each cluster --method: its call on the feature rows, the graph and the config
_CLUSTER_METHODS = {
    "kmeans": lambda x, graph, cfg: cluster_mod.kmeans(x, cfg.k_clusters, seed=cfg.seed),
    "minibatch_kmeans": lambda x, graph, cfg: cluster_mod.kmeans(
        x, cfg.k_clusters, seed=cfg.seed,
        batch_size=256 if cfg.batch_size is None else cfg.batch_size,
    ),
    "ward": lambda x, graph, cfg: cluster_mod.agglomerative(
        x, graph, cfg.k_clusters, linkage="ward"
    ),
    "average": lambda x, graph, cfg: cluster_mod.agglomerative(
        x, graph, cfg.k_clusters, linkage="average"
    ),
    "dbscan": lambda x, graph, cfg: cluster_mod.dbscan(x, eps=cfg.eps, min_pts=cfg.min_pts),
    "gmm": lambda x, graph, cfg: cluster_mod.gaussian_mixture(
        x, cfg.k_clusters, seed=cfg.seed, var_floor=cfg.var_floor, pca_dim=cfg.pca_dim
    ),
    "spectral": lambda x, graph, cfg: cluster_mod.spectral_clustering(
        x, cfg.k_clusters, gamma=cfg.gamma, seed=cfg.seed
    ),
}


# each cluster --method's checks of its own settings, made before the
# features are read
_CLUSTER_CHECKS = {
    "minibatch_kmeans": lambda cfg: cluster_mod.check_kmeans_params(cfg.batch_size),
    "dbscan": lambda cfg: cluster_mod.check_dbscan_params(cfg.eps, cfg.min_pts),
    "gmm": lambda cfg: cluster_mod.check_gmm_params(cfg.var_floor, cfg.pca_dim),
    "spectral": lambda cfg: cluster_mod.check_spectral_params(cfg.gamma),
}


# the deterministic counters a cluster --method adds to its sidecar
_CLUSTER_COUNTERS = {
    "kmeans": lambda out: {"kmeans_iters": len(out.history) - 1},
    "ward": lambda out: {"forced_merges": out.forced_merges},
    "average": lambda out: {"forced_merges": out.forced_merges},
}


# ---------------------------------------------------------------- subcommands


def cmd_synth(args):
    cfg = _effective(args)
    per_lineage = list(args.per_lineage)
    if len(per_lineage) == 1:
        per_lineage *= args.lineages
    dataset = synthesize_dataset(
        args.lineages,
        per_lineage,
        args.length,
        args.within_rate,
        args.between_count,
        cfg.seed,
    )
    # the flags that shape the dataset, as given
    shape = dict(lineages=args.lineages, per_lineage=",".join(map(str, args.per_lineage)),
                 length=args.length, within_rate=args.within_rate,
                 between_count=args.between_count)
    write_fasta(dataset, args.output)
    _write_sidecar(args.output, args, cfg, [], dict(shape, records=len(dataset)))
    if args.labels_output:
        write_labels_csv(dataset, args.labels_output)
        _write_sidecar(args.labels_output, args, cfg, [], shape)
    print(f"synth: wrote {len(dataset)} records to {args.output}")
    return EXIT_OK


def cmd_featurize(args):
    cfg = _effective(args)
    dataset = parse_fasta(_require_input(args.input), strict=cfg.strict)
    matrix = featurize_dataset(dataset, k=cfg.k)
    save_features(matrix, args.output)
    x = matrix.to_csr()
    windows = sum(len(rec.residues) - cfg.k + 1 for rec in dataset)
    # rows with no counted window, and windows that held an out-of-alphabet residue
    counters = {"empty_rows": int((x.getnnz(axis=1) == 0).sum()),
                "windows_skipped": windows - int(x.data.sum())}
    _write_sidecar(args.output, args, cfg, [args.input], counters)
    print(f"featurize: {matrix.n} rows, k={cfg.k}, bins={matrix.logical_length}")
    return EXIT_OK


def cmd_graph(args):
    cfg = _effective(args)
    matrix = _load_features(args, args.input)
    node_ids = None
    labels = None
    inputs = [args.input]
    if args.labels:
        rows = read_labels_csv(_require_input(args.labels))
        if len(rows) != matrix.n:
            raise ConfigError(
                f"labels file has {len(rows)} rows for {matrix.n} feature rows"
            )
        node_ids = [r[0] for r in rows]
        labels = [r[1] for r in rows]
        inputs.append(args.labels)
    graph = build_ssn(
        matrix,
        k=cfg.K,
        labels=labels,
        node_ids=node_ids,
        mode="mutual" if args.mutual else "union",
    )
    save_graph(graph, args.output, args.nodes_output)
    extra = {"edges": graph.num_edges, "mutual": args.mutual}
    _write_sidecar(args.output, args, cfg, inputs, extra)
    print(f"graph: {graph.n} nodes, {graph.num_edges} edges (K={cfg.K})")
    return EXIT_OK


def cmd_embed(args):
    cfg = _effective(args)
    graph, inputs = _load_graph(args.input, args.nodes_input)
    method = cfg.method
    if method not in EMBED_METHODS:
        raise ConfigError(f"unknown embedding method {method!r}")
    options = _EMBED_OPTIONS[method](cfg, args) if method in _EMBED_OPTIONS else {}
    options = {k: v for k, v in options.items() if v is not None}
    embedding = EMBED_METHODS[method](graph, cfg.dim, **options)
    # one sidecar: the provenance, then the embedding's own fields
    save_embedding(embedding, args.output, provenance=_sidecar_lines(args, cfg, inputs))
    print(f"embed: {method} -> {embedding.n} x {embedding.d}")
    return EXIT_OK


def cmd_cluster(args):
    cfg = _effective(args)
    method = args.cluster_method
    linked = method in ("ward", "average")
    if linked and not args.graph:
        raise ConfigError(f"--graph is required for {method} clustering")
    if method in _CLUSTER_CHECKS:
        _CLUSTER_CHECKS[method](cfg)
    matrix = _load_features(args, args.features)
    inputs = [args.features]
    t0 = time.perf_counter()
    graph = None
    if linked:
        graph, graph_inputs = _load_graph(args.graph, args.nodes_input)
        inputs += graph_inputs
    assignment = _CLUSTER_METHODS[method](matrix, graph, cfg)
    runtime = time.perf_counter() - t0

    cluster_mod.save_assignment(
        assignment, args.output, runtime_sec=runtime if cfg.timings else None
    )
    counters = _CLUSTER_COUNTERS[method](assignment) if method in _CLUSTER_COUNTERS else {}
    _write_sidecar(
        args.output, args, cfg, inputs,
        {"cluster_method": method, "k_found": assignment.k_found, **counters},
    )
    print(f"cluster: {method} found {assignment.k_found} clusters")
    return EXIT_OK


def cmd_elbow(args):
    cfg = _effective(args)
    matrix = _load_features(args, args.features)
    curve = cluster_mod.elbow_select_k(matrix, args.k_min, args.k_max, seed=cfg.seed)
    if not cfg.timings:
        curve = replace(curve, runtimes_sec=(0.0,) * len(curve.ks))
    cluster_mod.save_elbow(curve, args.output)
    _write_sidecar(args.output, args, cfg, [args.features], {"chosen_k": curve.chosen_k})
    print(f"elbow: chose k={curve.chosen_k} over [{args.k_min}, {args.k_max}]")
    return EXIT_OK


def _load_vectors(args, path):
    """Features triplet CSV (kept sparse) or embedding CSV, by its first line."""
    with open(_require_input(path)) as fh:
        first = fh.readline()
    if first.startswith("# n="):
        return _load_features(args, path)
    if first.startswith("node_index,"):
        return load_embedding(path).vectors
    raise ParseError(f"unrecognized input format in {path}", line=1)


def _read_runtime_comment(path) -> float:
    with open(path) as fh:
        first = fh.readline().strip()
    if first.startswith("# runtime_sec="):
        return parse_numbers([first.split("=", 1)[1]], 1, float)[0]
    return 0.0


def cmd_evaluate(args):
    cfg = _effective(args)
    x = _load_vectors(args, args.features)
    labels = cluster_mod.load_assignment(_require_input(args.assignments))
    if len(labels) != len(x):
        raise ConfigError(
            f"assignment has {len(labels)} rows for {len(x)} feature rows"
        )
    runtime = _read_runtime_comment(args.assignments) if cfg.timings else 0.0
    report = cluster_quality(x, labels, runtime_sec=runtime)
    with open(args.output, "w") as fh:
        fh.write("algorithm,silhouette,calinski_harabasz,davies_bouldin,runtime_sec\n")
        fh.write(
            f"{args.name},{report.silhouette!r},{report.calinski_harabasz!r},"
            f"{report.davies_bouldin!r},{report.runtime_sec!r}\n"
        )
    _write_sidecar(args.output, args, cfg, [args.features, args.assignments])
    print(
        f"evaluate: silhouette={report.silhouette:.4f} "
        f"ch={report.calinski_harabasz:.2f} db={report.davies_bouldin:.4f}"
    )
    return EXIT_OK


def cmd_classify(args):
    cfg = _effective(args)
    embeddings = {}
    inputs = []
    for entry in args.embedding:
        if "=" in entry:
            name, path = entry.split("=", 1)
        else:
            path = entry
            name = None
        _require_input(path)
        emb = load_embedding(path)
        name = name or emb.method
        if name in embeddings:
            raise ConfigError(f"two embeddings named {name!r}; give each one as name=path")
        embeddings[name] = emb
        inputs.append(path)
    rows = read_labels_csv(_require_input(args.labels))
    inputs.append(args.labels)
    some = next(iter(embeddings.values()))
    if len(rows) != some.n:
        raise ConfigError(f"labels file has {len(rows)} rows for {some.n} embedding rows")
    labels = [r[1] for r in rows]
    classifiers = (
        tuple(c for c in args.classifiers.split(",") if c) if args.classifiers else None
    )
    result = classify_mod.run_experiment(
        embeddings,
        labels,
        seeds=cfg.seeds,
        classifiers=classifiers,
        test_fraction=cfg.test_fraction,
        num_folds=cfg.num_folds,
    )
    paths = [args.output_prefix + "_mean.csv", args.output_prefix + "_std.csv"]
    for rows, path in zip((result.mean_rows(), result.std_rows()), paths):
        if not cfg.timings:
            rows = [dict(row, train_time_sec=0.0) for row in rows]
        classify_mod.save_result_csv(rows, path)
        _write_sidecar(path, args, cfg, inputs)
    print(f"classify: wrote {paths[0]} and {paths[1]}")
    return EXIT_OK


def cmd_report(args):
    cfg = _effective(args)
    header = None
    rows = []
    for path in args.inputs:
        lines = Path(_require_input(path)).read_text().strip().splitlines()
        if not lines:
            raise ParseError(f"empty report input {path}", line=1)
        if header is None:
            header = lines[0]
        elif lines[0] != header:
            raise ParseError(
                f"schema mismatch in {path}: {lines[0]!r} != {header!r}", line=1
            )
        rows.extend(lines[1:])
    with open(args.output, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    _write_sidecar(args.output, args, cfg, list(args.inputs))
    print(f"report: merged {len(args.inputs)} files, {len(rows)} rows")
    return EXIT_OK


def cmd_pca2d(args):
    cfg = _effective(args)
    x = _load_vectors(args, args.input)
    projection = cluster_mod.pca_project(x, 2)
    with open(args.output, "w") as fh:
        fh.write("node_index,pc0,pc1\n")
        # Python floats: their repr is the shortest round-trip text on any NumPy
        for i, (pc0, pc1) in enumerate(projection.tolist()):
            fh.write(f"{i},{pc0!r},{pc1!r}\n")
    _write_sidecar(args.output, args, cfg, [args.input])
    print(f"pca2d: projected {len(projection)} rows")
    return EXIT_OK


# -------------------------------------------------------------------- parser


# argparse options of a config flag beyond its parser
_FLAG_OPTIONS = {
    "workers": {"help": "cap on internal parallelism (no stage reads it yet)"},
    "timings": {"help": "write real wall-clock columns instead of 0.0"},
    "method": {"choices": sorted(EMBED_METHODS)},
}


def _add_config_flags(sub, *names, without_flag=()):
    """--config and one flag per named config field, plus --workers, --seed
    and --timings. A flag reads its text as the field's INI key does; a flag
    left out sets nothing, so the file and the default stand. The names and
    ``without_flag`` are the config fields the subcommand reads: its sidecar
    lists those."""
    sub.add_argument("--config", help="INI config file")
    sub.set_defaults(config_fields=names + without_flag)
    for name in dict.fromkeys(names + ("workers", "seed", "timings")):
        options = dict(_FLAG_OPTIONS.get(name, {}))
        if PARSERS[name] is parse_bool:
            options.update(action="store_const", const=True)
        else:
            options["type"] = PARSERS[name]
        sub.add_argument(
            "--" + name.replace("_", "-"), dest=name, default=argparse.SUPPRESS, **options
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqnet",
        description="k-mer features, similarity networks, embeddings, "
        "clustering and classification for protein sequences",
    )
    parser.add_argument("--version", action="version", version=f"seqnet {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("synth", help="generate a labeled synthetic dataset")
    sub.add_argument("--output", required=True)
    sub.add_argument("--labels-output")
    sub.add_argument("--lineages", type=int, default=4)
    sub.add_argument("--per-lineage", type=parse_int_list, default="100")
    sub.add_argument("--length", type=int, default=300)
    sub.add_argument("--within-rate", type=float, default=0.01)
    sub.add_argument("--between-count", type=int, default=30)
    _add_config_flags(sub, "seed")
    sub.set_defaults(func=cmd_synth)

    sub = subs.add_parser("featurize", help="k-mer frequency vectors from FASTA")
    sub.add_argument("--input", required=True)
    sub.add_argument("--output", required=True)
    _add_config_flags(sub, "k", "strict")
    sub.set_defaults(func=cmd_featurize)

    sub = subs.add_parser("graph", help="build the KNN similarity network")
    sub.add_argument("--input", required=True, help="features triplet CSV")
    sub.add_argument("--output", required=True, help="edge list TSV")
    sub.add_argument("--nodes-output", default=None)
    sub.add_argument("--labels", help="id,label CSV aligned with feature rows")
    sub.add_argument("--mutual", action="store_true")
    _add_config_flags(sub, "K")
    sub.set_defaults(func=cmd_graph)

    sub = subs.add_parser("embed", help="node embeddings of the network")
    sub.add_argument("--input", required=True, help="edge list TSV")
    sub.add_argument("--nodes-input", default=None)
    sub.add_argument("--output", required=True)
    sub.add_argument("--beta", type=float, default=None, help="hope proximity decay")
    sub.add_argument("--lam", type=float, default=None, help="gf regularization")
    sub.add_argument("--gf-lr", type=float, default=None)
    sub.add_argument("--gf-epochs", type=int, default=None)
    _add_config_flags(
        sub, "method", "dim", "p", "q", "walks_per_node", "walk_length", "window",
        "negatives", "epochs", "learning_rate", "seed",
    )
    sub.set_defaults(func=cmd_embed)

    sub = subs.add_parser("cluster", help="cluster feature rows")
    sub.add_argument("--features", required=True)
    sub.add_argument("--output", required=True)
    sub.add_argument(
        "--method", dest="cluster_method", default="kmeans", choices=list(_CLUSTER_METHODS)
    )
    sub.add_argument("--graph", help="edge TSV (required for ward/average)")
    sub.add_argument("--nodes-input", default=None, help="node CSV of --graph")
    _add_config_flags(sub, "k_clusters", "eps", "min_pts", "batch_size", "gamma", "pca_dim",
                      "seed", "timings", without_flag=("var_floor",))
    sub.set_defaults(func=cmd_cluster)

    sub = subs.add_parser("elbow", help="SSE sweep and knee selection")
    sub.add_argument("--features", required=True)
    sub.add_argument("--output", required=True)
    sub.add_argument("--k-min", type=int, default=1)
    sub.add_argument("--k-max", type=int, default=10)
    _add_config_flags(sub, "seed", "timings")
    sub.set_defaults(func=cmd_elbow)

    sub = subs.add_parser("evaluate", help="internal clustering quality scores")
    sub.add_argument("--features", required=True, help="features or embedding CSV")
    sub.add_argument("--assignments", required=True)
    sub.add_argument("--output", required=True)
    sub.add_argument("--name", default="clustering", help="algorithm column value")
    _add_config_flags(sub, "timings")
    sub.set_defaults(func=cmd_evaluate)

    sub = subs.add_parser("classify", help="seeded classification protocol")
    sub.add_argument(
        "--embedding", action="append", required=True,
        help="embedding CSV, optionally name=path; repeatable",
    )
    sub.add_argument("--labels", required=True)
    sub.add_argument("--output-prefix", required=True)
    sub.add_argument("--classifiers", help="comma list; default all six")
    _add_config_flags(sub, "seeds", "test_fraction", "num_folds", "timings")
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("report", help="merge per-run CSVs sharing a schema")
    sub.add_argument("--inputs", nargs="+", required=True)
    sub.add_argument("--output", required=True)
    _add_config_flags(sub)
    sub.set_defaults(func=cmd_report)

    sub = subs.add_parser("pca2d", help="2-D principal component projection")
    sub.add_argument("--input", required=True, help="features or embedding CSV")
    sub.add_argument("--output", required=True)
    _add_config_flags(sub)
    sub.set_defaults(func=cmd_pca2d)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"seqnet: error[{EXIT_MISSING_INPUT}]: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ParseError, ConfigError) as exc:
        print(f"seqnet: error[{EXIT_SCHEMA}]: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SeqnetError as exc:
        print(f"seqnet: error[{EXIT_DATA}]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"seqnet: error[{EXIT_UNEXPECTED}]: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
