"""Node embeddings of the similarity network.

Six methods: locally linear embedding, Laplacian eigenmaps, HOPE, graph
factorization, DeepWalk and Node2Vec (the walk-based pair sharing one SGNS
trainer; DeepWalk is exactly Node2Vec at p = q = 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError, ParseError, parse_numbers


@dataclass
class EmbeddingMatrix:
    """n x d real node vectors aligned with graph node order."""

    vectors: np.ndarray
    method: str
    d: int
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.d:
            raise ValueError(
                f"vectors shape {self.vectors.shape} inconsistent with d={self.d}"
            )

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def _check_dim(d: int) -> None:
    """d below 1 is a config error whatever the graph."""
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")


from .walks import WalkConfig, WalkCorpus, generate_walks, step_distribution  # noqa: E402
from .sgns import pair_gradients, pair_loss, sgns_train, unigram_distribution  # noqa: E402
from .factorization import gf_gradient, gf_objective, graph_factorization  # noqa: E402
from .spectral import hope_embed, laplacian_eigenmaps, lle_embed  # noqa: E402


def node2vec(graph, d: int = 200, config: Optional[WalkConfig] = None) -> EmbeddingMatrix:
    """Biased-walk corpus plus skip-gram training; p and q come from config."""
    _check_dim(d)
    config = config or WalkConfig()
    corpus = generate_walks(graph, config)
    vectors = sgns_train(corpus, graph.n, d, config)
    return EmbeddingMatrix(
        vectors, "node2vec", d, info={"p": config.p, "q": config.q, "seed": config.seed}
    )


def deepwalk(graph, d: int = 200, config: Optional[WalkConfig] = None) -> EmbeddingMatrix:
    """Uniform-walk special case: Node2Vec with p = q = 1 on the same seed."""
    config = replace(config or WalkConfig(), p=1.0, q=1.0)
    out = node2vec(graph, d, config)
    return EmbeddingMatrix(out.vectors, "deepwalk", d, info=out.info)


EMBED_METHODS = {
    "lle": lle_embed,
    "laplacian_eigenmaps": laplacian_eigenmaps,
    "hope": hope_embed,
    "graph_factorization": graph_factorization,
    "deepwalk": deepwalk,
    "node2vec": node2vec,
}


def save_embedding(embedding: EmbeddingMatrix, path, provenance: Sequence[str] = ()) -> None:
    """CSV with a node_index,e0..e{d-1} header plus a key=value metadata
    sidecar ``<path>.meta``: the ``provenance`` lines, then method, d and the
    info fields."""
    d = embedding.d
    with open(path, "w") as fh:
        fh.write("node_index," + ",".join(f"e{j}" for j in range(d)) + "\n")
        for i, row in enumerate(embedding.vectors.tolist()):
            fh.write(str(i) + "," + ",".join(map(repr, row)) + "\n")
    with open(str(path) + ".meta", "w") as fh:
        for line in provenance:
            fh.write(line + "\n")
        fh.write(f"method={embedding.method}\n")
        fh.write(f"d={d}\n")
        for key in sorted(embedding.info):
            value = embedding.info[key]
            if isinstance(value, tuple):
                value = ",".join(repr(float(v)) for v in value)
            fh.write(f"{key}={value}\n")


def _parse_rows(path, d: int) -> Optional[np.ndarray]:
    """The n x d body in one numpy call, or None where a line is not an
    integer node index and d floats in numpy's syntax or the indices do not
    count up from 0. NumPy rounds each float correctly, as ``float()`` does.
    A node index such as ``1.0`` is an error here (from NumPy 1.23 only a
    DeprecationWarning, made an error), so it goes to the line scan."""
    layout = np.dtype([("index", np.int64), ("vector", np.float64, (d,))])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("error", category=DeprecationWarning)
        try:
            body = np.loadtxt(path, delimiter=",", dtype=layout, ndmin=1, comments=None, skiprows=1)
        except (ValueError, DeprecationWarning):
            return None
    if not np.array_equal(body["index"], np.arange(len(body))):
        return None
    return np.ascontiguousarray(body["vector"])


def _scan_rows(fh, d: int) -> np.ndarray:
    """The body line by line, as ``int()`` and ``float()`` read it; the first
    malformed line raises."""
    rows = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + 1 or parse_numbers(parts[:1], lineno) != [len(rows)]:
            raise ParseError(f"bad embedding row {line!r}", line=lineno)
        rows.append(parse_numbers(parts[1:], lineno, float))
    return np.asarray(rows, dtype=np.float64)


def load_embedding(path) -> EmbeddingMatrix:
    """Read a CSV written by :func:`save_embedding`; the method and info
    fields come from ``<path>.meta`` when it exists. The body is parsed in
    one numpy call; a body that call rejects is read again line by line,
    which names the first bad line."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "node_index":
            raise ParseError(f"expected node_index header in {path}", line=1)
        d = len(header) - 1
        vectors = _parse_rows(path, d)
        if vectors is None:
            vectors = _scan_rows(fh, d)
    method = "unknown"
    info = {}
    try:
        with open(str(path) + ".meta") as fh:
            for line in fh:
                line = line.strip()
                if not line or "=" not in line:
                    continue
                key, value = line.split("=", 1)
                if key == "method":
                    method = value
                elif key != "d":
                    info[key] = value
    except FileNotFoundError:
        pass
    return EmbeddingMatrix(vectors, method, d, info=info)
