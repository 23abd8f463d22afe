"""Node embeddings of the similarity network.

Six methods: locally linear embedding, Laplacian eigenmaps, HOPE, graph
factorization, DeepWalk and Node2Vec (the walk-based pair sharing one SGNS
trainer; DeepWalk is exactly Node2Vec at p = q = 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ..errors import ParseError, check_int
from ..tables import read_rows


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


from .walks import WalkConfig, WalkCorpus, generate_walks, step_distribution  # noqa: E402
from .sgns import sgns_fit, sgns_train, unigram_distribution  # noqa: E402
from .factorization import check_gf_params, gf_objective, graph_factorization  # noqa: E402
from .spectral import check_hope_params, hope_embed, laplacian_eigenmaps, lle_embed  # noqa: E402


def node2vec(graph, d: int = 200, config: Optional[WalkConfig] = None) -> EmbeddingMatrix:
    """Biased-walk corpus plus skip-gram training; p and q come from config.
    ``info`` holds p, q, seed, the corpus's ``walk_steps`` and the counters of
    :func:`sgns_fit`."""
    check_int("d", d, 1)
    config = config or WalkConfig()
    corpus = generate_walks(graph, config)
    vectors, counters = sgns_fit(corpus, graph.n, d, config)
    info = {"p": config.p, "q": config.q, "seed": config.seed,
            "walk_steps": int((corpus.walks[:, 1:] >= 0).sum()), **counters}
    return EmbeddingMatrix(vectors, "node2vec", d, info=info)


def deepwalk(graph, d: int = 200, config: Optional[WalkConfig] = None) -> EmbeddingMatrix:
    """Uniform-walk special case: Node2Vec with p = q = 1 on the same seed."""
    config = replace(config or WalkConfig(), p=1.0, q=1.0)
    out = node2vec(graph, d, config)
    return replace(out, method="deepwalk")


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


def load_embedding(path) -> EmbeddingMatrix:
    """Read a CSV written by :func:`save_embedding`; the method and info
    fields come from ``<path>.meta`` when it exists. The body is read by
    :func:`tables.read_rows`, so a bad line is named."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if not header or header[0] != "node_index":
        raise ParseError(f"expected node_index header in {path}", line=1)
    d = len(header) - 1
    _, vectors = read_rows(path, 2, f"node_index and {d} values", "embedding row", ints=1,
                           floats=d, counted=True)
    try:
        with open(str(path) + ".meta") as fh:
            info = dict(line.strip().split("=", 1) for line in fh if "=" in line)
    except FileNotFoundError:
        info = {}
    info.pop("d", None)
    return EmbeddingMatrix(vectors, info.pop("method", "unknown"), d, info=info)
