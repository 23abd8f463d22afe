"""Node embeddings of the similarity network.

Six methods: locally linear embedding, Laplacian eigenmaps, HOPE, graph
factorization, DeepWalk and Node2Vec (the walk-based pair sharing one SGNS
trainer; DeepWalk is exactly Node2Vec at p = q = 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..errors import ParseError, parse_numbers


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
from .sgns import pair_gradients, pair_loss, sgns_train, unigram_distribution  # noqa: E402
from .factorization import gf_gradient, gf_objective, graph_factorization  # noqa: E402
from .spectral import (  # noqa: E402
    hope_embed,
    katz_similarity,
    laplacian_eigenmaps,
    lle_embed,
    spectral_radius,
)


def node2vec(graph, d: int = 200, config: Optional[WalkConfig] = None) -> EmbeddingMatrix:
    """Biased-walk corpus plus skip-gram training; p and q come from config."""
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


def save_embedding(embedding: EmbeddingMatrix, path, meta_path=None) -> None:
    """CSV with a node_index,e0..e{d-1} header plus a key=value metadata sidecar."""
    if meta_path is None:
        meta_path = str(path) + ".meta"
    d = embedding.d
    with open(path, "w") as fh:
        fh.write("node_index," + ",".join(f"e{j}" for j in range(d)) + "\n")
        for i, row in enumerate(embedding.vectors):
            fh.write(str(i) + "," + ",".join(repr(float(x)) for x in row) + "\n")
    with open(meta_path, "w") as fh:
        fh.write(f"method={embedding.method}\n")
        fh.write(f"d={d}\n")
        for key in sorted(embedding.info):
            value = embedding.info[key]
            if isinstance(value, tuple):
                value = ",".join(repr(float(v)) for v in value)
            fh.write(f"{key}={value}\n")


def load_embedding(path, meta_path=None) -> EmbeddingMatrix:
    if meta_path is None:
        meta_path = str(path) + ".meta"
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "node_index":
            raise ParseError(f"expected node_index header in {path}", line=1)
        d = len(header) - 1
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 1 or parse_numbers(parts[:1], lineno) != [len(rows)]:
                raise ParseError(f"bad embedding row {line!r}", line=lineno)
            rows.append(parse_numbers(parts[1:], lineno, float))
    method = "unknown"
    info = {}
    try:
        with open(meta_path) as fh:
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
    return EmbeddingMatrix(np.asarray(rows, dtype=np.float64), method, d, info=info)
