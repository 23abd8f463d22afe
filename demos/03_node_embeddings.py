"""Six ways to embed the similarity network's nodes into R^d.

Two spectral methods (Laplacian eigenmaps, LLE), two factorizations (HOPE on
Katz proximity, direct adjacency factorization by SGD), and two random-walk
methods (DeepWalk, Node2Vec) sharing one skip-gram trainer. The quality probe
at the end scores each embedding by how often a node's nearest embedded
neighbor belongs to the same lineage.

Run:  python demos/03_node_embeddings.py
"""

from pathlib import Path

import numpy as np

from seqnet import (
    WalkConfig,
    build_ssn,
    deepwalk,
    featurize_dataset,
    graph_factorization,
    hope_embed,
    laplacian_eigenmaps,
    lle_embed,
    node2vec,
    synthesize_dataset,
)
from seqnet.distances import sq_distances
from seqnet.embed import save_embedding

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

dataset = synthesize_dataset(
    num_lineages=4, per_lineage=[25, 25, 25, 25], length=300,
    within_mut_rate=0.01, between_mut_count=30, seed=42,
)
features = featurize_dataset(dataset, k=3)
graph = build_ssn(features, k=20, labels=dataset.labels())
labels = np.array(dataset.labels())

# This graph is connected within lineages but may split between them. The
# spectral methods solve each component on its own and keep the d smallest
# nontrivial eigenpairs over all of them, each zero outside its component, so
# a component whose modes all rank below the d-th keeps zero rows
# (info["zero_rows"]).
walk_config = WalkConfig(walks_per_node=10, walk_length=40, window=5,
                         epochs=3, seed=7)
embeddings = {
    "laplacian_eigenmaps": laplacian_eigenmaps(graph, 16),
    "lle": lle_embed(graph, 16),
    "hope": hope_embed(graph, 16),
    "graph_factorization": graph_factorization(graph, 16, epochs=50, seed=7),
    "deepwalk": deepwalk(graph, 16, walk_config),
    "node2vec": node2vec(graph, 16, WalkConfig(
        walks_per_node=10, walk_length=40, window=5, epochs=3, p=0.25, q=4.0,
        seed=7,
    )),
}


def neighbor_purity(vectors):
    """Fraction of nodes whose nearest embedded neighbor shares their label."""
    d2 = sq_distances(vectors)
    np.fill_diagonal(d2, np.inf)
    nearest = d2.argmin(axis=1)
    return float((labels[nearest] == labels).mean())


print(f"{'method':22s} {'shape':10s} nearest-neighbor label purity")
for name, emb in embeddings.items():
    purity = neighbor_purity(emb.vectors)
    print(f"{name:22s} {emb.n}x{emb.d:<7d} {purity:.3f}")
    save_embedding(emb, out_dir / f"emb_{name}.csv")

# DeepWalk is exactly Node2Vec with p = q = 1 on the same seed:
same = np.array_equal(
    deepwalk(graph, 8, WalkConfig(walks_per_node=2, walk_length=10, seed=1)).vectors,
    node2vec(graph, 8, WalkConfig(walks_per_node=2, walk_length=10, seed=1)).vectors,
)
print(f"\ndeepwalk == node2vec(p=1, q=1): {same}")
print(f"wrote per-method CSVs to {out_dir}/")
