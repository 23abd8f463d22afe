"""The seeded classification protocol: embeddings in, mean/std tables out.

For each data seed: a stratified 70/30 split, 5-fold cross-validation on the
training part to pick each classifier's hyperparameters, a refit on the full
training part, and evaluation on the untouched 30%. Means and standard
deviations over the seeds form the final report, one row per
(embedding method, classifier) pair.

Run:  python demos/05_classification_protocol.py
"""

from pathlib import Path

from seqnet import (
    WalkConfig,
    build_ssn,
    featurize_dataset,
    node2vec,
    laplacian_eigenmaps,
    synthesize_dataset,
)
from seqnet.classify import run_experiment, save_result_csv

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

dataset = synthesize_dataset(
    num_lineages=4, per_lineage=[25, 25, 25, 25], length=300,
    within_mut_rate=0.01, between_mut_count=30, seed=42,
)
features = featurize_dataset(dataset, k=3)
graph = build_ssn(features, k=20, labels=dataset.labels())

# The SSN splits into one component per lineage (25 nodes each). Laplacian
# eigenmaps solves each component on its own and keeps the 16 smallest
# nontrivial eigenpairs over all four, each zero outside its component; a
# lineage none of whose modes made the cut would keep zero rows
# (info["zero_rows"]).
embeddings = {
    "node2vec": node2vec(
        graph, 32,
        WalkConfig(walks_per_node=10, walk_length=40, window=5, epochs=3, seed=1),
    ),
    "laplacian_eigenmaps": laplacian_eigenmaps(graph, 16),
}

result = run_experiment(
    embeddings,
    dataset.labels(),
    seeds=[0, 1, 2, 3, 4],
    classifiers=("knn", "logistic_regression", "gaussian_nb", "linear_svm",
                 "decision_tree", "random_forest"),
)

save_result_csv(result.mean_rows(), out_dir / "classification_mean.csv")
save_result_csv(result.std_rows(), out_dir / "classification_std.csv")

print(f"{'embedding':22s} {'classifier':20s} {'acc':>6s} {'f1w':>6s} "
      f"{'f1macro':>8s} {'auc':>6s}")
for row in result.mean_rows():
    print(f"{row['embedding']:22s} {row['classifier']:20s} "
          f"{row['accuracy']:6.3f} {row['f1_weighted']:6.3f} "
          f"{row['f1_macro']:8.3f} {row['roc_auc_ovr']:6.3f}")

print("\nstandard deviations over the 5 seeds are in "
      f"{out_dir / 'classification_std.csv'}")
print("a random-walk embedding that respects the network structure should "
      "dominate the spectral one here")
