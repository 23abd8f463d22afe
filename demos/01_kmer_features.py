"""From protein sequences to fixed-length k-mer count vectors.

A protein sequence is a string over the 20 amino acids. Sliding a width-k
window over it (stride 1) yields (N - k) + 1 overlapping k-mers, and counting
how often each of the 20^k possible k-mers occurs gives a fixed-length
numerical vector that downstream algorithms can consume, no alignment needed.

Run:  python demos/01_kmer_features.py
"""

from pathlib import Path

from seqnet import (
    Dataset,
    SequenceRecord,
    featurize_dataset,
    kmer_rank,
    kmer_unrank,
    parse_fasta,
    synthesize_dataset,
    total_kmers,
    write_fasta,
)
from seqnet.featurize import save_features

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

# --- a tiny hand-checkable example --------------------------------------
# "ACACD" has four 2-mer windows: AC, CA, AC, CD. The vector is sparse:
# only 3 of the 400 possible 2-mers are touched. Its row of the CSR matrix
# lists the touched ranks in ascending order.
row = featurize_dataset(Dataset([SequenceRecord("tiny", "ACACD")]), k=2).to_csr()
print("counts for 'ACACD' at k=2:")
for rank, count in zip(row.indices, row.data):
    print(f"  {kmer_unrank(rank, 2)} (rank {rank:3d}) -> {count:.0f}")
print(f"window count: {row.sum():.0f} == (5 - 2) + 1 == {total_kmers(5, 2)}")

# Ranks are a positional base-20 code over the fixed alphabet order, so the
# mapping between k-mers and vector positions is a bijection:
assert kmer_rank("AA") == 0 and kmer_rank("YYY") == 20**3 - 1

# --- a realistic corpus --------------------------------------------------
# Synthesize 4 lineages of 25 sequences each. All descend from one root;
# each lineage carries its own 30 marker substitutions, and individual
# sequences add ~1% within-lineage noise.
dataset = synthesize_dataset(
    num_lineages=4, per_lineage=[25, 25, 25, 25], length=300,
    within_mut_rate=0.01, between_mut_count=30, seed=42,
)
fasta_path = out_dir / "lineages.fa"
write_fasta(dataset, fasta_path)
reloaded = parse_fasta(fasta_path)
assert reloaded == dataset  # the FASTA round trip is exact

matrix = featurize_dataset(dataset, k=3)
save_features(matrix, out_dir / "features.csv")
# The matrix is stored as one scipy CSR matrix: n rows, 20^k columns.
counts = matrix.to_csr()
occupied = counts.nnz / matrix.n
print(f"\n{matrix.n} sequences featurized at k=3")
print(f"logical vector length: {matrix.logical_length} (= 20^3)")
print(f"mean occupied bins per row: {occupied:.0f} "
      f"({occupied / matrix.logical_length:.0%} of the logical length)")
print(f"every row sums to {counts[0].sum():.0f} = (300 - 3) + 1")
print(f"\nwrote {fasta_path} and {out_dir / 'features.csv'}")
