"""Seeded synthetic lineage data, independent of the program under test.

One random root sequence is drawn; each of the 22 lineages gets an ancestor
with ``between`` substitutions at distinct positions, and every member
substitutes each position of its ancestor with probability ``within``.
Class sizes follow the lineage counts of a public 7,000-sequence
spike-protein snapshot, scaled and floored at ``MIN_PER_CLASS``. Any floor
of 8 or more keeps a stratified 5-fold split valid; 12 also holds the
macro-F1 of the small classes steady across workload seeds. The benchmark
keeps its own copy of the counts and its own generator, so a change to the
program cannot change the workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"

REFERENCE_COUNTS = (
    ("B.1.1.7", 3369), ("B.1.617.2", 875), ("AY.4", 593), ("B.1.2", 333),
    ("B.1", 292), ("B.1.177", 243), ("P.1", 194), ("B.1.1", 163),
    ("B.1.429", 107), ("B.1.526", 104), ("AY.12", 101), ("B.1.160", 92),
    ("B.1.351", 81), ("B.1.427", 65), ("B.1.1.214", 64), ("B.1.1.519", 56),
    ("D.2", 55), ("B.1.221", 52), ("B.1.177.21", 47), ("B.1.258", 46),
    ("B.1.243", 36), ("R.1", 32),
)

LENGTH = 1274
WITHIN_RATE = 0.01
BETWEEN_COUNT = 8
MIN_PER_CLASS = 12


@dataclass(frozen=True)
class Lineages:
    """Generated records: ids, labels and residue codes (n x length, 0..19)."""

    ids: tuple[str, ...]
    labels: tuple[str, ...]
    codes: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)

    def residues(self) -> list[str]:
        letters = np.frombuffer(ALPHABET.encode(), dtype=np.uint8)[self.codes]
        return [row.tobytes().decode() for row in letters]

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for label in self.labels:
            counts[label] = counts.get(label, 0) + 1
        return counts

    def fasta(self) -> str:
        return "".join(
            f">{i}|{label}\n{seq}\n"
            for i, label, seq in zip(self.ids, self.labels, self.residues())
        )


def class_sizes(scale: float) -> list[int]:
    return [max(MIN_PER_CLASS, round(count * scale)) for _, count in REFERENCE_COUNTS]


def generate(seed: int, scale: float) -> Lineages:
    rng = np.random.default_rng(seed)
    nsym = len(ALPHABET)
    root = rng.integers(0, nsym, size=LENGTH)
    blocks, labels = [], []
    for (name, _), size in zip(REFERENCE_COUNTS, class_sizes(scale)):
        ancestor = root.copy()
        sites = rng.choice(LENGTH, size=BETWEEN_COUNT, replace=False)
        ancestor[sites] = (ancestor[sites] + rng.integers(1, nsym, size=BETWEEN_COUNT)) % nsym
        flips = rng.random((size, LENGTH)) < WITHIN_RATE
        shifts = rng.integers(1, nsym, size=(size, LENGTH))
        blocks.append(np.where(flips, (ancestor + shifts) % nsym, ancestor))
        labels.extend([name] * size)
    codes = np.vstack(blocks).astype(np.uint8)
    ids = tuple(f"s{i:05d}" for i in range(len(labels)))
    return Lineages(ids, tuple(labels), codes)
