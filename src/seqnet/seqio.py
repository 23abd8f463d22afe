"""Protein sequence datasets: FASTA I/O, synthetic generation, train/test splits."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    AlphabetError,
    ConfigError,
    EmptyInputError,
    ParseError,
    StratifyError,
    check_int,
)

# The 20 amino acids, in the fixed order that defines k-mer ranks downstream.
ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
ALPHABET_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}

# Lineage frequencies of a public 7000-sequence spike-protein snapshot
# (22 lineages, heavily imbalanced). Used to parameterize synthetic data
# with a realistic class distribution.
REFERENCE_LINEAGE_COUNTS = {
    "B.1.1.7": 3369,
    "B.1.617.2": 875,
    "AY.4": 593,
    "B.1.2": 333,
    "B.1": 292,
    "B.1.177": 243,
    "P.1": 194,
    "B.1.1": 163,
    "B.1.429": 107,
    "B.1.526": 104,
    "AY.12": 101,
    "B.1.160": 92,
    "B.1.351": 81,
    "B.1.427": 65,
    "B.1.1.214": 64,
    "B.1.1.519": 56,
    "D.2": 55,
    "B.1.221": 52,
    "B.1.177.21": 47,
    "B.1.258": 46,
    "B.1.243": 36,
    "R.1": 32,
}


@dataclass(frozen=True)
class SequenceRecord:
    """One protein sequence with an identifier and an optional lineage label."""

    id: str
    residues: str
    label: Optional[str] = None


class Dataset:
    """Ordered, immutable collection of sequence records.

    Record order is stable (file order for parsed data) and ids are unique.
    With ``strict=True`` every residue must belong to :data:`ALPHABET`;
    otherwise out-of-alphabet characters (ambiguity codes, gaps) are retained
    and skipped later at featurization.
    """

    alphabet = ALPHABET

    def __init__(self, records: Iterable[SequenceRecord], strict: bool = False):
        records = tuple(records)
        seen = set()
        for rec in records:
            if not rec.residues:
                raise ParseError(f"record {rec.id!r} has an empty sequence")
            if rec.id in seen:
                raise ParseError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)
            if strict:
                for ch in rec.residues:
                    if ch not in ALPHABET_INDEX:
                        raise AlphabetError(
                            f"record {rec.id!r} contains non-alphabet character {ch!r}"
                        )
        self._records = records

    @property
    def records(self) -> tuple[SequenceRecord, ...]:
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SequenceRecord]:
        return iter(self._records)

    def __getitem__(self, i: int) -> SequenceRecord:
        return self._records[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and self._records == other._records

    def labels(self) -> list[Optional[str]]:
        return [rec.label for rec in self._records]

    def ids(self) -> list[str]:
        return [rec.id for rec in self._records]


@dataclass(frozen=True)
class SplitPlan:
    """70/30-style split plus cross-validation folds over the training part.

    ``folds`` holds ``(train, validate)`` index pairs; the validate parts
    partition ``train_indices``. All indices refer to dataset row order.
    """

    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]
    folds: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    seed: int


def parse_fasta_text(text: str, strict: bool = False) -> Dataset:
    """Parse FASTA records from a string. See :func:`parse_fasta`."""
    records: list[SequenceRecord] = []
    header: Optional[tuple[str, Optional[str]]] = None
    parts: list[str] = []
    header_line = 0

    def flush():
        if header is None:
            return
        residues = "".join(parts).rstrip("*")
        if not residues:
            raise ParseError("header with no sequence data", line=header_line)
        records.append(SequenceRecord(header[0], residues, header[1]))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            body = line[1:].strip()
            if not body:
                raise ParseError("empty FASTA header", line=lineno)
            if "|" in body:
                name, label = body.split("|", 1)
                name, label = name.strip(), label.strip()
                if not name:
                    raise ParseError("FASTA header with empty id", line=lineno)
                header = (name, label or None)
            else:
                header = (body, None)
            parts = []
            header_line = lineno
        else:
            if header is None:
                raise ParseError("sequence data before any '>' header", line=lineno)
            parts.append(line)
    flush()

    if not records:
        raise EmptyInputError("no FASTA records found")
    return Dataset(records, strict=strict)


def parse_fasta(path, strict: bool = False) -> Dataset:
    """Read a FASTA file into a :class:`Dataset`.

    Headers of the form ``>id|label`` attach ``label`` as the lineage; a
    trailing ``*`` (stop marker) is stripped from residues. In strict mode
    any residue outside the amino-acid alphabet raises :class:`AlphabetError`.
    """
    text = Path(path).read_text()
    if not text.strip():
        raise EmptyInputError(f"empty FASTA file: {path}")
    return parse_fasta_text(text, strict=strict)


def write_fasta(dataset: Dataset, path) -> None:
    """Write ``dataset`` in the same ``>id|label`` FASTA convention parsed above."""
    with open(path, "w") as fh:
        for rec in dataset:
            if rec.label is not None:
                fh.write(f">{rec.id}|{rec.label}\n")
            else:
                fh.write(f">{rec.id}\n")
            fh.write(rec.residues + "\n")


def write_labels_csv(dataset: Dataset, path) -> None:
    """Write the (id, label) sidecar; empty label field for unlabeled records."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for rec in dataset:
            writer.writerow([rec.id, rec.label if rec.label is not None else ""])


def read_labels_csv(path) -> list[tuple[str, Optional[str]]]:
    """Read an (id, label) sidecar written by :func:`write_labels_csv`."""
    rows: list[tuple[str, Optional[str]]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["id", "label"]:
            raise ParseError(f"expected 'id,label' header in {path}", line=1)
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ParseError(f"short row in labels file {path}: {row!r}", line=reader.line_num)
            rows.append((row[0], row[1] or None))
    return rows


def synthesize_dataset(
    num_lineages: int,
    per_lineage: Sequence[int],
    length: int,
    within_mut_rate: float,
    between_mut_count: int,
    seed: int,
) -> Dataset:
    """Generate a labeled dataset of mutated copies of a common root sequence.

    One random root sequence is drawn; each lineage ancestor applies
    ``between_mut_count`` substitutions at lineage-specific positions, and
    each member independently substitutes every position with probability
    ``within_mut_rate``. Fully deterministic given ``seed``; labels are
    ``L0`` .. ``L{num_lineages-1}``.
    """
    check_int("num_lineages", num_lineages, 1)
    check_int("length", length, 1)
    if len(per_lineage) != num_lineages:
        raise ConfigError(
            f"per_lineage has {len(per_lineage)} entries for {num_lineages} lineages"
        )
    for li, count in enumerate(per_lineage):
        check_int(f"per_lineage[{li}]", count, 0)
    check_int("sum(per_lineage)", sum(per_lineage), 1)
    if not 0.0 <= within_mut_rate <= 1.0:
        raise ConfigError("within_mut_rate must lie in [0, 1]")
    check_int("between_mut_count", between_mut_count, 0, length)

    rng = np.random.default_rng(seed)
    nsym = len(ALPHABET)
    root = rng.integers(0, nsym, size=length)
    codes = np.frombuffer(ALPHABET.encode(), dtype=np.uint8)

    records = []
    for li in range(num_lineages):
        ancestor = root.copy()
        if between_mut_count:
            positions = rng.choice(length, size=between_mut_count, replace=False)
            shifts = rng.integers(1, nsym, size=between_mut_count)
            ancestor[positions] = (ancestor[positions] + shifts) % nsym
        label = f"L{li}"
        for j in range(per_lineage[li]):
            member = ancestor.copy()
            flips = rng.random(length) < within_mut_rate
            nflip = int(flips.sum())
            if nflip:
                member[flips] = (member[flips] + rng.integers(1, nsym, size=nflip)) % nsym
            residues = codes[member].tobytes().decode()
            records.append(SequenceRecord(f"{label}_{j:04d}", residues, label))
    return Dataset(records)


def split_indices(
    labels: Sequence,
    test_fraction: float,
    num_folds: int,
    seed: int,
) -> SplitPlan:
    """Split row indices 0..n-1 into train/test plus CV folds over the train part.

    The test size is ``n - round((1 - test_fraction) * n)``. The split is
    stratified: the test quota is apportioned per class by largest remainder,
    so per-class proportions are preserved to within one sample while the
    global sizes stay exact; folds are dealt round-robin within each class.
    Raises StratifyError when a class has fewer than ``num_folds`` rows, or
    when no class keeps ``num_folds`` rows after its test quota (a fold would
    then have an empty training or validation part).
    """
    n = len(labels)
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must lie strictly between 0 and 1")
    check_int("num_folds", num_folds, 2)
    n_train = int(round((1.0 - test_fraction) * n))
    n_test = n - n_train
    if n_train < num_folds:
        raise ConfigError(f"cannot build {num_folds} folds from {n_train} training rows")
    if n_test < 1:
        raise ConfigError("test set would be empty")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)

    by_class: dict = {}
    for idx in perm:
        by_class.setdefault(labels[idx], []).append(int(idx))
    class_keys = sorted(by_class, key=lambda c: (c is None, str(c)))
    small = [c for c in class_keys if len(by_class[c]) < num_folds]
    if small:
        raise StratifyError(f"classes smaller than num_folds={num_folds}: {small!r}")
    quotas = {c: len(by_class[c]) * test_fraction for c in class_keys}
    base = {c: int(np.floor(quotas[c])) for c in class_keys}
    extras = n_test - sum(base.values())
    remainders = sorted(class_keys, key=lambda c: (-(quotas[c] - base[c]), str(c)))
    take = dict(base)
    for c in remainders:
        if extras <= 0:
            break
        if take[c] < len(by_class[c]):
            take[c] += 1
            extras -= 1
    # folds are dealt per class from fold 0, so the last fold validates on
    # nothing (and fold 0 may train on nothing) unless some class keeps
    # num_folds training rows
    kept = {c: len(by_class[c]) - take[c] for c in class_keys}
    if max(kept.values()) < num_folds:
        raise StratifyError(
            f"no class keeps num_folds={num_folds} training rows after the test quota, "
            f"so a CV fold would be empty; training rows per class: {kept!r}"
        )
    test_set = set()
    fold_sets: list[set] = [set() for _ in range(num_folds)]
    for c in class_keys:
        bucket = by_class[c]
        test_set.update(bucket[: take[c]])
        for pos, idx in enumerate(bucket[take[c]:]):
            fold_sets[pos % num_folds].add(idx)

    train_indices = tuple(int(i) for i in perm if int(i) not in test_set)
    test_indices = tuple(int(i) for i in perm if int(i) in test_set)
    folds = []
    for f in range(num_folds):
        val = tuple(i for i in train_indices if i in fold_sets[f])
        tr = tuple(i for i in train_indices if i not in fold_sets[f])
        folds.append((tr, val))
    return SplitPlan(train_indices, test_indices, tuple(folds), seed)

