from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seqnet.errors import (
    AlphabetError,
    ConfigError,
    EmptyInputError,
    ParseError,
    StratifyError,
)
from seqnet.seqio import (
    ALPHABET,
    Dataset,
    SequenceRecord,
    parse_fasta,
    parse_fasta_text,
    read_labels_csv,
    split_indices,
    synthesize_dataset,
    write_fasta,
    write_labels_csv,
)


class TestParseFasta:
    def test_two_records_order_preserved(self, tmp_path):
        path = tmp_path / "two.fa"
        path.write_text(">a\nACDE\n>b\nKLMN\n")
        ds = parse_fasta(path)
        assert len(ds) == 2
        assert ds[0] == SequenceRecord("a", "ACDE")
        assert ds[1] == SequenceRecord("b", "KLMN")

    def test_header_with_pipe_splits_id_and_label(self):
        ds = parse_fasta_text(">s1|B.1.1.7\nACDE\n")
        assert ds[0].id == "s1"
        assert ds[0].label == "B.1.1.7"

    def test_strict_mode_rejects_non_alphabet(self):
        with pytest.raises(AlphabetError):
            parse_fasta_text(">s1\nACXDE\n", strict=True)

    def test_non_strict_keeps_ambiguity_codes(self):
        ds = parse_fasta_text(">s1\nACXDE\n")
        assert ds[0].residues == "ACXDE"

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.fa"
        path.write_text("")
        with pytest.raises(EmptyInputError):
            parse_fasta(path)

    def test_whitespace_only_raises(self, tmp_path):
        path = tmp_path / "blank.fa"
        path.write_text("\n\n  \n")
        with pytest.raises(EmptyInputError):
            parse_fasta(path)

    def test_malformed_header_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_fasta_text(">ok\nACDE\n>\nKLMN\n")
        assert err.value.line == 3

    def test_sequence_before_header_is_error(self):
        with pytest.raises(ParseError):
            parse_fasta_text("ACDE\n>late\nKLMN\n")

    def test_trailing_stop_marker_stripped(self):
        ds = parse_fasta_text(">s\nACDE*\n")
        assert ds[0].residues == "ACDE"

    def test_multiline_sequences_concatenated(self):
        ds = parse_fasta_text(">s\nACDE\nKLMN\n")
        assert ds[0].residues == "ACDEKLMN"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParseError):
            parse_fasta_text(">s\nAC\n>s\nDE\n")


class TestRoundTrip:
    def test_parse_of_write_is_identity(self, tmp_path):
        ds = synthesize_dataset(3, [4, 2, 5], 60, 0.05, 10, seed=7)
        path = tmp_path / "synth.fa"
        write_fasta(ds, path)
        assert parse_fasta(path) == ds

    def test_round_trip_across_random_generator_settings(self, tmp_path):
        rng = np.random.default_rng(99)
        for trial in range(8):
            m = int(rng.integers(1, 5))
            ds = synthesize_dataset(
                m,
                [int(rng.integers(1, 8)) for _ in range(m)],
                int(rng.integers(5, 120)),
                float(rng.uniform(0, 0.5)),
                int(rng.integers(0, 5)),
                seed=trial,
            )
            path = tmp_path / f"rt{trial}.fa"
            write_fasta(ds, path)
            assert parse_fasta(path) == ds

    def test_unlabeled_round_trip(self, tmp_path):
        ds = Dataset([SequenceRecord("a", "ACDE"), SequenceRecord("b", "KLMN")])
        path = tmp_path / "plain.fa"
        write_fasta(ds, path)
        assert parse_fasta(path) == ds

    def test_labels_csv(self, tmp_path):
        ds = synthesize_dataset(2, [2, 2], 30, 0.0, 4, seed=1)
        path = tmp_path / "labels.csv"
        write_labels_csv(ds, path)
        rows = read_labels_csv(path)
        assert rows == [(rec.id, rec.label) for rec in ds]


class TestSynthesize:
    def test_zero_within_noise_gives_identical_members(self):
        ds = synthesize_dataset(1, [3], 50, 0.0, 5, seed=3)
        assert len(ds) == 3
        assert {rec.label for rec in ds} == {"L0"}
        assert len({rec.residues for rec in ds}) == 1

    def test_counts_and_labels(self):
        ds = synthesize_dataset(4, [100, 100, 100, 100], 300, 0.01, 30, seed=11)
        assert len(ds) == 400
        assert sorted({rec.label for rec in ds}) == ["L0", "L1", "L2", "L3"]

    def test_same_seed_reproduces_exactly(self):
        a = synthesize_dataset(2, [5, 5], 80, 0.02, 12, seed=42)
        b = synthesize_dataset(2, [5, 5], 80, 0.02, 12, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        a = synthesize_dataset(2, [5, 5], 80, 0.02, 12, seed=42)
        b = synthesize_dataset(2, [5, 5], 80, 0.02, 12, seed=43)
        assert a != b

    def test_alphabet_only(self):
        ds = synthesize_dataset(2, [3, 3], 40, 0.5, 20, seed=0)
        assert all(set(rec.residues) <= set(ALPHABET) for rec in ds)

    def test_per_lineage_mismatch(self):
        with pytest.raises(ConfigError):
            synthesize_dataset(3, [5, 5], 40, 0.1, 4, seed=0)

    def test_between_mutations_separate_lineages(self):
        ds = synthesize_dataset(2, [1, 1], 100, 0.0, 10, seed=5)
        diff = sum(a != b for a, b in zip(ds[0].residues, ds[1].residues))
        # both lineages mutate up to 10 of their own positions away from the root
        assert 1 <= diff <= 20


class TestSplit:
    def test_sizes_round_contract(self):
        labels = ["A"] * 10
        plan = split_indices(labels, 0.3, 2, seed=0)
        assert len(plan.test_indices) == 3
        assert len(plan.train_indices) == 7

    def test_two_seeds_same_sizes_different_order(self):
        labels = ["A", "B"] * 20
        p1 = split_indices(labels, 0.3, 5, seed=1)
        p2 = split_indices(labels, 0.3, 5, seed=2)
        assert len(p1.test_indices) == len(p2.test_indices)
        assert p1.train_indices != p2.train_indices

    def test_partition_property(self):
        labels = list("AB" * 15)
        plan = split_indices(labels, 0.3, 5, seed=9)
        everything = sorted(plan.train_indices + plan.test_indices)
        assert everything == list(range(30))
        assert not set(plan.train_indices) & set(plan.test_indices)

    def test_folds_partition_training(self):
        labels = list("ABC" * 10)
        plan = split_indices(labels, 0.3, 5, seed=4)
        val_union = [i for _, val in plan.folds for i in val]
        assert sorted(val_union) == sorted(plan.train_indices)
        for tr, val in plan.folds:
            assert sorted(tr + val) == sorted(plan.train_indices)
            assert not set(tr) & set(val)

    def test_stratified_minority_reaches_test(self):
        # 8 A / 2 B at 30%: quotas 2.4 and 0.6; largest remainder sends one B.
        labels = ["A"] * 8 + ["B"] * 2
        for seed in range(10):
            plan = split_indices(labels, 0.3, 2, seed=seed)
            test_labels = [labels[i] for i in plan.test_indices]
            assert test_labels.count("B") == 1
            assert test_labels.count("A") == 2

    def test_stratified_proportions_within_one(self):
        rng = np.random.default_rng(0)
        labels = list(rng.choice(["A", "B", "C"], p=[0.6, 0.3, 0.1], size=200))
        plan = split_indices(labels, 0.3, 5, seed=1)
        test_labels = [labels[i] for i in plan.test_indices]
        for cls in "ABC":
            quota = labels.count(cls) * 0.3
            assert abs(test_labels.count(cls) - quota) <= 1.0

    def test_stratify_error_for_tiny_class(self):
        labels = ["A"] * 8 + ["B"] * 2
        with pytest.raises(StratifyError):
            split_indices(labels, 0.3, 5, seed=0)

    def test_stratify_error_when_no_class_keeps_num_folds_training_rows(self):
        # each class keeps one training row after its test quota of two; the
        # folds, dealt per class from fold 0, would leave fold 1 nothing to
        # validate on and fold 0 nothing to train on
        labels = ["a"] * 3 + ["b"] * 3
        with pytest.raises(StratifyError, match=r"\{'a': 1, 'b': 1\}"):
            split_indices(labels, 0.6, 2, seed=0)
        # one class keeping num_folds rows fills every fold's two parts
        plan = split_indices(["A"] * 8 + ["B"] * 2, 0.3, 2, seed=0)
        assert all(fit and val for fit, val in plan.folds)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            split_indices(["A"] * 10, 1.5, 2, seed=0)


NAMES = st.text(alphabet="ABCXYZabcxyz0123456789_.-", min_size=1, max_size=8)


@st.composite
def datasets(draw):
    """Records with unique ids, optional labels (which may contain '|') and
    residues that include out-of-alphabet codes."""
    ids = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    labels = st.none() | st.text(alphabet="ABC12.|_", min_size=1, max_size=6).filter(
        lambda s: s.strip() == s
    )
    residues = st.text(alphabet=ALPHABET + "XBZ-", min_size=1, max_size=30)
    return Dataset(SequenceRecord(i, draw(residues), draw(labels)) for i in ids)


@given(datasets())
@settings(deadline=None)
def test_parse_inverts_write(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("fasta") / "round.fa"
    write_fasta(ds, path)
    assert parse_fasta(path) == ds


@st.composite
def split_cases(draw):
    folds = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(folds, folds + 9), min_size=1, max_size=4))
    labels = [f"c{c}" for c, size in enumerate(sizes) for _ in range(size)]
    labels = draw(st.permutations(labels))
    return labels, draw(st.sampled_from([0.2, 0.3, 0.5])), folds, draw(st.integers(0, 50))


@given(split_cases())
def test_split_invariants(case):
    labels, fraction, folds, seed = case
    n = len(labels)
    n_train = int(round((1.0 - fraction) * n))
    assume(n_train >= folds and n - n_train >= 1)
    try:
        plan = split_indices(labels, fraction, folds, seed)
    except StratifyError:
        # raised only when every class keeps fewer than `folds` training rows
        assert n_train <= len(set(labels)) * (folds - 1)
        return
    train, test = plan.train_indices, plan.test_indices
    assert len(test) == n - n_train
    assert not set(train) & set(test)
    assert sorted(train + test) == list(range(n))
    validate = [i for _, val in plan.folds for i in val]
    assert sorted(validate) == sorted(train)
    for fit, val in plan.folds:
        assert sorted(fit + val) == sorted(train)
        assert fit and val
    in_test = Counter(labels[i] for i in test)
    for cls, size in Counter(labels).items():
        assert abs(in_test[cls] - size * fraction) < 1.0
    assert split_indices(labels, fraction, folds, seed) == plan
