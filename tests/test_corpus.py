"""Corpus loading, merging, and deterministic splitting."""

import csv

import pytest

from ipsdm.corpus import (
    Corpus,
    Label,
    LabeledEmail,
    SplitSpec,
    load_csv,
    merge,
    read_split_csv,
    save_split_csv,
    split,
)
from ipsdm.errors import DegenerateSplit, MalformedCsv, MissingColumn


def _write_csv(path, rows, header=("Email", "Category")):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _make_corpus(counts, source_id="synthetic"):
    """counts: dict Label -> n. Samples are laid out label-blocked."""
    samples = []
    row = 0
    for label, n in counts.items():
        for _ in range(n):
            samples.append(
                LabeledEmail(
                    text=f"{label.name} message {row}",
                    label=label,
                    source_id=source_id,
                    row_index=row,
                )
            )
            row += 1
    return Corpus.from_samples(samples)


def _identity(sample):
    return (sample.source_id, sample.row_index)


# ---------------------------------------------------------------------------
# labels


def test_label_values():
    assert Label.ham == 0
    assert Label.spam == 1
    assert Label.phishing == 2
    assert [l.name for l in Label] == ["ham", "spam", "phishing"]


# ---------------------------------------------------------------------------
# load_csv


def test_load_csv_happy_path(tmp_path):
    path = _write_csv(
        tmp_path / "mail.csv",
        [
            ("Ok lar... Joking wif u oni...", "ham"),
            ("WINNER!! You have won a prize", "spam"),
            ("Verify your account at this link", "phishing"),
        ],
    )
    corpus, stats = load_csv(path)
    assert len(corpus) == 3
    assert corpus.samples[0].text == "Ok lar... Joking wif u oni..."
    assert corpus.samples[0].label == Label.ham
    assert corpus.samples[1].label == Label.spam
    assert corpus.samples[2].label == Label.phishing
    assert corpus.class_counts == {Label.ham: 1, Label.spam: 1, Label.phishing: 1}
    assert stats.loaded == 3
    assert stats.unknown_label == 0
    assert stats.empty_text == 0
    # source id defaults to the file stem
    assert corpus.samples[0].source_id == "mail"


def test_load_csv_header_only(tmp_path):
    corpus, stats = load_csv(_write_csv(tmp_path / "empty.csv", []))
    assert len(corpus) == 0
    assert all(count == 0 for count in corpus.class_counts.values())
    assert stats.loaded == 0


def test_load_csv_label_case_insensitive(tmp_path):
    path = _write_csv(
        tmp_path / "cased.csv",
        [("first", "Spam"), ("second", "HAM"), ("third", " phishing ")],
    )
    corpus, _ = load_csv(path)
    assert [s.label for s in corpus.samples] == [Label.spam, Label.ham, Label.phishing]


def test_load_csv_skips_unknown_labels(tmp_path):
    path = _write_csv(
        tmp_path / "odd.csv",
        [("keep me", "ham"), ("drop me", "banana"), ("keep too", "spam"), ("drop", "")],
    )
    corpus, stats = load_csv(path)
    assert [s.text for s in corpus.samples] == ["keep me", "keep too"]
    assert stats.loaded == 2
    assert stats.unknown_label == 2
    # skipped rows are reported with their original data-row index
    assert stats.unknown_label_rows == [(1, "banana"), (3, "")]


def test_load_csv_skips_empty_text(tmp_path):
    path = _write_csv(
        tmp_path / "blank.csv",
        [("", "ham"), ("   ", "spam"), ("real content", "ham")],
    )
    corpus, stats = load_csv(path)
    assert [s.text for s in corpus.samples] == ["real content"]
    assert stats.empty_text == 2
    assert stats.loaded == 1


def test_load_csv_row_index_counts_skipped_rows(tmp_path):
    path = _write_csv(
        tmp_path / "gaps.csv",
        [("bad", "nope"), ("good", "ham")],
    )
    corpus, _ = load_csv(path)
    assert corpus.samples[0].row_index == 1


def test_load_csv_custom_columns_and_map(tmp_path):
    path = _write_csv(
        tmp_path / "alt.csv",
        [("hello there", "0"), ("buy now", "1")],
        header=("body", "kind"),
    )
    corpus, _ = load_csv(
        path,
        text_column="body",
        label_column="kind",
        label_map={"0": Label.ham, "1": Label.spam},
    )
    assert [s.label for s in corpus.samples] == [Label.ham, Label.spam]


def test_load_csv_missing_column(tmp_path):
    path = _write_csv(tmp_path / "narrow.csv", [("text", "x")], header=("Email", "Kind"))
    with pytest.raises(MissingColumn):
        load_csv(path)
    path2 = _write_csv(tmp_path / "narrow2.csv", [], header=("Body", "Category"))
    with pytest.raises(MissingColumn):
        load_csv(path2)


def test_load_csv_no_header(tmp_path):
    path = tmp_path / "void.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MissingColumn):
        load_csv(path)


def test_load_csv_oversized_field_names_its_row(tmp_path):
    path = _write_csv(
        tmp_path / "big_src.csv",
        [("short", "ham"), ("x" * (csv.field_size_limit() + 1), "spam")],
    )
    with pytest.raises(MalformedCsv, match="big_src.csv row 1: field larger than field limit"):
        load_csv(path)


def test_load_csv_unbalanced_quotes(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text('Email,Category\n"unterminated field,ham\n', encoding="utf-8")
    with pytest.raises(MalformedCsv):
        load_csv(path)


def test_csv_readers_reject_non_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("Email,Category\ncaf\u00e9,ham\n".encode("latin-1"))
    for reader in (load_csv, read_split_csv):
        with pytest.raises(MalformedCsv, match="not UTF-8"):
            reader(path)


def test_load_csv_quoted_fields(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text(
        'Email,Category\n"has, a comma and ""quotes""",ham\n"two\nlines",spam\n',
        encoding="utf-8",
    )
    corpus, _ = load_csv(path)
    assert corpus.samples[0].text == 'has, a comma and "quotes"'
    assert corpus.samples[1].text == "two\nlines"


# ---------------------------------------------------------------------------
# merge


def test_merge_identity():
    corpus = _make_corpus({Label.ham: 3, Label.spam: 2})
    merged = merge([corpus])
    assert merged.samples == corpus.samples
    assert merged.class_counts == corpus.class_counts


def test_merge_preserves_source_order():
    a = _make_corpus({Label.ham: 2}, source_id="a")
    b = _make_corpus({Label.spam: 2}, source_id="b")
    merged = merge([a, b])
    assert len(merged) == 4
    assert [s.source_id for s in merged.samples] == ["a", "a", "b", "b"]
    assert merged.samples[:2] == a.samples
    assert merged.samples[2:] == b.samples


def test_merge_sums_class_counts():
    sms = _make_corpus({Label.ham: 4825, Label.spam: 747}, source_id="sms")
    phish = _make_corpus({Label.phishing: 189}, source_id="phish")
    merged = merge([sms, phish])
    assert merged.class_counts == {Label.ham: 4825, Label.spam: 747, Label.phishing: 189}
    assert len(merged) == 5761


def test_merge_requires_input():
    with pytest.raises(ValueError):
        merge([])


# ---------------------------------------------------------------------------
# split


def test_split_sizes_floor_rule():
    corpus = _make_corpus({Label.ham: 4825, Label.spam: 747, Label.phishing: 189})
    spec = SplitSpec(seed=11, stratified=False)
    train, val, test = split(corpus, spec)
    assert (len(train), len(val), len(test)) == (3457, 1152, 1152)


def test_split_five_samples():
    corpus = _make_corpus({Label.ham: 5})
    train, val, test = split(corpus, SplitSpec(seed=0, stratified=False))
    assert (len(train), len(val), len(test)) == (3, 1, 1)


def test_split_partitions_input():
    corpus = _make_corpus({Label.ham: 30, Label.spam: 20, Label.phishing: 10})
    for stratified in (False, True):
        train, val, test = split(corpus, SplitSpec(seed=3, stratified=stratified))
        combined = sorted(
            _identity(s) for part in (train, val, test) for s in part.samples
        )
        assert combined == sorted(_identity(s) for s in corpus.samples)
        assert len(set(combined)) == len(corpus)


def test_split_outputs_keep_original_order():
    corpus = _make_corpus({Label.ham: 40, Label.spam: 20})
    position = {_identity(s): i for i, s in enumerate(corpus.samples)}
    for part in split(corpus, SplitSpec(seed=9, stratified=False)):
        positions = [position[_identity(s)] for s in part.samples]
        assert positions == sorted(positions)


def test_split_deterministic():
    corpus = _make_corpus({Label.ham: 25, Label.spam: 15, Label.phishing: 10})
    spec = SplitSpec(seed=42)
    first = split(corpus, spec)
    second = split(corpus, spec)
    for a, b in zip(first, second):
        assert [_identity(s) for s in a.samples] == [_identity(s) for s in b.samples]


def test_split_seed_changes_membership():
    corpus = _make_corpus({Label.ham: 40, Label.spam: 20, Label.phishing: 20})
    train_a, _, _ = split(corpus, SplitSpec(seed=1, stratified=False))
    train_b, _, _ = split(corpus, SplitSpec(seed=2, stratified=False))
    assert {_identity(s) for s in train_a.samples} != {_identity(s) for s in train_b.samples}


def test_split_stratified_per_class_floor():
    corpus = _make_corpus({Label.ham: 10, Label.spam: 5, Label.phishing: 5})
    train, val, test = split(corpus, SplitSpec(seed=7, stratified=True))
    assert train.class_counts == {Label.ham: 6, Label.spam: 3, Label.phishing: 3}
    assert val.class_counts == {Label.ham: 2, Label.spam: 1, Label.phishing: 1}
    assert test.class_counts == {Label.ham: 2, Label.spam: 1, Label.phishing: 1}


def test_split_stratified_within_one_of_fraction():
    corpus = _make_corpus({Label.ham: 33, Label.spam: 17, Label.phishing: 9})
    spec = SplitSpec(seed=5, stratified=True)
    _, val, test = split(corpus, spec)
    for part, fraction in ((val, spec.val_fraction), (test, spec.test_fraction)):
        for label, total in corpus.class_counts.items():
            got = part.class_counts.get(label, 0)
            assert abs(got - fraction * total) <= 1.0


def test_split_empty_corpus_rejected():
    with pytest.raises(DegenerateSplit):
        split(Corpus.from_samples([]), SplitSpec())


def test_split_too_small_rejected():
    # floor(0.2 * 3) = 0: val and test would be empty.
    corpus = _make_corpus({Label.ham: 3})
    with pytest.raises(DegenerateSplit):
        split(corpus, SplitSpec(stratified=False))


def test_split_spec_fraction_validation():
    with pytest.raises(DegenerateSplit):
        SplitSpec(train_fraction=0.7, val_fraction=0.2, test_fraction=0.2).validate()
    with pytest.raises(DegenerateSplit):
        SplitSpec(train_fraction=1.0, val_fraction=0.0, test_fraction=0.0).validate()
    SplitSpec().validate()  # defaults are fine


# ---------------------------------------------------------------------------
# split CSV persistence


def test_split_csv_round_trip(tmp_path):
    samples = [
        LabeledEmail('comma, "quoted", done', Label.ham, "src", 0),
        LabeledEmail("line one\nline two", Label.spam, "src", 1),
        LabeledEmail("café \U0001f4b0", Label.phishing, "other", 5),
    ]
    corpus = Corpus.from_samples(samples)
    path = tmp_path / "part.csv"
    save_split_csv(corpus, path, split_name="train")
    restored = read_split_csv(path)
    assert restored.samples == samples
    assert restored.class_counts == corpus.class_counts


def test_split_csv_has_split_column(tmp_path):
    corpus = _make_corpus({Label.ham: 2})
    path = tmp_path / "val.csv"
    save_split_csv(corpus, path, split_name="validation")
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all(row["split"] == "validation" for row in rows)
    assert list(rows[0]) == ["text", "label", "source_id", "row_index", "split"]


def test_read_split_csv_rejects_oversized_field(tmp_path):
    path = tmp_path / "train.csv"
    samples = [
        LabeledEmail("short", Label.ham, "src", 0),
        LabeledEmail("x" * (csv.field_size_limit() + 1), Label.spam, "src", 1),
    ]
    save_split_csv(Corpus.from_samples(samples), path, split_name="train")
    with pytest.raises(MalformedCsv, match="train.csv row 1: field larger than field limit"):
        read_split_csv(path)


def test_read_split_csv_rejects_a_short_row(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text(
        "row_index,label,source_id,text,split\n0,ham,src,hi,train\n1,ham,src\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedCsv, match="train.csv row 1: fewer fields than the header"):
        read_split_csv(path)


def test_read_split_csv_without_header(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MissingColumn, match="train.csv has no header row"):
        read_split_csv(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("label", "eggs", "unknown label 'eggs'"),
        ("row_index", "seven", "row_index 'seven' is not an integer"),
    ],
)
def test_read_split_csv_rejects_bad_rows(tmp_path, field, value, message):
    path = tmp_path / "train.csv"
    save_split_csv(_make_corpus({Label.ham: 2, Label.spam: 1}), path, split_name="train")
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    rows[1][field] = value
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with pytest.raises(MalformedCsv, match=f"train.csv row 1: {message}"):
        read_split_csv(path)
