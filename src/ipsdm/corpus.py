"""Load, merge, label, and deterministically split the email datasets.

Input files are RFC-4180 CSV (UTF-8, header row required). Column names are
configurable and default to "Email" / "Category". Splits can be persisted
back to CSV with an added "split" column.
"""

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

from .errors import DegenerateSplit, EmptySplit, MalformedCsv, MissingColumn
from .shuffle import SeededStream, fisher_yates

FRACTION_TOLERANCE = 1e-9
# Source CSV column names when a config or load_csv call names none.
DEFAULT_TEXT_COLUMN = "Email"
DEFAULT_LABEL_COLUMN = "Category"


class Label(IntEnum):
    ham = 0
    spam = 1
    phishing = 2


LABEL_NAMES = [label.name for label in Label]

# Default label map: the three class names map to themselves,
# compared case-insensitively after trimming.
DEFAULT_LABEL_MAP = {name: Label[name] for name in LABEL_NAMES}


@dataclass(frozen=True)
class LabeledEmail:
    """One text sample with a class label.

    text is non-empty after whitespace trimming; (source_id, row_index)
    identifies the sample across merge/split operations.
    """

    text: str
    label: Label
    source_id: str
    row_index: int


@dataclass
class Corpus:
    samples: list[LabeledEmail]
    class_counts: dict[Label, int]

    def __len__(self) -> int:
        return len(self.samples)

    @classmethod
    def from_samples(cls, samples: list[LabeledEmail]) -> "Corpus":
        counts = {label: 0 for label in Label}
        for sample in samples:
            counts[sample.label] += 1
        return cls(samples=list(samples), class_counts=counts)

    def label_counts(self) -> dict[str, int]:
        """Samples per label name, every Label in order, absent ones as 0."""
        return {label.name: self.class_counts.get(label, 0) for label in Label}


def majority_and_minority(class_counts: dict[int, int]) -> tuple[int, list[int]]:
    """How ADASYN sees the classes present (count above 0): the majority
    label, the lowest of those with the largest count, and the labels with
    fewer samples than it, ascending. The classes are balanced when that
    list is empty. Raises EmptySplit when no class is present."""
    present = {label: n for label, n in class_counts.items() if n}
    if not present:
        raise EmptySplit("no samples to balance")
    m_maj = max(present.values())
    majority = min(label for label, n in present.items() if n == m_maj)
    return majority, sorted(label for label, n in present.items() if n < m_maj)


def balance_report(before: Corpus, after: Corpus) -> dict:
    """Per-class counts before and after balancing."""
    counts_before, counts_after = before.label_counts(), after.label_counts()
    return {
        "before": counts_before,
        "after": counts_after,
        "added": {name: counts_after[name] - counts_before[name] for name in counts_before},
    }


@dataclass(frozen=True)
class SplitSpec:
    """Fractions for the train/val/test partition; must sum to 1.

    Sizes follow the floor rule: test = floor(test_fraction*N),
    val = floor(val_fraction*N), train = N - val - test. In stratified mode
    the same rule is applied per class and remainders go to train.
    """

    train_fraction: float = 0.6
    val_fraction: float = 0.2
    test_fraction: float = 0.2
    seed: int = 0
    stratified: bool = True

    def validate(self) -> None:
        for name, value in (
            ("train_fraction", self.train_fraction),
            ("val_fraction", self.val_fraction),
            ("test_fraction", self.test_fraction),
        ):
            if not 0.0 < value < 1.0:
                raise DegenerateSplit(f"{name} must lie in (0, 1), got {value}")
        total = self.train_fraction + self.val_fraction + self.test_fraction
        if abs(total - 1.0) > FRACTION_TOLERANCE:
            raise DegenerateSplit(f"fractions sum to {total!r}, expected 1.0")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class LoadStats:
    """Per-file row accounting for rows that were rejected, not loaded."""

    loaded: int = 0
    unknown_label: int = 0
    empty_text: int = 0
    unknown_label_rows: list[tuple[int, str]] = field(default_factory=list)


def _normalize_label_map(label_map: dict) -> dict[str, Label]:
    normalized = {}
    for key, value in label_map.items():
        if isinstance(value, Label):
            label = value
        elif isinstance(value, int):
            label = Label(value)
        else:
            label = Label[str(value).strip().lower()]
        normalized[str(key).strip().lower()] = label
    return normalized


def _check_quote_balance(path: Path) -> None:
    # RFC-4180: a file that ends inside a quoted field is malformed, which
    # is the case exactly when it holds an odd number of quote characters.
    quotes = 0
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            while chunk := handle.read(65536):
                quotes += chunk.count('"')
        except UnicodeDecodeError as err:
            raise MalformedCsv(f"{path} is not UTF-8: {err}") from None
    if quotes % 2:
        raise MalformedCsv(f"unbalanced quotes in {path}")


def _csv_rows(path: Path, columns: tuple[str, ...]) -> Iterator[tuple[int, dict]]:
    """Yield (row number from 0, row dict) for each csv.DictReader data row.

    The file must be UTF-8 with balanced quotes and a header holding every
    name in columns, else MalformedCsv or MissingColumn; a csv.Error becomes
    MalformedCsv naming the header or the data row it stopped at.
    """
    _check_quote_balance(path)
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            header = reader.fieldnames
        except csv.Error as exc:
            raise MalformedCsv(f"{path} header: {exc}") from None
        if header is None:
            raise MissingColumn(f"{path} has no header row")
        for column in columns:
            if column not in header:
                raise MissingColumn(f"{path} header lacks column {column!r}")
        row_number = 0
        try:
            for row in reader:
                yield row_number, row
                row_number += 1
        except csv.Error as exc:
            raise MalformedCsv(f"{path} row {row_number}: {exc}") from None


def load_csv(
    path,
    text_column: str = DEFAULT_TEXT_COLUMN,
    label_column: str = DEFAULT_LABEL_COLUMN,
    label_map: dict | None = None,
    source_id: str | None = None,
) -> tuple[Corpus, LoadStats]:
    """Read one labeled CSV into a Corpus.

    Rows whose label is absent from label_map (case-insensitive, trimmed) or
    whose text is empty after trimming are skipped and counted in LoadStats.
    Raises MissingColumn / MalformedCsv for malformed files.
    """
    path = Path(path)
    mapping = _normalize_label_map(label_map or DEFAULT_LABEL_MAP)
    if source_id is None:
        source_id = path.stem

    samples: list[LabeledEmail] = []
    stats = LoadStats()
    for row_index, row in _csv_rows(path, (text_column, label_column)):
        raw_label = (row.get(label_column) or "").strip().lower()
        text = (row.get(text_column) or "").strip()
        if raw_label not in mapping:
            stats.unknown_label += 1
            stats.unknown_label_rows.append((row_index, raw_label))
            continue
        if not text:
            stats.empty_text += 1
            continue
        samples.append(
            LabeledEmail(
                text=text,
                label=mapping[raw_label],
                source_id=source_id,
                row_index=row_index,
            )
        )
        stats.loaded += 1
    return Corpus.from_samples(samples), stats


def merge(corpora: list[Corpus]) -> Corpus:
    """Concatenate corpora preserving per-source sample order."""
    if not corpora:
        raise ValueError("merge requires at least one corpus")
    samples: list[LabeledEmail] = []
    for corpus in corpora:
        samples.extend(corpus.samples)
    return Corpus.from_samples(samples)


def _floor_sizes(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    test_n = math.floor(spec.test_fraction * n)
    val_n = math.floor(spec.val_fraction * n)
    return n - val_n - test_n, val_n, test_n


def split(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Partition a corpus into (train, val, test).

    The corpus is cut into groups, one per label in Label order when
    stratified, else the single group of all samples. Each group, in turn,
    gets a seeded Fisher-Yates shuffle from one stream, the draws of numpy's
    default_rng(seed) (an empty group draws nothing), and the floor rule
    (its remainder goes to train). Each output keeps its members in original
    corpus order, so identical inputs produce byte-identical splits.
    """
    spec.validate()
    n = len(corpus)
    if n == 0:
        raise DegenerateSplit("cannot split an empty corpus")

    if spec.stratified:
        groups = [[i for i, s in enumerate(corpus.samples) if s.label == label] for label in Label]
    else:
        groups = [range(n)]
    stream = SeededStream(spec.seed)
    train_idx: list[int] = []
    val_idx: list[int] = []
    test_idx: list[int] = []
    for group in groups:
        shuffled = [group[i] for i in fisher_yates(len(group), stream)]
        train_c, val_c, test_c = _floor_sizes(len(shuffled), spec)
        train_idx.extend(shuffled[:train_c])
        val_idx.extend(shuffled[train_c : train_c + val_c])
        test_idx.extend(shuffled[train_c + val_c :])
        assert len(shuffled[train_c + val_c :]) == test_c

    if min(len(train_idx), len(val_idx), len(test_idx)) == 0:
        raise DegenerateSplit(
            f"split of {n} samples would leave an empty part "
            f"(train={len(train_idx)}, val={len(val_idx)}, test={len(test_idx)})"
        )

    parts = []
    for indices in (train_idx, val_idx, test_idx):
        members = [corpus.samples[i] for i in sorted(indices)]
        parts.append(Corpus.from_samples(members))
    return parts[0], parts[1], parts[2]


SPLIT_CSV_COLUMNS = ["text", "label", "source_id", "row_index", "split"]


def save_split_csv(corpus: Corpus, path, split_name: str) -> None:
    """Persist a split as CSV with the added "split" column."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SPLIT_CSV_COLUMNS)
        for sample in corpus.samples:
            writer.writerow(
                [sample.text, sample.label.name, sample.source_id, sample.row_index, split_name]
            )


def read_split_csv(path) -> Corpus:
    """Read back a CSV written by save_split_csv, restoring sample identity."""
    path = Path(path)
    samples: list[LabeledEmail] = []
    for row_number, row in _csv_rows(path, ("text", "label", "source_id", "row_index")):
        if None in row.values():  # csv.DictReader's value for a field the row lacks
            raise MalformedCsv(f"{path} row {row_number}: fewer fields than the header")
        label = row["label"].strip().lower()
        if label not in LABEL_NAMES:
            raise MalformedCsv(f"{path} row {row_number}: unknown label {row['label']!r}")
        try:
            row_index = int(row["row_index"])
        except (TypeError, ValueError):
            raise MalformedCsv(
                f"{path} row {row_number}: row_index {row['row_index']!r} is not an integer"
            ) from None
        samples.append(
            LabeledEmail(
                text=row["text"],
                label=Label[label],
                source_id=row["source_id"],
                row_index=row_index,
            )
        )
    return Corpus.from_samples(samples)
