"""Byte-level fuzzing of the CSV inputs a user hands the pipeline.

Each example starts from a valid file, a source CSV or a split CSV as
`save_split_csv` writes it, and applies a few byte edits: overwrite, insert
or delete one byte, biased toward the bytes CSV parsing and UTF-8 decoding
care about. The readers must either load the result or raise an
`InputError`, and `ipsdm prepare` on a mutated source must exit 0 or 2, so a
damaged file never ends in a traceback.
"""

import csv
import json
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from ipsdm.cli import EXIT_INPUT, EXIT_OK, main
from ipsdm.corpus import Corpus, Label, LabeledEmail, load_csv, read_split_csv, save_split_csv
from ipsdm.errors import InputError

_SAMPLES = [
    LabeledEmail(f"{label.name} text {i}, with \"quotes\"\nand a line", label, "src", i)
    for i, label in enumerate([Label.ham, Label.spam, Label.phishing] * 4)
]

_BYTES = st.sampled_from(b'",\n\r\x00\xff\xc3\xa9 ') | st.integers(0, 255)
_EDITS = st.lists(
    st.tuples(st.sampled_from(["overwrite", "insert", "delete"]), st.integers(0, 1 << 16), _BYTES),
    min_size=1,
    max_size=6,
)


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, position, byte in edits:
        at = position % (len(out) + 1)
        if op == "insert":
            out.insert(at, byte)
        elif at < len(out):
            if op == "overwrite":
                out[at] = byte
            else:
                del out[at]
    return bytes(out)


def _source_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "source.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Email", "Category"])
            writer.writerows([sample.text, sample.label.name] for sample in _SAMPLES)
        return path.read_bytes()


def _split_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "train.csv"
        save_split_csv(Corpus.from_samples(_SAMPLES), path, "train")
        return path.read_bytes()


SOURCE = _source_bytes()
SPLIT = _split_bytes()


def _loads_or_rejects(reader, data: bytes) -> None:
    """reader(path) -> Corpus must raise InputError or give well-typed samples."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "input.csv"
        path.write_bytes(data)
        try:
            corpus = reader(path)
        except InputError:
            return
    for sample in corpus.samples:
        assert isinstance(sample.text, str) and isinstance(sample.source_id, str)
        assert isinstance(sample.label, Label) and isinstance(sample.row_index, int)


def test_unmutated_files_load():
    with tempfile.TemporaryDirectory() as folder:
        source, split = Path(folder) / "source.csv", Path(folder) / "train.csv"
        source.write_bytes(SOURCE)
        split.write_bytes(SPLIT)
        assert load_csv(source)[0].samples == [
            LabeledEmail(s.text, s.label, "source", s.row_index) for s in _SAMPLES
        ]
        assert read_split_csv(split).samples == _SAMPLES


@given(edits=_EDITS)
def test_mutated_source_csv_loads_or_raises_input_error(edits):
    _loads_or_rejects(lambda path: load_csv(path)[0], _mutate(SOURCE, edits))


@given(edits=_EDITS)
def test_mutated_split_csv_loads_or_raises_input_error(edits):
    _loads_or_rejects(read_split_csv, _mutate(SPLIT, edits))


@given(edits=_EDITS)
def test_prepare_on_a_mutated_source_exits_ok_or_input(edits):
    with tempfile.TemporaryDirectory() as folder:
        source = Path(folder) / "mail.csv"
        source.write_bytes(_mutate(SOURCE, edits))
        config = Path(folder) / "config.json"
        config.write_text(
            json.dumps({"data": {"sources": [{"path": str(source)}]},
                        "output_dir": str(Path(folder) / "out")}),
            encoding="utf-8",
        )
        assert main(["prepare", "--config", str(config)]) in (EXIT_OK, EXIT_INPUT)
