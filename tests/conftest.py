"""Shared fixtures: synthetic keyword-separable corpora.

Each class owns a disjoint keyword set; filler words are shared. Because the
sets are disjoint, a trivial keyword rule labels every generated text with
100% accuracy, which gives an independent check that the corpus really is
separable before any model is trained on it.
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import settings

from ipsdm.corpus import Corpus, Label, LabeledEmail

HAM_WORDS = ["meeting", "schedule", "report", "lunch", "project", "minutes", "agenda", "invoice"]
SPAM_WORDS = ["free", "winner", "cash", "prize", "offer", "discount", "deal", "bonus"]
PHISHING_WORDS = ["verify", "account", "password", "login", "urgent", "suspended", "confirm", "bank"]
FILLER_WORDS = ["the", "and", "please", "today", "now", "your", "this", "for"]

# Property tests draw the same examples on every run and never time out, so a
# slow, shared machine cannot make them flaky. No example database is kept,
# but a failing property still makes hypothesis's pytest plugin write a
# .hypothesis/patches/<date>--<hash>.patch into the working directory.
settings.register_profile("ipsdm", deadline=None, derandomize=True, database=None, max_examples=200)
settings.load_profile("ipsdm")

_CLASS_WORDS = {
    Label.ham: HAM_WORDS,
    Label.spam: SPAM_WORDS,
    Label.phishing: PHISHING_WORDS,
}


def keyword_label(text: str) -> Label:
    """Independent labeling rule: the class whose keywords appear wins."""
    words = set(text.split())
    hits = [label for label, vocab in _CLASS_WORDS.items() if words & set(vocab)]
    if len(hits) != 1:
        raise ValueError(f"text not separable: {text!r} matches {hits}")
    return hits[0]


def make_separable_corpus(
    counts: dict[Label, int], seed: int = 0, min_words: int = 4, max_words: int = 9
) -> Corpus:
    rng = np.random.default_rng(seed)
    samples = []
    row = 0
    for label in Label:
        vocab = _CLASS_WORDS[label]
        for _ in range(counts.get(label, 0)):
            n_key = int(rng.integers(min_words, max_words))
            words = [vocab[int(rng.integers(len(vocab)))] for _ in range(n_key)]
            words += [FILLER_WORDS[int(rng.integers(len(FILLER_WORDS)))] for _ in range(3)]
            rng.shuffle(words)
            samples.append(LabeledEmail(" ".join(words), label, "synthetic", row))
            row += 1
    return Corpus.from_samples(samples)


def rewrite_checkpoint(src, dst, edit_tensors=None, edit_header=None) -> None:
    """Copy a checkpoint file with its tensors and then its header edited in
    place, and a CRC that matches again, so that only the checks on the
    content can reject it. The tensor table is rebuilt from the tensors
    before edit_header runs."""
    data = src.read_bytes()
    (head_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + head_len])
    tensors, offset = {}, 12 + head_len
    for entry in header["tensors"]:
        nbytes = 4 * int(np.prod(entry["shape"]))
        tensors[entry["name"]] = np.frombuffer(data[offset : offset + nbytes], "<f4").reshape(
            entry["shape"])
        offset += nbytes
    if edit_tensors is not None:
        edit_tensors(tensors)
    header["tensors"] = [{"name": k, "shape": list(v.shape)} for k, v in tensors.items()]
    if edit_header is not None:
        edit_header(header)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = data[:8] + struct.pack("<I", len(head)) + head + b"".join(
        np.ascontiguousarray(t, dtype="<f4").tobytes() for t in tensors.values())
    dst.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


@pytest.fixture
def tiny_corpus() -> Corpus:
    """12 short samples, 4 per class."""
    return make_separable_corpus(
        {Label.ham: 4, Label.spam: 4, Label.phishing: 4}, seed=5
    )


@pytest.fixture
def imbalanced_corpus() -> Corpus:
    """30/20/10 split across ham/spam/phishing."""
    return make_separable_corpus(
        {Label.ham: 30, Label.spam: 20, Label.phishing: 10}, seed=7
    )
