"""Tokenizer tests: merge learning, fixed-length encoding, persistence.

The merge-learning tests lean on ``oracles.naive_bpe_merges``, which recounts
every pair from scratch each round instead of maintaining incremental
counts, over the pieces of ``oracles.pieces_by_class``, a character loop
instead of the library's regex, so the two routes share no code.
"""

import json
import re
import unicodedata

import pytest

from ipsdm.corpus import Corpus, Label, LabeledEmail
from ipsdm.errors import CorruptFile, UnknownId, VocabTooSmall
from ipsdm.tokenizer import (
    BYTE_BASE,
    CLS_ID,
    FIRST_MERGE_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    VOCAB_FORMAT,
    Vocabulary,
    decode,
    encode,
    load_vocab,
    save_vocab,
    train_vocab,
    vocab_from_json,
    vocab_sha256,
    vocab_to_json,
)

from oracles import corpus_pieces, naive_bpe_merges


def _corpus(texts):
    samples = [
        LabeledEmail(text=t, label=Label.ham, source_id="test", row_index=i)
        for i, t in enumerate(texts)
    ]
    return Corpus.from_samples(samples)


# Twenty short lines with deliberately repetitive substrings so the merge
# learner has real structure to find.  Frozen: the oracle comparison relies
# on this exact content.
TRAIN_LINES = [
    "win a free prize now",
    "free prize inside claim now",
    "your account needs verification",
    "verify your account password",
    "meeting notes attached below",
    "see attached meeting agenda",
    "claim your free cash prize",
    "urgent verify account now",
    "lunch meeting tomorrow noon",
    "the agenda for tomorrow",
    "cash prize winner announced",
    "password reset for your account",
    "free cash offer expires",
    "the offer expires tomorrow",
    "notes from the meeting",
    "winner claim prize here",
    "verification needed urgent",
    "reset your password now",
    "agenda attached see notes",
    "announced the cash winner",
]

ROUND_TRIP_TEXTS = [
    "plain ascii text",
    "MIXED Case Words",
    "digits 0123456789 and punct !?@#$%",
    "café naïve résumé",
    "straße über größe",
    "日本語のテキスト",
    "привет мир",
    "emoji bait \U0001f3a3 \U0001f4b0 \U0001f512",
    "tabs\tand\nnewlines",
    "  leading and trailing  ",
    "a",
    "repeated repeated repeated repeated",
]


@pytest.fixture(scope="module")
def trained():
    return train_vocab(_corpus(TRAIN_LINES), vocab_size=300)


@pytest.fixture(scope="module")
def base_vocab():
    # Bytes only, no learned merges.
    return Vocabulary.from_merges([])


# ---------------------------------------------------------------------------
# id layout


def test_special_id_layout():
    assert (CLS_ID, SEP_ID, PAD_ID, UNK_ID) == (0, 1, 2, 3)
    assert BYTE_BASE == 4
    assert FIRST_MERGE_ID == 260


def test_byte_ids_offset_by_specials(base_vocab):
    for b in (0, 65, 255):
        assert base_vocab.token_to_id[bytes([b])] == BYTE_BASE + b
    assert base_vocab.size == 260


def test_merge_ids_assigned_in_learned_order(trained):
    for rank, (left, right) in enumerate(trained.merges):
        merged_id = FIRST_MERGE_ID + rank
        assert trained.id_to_token[merged_id] == left + right
        assert trained.token_to_id[left + right] == merged_id


def test_token_maps_are_inverse(trained):
    for token, token_id in trained.token_to_id.items():
        assert trained.id_to_token[token_id] == token
    assert len(trained.token_to_id) == len(trained.id_to_token)


# ---------------------------------------------------------------------------
# merge learning


def test_single_repeated_pair_learns_one_merge():
    # "aaaa" lines: the only pair is (a, a); with room for exactly one
    # learned token that is the whole vocabulary growth.
    vocab = train_vocab(_corpus(["aaaa"] * 5), vocab_size=261)
    assert vocab.merges == [(b"a", b"a")]
    assert vocab.size == 261


def test_vocab_size_at_or_below_base_rejected():
    corpus = _corpus(["some text"])
    for too_small in (260, 259, 4, 0):
        with pytest.raises(VocabTooSmall):
            train_vocab(corpus, vocab_size=too_small)


def test_no_pairs_yields_zero_merges():
    # Single-character documents have no adjacent pairs at all.
    vocab = train_vocab(_corpus(["a", "b", "c"]), vocab_size=500)
    assert vocab.merges == []
    assert vocab.size == 260


def test_stops_below_min_pair_frequency():
    # Every adjacent pair occurs exactly once, so nothing is frequent
    # enough to merge no matter how much head-room the budget leaves.
    vocab = train_vocab(_corpus(["abcdef"]), vocab_size=1000)
    assert vocab.merges == []


def test_merges_match_full_recount_oracle():
    budget = 40
    vocab = train_vocab(_corpus(TRAIN_LINES), vocab_size=260 + budget)
    expected = naive_bpe_merges(corpus_pieces(TRAIN_LINES), max_merges=budget)
    assert vocab.merges == expected


def test_merges_match_oracle_with_multibyte_text():
    lines = ["café café café", "élève élève", "tea café"]
    vocab = train_vocab(_corpus(lines), vocab_size=290)
    expected = naive_bpe_merges(corpus_pieces(lines), max_merges=30)
    assert vocab.merges == expected


def test_training_is_deterministic():
    a = train_vocab(_corpus(TRAIN_LINES), vocab_size=320)
    b = train_vocab(_corpus(TRAIN_LINES), vocab_size=320)
    assert a.merges == b.merges


def test_budget_caps_merge_count():
    small = train_vocab(_corpus(TRAIN_LINES), vocab_size=265)
    assert len(small.merges) == 5
    larger = train_vocab(_corpus(TRAIN_LINES), vocab_size=275)
    assert larger.merges[:5] == small.merges


# ---------------------------------------------------------------------------
# encode


def test_encode_empty_string(base_vocab):
    seq = encode(base_vocab, "", max_len=8)
    assert seq.ids == [CLS_ID, SEP_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]
    assert seq.true_length == 2
    assert seq.content_ids == []


def test_encode_plain_bytes(base_vocab):
    seq = encode(base_vocab, "hi", max_len=6)
    assert seq.ids[:4] == [CLS_ID, BYTE_BASE + ord("h"), BYTE_BASE + ord("i"), SEP_ID]
    assert seq.ids[4:] == [PAD_ID, PAD_ID]
    assert seq.content_ids == [BYTE_BASE + ord("h"), BYTE_BASE + ord("i")]


def test_encode_framing_invariants(trained):
    """First id is always cls, the id at true_length-1 is always sep, and
    every id past true_length is padding."""
    for text in ROUND_TRIP_TEXTS + TRAIN_LINES:
        seq = encode(trained, text, max_len=64)
        assert len(seq.ids) == 64
        assert seq.ids[0] == CLS_ID
        assert seq.ids[seq.true_length - 1] == SEP_ID
        assert all(i == PAD_ID for i in seq.ids[seq.true_length :])


def test_encode_truncates_to_max_len(base_vocab):
    seq = encode(base_vocab, "x" * 100, max_len=16)
    assert seq.true_length == 16
    assert seq.ids[-1] == SEP_ID
    assert len(seq.content_ids) == 14


def test_truncated_content_is_byte_prefix(trained):
    """Truncation cuts at a token boundary, so the kept tokens spell out a
    prefix of the original byte sequence."""
    text = "free cash prize winner verify your account now " * 4
    seq = encode(trained, text, max_len=20)
    kept = b"".join(trained.id_to_token[i] for i in seq.content_ids)
    original = unicodedata.normalize("NFC", text).encode("utf-8")
    assert kept == original[: len(kept)]
    assert 0 < len(kept) < len(original)


def test_encode_rejects_tiny_max_len(base_vocab):
    with pytest.raises(ValueError):
        encode(base_vocab, "hello", max_len=1)


def test_encode_normalizes_to_nfc(base_vocab):
    composed = "café"
    decomposed = "café"
    assert composed != decomposed
    a = encode(base_vocab, composed, max_len=16)
    b = encode(base_vocab, decomposed, max_len=16)
    assert a.ids == b.ids


def test_encode_uses_merges_in_learned_order(trained):
    """Replay the merge list sequentially (left-to-right greedy scan per
    merge, in learned order) and compare with the library's encoder."""
    for text in TRAIN_LINES:
        tokens = [
            bytes([b])
            for b in unicodedata.normalize("NFC", text).encode("utf-8")
        ]
        for left, right in trained.merges:
            out = []
            i = 0
            while i < len(tokens):
                if i + 1 < len(tokens) and tokens[i] == left and tokens[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(tokens[i])
                    i += 1
            tokens = out
        expected = [trained.token_to_id[t] for t in tokens]
        seq = encode(trained, text, max_len=128)
        assert seq.content_ids == expected


# ---------------------------------------------------------------------------
# decode


def test_decode_specials_only_is_empty(base_vocab):
    assert decode(base_vocab, [CLS_ID, SEP_ID]) == ""
    assert decode(base_vocab, [CLS_ID, SEP_ID, PAD_ID, PAD_ID]) == ""


def test_decode_unknown_id(trained):
    with pytest.raises(UnknownId):
        decode(trained, [CLS_ID, trained.size + 100, SEP_ID])


def test_round_trip_byte_for_byte(trained, base_vocab):
    for vocab in (trained, base_vocab):
        for text in ROUND_TRIP_TEXTS + TRAIN_LINES:
            seq = encode(vocab, text, max_len=256)
            assert seq.true_length <= 256
            assert decode(vocab, seq.ids) == unicodedata.normalize("NFC", text)


def test_round_trip_large_fixture(trained):
    # ~100 generated lines mixing scripts, digits, and emoji.
    pieces = ROUND_TRIP_TEXTS + TRAIN_LINES
    texts = [
        f"{pieces[i % len(pieces)]} #{i} {pieces[(i * 7 + 3) % len(pieces)]}"
        for i in range(100)
    ]
    for text in texts:
        seq = encode(trained, text, max_len=512)
        assert decode(trained, seq.ids) == unicodedata.normalize("NFC", text)


# ---------------------------------------------------------------------------
# persistence


def test_json_document_shape(trained):
    doc = json.loads(vocab_to_json(trained))
    assert set(doc) == {"format", "merges", "special", "vocab_size"}
    assert doc["format"] == VOCAB_FORMAT
    assert doc["special"] == {"cls_id": 0, "sep_id": 1, "pad_id": 2, "unk_id": 3}
    assert doc["vocab_size"] == trained.size
    assert len(doc["merges"]) == len(trained.merges)
    for left, right in doc["merges"]:
        assert isinstance(left, str) and isinstance(right, str)


def test_json_round_trip_reproduces_encodings(trained):
    restored = vocab_from_json(vocab_to_json(trained))
    assert restored.merges == trained.merges
    assert restored.size == trained.size
    for text in ROUND_TRIP_TEXTS:
        assert encode(restored, text, max_len=64).ids == encode(trained, text, max_len=64).ids


def test_save_load_file_round_trip(trained, tmp_path):
    path = tmp_path / "vocab.json"
    save_vocab(trained, path)
    restored = load_vocab(path)
    assert restored.merges == trained.merges
    assert vocab_sha256(restored) == vocab_sha256(trained)


def test_vocab_sha256_distinguishes_vocabs(trained, base_vocab):
    h_trained = vocab_sha256(trained)
    h_base = vocab_sha256(base_vocab)
    assert len(h_trained) == 64
    assert set(h_trained) <= set("0123456789abcdef")
    assert h_trained != h_base
    # Stable across independent retraining.
    again = train_vocab(_corpus(TRAIN_LINES), vocab_size=300)
    assert vocab_sha256(again) == h_trained


# ---------------------------------------------------------------------------
# loading checks


def _vocab_doc(pairs, **overrides):
    doc = {
        "merges": pairs,
        "special": {"cls_id": 0, "sep_id": 1, "pad_id": 2, "unk_id": 3},
        "vocab_size": 260 + len(pairs),
        "format": VOCAB_FORMAT,
    }
    doc.update(overrides)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "not JSON"),
        ('{"merges": 5}', "keys"),
        ("[]", "keys"),
        (_vocab_doc([], extra=1), "keys"),
        (_vocab_doc([], merges=5), "merges must be a list"),
        (_vocab_doc([["a"]]), "merge 0: expected two strings"),
        (_vocab_doc([["a", "b"], [1, 2]]), "merge 1: expected two strings"),
        (_vocab_doc([["ā", "b"]]), "merge 0: ['ā', 'b'] is not a latin-1"),
        (_vocab_doc([["a", "b"], ["zz", "b"]]), "merge 1: b'zz' is neither"),
        (_vocab_doc([["a", ""]]), "merge 0: b'' is neither"),
        (_vocab_doc([["ab", "c"], ["a", "b"]]), "merge 0: b'ab' is neither"),
        (_vocab_doc([["a", "b"]], vocab_size=999), "vocab_size is 999, but 1 merges make 261"),
        (_vocab_doc([["a", "b"]], vocab_size="261"), "vocab_size is '261'"),
        (_vocab_doc([], special={"cls_id": 9}), "special must be"),
        (_vocab_doc([], format="ipsdm-bpe-0"), "format must be 'ipsdm-bpe-pieces-1'"),
        (_vocab_doc([], format=None), "format must be"),
    ],
)
def test_malformed_vocab_json_raises_corrupt_file(text, message):
    with pytest.raises(CorruptFile) as caught:
        vocab_from_json(text, source="bad.json")
    assert str(caught.value).startswith("bad.json: ")
    assert message in str(caught.value)


def test_a_vocabulary_learned_across_spaces_is_refused(tmp_path):
    """A vocab.json without the format field comes from the byte-level
    trainer that merged across spaces; it does not load."""
    path = tmp_path / "old.json"
    old = json.loads(_vocab_doc([["e", " "], ["e ", "a"]]))
    del old["format"]
    path.write_text(json.dumps(old), encoding="utf-8")
    with pytest.raises(CorruptFile) as caught:
        load_vocab(path)
    assert str(caught.value).startswith(f"{path}: no format field")
    assert "run `ipsdm tokenizer-train` again" in str(caught.value)


def test_merge_sides_may_be_any_earlier_token():
    vocab = vocab_from_json(_vocab_doc([["a", "b"], ["c", "ab"], ["cab", "cab"]]))
    assert vocab.merges == [(b"a", b"b"), (b"c", b"ab"), (b"cab", b"cab")]
    assert encode(vocab, "cabcab", max_len=4).content_ids == [FIRST_MERGE_ID + 2]


def test_load_vocab_names_the_file(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(_vocab_doc([["a", "b"], ["zz", "b"]]), encoding="utf-8")
    with pytest.raises(CorruptFile, match=re.escape(f"{path}: merge 1: ")):
        load_vocab(path)
    path.write_bytes(b'{"merges": [["\xe9"]]}')
    with pytest.raises(CorruptFile, match=re.escape(f"{path}: not UTF-8 text")):
        load_vocab(path)
