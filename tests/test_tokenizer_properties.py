"""Property tests: the tokenizer's fast paths against the slow references.

The library splits text into pieces with a regex; ``oracles.pieces_by_class``
does it one character at a time. Training is checked against
``oracles.naive_bpe_merges`` (a full pair recount every round) over the
oracle's pieces, and encoding against ``oracles.replay_merges`` (one whole
pass per learned merge) and ``oracles.lowest_rank_merges`` (a whole rescan
per merge step). Generated corpora mix repeated characters, duplicate
documents, NFC/NFD spellings of one character, 1- to 4-byte UTF-8 and
spaces. Long texts, up to hundreds of bytes against a max_len of at most 40,
make encode stop early; the oracles merge the whole text and truncate.
"""

import itertools
import unicodedata

import pytest

from hypothesis import given
from hypothesis import strategies as st

from ipsdm.corpus import Corpus, Label, LabeledEmail
from ipsdm.tokenizer import (
    FIRST_MERGE_ID,
    WORD_CACHE_SIZE,
    Vocabulary,
    decode,
    encode,
    split_pieces,
    train_vocab,
)

from oracles import (
    corpus_pieces,
    lowest_rank_merges,
    naive_bpe_merges,
    pieces_by_class,
    replay_merges,
    replay_pieces,
)

# "é" spelled composed and decomposed, plus 1-, 2-, 3- and 4-byte characters
# and runs of one character, whose pairs overlap ("aaaa" holds (a, a) three
# times but merges it twice).
PIECES = ["a", "b", "ab", " ", "aaaa", "é", "é", "ß", "日", "\U0001f4b0"]

texts = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)
long_texts = st.lists(st.sampled_from(PIECES), min_size=40, max_size=300).map("".join)


@st.composite
def corpora(draw):
    distinct = draw(st.lists(texts, min_size=1, max_size=6))
    duplicates = draw(st.lists(st.sampled_from(distinct), max_size=3))
    return distinct + duplicates


def _corpus(lines):
    return Corpus.from_samples(
        [LabeledEmail(t, Label.ham, "test", i) for i, t in enumerate(lines)]
    )


def _nfc_bytes(text: str) -> bytes:
    return unicodedata.normalize("NFC", text).encode("utf-8")


def _ids(vocab: Vocabulary, tokens: list[bytes]) -> list[int]:
    return [vocab.token_to_id[t] for t in tokens]


@given(lines=corpora(), budget=st.integers(1, 40))
def test_training_matches_full_recount(lines, budget):
    vocab = train_vocab(_corpus(lines), vocab_size=FIRST_MERGE_ID + budget)
    assert vocab.merges == naive_bpe_merges(corpus_pieces(lines), budget)


@given(
    lines=corpora(),
    budget=st.integers(1, 40),
    samples=st.lists(
        texts | st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
        min_size=1,
        max_size=4,
    ),
    max_len=st.integers(2, 40),
)
def test_encode_matches_replay_of_learned_merges(lines, budget, samples, max_len):
    vocab = train_vocab(_corpus(lines), vocab_size=FIRST_MERGE_ID + budget)
    for text in lines + samples:
        expected = _ids(vocab, replay_merges(vocab.merges, _nfc_bytes(text)))
        seq = encode(vocab, text, max_len=max_len)
        assert seq.content_ids == expected[: max_len - 2]
        assert seq.true_length == len(seq.content_ids) + 2


@given(lines=corpora(), budget=st.integers(1, 40), text=long_texts, max_len=st.integers(2, 40))
def test_encode_of_a_long_text_is_the_replay_truncated(lines, budget, text, max_len):
    vocab = train_vocab(_corpus(lines), vocab_size=FIRST_MERGE_ID + budget)
    expected = _ids(vocab, replay_pieces(vocab.merges, text))
    assert encode(vocab, text, max_len=max_len).content_ids == expected[: max_len - 2]


@st.composite
def merge_lists(draw):
    """Merge lists a loaded vocab.json may hold: each side is a byte or an
    earlier merge's token, but ranks need not follow the order in which
    tokens build on each other, and one token may be built twice."""
    tokens = [b"a", b"b", b"c"]
    merges = []
    for _ in range(draw(st.integers(0, 8))):
        pair = (draw(st.sampled_from(tokens)), draw(st.sampled_from(tokens)))
        merges.append(pair)
        tokens.append(pair[0] + pair[1])
    return merges


@given(merges=merge_lists(), text=st.text("abc", max_size=20))
def test_encode_matches_lowest_rank_rescan_on_any_merge_list(merges, text):
    vocab = Vocabulary.from_merges(merges)
    expected = _ids(vocab, lowest_rank_merges(merges, text.encode()))
    assert encode(vocab, text, max_len=32).content_ids == expected


@given(
    merges=merge_lists(),
    text=st.text("abc", min_size=40, max_size=300),
    max_len=st.integers(2, 40),
)
def test_encode_of_a_long_text_is_the_lowest_rank_rescan_truncated(merges, text, max_len):
    vocab = Vocabulary.from_merges(merges)
    expected = _ids(vocab, lowest_rank_merges(merges, text.encode()))
    assert encode(vocab, text, max_len=max_len).content_ids == expected[: max_len - 2]


def test_hand_made_merge_list_on_every_short_text():
    merges = [(b"b", b"c"), (b"a", b"bc"), (b"a", b"b"), (b"ab", b"c")]
    vocab = Vocabulary.from_merges(merges)
    for n in range(7):
        for letters in itertools.product("abc", repeat=n):
            data = "".join(letters).encode()
            seq = encode(vocab, data.decode(), max_len=16)
            assert seq.content_ids == _ids(vocab, lowest_rank_merges(merges, data))
            assert seq.content_ids == _ids(vocab, replay_merges(merges, data))


def test_pair_ranked_below_the_merge_that_formed_it_still_merges():
    # (cc, c) at rank 3 forms (ccc, b), whose rule has rank 2. Replaying the
    # list in order passes rank 2 before that pair exists; encode merges by
    # lowest rank present, so it merges the pair once it forms.
    merges = [(b"c", b"c"), (b"c", b"cc"), (b"ccc", b"b"), (b"cc", b"c")]
    vocab = Vocabulary.from_merges(merges)
    assert replay_merges(merges, b"cccb") == [b"ccc", b"b"]
    assert encode(vocab, "cccb", max_len=8).content_ids == [vocab.token_to_id[b"cccb"]]


def test_pairs_a_rank_forms_wait_until_all_its_occurrences_merge():
    # (ab, c) at rank 4 occurs twice in "ab c ab c". Merging the first forms
    # (abc, ab), whose rule has rank 3; it must not merge before the second
    # (ab, c) does, as one rescan pass of rank 4 would merge both.
    merges = [(b"a", b"b"), (b"b", b"c"), (b"a", b"bc"), (b"abc", b"ab"), (b"ab", b"c")]
    vocab = Vocabulary.from_merges(merges)
    assert lowest_rank_merges(merges, b"abcabc") == [b"abc", b"abc"]
    assert encode(vocab, "abcabc", max_len=8).content_ids == [vocab.token_to_id[b"abc"]] * 2


def test_repeated_rule_keeps_its_first_rank_and_last_id():
    # (a, b) at rank 0 outranks (b, c) at rank 1, although it repeats at
    # rank 2; the token it builds has the later id, 262, and 260 never
    # appears in an encoding.
    merges = [(b"a", b"b"), (b"b", b"c"), (b"a", b"b")]
    vocab = Vocabulary.from_merges(merges)
    seq = encode(vocab, "abc", max_len=8)
    assert seq.content_ids == [FIRST_MERGE_ID + 2, vocab.token_to_id[b"c"]]
    assert decode(vocab, seq.ids) == "abc"


# ---------------------------------------------------------------------------
# pieces and the word cache

# One character or more of every class the split tells apart: letters in 1-
# to 4-byte UTF-8 ("é" composed and decomposed, a lone combining accent),
# decimal and other digits, "_" and punctuation, tabs, CR/LF, a no-break
# space and runs of spaces.
piece_texts = st.lists(
    st.sampled_from(["a", "Zz", "é", "é", "ß", "日本", "\U0001f4b0", "7", "٣", "²", "_", ".",
                     "!?", " ", "  ", "\t", "\r\n", "\n", "\u00a0", "\u0301"]),
    max_size=16,
).map("".join) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)


@given(text=piece_texts)
def test_pieces_concatenate_back_to_the_text(text):
    pieces = split_pieces(text)
    assert "".join(pieces) == unicodedata.normalize("NFC", text)
    assert all(pieces)
    assert [piece.encode("utf-8") for piece in pieces] == pieces_by_class(text)


@given(lines=st.lists(piece_texts, min_size=1, max_size=6), budget=st.integers(1, 60))
def test_a_learned_token_holds_a_space_only_as_its_first_byte(lines, budget):
    vocab = train_vocab(_corpus(lines * 2), vocab_size=FIRST_MERGE_ID + budget)
    for left, right in vocab.merges:
        assert b" " not in (left + right)[1:]


@given(
    lines=corpora(),
    budget=st.integers(1, 40),
    requests=st.lists(st.tuples(texts | long_texts, st.integers(2, 40)), min_size=1, max_size=6),
)
def test_encode_gives_the_same_ids_from_a_cold_and_a_warm_cache(lines, budget, requests):
    # Each text again at the largest max_len: a word cut short by a small
    # one must not come back from the cache cut short.
    requests += [(text, 40) for text, _ in requests]
    vocab = train_vocab(_corpus(lines), vocab_size=FIRST_MERGE_ID + budget)
    warm = [encode(vocab, text, max_len).ids for text, max_len in requests]
    cold = [encode(Vocabulary.from_merges(vocab.merges), text, max_len).ids
            for text, max_len in requests]
    assert warm == cold


def test_the_word_cache_never_exceeds_its_bound():
    vocab = Vocabulary.from_merges([(b"w", b"o"), (b" ", b"wo")])
    largest = 0
    for i in range(WORD_CACHE_SIZE // 2 + 100):  # two new words a text
        text = f"wo{i} wo{i}x"
        assert encode(vocab, text, max_len=16).ids == encode(
            Vocabulary.from_merges(vocab.merges), text, max_len=16).ids
        largest = max(largest, len(vocab.word_cache))
        assert largest <= WORD_CACHE_SIZE
    assert largest == WORD_CACHE_SIZE
    long_word = "wo" * 17
    encode(vocab, long_word, max_len=64)
    assert long_word not in vocab.word_cache


@pytest.mark.parametrize("max_len, merged", [
    (2, {""}), (3, {"", " a"}), (5, {"", " a", " b"}), (40, {"", " a", " b", " c"}),
])
def test_encode_merges_no_word_past_the_window(max_len, merged):
    vocab = Vocabulary.from_merges([(b" ", b"a")])
    text = " a a b c"
    seq = encode(vocab, text, max_len=max_len)
    assert seq.content_ids == _ids(vocab, replay_pieces(vocab.merges, text))[: max_len - 2]
    assert set(vocab.word_cache) == merged
