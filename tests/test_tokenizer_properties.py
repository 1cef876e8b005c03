"""Property tests: the tokenizer's fast paths against the slow references.

Training is checked against ``oracles.naive_bpe_merges`` (a full pair recount
every round) and encoding against ``oracles.replay_merges`` (one whole pass
per learned merge) and ``oracles.lowest_rank_merges`` (a whole rescan per
merge step). Generated corpora mix repeated characters, duplicate documents,
NFC/NFD spellings of one character and 1- to 4-byte UTF-8. Long texts, up to
hundreds of bytes against a max_len of at most 40, make encode merge them in
several chunks between cut points and stop early; the oracles merge the whole
text and truncate.
"""

import itertools
import unicodedata

from hypothesis import given
from hypothesis import strategies as st

from ipsdm import tokenizer
from ipsdm.corpus import Corpus, Label, LabeledEmail
from ipsdm.tokenizer import FIRST_MERGE_ID, Vocabulary, decode, encode, train_vocab

from oracles import byte_pairs_inside, lowest_rank_merges, naive_bpe_merges, replay_merges

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
    assert vocab.merges == naive_bpe_merges([_nfc_bytes(t) for t in lines], budget)


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
    expected = _ids(vocab, replay_merges(vocab.merges, _nfc_bytes(text)))
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


@given(merges=merge_lists() | corpora().map(
    lambda lines: train_vocab(_corpus(lines), vocab_size=FIRST_MERGE_ID + 40).merges))
def test_joinable_holds_exactly_the_byte_pairs_inside_tokens(merges):
    vocab = Vocabulary.from_merges(merges)
    joinable = {(i >> 8, i & 0xFF) for i, flag in enumerate(vocab.joinable) if flag}
    assert joinable == byte_pairs_inside(vocab.token_to_id)


def test_a_cut_point_on_the_chunk_end_and_beside_it(monkeypatch):
    # Every byte pair of "a" and "b" has a rule's junction except (b, b), so
    # "bb" holds the text's only cut point; around it, a chunk that ended
    # early would split "aaaa" or "aba". The cut moves across each chunk
    # end; with it at byte max_len - 2 the first chunk ends exactly there.
    merges = [(b"a", b"a"), (b"a", b"b"), (b"b", b"a"), (b"aa", b"aa"), (b"ab", b"a")]
    vocab = Vocabulary.from_merges(merges)
    chunks = []
    apply_merges = tokenizer._apply_merges
    monkeypatch.setattr(tokenizer, "_apply_merges",
                        lambda v, ids: chunks.append(len(ids)) or apply_merges(v, ids))
    for cut in range(1, 12):
        data = (b"aaab" * 3)[-cut:] + b"baaa" * 3
        assert data[cut - 1 : cut + 1] == b"bb" and data.count(b"bb") == 1
        expected = _ids(vocab, lowest_rank_merges(merges, data))
        for max_len in range(2, len(data) + 4):
            chunks.clear()
            seq = encode(vocab, data.decode(), max_len=max_len)
            assert seq.content_ids == expected[: max_len - 2]
            if max_len - 2 == cut:
                assert chunks[0] == cut


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
