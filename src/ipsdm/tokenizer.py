"""Byte-level BPE: learn a sub-word vocabulary and encode text to fixed-length
token-id sequences with special tokens.

The id space is laid out as [specials][256 byte tokens][learned merges], so
special ids stay below every learned-token id. Unknown bytes cannot occur at
byte level; the unk id exists for interface completeness only.
"""

import hashlib
import heapq
import json
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus
from .errors import UnknownId, VocabTooSmall

CLS_ID = 0
SEP_ID = 1
PAD_ID = 2
UNK_ID = 3
NUM_SPECIALS = 4
BYTE_BASE = NUM_SPECIALS  # byte b has id BYTE_BASE + b
FIRST_MERGE_ID = BYTE_BASE + 256

MIN_PAIR_FREQUENCY = 2


@dataclass
class Vocabulary:
    """Ordered merge rules plus the token<->id maps they induce."""

    merges: list[tuple[bytes, bytes]]
    token_to_id: dict[bytes, int]
    id_to_token: dict[int, bytes]
    cls_id: int = CLS_ID
    sep_id: int = SEP_ID
    pad_id: int = PAD_ID
    unk_id: int = UNK_ID

    @property
    def size(self) -> int:
        return NUM_SPECIALS + len(self.id_to_token)

    @classmethod
    def from_merges(cls, merges: list[tuple[bytes, bytes]]) -> "Vocabulary":
        token_to_id = {bytes([b]): BYTE_BASE + b for b in range(256)}
        id_to_token = {i: t for t, i in token_to_id.items()}
        next_id = FIRST_MERGE_ID
        for left, right in merges:
            token = left + right
            token_to_id[token] = next_id
            id_to_token[next_id] = token
            next_id += 1
        return cls(merges=list(merges), token_to_id=token_to_id, id_to_token=id_to_token)


@dataclass
class TokenSequence:
    """Fixed-length id sequence: [cls] content [sep] [pad...]."""

    ids: list[int]
    attention_mask: list[int]
    true_length: int

    @property
    def content_ids(self) -> list[int]:
        return self.ids[1 : self.true_length - 1]


def _text_to_byte_ids(text: str) -> list[int]:
    data = unicodedata.normalize("NFC", text).encode("utf-8")
    return [BYTE_BASE + b for b in data]


def check_vocab_size(vocab_size: int) -> None:
    if vocab_size <= 256 + NUM_SPECIALS:
        raise VocabTooSmall(
            f"vocab_size must exceed {256 + NUM_SPECIALS}, got {vocab_size}"
        )


def train_vocab(corpus: Corpus, vocab_size: int) -> Vocabulary:
    """Learn byte-level BPE merges from a training corpus.

    Merges are chosen greedily by highest adjacent-pair frequency until
    vocab_size is reached or no pair occurs at least twice; frequency ties
    break on lexicographic (left bytes, right bytes) order. Call this on the
    train split only.
    """
    check_vocab_size(vocab_size)
    target_merges = vocab_size - 256 - NUM_SPECIALS

    docs = [_text_to_byte_ids(s.text) for s in corpus.samples]
    docs = [d for d in docs if len(d) >= 2]

    token_bytes: dict[int, bytes] = {BYTE_BASE + b: bytes([b]) for b in range(256)}
    pair_counts: Counter = Counter()
    pair_docs: defaultdict = defaultdict(set)
    for doc_index, doc in enumerate(docs):
        for pair in zip(doc, doc[1:]):
            pair_counts[pair] += 1
            pair_docs[pair].add(doc_index)

    # Max-heap with lazy deletion; entries are re-pushed whenever a pair's
    # count changes, and stale entries are discarded on pop.
    heap: list = []

    def push(pair) -> None:
        count = pair_counts.get(pair, 0)
        if count >= MIN_PAIR_FREQUENCY:
            heapq.heappush(
                heap, (-count, token_bytes[pair[0]], token_bytes[pair[1]], pair)
            )

    for pair in pair_counts:
        push(pair)

    merges: list[tuple[bytes, bytes]] = []
    next_id = FIRST_MERGE_ID
    while len(merges) < target_merges and heap:
        neg_count, _, _, pair = heapq.heappop(heap)
        if pair_counts.get(pair, 0) != -neg_count:
            continue  # stale entry
        left, right = pair
        merges.append((token_bytes[left], token_bytes[right]))
        token_bytes[next_id] = token_bytes[left] + token_bytes[right]

        changed: set = set()
        for doc_index in sorted(pair_docs.pop(pair, ())):
            doc = docs[doc_index]
            for old_pair in zip(doc, doc[1:]):
                pair_counts[old_pair] -= 1
                changed.add(old_pair)
            merged = _merge_in_place(doc, left, right, next_id)
            docs[doc_index] = merged
            for new_pair in zip(merged, merged[1:]):
                pair_counts[new_pair] += 1
                pair_docs[new_pair].add(doc_index)
                changed.add(new_pair)
        for changed_pair in changed:
            if pair_counts.get(changed_pair, 0) <= 0:
                pair_counts.pop(changed_pair, None)
            else:
                push(changed_pair)
        next_id += 1

    return Vocabulary.from_merges(merges)


def _merge_in_place(doc: list[int], left: int, right: int, new_id: int) -> list[int]:
    out = []
    i = 0
    n = len(doc)
    while i < n:
        if i + 1 < n and doc[i] == left and doc[i + 1] == right:
            out.append(new_id)
            i += 2
        else:
            out.append(doc[i])
            i += 1
    return out


def _apply_merges(vocab: Vocabulary, ids: list[int]) -> list[int]:
    # Repeatedly merging the earliest-learned pair present in the sequence is
    # equivalent to replaying the merge list in learned order.
    ranks: dict[tuple[int, int], tuple[int, int]] = {}
    for rank, (left, right) in enumerate(vocab.merges):
        pair = (vocab.token_to_id[left], vocab.token_to_id[right])
        ranks.setdefault(pair, (rank, vocab.token_to_id[left + right]))

    while len(ids) >= 2:
        best = None
        for pair in zip(ids, ids[1:]):
            entry = ranks.get(pair)
            if entry is not None and (best is None or entry[0] < best[0]):
                best = (entry[0], pair, entry[1])
        if best is None:
            break
        _, (left, right), new_id = best
        ids = _merge_in_place(ids, left, right, new_id)
    return ids


def encode(vocab: Vocabulary, text: str, max_len: int = 128) -> TokenSequence:
    """Encode text as [cls] + merged byte tokens (truncated to max_len-2) + [sep],
    padded to exactly max_len."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    content = _apply_merges(vocab, _text_to_byte_ids(text))[: max_len - 2]
    ids = [vocab.cls_id] + content + [vocab.sep_id]
    true_length = len(ids)
    ids.extend([vocab.pad_id] * (max_len - true_length))
    mask = [1] * true_length + [0] * (max_len - true_length)
    return TokenSequence(ids=ids, attention_mask=mask, true_length=true_length)


def decode(vocab: Vocabulary, ids: list[int]) -> str:
    """Strip specials, reassemble bytes, render as UTF-8 (lossy on invalid)."""
    chunks = []
    for token_id in ids:
        if token_id < NUM_SPECIALS:
            continue
        token = vocab.id_to_token.get(token_id)
        if token is None:
            raise UnknownId(f"id {token_id} is not in the vocabulary")
        chunks.append(token)
    return b"".join(chunks).decode("utf-8", errors="replace")


def vocab_to_json(vocab: Vocabulary) -> str:
    """Canonical JSON rendering; merge sides are latin-1-mapped byte strings."""
    doc = {
        "merges": [
            [left.decode("latin-1"), right.decode("latin-1")]
            for left, right in vocab.merges
        ],
        "special": {
            "cls_id": vocab.cls_id,
            "sep_id": vocab.sep_id,
            "pad_id": vocab.pad_id,
            "unk_id": vocab.unk_id,
        },
        "vocab_size": vocab.size,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def vocab_from_json(text: str) -> Vocabulary:
    doc = json.loads(text)
    merges = [
        (left.encode("latin-1"), right.encode("latin-1"))
        for left, right in doc["merges"]
    ]
    return Vocabulary.from_merges(merges)


def save_vocab(vocab: Vocabulary, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(vocab_to_json(vocab), encoding="utf-8")


def load_vocab(path) -> Vocabulary:
    return vocab_from_json(Path(path).read_text(encoding="utf-8"))


def vocab_sha256(vocab: Vocabulary) -> str:
    return hashlib.sha256(vocab_to_json(vocab).encode("utf-8")).hexdigest()
