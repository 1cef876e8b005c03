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
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Corpus
from .errors import CorruptFile, UnknownId, VocabTooSmall

CLS_ID = 0
SEP_ID = 1
PAD_ID = 2
UNK_ID = 3
NUM_SPECIALS = 4
BYTE_BASE = NUM_SPECIALS  # byte b has id BYTE_BASE + b
FIRST_MERGE_ID = BYTE_BASE + 256

MIN_PAIR_FREQUENCY = 2
DEFAULT_MAX_LEN = 128  # the pipeline's encode length unless the config sets model.max_len

_SPECIAL_IDS = {"cls_id": CLS_ID, "sep_id": SEP_ID, "pad_id": PAD_ID, "unk_id": UNK_ID}

_NONE = -1  # no neighbour, or a position whose token a merge absorbed


@dataclass
class Vocabulary:
    """Ordered merge rules plus the token<->id maps they induce. The special
    ids are the module's fixed CLS_ID, SEP_ID, PAD_ID and UNK_ID."""

    merges: list[tuple[bytes, bytes]]
    token_to_id: dict[bytes, int]
    id_to_token: dict[int, bytes]
    # (left id, right id) -> (rank, merged id) for encode: the first rank of
    # each id pair wins, and the merged id is the last one its bytes got.
    merge_table: dict[tuple[int, int], tuple[int, int]] = field(
        init=False, repr=False, compare=False
    )
    # The 256 x 256 junction table, flat: joinable[a << 8 | b] is 1 when some
    # rule's left side ends in byte a and its right side starts with byte b.
    # Only then can a merge join two tokens across the byte boundary a|b.
    joinable: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.merge_table = {}
        joinable = bytearray(256 * 256)
        for rank, (left, right) in enumerate(self.merges):
            pair = (self.token_to_id[left], self.token_to_id[right])
            self.merge_table.setdefault(pair, (rank, self.token_to_id[left + right]))
            joinable[left[-1] << 8 | right[0]] = 1
        self.joinable = bytes(joinable)

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
    """Fixed-length id sequence: [cls] content [sep] [pad...]. The first
    true_length ids are real; the model derives its key mask from that."""

    ids: list[int]
    true_length: int

    @property
    def content_ids(self) -> list[int]:
        return self.ids[1 : self.true_length - 1]


def _nfc_bytes(text: str) -> bytes:
    return unicodedata.normalize("NFC", text).encode("utf-8")


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

    Every document lives in one flat token array, linked into one list per
    document by prev/next positions. Beside the pair counts, an index holds
    the positions of each pair's occurrences; entries go stale as merges
    rewrite their neighbourhood and are checked when read. A merge visits
    only the occurrences of its own pair, left to right (an occurrence whose
    tokens an earlier, overlapping one consumed is skipped), and updates only
    the pairs each occurrence touches: (prev, left), (left, right),
    (right, next) lose one, (prev, new) and (new, next) gain one. Each merged
    occurrence removes a token, so there are at most B of them for B training
    bytes, and with the lazy max-heap that picks the next pair training costs
    O(B log B + M) for M merges, instead of a recount of every document
    holding the merged pair.
    """
    check_vocab_size(vocab_size)
    target_merges = vocab_size - 256 - NUM_SPECIALS

    ids: list[int] = []
    prev: list[int] = []
    nxt: list[int] = []
    for sample in corpus.samples:
        doc = [BYTE_BASE + b for b in _nfc_bytes(sample.text)]
        start, end = len(ids), len(ids) + len(doc)
        ids.extend(doc)
        prev.extend(range(start - 1, end - 1))
        nxt.extend(range(start + 1, end + 1))
        if doc:
            prev[start] = nxt[end - 1] = _NONE

    token_bytes: dict[int, bytes] = {BYTE_BASE + b: bytes([b]) for b in range(256)}
    pair_counts: Counter = Counter()
    occurrences: defaultdict = defaultdict(list)  # pair -> left positions, may be stale
    for pos, after in enumerate(nxt):
        if after != _NONE:
            pair = (ids[pos], ids[after])
            pair_counts[pair] += 1
            occurrences[pair].append(pos)

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

    changed: set = set()  # pairs whose count the current merge moved

    def move(old_pair, new_pair, pos) -> None:
        pair_counts[old_pair] -= 1
        pair_counts[new_pair] += 1
        occurrences[new_pair].append(pos)
        changed.add(old_pair)
        changed.add(new_pair)

    merges: list[tuple[bytes, bytes]] = []
    new_id = FIRST_MERGE_ID
    while len(merges) < target_merges and heap:
        neg_count, _, _, pair = heapq.heappop(heap)
        if pair_counts.get(pair, 0) != -neg_count:
            continue  # stale entry
        left, right = pair
        merges.append((token_bytes[left], token_bytes[right]))
        token_bytes[new_id] = token_bytes[left] + token_bytes[right]

        changed.clear()
        for pos in sorted(occurrences.pop(pair)):
            after = nxt[pos]
            if ids[pos] != left or after == _NONE or ids[after] != right:
                continue  # consumed by an overlapping occurrence, or stale
            before, beyond = prev[pos], nxt[after]
            if before != _NONE:
                move((ids[before], left), (ids[before], new_id), before)
            if beyond != _NONE:
                move((right, ids[beyond]), (new_id, ids[beyond]), pos)
                prev[beyond] = pos
            pair_counts[pair] -= 1
            ids[pos] = new_id
            nxt[pos] = beyond
            ids[after] = _NONE
        changed.add(pair)
        for changed_pair in changed:
            if pair_counts.get(changed_pair, 0) <= 0:
                pair_counts.pop(changed_pair, None)
                occurrences.pop(changed_pair, None)
            else:
                push(changed_pair)
        new_id += 1

    return Vocabulary.from_merges(merges)


def _apply_merges(vocab: Vocabulary, ids: list[int]) -> list[int]:
    """Merge a byte-id sequence with the vocabulary's rules.

    Repeatedly merges, left to right, every occurrence of the lowest-ranked
    pair present, which for a learned merge list equals replaying the list
    in learned order. The sequence is a linked list over positions; a
    min-heap of (rank, position) holds every pair that has a rule, with
    stale entries discarded on pop. All entries of the lowest rank are
    merged as one batch before the pairs those merges formed enter the heap,
    so a rule list whose new pairs can rank below the rule that formed them
    still merges in the same order. Each merge removes a token, so at most
    3n entries enter the heap for n bytes and the cost is O(n log n), with
    the rank table built once per vocabulary.
    """
    table = vocab.merge_table
    ids = list(ids)
    nxt = list(range(1, len(ids) + 1))
    prev = list(range(-1, len(ids) - 1))
    if ids:
        nxt[-1] = _NONE
    heap = [
        (table[pair][0], pos)
        for pos, pair in enumerate(zip(ids, ids[1:]))
        if pair in table
    ]
    heapq.heapify(heap)
    while heap:
        rank = heap[0][0]
        touched: set[int] = set()
        while heap and heap[0][0] == rank:
            pos = heapq.heappop(heap)[1]  # same rank pops left to right
            after = nxt[pos]
            if after == _NONE:
                continue
            entry = table.get((ids[pos], ids[after]))
            if entry is None or entry[0] != rank:
                continue  # consumed by an overlapping occurrence, or stale
            beyond = nxt[after]
            ids[pos] = entry[1]
            ids[after] = _NONE
            nxt[pos] = beyond
            if beyond != _NONE:
                prev[beyond] = pos
            touched.add(pos)
            if prev[pos] != _NONE:
                touched.add(prev[pos])
        for pos in touched:
            after = nxt[pos]
            if after != _NONE:
                entry = table.get((ids[pos], ids[after]))
                if entry is not None:
                    heapq.heappush(heap, (entry[0], pos))
    return [token_id for token_id in ids if token_id != _NONE]


def encode(vocab: Vocabulary, text: str, max_len: int = DEFAULT_MAX_LEN) -> TokenSequence:
    """Encode text as [cls] + merged byte tokens (truncated to max_len-2) + [sep],
    padded to exactly max_len.

    Only the kept tokens are merged. Two tokens that meet at the byte
    boundary a|b can merge only through a rule whose left side ends in a
    and whose right side starts with b, the rule's junction
    (`Vocabulary.joinable`). Where no rule has that junction the boundary is
    a cut point: nothing ever merges across it, so the bytes before it and
    after it merge exactly as they would alone, and the two results join.
    The NFC-normalized UTF-8 bytes are therefore merged chunk by chunk, and
    the loop stops once max_len-2 ids are held. A chunk holds at least as
    many bytes as ids are still missing, since a token holds at least one
    byte, and ends at the first cut point from there on; when none comes
    within max_len-2 more bytes, it runs to the text's end. The result
    equals merging the whole text and then truncating.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    keep = max_len - 2
    data = _nfc_bytes(text)
    joinable = vocab.joinable
    content: list[int] = []
    start = 0
    while start < len(data) and len(content) < keep:
        end = start + keep - len(content)
        stop = min(end + keep, len(data))
        while end < stop and joinable[data[end - 1] << 8 | data[end]]:
            end += 1
        if end >= stop:
            end = len(data)
        content += _apply_merges(vocab, [BYTE_BASE + b for b in data[start:end]])
        start = end
    content = content[:keep]
    ids = [CLS_ID] + content + [SEP_ID]
    true_length = len(ids)
    ids.extend([PAD_ID] * (max_len - true_length))
    return TokenSequence(ids=ids, true_length=true_length)


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
        "special": _SPECIAL_IDS,
        "vocab_size": vocab.size,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def vocab_from_json(text: str, source: str = "vocabulary") -> Vocabulary:
    """Parse a vocab_to_json document, checking it before building anything.

    Raises CorruptFile, naming source and, where one is at fault, the merge
    index, unless the text is a JSON object with exactly the keys
    vocab_to_json writes and the fixed special ids, every merge side is a
    single byte or the token of an earlier merge, and vocab_size equals the
    base size plus the merge count.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise CorruptFile(f"{source}: not JSON: {err}") from None
    if not isinstance(doc, dict) or set(doc) != {"merges", "special", "vocab_size"}:
        raise CorruptFile(
            f"{source}: expected a JSON object with keys merges, special, vocab_size"
        )
    if doc["special"] != _SPECIAL_IDS:
        raise CorruptFile(f"{source}: special must be {_SPECIAL_IDS}, got {doc['special']!r}")
    if not isinstance(doc["merges"], list):
        raise CorruptFile(f"{source}: merges must be a list, got {doc['merges']!r}")

    tokens = {bytes([b]) for b in range(256)}
    merges: list[tuple[bytes, bytes]] = []
    for index, entry in enumerate(doc["merges"]):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(side, str) for side in entry)
        ):
            raise CorruptFile(f"{source}: merge {index}: expected two strings, got {entry!r}")
        try:
            left, right = (side.encode("latin-1") for side in entry)
        except UnicodeEncodeError:
            raise CorruptFile(
                f"{source}: merge {index}: {entry!r} is not a latin-1 byte string"
            ) from None
        for side in (left, right):
            if side not in tokens:
                raise CorruptFile(
                    f"{source}: merge {index}: {side!r} is neither a single byte"
                    " nor the token of an earlier merge"
                )
        merges.append((left, right))
        tokens.add(left + right)

    size = doc["vocab_size"]
    expected = FIRST_MERGE_ID + len(merges)
    if type(size) is not int or size != expected:
        raise CorruptFile(
            f"{source}: vocab_size is {size!r}, but {len(merges)} merges make {expected}"
        )
    return Vocabulary.from_merges(merges)


def save_vocab(vocab: Vocabulary, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(vocab_to_json(vocab), encoding="utf-8")


def load_vocab(path) -> Vocabulary:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise CorruptFile(f"{path}: not UTF-8 text: {err}") from None
    return vocab_from_json(text, source=str(path))


def vocab_sha256(vocab: Vocabulary) -> str:
    return hashlib.sha256(vocab_to_json(vocab).encode("utf-8")).hexdigest()
