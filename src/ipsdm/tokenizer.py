"""Byte-level BPE inside pieces: learn a sub-word vocabulary and encode text
to fixed-length token-id sequences with special tokens.

Text is NFC-normalized and split into pieces whose concatenation is the
text (`split_pieces`): a run of letters, of decimal digits or of other
non-whitespace characters, each with at most one leading space, or a run of
whitespace other than the space, with at most one leading space; a space
that starts none of these is a piece by itself. Merges are learned and
applied only inside a piece, as in word-level BPE (Sennrich et al. 2016),
so a learned token holds a space only as its first byte.

The id space is laid out as [specials][256 byte tokens][learned merges], so
special ids stay below every learned-token id. Unknown bytes cannot occur at
byte level; the unk id exists for interface completeness only.
"""

import hashlib
import heapq
import json
import re
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

# The vocab.json format: merges learned and applied inside pieces. A file
# without it was learned across spaces and would encode differently.
VOCAB_FORMAT = "ipsdm-bpe-pieces-1"

# Letters are word characters other than decimal digits and "_"; "other" is
# everything that is neither whitespace nor a letter or digit.
_PIECE = re.compile(r" ?[^\W\d_]+| ?\d+| ?(?:[^\w\s]|_)+| ?[^\S ]+| ")

# Words held per Vocabulary in its word -> ids cache (see encode); when full
# it is emptied and refills with the words seen from then on. 8,192 holds
# every distinct word of the generated paper-scale corpus (1,283), and a
# natural language's 8,192 most frequent words make up most of its running
# text. Only words of at most _CACHED_WORD_CHARS characters are cached: an
# entry then takes at most about 1.3 KB (32 four-byte characters, unmerged),
# so the cache stays below about 11 MB; the corpus's words take about 170 B.
WORD_CACHE_SIZE = 1 << 13
_CACHED_WORD_CHARS = 32

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
    # word -> its merged ids, at most WORD_CACHE_SIZE entries (see encode).
    word_cache: dict[str, list[int]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self.merge_table = {}
        for rank, (left, right) in enumerate(self.merges):
            pair = (self.token_to_id[left], self.token_to_id[right])
            self.merge_table.setdefault(pair, (rank, self.token_to_id[left + right]))

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


def split_pieces(text: str) -> list[str]:
    """The pieces of text's NFC form, in order; they concatenate to it."""
    return _PIECE.findall(unicodedata.normalize("NFC", text))


def check_vocab_size(vocab_size: int) -> None:
    if vocab_size <= 256 + NUM_SPECIALS:
        raise VocabTooSmall(
            f"vocab_size must exceed {256 + NUM_SPECIALS}, got {vocab_size}"
        )


def train_vocab(corpus: Corpus, vocab_size: int) -> Vocabulary:
    """Learn byte-level BPE merges inside the pieces of a training corpus.

    Merges are chosen greedily by highest adjacent-pair frequency until
    vocab_size is reached or no pair occurs at least twice; frequency ties
    break on lexicographic (left bytes, right bytes) order. Call this on the
    train split only.

    The corpus is counted once into a table of distinct pieces, each a list
    of byte-string tokens weighted by how often the piece occurs; a pair
    never spans two pieces. Beside the weighted pair counts, an index holds
    the pieces each pair occurs in; entries go stale as merges rewrite
    pieces, and a stale piece merges to itself. A merge rewrites only the
    pieces of its own pair, left to right, and moves each count by the
    difference between the piece's pairs before and after times its weight.
    A lazy max-heap of (count, left, right) picks the next pair.
    """
    check_vocab_size(vocab_size)
    target_merges = vocab_size - 256 - NUM_SPECIALS

    piece_counts: Counter = Counter()
    for sample in corpus.samples:
        piece_counts.update(split_pieces(sample.text))
    pieces: list[list[bytes]] = []
    weights: list[int] = []
    for piece, count in piece_counts.items():
        data = piece.encode("utf-8")
        if len(data) > 1:
            pieces.append([data[i : i + 1] for i in range(len(data))])
            weights.append(count)

    pair_counts: Counter = Counter()
    where: defaultdict = defaultdict(set)  # pair -> indices of pieces, may be stale
    for index, (tokens, weight) in enumerate(zip(pieces, weights)):
        for pair in zip(tokens, tokens[1:]):
            pair_counts[pair] += weight
            where[pair].add(index)

    # Max-heap with lazy deletion; entries are re-pushed whenever a pair's
    # count changes, and stale entries are discarded on pop.
    heap = [(-count, *pair) for pair, count in pair_counts.items() if count >= MIN_PAIR_FREQUENCY]
    heapq.heapify(heap)

    merges: list[tuple[bytes, bytes]] = []
    while len(merges) < target_merges and heap:
        neg_count, left, right = heapq.heappop(heap)
        pair = (left, right)
        if pair_counts.get(pair, 0) != -neg_count:
            continue  # stale entry
        merges.append(pair)
        merged = left + right
        changed: set = set()
        for index in where.pop(pair):
            tokens = pieces[index]
            out: list[bytes] = []
            i = 0
            while i < len(tokens):
                if i + 1 < len(tokens) and tokens[i] == left and tokens[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(tokens[i])
                    i += 1
            if len(out) == len(tokens):
                continue  # stale: an earlier merge rewrote this pair away
            delta: Counter = Counter(zip(out, out[1:]))
            delta.subtract(zip(tokens, tokens[1:]))
            weight = weights[index]
            for moved, d in delta.items():
                if d:
                    pair_counts[moved] += d * weight
                    changed.add(moved)
                    if d > 0:
                        where[moved].add(index)
            pieces[index] = out
        for moved in changed:
            count = pair_counts[moved]
            if count <= 0:
                del pair_counts[moved]
                where.pop(moved, None)
            elif count >= MIN_PAIR_FREQUENCY:
                heapq.heappush(heap, (-count, *moved))

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

    Every space starts a piece, so the NFC text splits at each space into
    words, each its leading space and one or more whole pieces, and a word
    merges alone, piece by piece. A word's ids come from the vocabulary's
    word cache or, on a miss, from `_apply_merges` on each of its pieces,
    and then enter the cache whole. The walk stops once max_len-2 ids are
    held, so only the kept words are merged, and the text is split at no
    more spaces than that: every word after the first holds at least one
    id. The result equals merging every piece and then truncating.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    keep = max_len - 2
    cache = vocab.word_cache
    content: list[int] = []
    words = unicodedata.normalize("NFC", text).split(" ", keep + 1)
    for index, word in enumerate(words):
        if index:
            word = " " + word
        word_ids = cache.get(word)
        if word_ids is None:
            word_ids = [
                token_id
                for piece in _PIECE.findall(word)
                for token_id in _apply_merges(vocab, [BYTE_BASE + b for b in piece.encode("utf-8")])
            ]
            if len(word) <= _CACHED_WORD_CHARS:
                if len(cache) >= WORD_CACHE_SIZE:
                    cache.clear()
                cache[word] = word_ids
        content += word_ids
        if len(content) >= keep:
            break
    ids = [CLS_ID] + content[:keep] + [SEP_ID]
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
        "format": VOCAB_FORMAT,
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
    vocab_to_json writes, this module's VOCAB_FORMAT and the fixed special
    ids, every merge side is a single byte or the token of an earlier merge,
    and vocab_size equals the base size plus the merge count. A document
    without the format field holds merges learned across spaces, which
    encode would not apply as they were learned, so it is refused too.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise CorruptFile(f"{source}: not JSON: {err}") from None
    if isinstance(doc, dict) and set(doc) == {"merges", "special", "vocab_size"}:
        raise CorruptFile(
            f"{source}: no format field, so its merges were learned across spaces;"
            " run `ipsdm tokenizer-train` again"
        )
    if not isinstance(doc, dict) or set(doc) != {"format", "merges", "special", "vocab_size"}:
        raise CorruptFile(
            f"{source}: expected a JSON object with keys format, merges, special, vocab_size"
        )
    if doc["format"] != VOCAB_FORMAT:
        raise CorruptFile(f"{source}: format must be {VOCAB_FORMAT!r}, got {doc['format']!r}")
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
