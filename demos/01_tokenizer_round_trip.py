#!/usr/bin/env python3
"""
Learn a byte-pair vocabulary from a handful of messages and walk through
what it does to a new text: the pieces merges stay inside, the merge list,
the token ids, and the exact round trip back to the original bytes.
"""

from ipsdm.corpus import Corpus, Label, LabeledEmail
from ipsdm.tokenizer import decode, encode, split_pieces, train_vocab

MESSAGES = [
    "free cash prize claim now",
    "free cruise winner claim today",
    "meeting moved to thursday",
    "thursday lunch order closes soon",
    "verify your account now",
    "verify your password today",
]


def main():
    samples = [
        LabeledEmail(text, Label.ham, "demo", i) for i, text in enumerate(MESSAGES)
    ]
    corpus = Corpus.from_samples(samples)

    # Merges never cross a piece boundary: a piece is a run of letters, of
    # digits, of other symbols or of whitespace other than the space, with
    # at most one leading space, so a learned token holds a space only as
    # its first byte.
    print(f"pieces of {MESSAGES[0]!r}: {split_pieces(MESSAGES[0])}")
    print(f"pieces of 'Win $500 now!!': {split_pieces('Win $500 now!!')}")

    vocab = train_vocab(corpus, vocab_size=280)
    print(f"\nvocabulary: {vocab.size} tokens, {len(vocab.merges)} learned merges")
    print("first merges (most frequent adjacent byte pairs within a piece first):")
    for left, right in vocab.merges[:8]:
        print(f"  {left!r} + {right!r} -> {(left + right)!r}")

    text = "claim your free prize now"
    sequence = encode(vocab, text, max_len=32)
    print(f"\nencoding {text!r}")
    print(f"  ids ({sequence.true_length} real, rest padding): {list(sequence.ids[:sequence.true_length])}")
    print(f"  pieces: {split_pieces(text)}")
    tokens = [decode(vocab, [i]) for i in sequence.content_ids]
    print(f"  tokens: {tokens}")

    decoded = decode(vocab, sequence.content_ids)
    print(f"  decoded: {decoded!r}")
    assert decoded == text, "round trip must reproduce the input exactly"
    print("round trip is byte-for-byte exact")

    # multibyte input works the same way: unknown scripts fall back to raw bytes
    for exotic in ("héllo wörld", "数据 安全", "🙂"):
        seq = encode(vocab, exotic, max_len=32)
        assert decode(vocab, seq.content_ids) == exotic
        print(f"  {exotic!r}: {seq.true_length - 2} content tokens, round trip ok")


if __name__ == "__main__":
    main()
