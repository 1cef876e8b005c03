"""Seeded, keyword-separable synthetic corpora for the benchmark workloads.

Each class owns a disjoint keyword set; every text mixes a few of its class's
keywords into filler words drawn from a Zipf distribution over a fixed
pseudo-word list. The word lists are fixed, so the workload seed changes
which words are drawn and in which order, never the shape of the corpus.
`keyword_label` is an independent labelling rule: it recovers every
generated label, which proves the corpus is learnable before any model sees
it.
"""

import csv
import itertools

import numpy as np

LABELS = ("ham", "spam", "phishing")

KEYWORDS = {
    "ham": ["meeting", "schedule", "report", "lunch", "project", "minutes", "agenda",
            "invoice", "quarterly", "review", "draft", "calendar", "budget", "team",
            "deadline", "notes"],
    "spam": ["free", "winner", "cash", "prize", "offer", "discount", "deal", "bonus",
             "cheap", "lottery", "exclusive", "promo", "gift", "jackpot", "sale",
             "reward"],
    "phishing": ["verify", "account", "password", "login", "urgent", "suspended",
                 "confirm", "bank", "security", "credentials", "unlock", "billing",
                 "identity", "alert", "reset", "expired"],
}

# The paper's corpus: 4825 ham, 747 spam, 189 phishing.
PAPER_MIX = {"ham": 4825, "spam": 747, "phishing": 189}

_ONSETS = ["b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
           "br", "ch", "st", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ou"]
_CODAS = ["", "n", "r", "s", "t", "nd", "ll"]


def _filler_words(count: int = 400) -> list[str]:
    """A fixed list of pronounceable pseudo-words of 1-3 syllables; no
    filler word is also a keyword."""
    syllables = [o + v + c for o, v, c in itertools.product(_ONSETS, _VOWELS, _CODAS)]
    rng = np.random.default_rng(20231108)  # fixed: the list never depends on the workload seed
    keywords = {w for words in KEYWORDS.values() for w in words}
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        n = int(rng.choice([1, 2, 2, 3]))
        word = "".join(syllables[int(i)] for i in rng.integers(len(syllables), size=n))
        if word not in seen and word not in keywords:
            seen.add(word)
            words.append(word)
    return words


FILLER = _filler_words()
_ZIPF = 1.0 / np.arange(1, len(FILLER) + 1)
_ZIPF /= _ZIPF.sum()


def keyword_label(text: str) -> str:
    """The class whose keywords occur in the text; exactly one must."""
    words = set(text.replace(".", " ").lower().split())
    hits = [label for label in LABELS if words & set(KEYWORDS[label])]
    if len(hits) != 1:
        raise ValueError(f"text is not separable: matches {hits}")
    return hits[0]


def class_counts(total: int, mix: dict[str, int], minimum: int = 0) -> dict[str, int]:
    """Largest-remainder apportionment of `total` samples to the mix, with at
    least `minimum` per class (taken from the largest class), so that a
    60/20/20 split leaves every class in every split."""
    weight = sum(mix.values())
    exact = {label: total * mix[label] / weight for label in LABELS}
    counts = {label: int(exact[label]) for label in LABELS}
    by_remainder = sorted(LABELS, key=lambda label: counts[label] - exact[label])
    for label in by_remainder[: total - sum(counts.values())]:
        counts[label] += 1
    for label in LABELS:
        shortfall = minimum - counts[label]
        if shortfall > 0:
            counts[label] += shortfall
            counts[max(counts, key=counts.get)] -= shortfall
    return counts


def _text(rng: np.random.Generator, label: str, n_words: int, n_keywords: int,
          window: int, sentence: int | None) -> str:
    words = [FILLER[int(i)] for i in rng.choice(len(FILLER), size=n_words, p=_ZIPF)]
    keywords = KEYWORDS[label]
    # Keywords go into the leading window so that they survive truncation at
    # the model's max_len even in long texts.
    window = min(n_words, window)
    for pos in rng.choice(window, size=min(n_keywords, window), replace=False):
        words[int(pos)] = keywords[int(rng.integers(len(keywords)))]
    if sentence:
        for end in range(sentence - 1, n_words - 1, sentence):
            words[end] += "."
        words[0] = words[0].capitalize()
        words[-1] += "."
    return " ".join(words)


def email_texts(rng: np.random.Generator, label: str, n: int) -> list[str]:
    """Long emails: 130-170 words (about 1.2 KB); 20-30 keywords among the
    first 50 words, which is about what survives truncation."""
    return [_text(rng, label, int(rng.integers(130, 171)), int(rng.integers(20, 31)), 50, 12)
            for _ in range(n)]


def sms_texts(rng: np.random.Generator, label: str, n: int) -> list[str]:
    """Short messages: 6-20 words (about 90 characters), 3-5 keywords."""
    return [_text(rng, label, int(rng.integers(6, 21)), int(rng.integers(3, 6)), 20, None)
            for _ in range(n)]


def make_corpus(kind: str, counts: dict[str, int], seed: int) -> list[tuple[str, str]]:
    """(text, label) rows, classes interleaved by a seeded shuffle."""
    rng = np.random.default_rng([seed, 0])
    make = email_texts if kind == "email" else sms_texts
    rows = [(text, label) for label in LABELS for text in make(rng, label, counts[label])]
    order = rng.permutation(len(rows))
    return [rows[int(i)] for i in order]


def write_source_csv(rows: list[tuple[str, str]], path) -> None:
    """The source CSV the `prepare` stage reads (default column names)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Email", "Category"])
        writer.writerows(rows)


def request_mix(seed: int, n: int, long_frac: float) -> list[str]:
    """A fixed, seeded sequence of predict requests: mostly short messages,
    `long_frac` of them long emails, labels drawn uniformly."""
    rng = np.random.default_rng([seed, 1])
    texts = []
    for _ in range(n):
        label = LABELS[int(rng.integers(len(LABELS)))]
        make = email_texts if rng.random() < long_frac else sms_texts
        texts.append(make(rng, label, 1)[0])
    return texts
