"""Adaptive synthetic oversampling (ADASYN) of minority classes.

balance_corpus encodes each sample once, into its content window (the
sub-word ids the classifier sees at max_len); everything after it works on
those windows. Each sample is the vector of its sub-word counts, and
neighbors are ranked by the Euclidean distance between the L2-normalized
counts, a decreasing function of their cosine. The plan allocates more
synthetics to minority samples whose k nearest neighbors (over all classes)
are dominated by other classes; synthesis splices the window prefix of a
sample with the window suffix of a same-class neighbor and decodes the
result back to text.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .config import DEFAULT_BETA, DEFAULT_K, check_params
from .corpus import (  # balance_report: its old home, kept importable
    Corpus, Label, LabeledEmail, balance_report, majority_and_minority,
)
from .errors import NothingToBalance, TooFewSamples
from .tokenizer import DEFAULT_MAX_LEN, Vocabulary, decode, encode

SYNTHETIC_SOURCE_ID = "adasyn"


@dataclass(frozen=True)
class CountVector:
    """Sparse document-term vector: the ids that occur, ascending, and how
    often each occurs."""

    indices: tuple[int, ...]
    values: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return len(self.indices) == 0


@dataclass(frozen=True)
class PlanItem:
    sample_index: int
    label: int
    r: float       # fraction of the k nearest neighbors in a different class
    r_hat: float   # r normalized over the sample's class
    g: int         # synthetics to generate from this sample
    same_class_neighbors: tuple[int, ...]


@dataclass(frozen=True)
class AdasynPlan:
    k: int
    beta: float
    majority_label: int
    class_counts: tuple[tuple[int, int], ...]  # (label, count), ascending label
    targets: tuple[tuple[int, int], ...]       # (label, G) per minority class
    items: tuple[PlanItem, ...]                # ascending sample_index
    excluded: tuple[int, ...]                  # zero-vector sample indices

    @property
    def is_empty(self) -> bool:
        return not self.items

    def target_for(self, label: int) -> int:
        return dict(self.targets).get(int(label), 0)

    def total_synthetic(self, label: int | None = None) -> int:
        return sum(
            item.g for item in self.items if label is None or item.label == int(label)
        )


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def vectorize(windows: list[list[int]]) -> list[CountVector]:
    """Sub-word count vector for each content window (the content ids of a
    sample encoded at the classifier's max_len; encoding is the caller's).
    An empty window yields the zero vector."""
    out = []
    for content in windows:
        counts: dict[int, int] = {}
        for tok in content:
            counts[tok] = counts.get(tok, 0) + 1
        indices = tuple(sorted(counts))
        out.append(CountVector(indices=indices, values=tuple(counts[i] for i in indices)))
    return out


def plan_adasyn(
    vectors: list[CountVector],
    labels: list[int],
    k: int = DEFAULT_K,
    beta: float = DEFAULT_BETA,
) -> AdasynPlan:
    """Decide how many synthetics each minority sample should seed.

    For each class c smaller than the majority: G_c = round(beta * (m_maj -
    m_c)); each sample's difficulty r_i is the other-class fraction of its k
    nearest neighbors over all classes; g_i = round(r_hat_i * G_c). Returns an
    empty plan when all classes already match the majority count.

    Neighbors are ranked by (distance, sample index), self excluded, where
    the distance between two count vectors a and b is that between a/|a| and
    b/|b|. Counts are never negative, so it falls as <a, b>**2 / |b|**2
    rises, and each minority sample ranks the others by that ratio,
    descending. The dot products come from one float64 product of integer
    counts, exact in any summation order and at any BLAS thread count. Their
    squares are exact while max_len <= 9,743 (content windows of at most
    9,741 tokens), and the division is correctly rounded, so equal distances
    always tie and then order by index, and rounding never reverses two
    distances. Up to max_len 408 (406 tokens) it cannot make two unequal
    distances tie either, so the ranking is exactly the one by (distance,
    sample index).
    """
    if len(vectors) != len(labels):
        raise ValueError(f"{len(vectors)} vectors but {len(labels)} labels")
    check_params(k, beta)
    labels = [int(label) for label in labels]
    counts: dict[int, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    class_counts = tuple(sorted(counts.items()))
    majority_label, minority = majority_and_minority(counts)
    m_maj = counts[majority_label]
    excluded = tuple(i for i, v in enumerate(vectors) if v.is_zero)
    if not minority:
        return AdasynPlan(
            k=k, beta=beta, majority_label=majority_label,
            class_counts=class_counts, targets=(), items=(), excluded=excluded,
        )
    for c in minority:
        if counts[c] < 2:
            raise TooFewSamples(f"class {Label(c).name} has {counts[c]} sample(s); need at least 2")

    valid = np.array([i for i in range(len(vectors)) if not vectors[i].is_zero], dtype=np.int64)
    if len(valid) <= k:
        raise TooFewSamples(
            f"{len(valid)} non-empty samples cannot support k={k} neighbors"
        )
    valid_labels = np.array([labels[i] for i in valid])
    rows = np.repeat(np.arange(len(valid)), [len(vectors[i].indices) for i in valid])
    ids = np.fromiter(chain.from_iterable(vectors[i].indices for i in valid), np.int64, len(rows))
    values = np.fromiter(chain.from_iterable(vectors[i].values for i in valid), np.float64, len(rows))
    sq_norms = np.bincount(rows, weights=values * values, minlength=len(valid))
    # The valid rows as a dense count matrix over the ids that some minority
    # member uses. Only minority members' dot products are taken, and an id
    # that one lacks adds nothing to them; the norms above count every id.
    used = np.unique(ids[np.isin(valid_labels, minority)[rows]])
    kept = np.isin(ids, used)
    matrix = np.zeros((len(valid), len(used)))
    matrix[rows[kept], np.searchsorted(used, ids[kept])] = values[kept]

    targets = []
    items: list[PlanItem] = []
    for c in minority:
        g_total = _half_up(beta * (m_maj - counts[c]))
        targets.append((c, g_total))
        if g_total <= 0:
            continue
        members = np.flatnonzero(valid_labels == c)  # positions in valid
        if not len(members):
            continue  # every sample of this class is empty; nothing to seed from
        dots = matrix[members] @ matrix.T
        # Negated, so that ascending order is nearest first.
        keys = -(dots * dots) / sq_norms
        keys[np.arange(len(members)), members] = np.inf  # self ranks last, and is dropped
        ratios, neighbors = [], []
        for row in keys:
            # One ranking by (distance, sample index): its head gives r, and
            # its same-class subsequence, still in that order, the neighbors.
            order = np.lexsort((valid, row))[:-1]
            ratios.append(int(np.count_nonzero(valid_labels[order[:k]] != c)) / k)
            same = order[valid_labels[order] == c]
            neighbors.append(tuple(int(j) for j in valid[same[:k]]))
        total_r = sum(ratios)
        if total_r > 0.0:
            r_hats = [r / total_r for r in ratios]
        else:
            r_hats = [1.0 / len(members)] * len(members)
        for pos, r, r_hat, near in zip(members, ratios, r_hats, neighbors):
            items.append(
                PlanItem(
                    sample_index=int(valid[pos]),
                    label=c,
                    r=r,
                    r_hat=r_hat,
                    g=_half_up(r_hat * g_total),
                    same_class_neighbors=near,
                )
            )
    items.sort(key=lambda item: item.sample_index)
    return AdasynPlan(
        k=k, beta=beta, majority_label=majority_label,
        class_counts=class_counts, targets=tuple(targets),
        items=tuple(items), excluded=excluded,
    )


@dataclass(frozen=True)
class SynthesisRecord:
    sample_index: int
    neighbor_index: int  # -1 when duplicated verbatim
    lam: float           # nan when duplicated verbatim
    tokens: tuple[int, ...]
    text: str
    label: int


def _splice(parent: list[int], neighbor: list[int], lam: float) -> list[int]:
    take_parent = math.ceil(lam * len(parent))
    take_neighbor = math.floor((1.0 - lam) * len(neighbor))
    tail = neighbor[len(neighbor) - take_neighbor :] if take_neighbor else []
    return parent[:take_parent] + tail


def synthesize_detailed(
    plan: AdasynPlan,
    corpus: Corpus,
    windows: list[list[int]],
    vocab: Vocabulary,
    seed: int,
) -> tuple[Corpus, list[SynthesisRecord]]:
    """As synthesize, but also return per-synthetic provenance records."""
    if len(windows) != len(corpus):
        raise ValueError(f"{len(windows)} windows but {len(corpus)} samples")
    if plan.is_empty:
        raise NothingToBalance("plan contains no synthetics to generate")
    rng = np.random.default_rng(seed)
    records: list[SynthesisRecord] = []
    row_index = 0
    synthetics: list[LabeledEmail] = []
    for item in plan.items:  # ascending sample index: one sequential random stream
        parent = windows[item.sample_index]
        for _ in range(item.g):
            if not item.same_class_neighbors:
                # no same-class neighbor to splice with: duplicate verbatim
                tokens = tuple(parent)
                text = corpus.samples[item.sample_index].text
                z, lam = -1, float("nan")
            else:
                z = int(item.same_class_neighbors[int(rng.integers(len(item.same_class_neighbors)))])
                lam = float(rng.random())
                spliced = _splice(parent, windows[z], lam)
                tokens = tuple(spliced)
                text = decode(vocab, spliced)
            synthetics.append(
                LabeledEmail(
                    text=text,
                    label=Label(item.label),
                    source_id=SYNTHETIC_SOURCE_ID,
                    row_index=row_index,
                )
            )
            records.append(
                SynthesisRecord(
                    sample_index=item.sample_index,
                    neighbor_index=z,
                    lam=lam,
                    tokens=tokens,
                    text=text,
                    label=item.label,
                )
            )
            row_index += 1
    merged = Corpus.from_samples(list(corpus.samples) + synthetics)
    return merged, records


def synthesize(
    plan: AdasynPlan,
    corpus: Corpus,
    windows: list[list[int]],
    vocab: Vocabulary,
    seed: int,
) -> Corpus:
    """Generate the planned synthetics and return original + synthetics.

    windows[i] is sample i's content window, as balance_corpus encodes it;
    parents and neighbors are spliced from these, nothing is encoded here."""
    merged, _ = synthesize_detailed(plan, corpus, windows, vocab, seed)
    return merged


def balance_corpus(
    corpus: Corpus,
    vocab: Vocabulary,
    k: int = DEFAULT_K,
    beta: float = DEFAULT_BETA,
    seed: int = 0,
    max_len: int = DEFAULT_MAX_LEN,
) -> tuple[Corpus, AdasynPlan]:
    """End-to-end: encode each sample once, vectorize, plan, synthesize. An
    already-balanced corpus is returned unchanged alongside its empty plan."""
    windows = [encode(vocab, s.text, max_len).content_ids for s in corpus.samples]
    plan = plan_adasyn(vectorize(windows), [int(s.label) for s in corpus.samples], k=k, beta=beta)
    if plan.is_empty:
        return corpus, plan
    return synthesize(plan, corpus, windows, vocab, seed), plan
