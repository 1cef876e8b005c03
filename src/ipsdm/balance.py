"""Adaptive synthetic oversampling (ADASYN) of minority classes.

balance_corpus encodes each sample once, into its content window (the
sub-word ids the classifier sees at max_len); everything after it works on
those windows. Samples live in an L2-normalized count space over the windows.
The plan allocates more synthetics to minority samples whose k nearest
neighbors (over all classes) are dominated by other classes; synthesis
splices the window prefix of a sample with the window suffix of a same-class
neighbor and decodes the result back to text.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Label, LabeledEmail
from .errors import NothingToBalance, TooFewSamples
from .tokenizer import DEFAULT_MAX_LEN, Vocabulary, decode, encode

DEFAULT_K = 5
DEFAULT_BETA = 1.0
SYNTHETIC_SOURCE_ID = "adasyn"


@dataclass(frozen=True)
class CountVector:
    """Sparse document-term vector; values are L2-normalized counts."""

    indices: tuple[int, ...]
    values: tuple[float, ...]

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
        if not content:
            out.append(CountVector(indices=(), values=()))
            continue
        counts: dict[int, int] = {}
        for tok in content:
            counts[tok] = counts.get(tok, 0) + 1
        indices = tuple(sorted(counts))
        raw = np.array([counts[i] for i in indices], dtype=np.float64)
        norm = raw / np.linalg.norm(raw)
        out.append(CountVector(indices=indices, values=tuple(norm.tolist())))
    return out


def _sparse_matrix(vectors: list[CountVector], dim: int) -> "scipy.sparse.csr_matrix":
    """The vectors as rows of a CSR matrix with dim columns.

    scipy.sparse is imported here, at its point of use: plan_adasyn calls this
    only when some class needs synthetics, so a balance run whose classes
    already match starts without loading it.
    """
    from scipy import sparse

    data, indices, indptr = [], [], [0]
    for vec in vectors:
        data.extend(vec.values)
        indices.extend(vec.indices)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(vectors), dim),
    )


def check_params(k: int, beta: float) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")


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
    """
    if len(vectors) != len(labels):
        raise ValueError(f"{len(vectors)} vectors but {len(labels)} labels")
    check_params(k, beta)
    labels = [int(label) for label in labels]
    counts: dict[int, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    class_counts = tuple(sorted(counts.items()))
    m_maj = max(counts.values())
    majority_label = min(c for c, n in counts.items() if n == m_maj)
    minority = [c for c, n in sorted(counts.items()) if n < m_maj]
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
    dim = 1 + max((vec.indices[-1] for vec in vectors if not vec.is_zero), default=0)
    matrix = _sparse_matrix([vectors[i] for i in valid], dim)
    sq_norms = np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()
    gram = (matrix @ matrix.T).toarray()
    # d^2(i, j) = |i|^2 + |j|^2 - 2 <i, j>
    d2 = np.maximum(sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram, 0.0)

    valid_labels = np.array([labels[i] for i in valid])

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
        ratios, neighbors = [], []
        for pos in members:
            row = d2[pos].copy()
            row[pos] = np.inf  # self ranks last, and is dropped
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


def balance_report(before: Corpus, after: Corpus) -> dict:
    """Per-class counts before and after balancing."""
    counts_before, counts_after = before.label_counts(), after.label_counts()
    return {
        "before": counts_before,
        "after": counts_after,
        "added": {name: counts_after[name] - counts_before[name] for name in counts_before},
    }
