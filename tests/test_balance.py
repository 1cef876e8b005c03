"""Minority oversampling: count vectors, neighbor-driven allocation, splicing.

Allocation tests compare against ``oracles.exhaustive_adasyn_plan``, which
ranks neighbors by exact cosines, as fractions, of dense count vectors; the
library route ranks by rounded ratios from a float64 matrix product. Every
fixture is a vector of integer counts, small enough that both routes order
exactly, so comparisons are ==, not approx; hypothesis properties draw such
fixtures where equal distances abound.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ipsdm.balance as balance_module
from ipsdm import blas
from ipsdm.balance import (
    DEFAULT_BETA,
    DEFAULT_K,
    CountVector,
    _splice,
    balance_corpus,
    balance_report,
    plan_adasyn,
    synthesize,
    synthesize_detailed,
    vectorize,
)
from ipsdm.corpus import Corpus, Label, LabeledEmail
from ipsdm.errors import NothingToBalance, TooFewSamples
from ipsdm.tokenizer import Vocabulary, encode, train_vocab

from conftest import make_separable_corpus
from oracles import exhaustive_adasyn_plan


def _point(*counts):
    """A dense row of integer counts as a sparse count vector; the 2-D
    fixtures count ids 0 and 1. An all-zero row is the zero vector."""
    return CountVector(
        indices=tuple(i for i, c in enumerate(counts) if c),
        values=tuple(int(c) for c in counts if c),
    )


def _unit(index):
    """One occurrence of a single id; two such vectors have cosine exactly 1
    (same id) or 0 (different ids)."""
    return CountVector(indices=(index,), values=(1,))


def _windows(corpus, vocab, max_len=128):
    """Each sample's content window, as balance_corpus encodes it."""
    return [encode(vocab, s.text, max_len).content_ids for s in corpus.samples]


def _simple_corpus(texts, labels):
    return Corpus.from_samples(
        [
            LabeledEmail(text=t, label=Label(l), source_id="fix", row_index=i)
            for i, (t, l) in enumerate(zip(texts, labels))
        ]
    )


# Eight integer points, two classes, six majority / two minority.
EIGHT_POINTS = [(1, 1), (2, 6), (5, 2), (7, 7), (9, 3), (3, 9), (2, 2), (8, 8)]
EIGHT_LABELS = [0, 0, 0, 0, 0, 0, 1, 1]

# Twelve integer points, three classes: 6 / 4 / 2.
TWELVE_POINTS = [
    (1, 1), (3, 1), (1, 4), (6, 2), (2, 7), (7, 6),
    (10, 1), (11, 3), (9, 4), (12, 6),
    (5, 11), (8, 12),
]
TWELVE_LABELS = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2]


def _plan_matches_oracle(points, labels, k, beta):
    vectors = [_point(*p) for p in points]
    plan = plan_adasyn(vectors, labels, k=k, beta=beta)
    expected = exhaustive_adasyn_plan(points, labels, k=k, beta=beta)

    assert dict(plan.targets) == {c: g for c, (g, _) in expected.items()}
    items = {item.sample_index: item for item in plan.items}
    expected_members = {
        i for _, (_, allocation) in expected.items() for i in allocation
    }
    assert set(items) == expected_members
    for c, (_, allocation) in expected.items():
        for i, (r, r_hat, g, same) in allocation.items():
            item = items[i]
            assert item.label == c
            assert item.r == r
            assert item.r_hat == r_hat
            assert item.g == g
            assert item.same_class_neighbors == same
    return plan


def _plan_matches_oracle_or_too_few(points, labels, k):
    """As _plan_matches_oracle at beta 1; but when some class is short of
    the majority and the non-zero vectors number k or fewer, planning must
    refuse."""
    short = len(set(Counter(labels).values())) > 1
    if short and sum(1 for p in points if any(p)) <= k:
        with pytest.raises(TooFewSamples):
            plan_adasyn([_point(*p) for p in points], labels, k=k)
    else:
        _plan_matches_oracle(points, labels, k=k, beta=1.0)


# ---------------------------------------------------------------------------
# vectorize


def test_vectorize_counts_a_repeated_token():
    corpus = _simple_corpus(["aa"], [0])
    vocab = Vocabulary.from_merges([])
    (vec,) = vectorize(_windows(corpus, vocab))
    assert vec.indices == (4 + ord("a"),)
    assert vec.values == (2,)
    assert not vec.is_zero


def test_vectorize_two_distinct_tokens():
    corpus = _simple_corpus(["ab"], [0])
    (vec,) = vectorize(_windows(corpus, Vocabulary.from_merges([])))
    assert vec.indices == (4 + ord("a"), 4 + ord("b"))
    assert vec.values == (1, 1)


def test_vectorize_values_are_token_counts(tiny_corpus):
    vocab = train_vocab(tiny_corpus, vocab_size=280)
    windows = _windows(tiny_corpus, vocab)
    for vec, window in zip(vectorize(windows), windows):
        assert list(vec.indices) == sorted(set(vec.indices))
        assert dict(zip(vec.indices, vec.values)) == Counter(window)
        assert all(type(v) is int for v in vec.values)


def test_vectorize_counts_only_truncation_window():
    # With max_len=6 only four content tokens survive, so both texts look
    # identical; with max_len=2 there is no content window at all.
    corpus = _simple_corpus(["aaaaffff", "aaaazzzz"], [0, 1])
    vocab = Vocabulary.from_merges([])
    short = vectorize(_windows(corpus, vocab, max_len=6))
    assert short[0] == short[1]
    assert short[0].indices == (4 + ord("a"),)
    empty = vectorize(_windows(corpus, vocab, max_len=2))
    assert all(vec.is_zero for vec in empty)


# ---------------------------------------------------------------------------
# plan_adasyn


def test_plan_defaults():
    assert DEFAULT_K == 5
    assert DEFAULT_BETA == 1.0


def test_plan_target_six_vs_two():
    # majority 6, minority 2, beta 1 -> G = 4
    plan = plan_adasyn([_point(*p) for p in EIGHT_POINTS], EIGHT_LABELS, k=3, beta=1.0)
    assert plan.target_for(1) == 4
    assert plan.target_for(0) == 0
    assert plan.majority_label == 0
    assert dict(plan.class_counts) == {0: 6, 1: 2}


def test_plan_beta_scales_target():
    plan = plan_adasyn([_point(*p) for p in EIGHT_POINTS], EIGHT_LABELS, k=3, beta=0.5)
    assert plan.target_for(1) == 2  # half_up(0.5 * 4)


def test_plan_matches_oracle_two_class():
    plan = _plan_matches_oracle(EIGHT_POINTS, EIGHT_LABELS, k=3, beta=1.0)
    assert plan.total_synthetic() > 0


def test_plan_matches_oracle_three_class():
    _plan_matches_oracle(TWELVE_POINTS, TWELVE_LABELS, k=4, beta=1.0)


def test_plan_matches_oracle_fractional_beta():
    _plan_matches_oracle(TWELVE_POINTS, TWELVE_LABELS, k=3, beta=0.7)


def test_plan_matches_oracle_on_text_vectors(imbalanced_corpus):
    """End to end: real texts, sub-word count vectors, both routes."""
    vocab = train_vocab(imbalanced_corpus, vocab_size=300)
    vectors = vectorize(_windows(imbalanced_corpus, vocab))
    assert not any(vec.is_zero for vec in vectors)
    dim = 1 + max(vec.indices[-1] for vec in vectors)
    dense = []
    for vec in vectors:
        row = [0] * dim
        for i, count in zip(vec.indices, vec.values):
            row[i] = count
        dense.append(row)
    assert [_point(*row) for row in dense] == vectors
    labels = [int(s.label) for s in imbalanced_corpus.samples]
    _plan_matches_oracle(dense, labels, k=5, beta=1.0)


def _tied_labels(draw):
    """Labels with every drawn class present at least twice."""
    classes = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=3, max_size=6))
    extra = draw(st.lists(st.sampled_from(classes), max_size=6))
    return draw(st.permutations(classes * 2 + extra))


@st.composite
def tied_grids(draw):
    """Counts of two ids on a 4 x 4 grid, so that many points are parallel
    (equal distances, coincident points included), and (0, 0) is the zero
    vector."""
    labels = _tied_labels(draw)
    cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
    points = draw(st.lists(cell, min_size=len(labels), max_size=len(labels)))
    return points, labels, draw(st.integers(1, 4))


@st.composite
def tied_count_vectors(draw):
    """Integer multiples, 0 to 4, of a few base directions over four ids:
    multiples of one base are equidistant from every vector, and multiple 0
    is the zero vector."""
    base = st.lists(st.integers(0, 2), min_size=4, max_size=4).filter(any)
    bases = draw(st.lists(base, min_size=1, max_size=3))
    labels = _tied_labels(draw)
    row = st.tuples(st.sampled_from(bases), st.integers(0, 4)).map(
        lambda pair: [pair[1] * c for c in pair[0]])
    points = draw(st.lists(row, min_size=len(labels), max_size=len(labels)))
    return points, labels, draw(st.integers(1, 4))


@given(case=tied_grids())
def test_plan_matches_oracle_on_tied_grids(case):
    """Ties in distance break by sample index, for r and for the same-class
    neighbors alike, and a sample is never its own neighbor."""
    _plan_matches_oracle_or_too_few(*case)


@given(case=tied_count_vectors())
def test_plan_matches_oracle_on_tied_count_vectors(case):
    """As on the grids, in four dimensions, with zero vectors mixed in."""
    _plan_matches_oracle_or_too_few(*case)


def test_plan_orders_parallel_neighbors_by_sample_index():
    """Samples 5 and 6 count (1, 2, 1) seven and three times, so they lie at
    one distance from sample 7 and rank by index. Their L2-normalized floats
    differ by rounding, which ordered 6 first when distances were taken
    between them."""
    counts = [[9, 18, 9], [0, 18, 12], [4, 8, 4], [2, 4, 2], [0, 9, 6],
              [7, 14, 7], [3, 6, 3], [3, 4, 2]]
    plan = _plan_matches_oracle(counts, [0, 0, 0, 0, 0, 1, 1, 1], k=2, beta=1.0)
    (item,) = [item for item in plan.items if item.sample_index == 7]
    assert item.same_class_neighbors == (5, 6)


def test_plan_does_not_depend_on_the_blas_thread_count():
    """The dot products run through a BLAS matrix product, which adds its
    partial sums in another order on two threads. Integer counts keep every
    partial sum exact, so the plan for a 300-sample text corpus is the same
    on one OpenBLAS thread as on two."""
    if blas._openblas is None:
        pytest.skip("numpy's OpenBLAS was not found")
    get, set_ = blas._openblas
    corpus = make_separable_corpus({Label.ham: 150, Label.spam: 100, Label.phishing: 50}, seed=21)
    vocab = train_vocab(corpus, vocab_size=300)
    vectors = vectorize(_windows(corpus, vocab))
    labels = [int(s.label) for s in corpus.samples]
    saved = get()
    try:
        set_(2)
        if get() != 2:
            pytest.skip("OpenBLAS would not run 2 threads")
        outside = plan_adasyn(vectors, labels)
        with blas.single_thread():
            inside = plan_adasyn(vectors, labels)
    finally:
        set_(saved)
    assert not outside.is_empty
    assert inside == outside


def test_plan_r_hat_sums_to_one_per_class():
    plan = plan_adasyn([_point(*p) for p in TWELVE_POINTS], TWELVE_LABELS, k=4)
    for c in (1, 2):
        total = sum(item.r_hat for item in plan.items if item.label == c)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_plan_total_synthetic_near_target():
    plan = plan_adasyn([_point(*p) for p in TWELVE_POINTS], TWELVE_LABELS, k=4)
    for c in (1, 2):
        n_c = sum(1 for l in TWELVE_LABELS if l == c)
        assert abs(plan.total_synthetic(c) - plan.target_for(c)) <= n_c


def test_plan_uniform_fallback_when_no_class_mixing():
    # The minority counts ids the majority never uses, so every minority
    # vector is nearer its own class than any majority one, and k is small
    # enough that every neighborhood is pure: all r are 0 and the allocation
    # spreads evenly.
    points = [(1, 0), (3, 1), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]
    points = [p + (0, 0) for p in points]
    points += [(0, 0, 1, 1), (0, 0, 2, 1), (0, 0, 1, 2), (0, 0, 2, 3)]
    labels = [0] * 8 + [1] * 4
    plan = plan_adasyn([_point(*p) for p in points], labels, k=3, beta=1.0)
    minority_items = [item for item in plan.items if item.label == 1]
    assert len(minority_items) == 4
    for item in minority_items:
        assert item.r == 0.0
        assert item.r_hat == pytest.approx(0.25)
        assert item.g == 1  # half_up(0.25 * 4)


def test_plan_neighbor_ties_break_by_sample_index():
    # Single-id vectors: those on one id are at distance exactly 0, all
    # others at one equal distance, so every ranking decision is a tie
    # broken by index.
    vectors = [_unit(10), _unit(10), _unit(10), _unit(20), _unit(20), _unit(20), _unit(20)]
    labels = [1, 1, 1, 0, 0, 0, 0]
    plan = plan_adasyn(vectors, labels, k=3, beta=1.0)
    by_index = {item.sample_index: item for item in plan.items}
    assert set(by_index) == {0, 1, 2}
    # k nearest of sample 0: colocated 1 and 2 first, then the index-lowest
    # of the farther candidates -> one foreign neighbor in three.
    for i in (0, 1, 2):
        assert by_index[i].r == pytest.approx(1 / 3)
    assert by_index[0].same_class_neighbors == (1, 2)
    assert by_index[1].same_class_neighbors == (0, 2)
    assert by_index[2].same_class_neighbors == (0, 1)


def test_plan_majority_tie_prefers_lowest_label():
    vectors = [_point(*p) for p in [(1, 1), (2, 1), (3, 1), (1, 5), (2, 5), (3, 5), (9, 1), (9, 5)]]
    labels = [0, 0, 0, 1, 1, 1, 2, 2]
    plan = plan_adasyn(vectors, labels, k=3)
    assert plan.majority_label == 0
    assert dict(plan.targets) == {2: 1}


def test_plan_balanced_input_is_empty():
    vectors = [_point(*p) for p in [(1, 1), (2, 2), (5, 5), (6, 6)]]
    plan = plan_adasyn(vectors, [0, 0, 1, 1], k=2)
    assert plan.is_empty
    assert plan.targets == ()
    assert plan.total_synthetic() == 0


def test_plan_single_class_is_empty():
    vectors = [_point(*p) for p in [(1, 1), (2, 2), (3, 3)]]
    plan = plan_adasyn(vectors, [0, 0, 0], k=2)
    assert plan.is_empty


def test_plan_singleton_minority_rejected():
    vectors = [_point(*p) for p in [(1, 1), (2, 2), (3, 3), (9, 9)]]
    with pytest.raises(TooFewSamples):
        plan_adasyn(vectors, [0, 0, 0, 1], k=2)


def test_plan_needs_more_samples_than_k():
    vectors = [_point(*p) for p in [(1, 1), (2, 2), (8, 8), (9, 9), (5, 5)]]
    labels = [0, 0, 1, 1, 0]
    with pytest.raises(TooFewSamples):
        plan_adasyn(vectors, labels, k=5)
    plan_adasyn(vectors, labels, k=4)  # one more sample than k is enough


def test_plan_parameter_validation():
    vectors = [_point(*p) for p in EIGHT_POINTS]
    with pytest.raises(ValueError):
        plan_adasyn(vectors, EIGHT_LABELS, k=0)
    with pytest.raises(ValueError):
        plan_adasyn(vectors, EIGHT_LABELS, beta=0.0)
    with pytest.raises(ValueError):
        plan_adasyn(vectors, EIGHT_LABELS, beta=1.5)
    with pytest.raises(ValueError):
        plan_adasyn(vectors, EIGHT_LABELS[:-1])


def test_plan_excludes_zero_vectors():
    vectors = [_point(*p) for p in EIGHT_POINTS[:6]]
    vectors += [CountVector(indices=(), values=()), _point(2, 2), _point(8, 8)]
    labels = [0, 0, 0, 0, 0, 0, 1, 1, 1]
    plan = plan_adasyn(vectors, labels, k=3)
    assert plan.excluded == (6,)
    assert all(item.sample_index != 6 for item in plan.items)
    for item in plan.items:
        assert 6 not in item.same_class_neighbors


# ---------------------------------------------------------------------------
# splicing


def test_splice_boundaries():
    parent = [10, 11, 12, 13]
    neighbor = [20, 21, 22]
    assert _splice(parent, neighbor, 0.0) == neighbor
    assert _splice(parent, neighbor, 1.0) == parent
    # ceil(0.5*4) = 2 parent tokens, floor(0.5*3) = 1 neighbor token
    assert _splice(parent, neighbor, 0.5) == [10, 11, 22]


def test_splice_length_rule():
    parent = list(range(10))
    neighbor = list(range(100, 107))
    for lam in (0.1, 0.25, 0.33, 0.5, 0.75, 0.9):
        out = _splice(parent, neighbor, lam)
        take_parent = math.ceil(lam * len(parent))
        take_neighbor = math.floor((1 - lam) * len(neighbor))
        assert out[:take_parent] == parent[:take_parent]
        assert len(out) == take_parent + take_neighbor


# ---------------------------------------------------------------------------
# synthesis


@pytest.fixture(scope="module")
def balanced_setup():
    corpus = make_separable_corpus({Label.ham: 12, Label.spam: 8, Label.phishing: 5}, seed=13)
    vocab = train_vocab(corpus, vocab_size=300)
    return corpus, vocab


def test_synthesize_empty_plan_rejected(balanced_setup):
    corpus, vocab = balanced_setup
    vectors = [_point(*p) for p in [(1, 1), (2, 2), (5, 5), (6, 6)]]
    plan = plan_adasyn(vectors, [0, 0, 1, 1], k=2)
    with pytest.raises(NothingToBalance):
        synthesize(plan, corpus, _windows(corpus, vocab), vocab, seed=0)


def test_synthesize_marks_provenance(balanced_setup):
    corpus, vocab = balanced_setup
    before = len(corpus)
    merged, plan = balance_corpus(corpus, vocab, k=3, seed=5)
    assert merged.samples[:before] == list(corpus.samples)
    synthetics = merged.samples[before:]
    assert len(synthetics) == plan.total_synthetic()
    assert all(s.source_id == "adasyn" for s in synthetics)
    assert [s.row_index for s in synthetics] == list(range(len(synthetics)))
    assert all(s.label != Label.ham for s in synthetics)


def test_synthesize_deterministic(balanced_setup):
    corpus, vocab = balanced_setup
    a, _ = balance_corpus(corpus, vocab, k=3, seed=77)
    b, _ = balance_corpus(corpus, vocab, k=3, seed=77)
    assert [s.text for s in a.samples] == [s.text for s in b.samples]
    c, _ = balance_corpus(corpus, vocab, k=3, seed=78)
    assert [s.text for s in c.samples] != [s.text for s in a.samples]


def test_synthesize_consumes_rng_in_sample_index_order(balanced_setup):
    """Replaying two draws per synthetic (neighbor choice, then blend
    fraction) against a fresh generator reproduces the records exactly."""
    corpus, vocab = balanced_setup
    vectors = vectorize(_windows(corpus, vocab))
    labels = [int(s.label) for s in corpus.samples]
    plan = plan_adasyn(vectors, labels, k=3)
    _, records = synthesize_detailed(plan, corpus, _windows(corpus, vocab), vocab, seed=123)

    rng = np.random.default_rng(123)
    replayed = []
    for item in plan.items:
        for _ in range(item.g):
            choice = int(rng.integers(len(item.same_class_neighbors)))
            replayed.append(
                (item.same_class_neighbors[choice], float(rng.random()))
            )
    assert [(rec.neighbor_index, rec.lam) for rec in records] == replayed
    assert [rec.sample_index for rec in records] == sorted(rec.sample_index for rec in records)


def test_synthesized_tokens_come_from_parent_and_neighbor(balanced_setup):
    corpus, vocab = balanced_setup
    vectors = vectorize(_windows(corpus, vocab))
    labels = [int(s.label) for s in corpus.samples]
    plan = plan_adasyn(vectors, labels, k=3)
    _, records = synthesize_detailed(plan, corpus, _windows(corpus, vocab), vocab, seed=9)
    for rec in records:
        assert rec.neighbor_index >= 0
        parent = encode(vocab, corpus.samples[rec.sample_index].text, 128).content_ids
        neighbor = encode(vocab, corpus.samples[rec.neighbor_index].text, 128).content_ids
        assert not Counter(rec.tokens) - (Counter(parent) + Counter(neighbor))


def test_synthesize_falls_back_to_duplication_without_neighbors():
    # The second spam sample vectorizes to nothing (max_len=2 window), so
    # the surviving one has no same-class neighbor and is copied verbatim.
    texts = ["h0", "h1", "h2", "h3", "h4", "h5", "sp", "s_"]
    labels = [0, 0, 0, 0, 0, 0, 1, 1]
    corpus = _simple_corpus(texts, labels)
    vocab = Vocabulary.from_merges([])
    vectors = [_point(*p) for p in EIGHT_POINTS[:6]]
    vectors += [_unit(40), CountVector(indices=(), values=())]
    plan = plan_adasyn(vectors, labels, k=3)
    (item,) = [i for i in plan.items if i.label == 1]
    assert item.same_class_neighbors == ()
    assert item.g == 4  # whole deficit lands on the only usable seed
    merged, records = synthesize_detailed(plan, corpus, _windows(corpus, vocab), vocab, seed=3)
    assert all(rec.neighbor_index == -1 for rec in records)
    assert all(math.isnan(rec.lam) for rec in records)
    assert all(rec.text == "sp" for rec in records)
    assert len(merged) == len(corpus) + 4


def test_fallback_duplication_consumes_no_rng():
    """A verbatim duplicate draws nothing, so the next spliced synthetic
    sees the very first values of the stream."""
    texts = ["h0", "h1", "h2", "h3", "h4", "h5", "ax", "zq", "m1", "m2", "m3"]
    labels = [0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 2]
    corpus = _simple_corpus(texts, labels)
    vocab = Vocabulary.from_merges([])
    vectors = [_point(*p) for p in EIGHT_POINTS[:6]]
    vectors += [_unit(40), CountVector(indices=(), values=())]
    vectors += [_point(30, 30), _point(31, 30), _point(30, 31)]
    plan = plan_adasyn(vectors, labels, k=3)
    fallback_items = [i for i in plan.items if not i.same_class_neighbors]
    spliced_items = [i for i in plan.items if i.same_class_neighbors]
    assert fallback_items and spliced_items
    assert min(i.sample_index for i in fallback_items) < min(
        i.sample_index for i in spliced_items
    )
    _, records = synthesize_detailed(plan, corpus, _windows(corpus, vocab), vocab, seed=55)
    first_spliced = next(r for r in records if r.neighbor_index >= 0)
    rng = np.random.default_rng(55)
    item = spliced_items[0]
    expected_neighbor = item.same_class_neighbors[int(rng.integers(len(item.same_class_neighbors)))]
    assert first_spliced.neighbor_index == expected_neighbor
    assert first_spliced.lam == float(rng.random())


# ---------------------------------------------------------------------------
# end to end


def test_balance_ten_vs_three():
    corpus = make_separable_corpus({Label.ham: 10, Label.spam: 3}, seed=2)
    vocab = train_vocab(corpus, vocab_size=300)
    merged, plan = balance_corpus(corpus, vocab, seed=0)
    assert merged.class_counts[Label.ham] == 10
    assert 9 <= merged.class_counts[Label.spam] <= 11
    assert plan.target_for(int(Label.spam)) == 7


def test_balance_counts_within_minority_size(imbalanced_corpus):
    vocab = train_vocab(imbalanced_corpus, vocab_size=300)
    merged, plan = balance_corpus(imbalanced_corpus, vocab, seed=4)
    majority = max(imbalanced_corpus.class_counts.values())
    for label, before in imbalanced_corpus.class_counts.items():
        after = merged.class_counts[label]
        assert after >= before
        assert abs(after - majority) <= before


def test_balance_already_balanced_returns_input():
    corpus = make_separable_corpus({Label.ham: 6, Label.spam: 6, Label.phishing: 6}, seed=3)
    vocab = train_vocab(corpus, vocab_size=300)
    merged, plan = balance_corpus(corpus, vocab, seed=0)
    assert plan.is_empty
    assert merged.samples == corpus.samples


def test_balance_encodes_each_sample_once(imbalanced_corpus, monkeypatch):
    """Vectors and splices read the same windows: one encode per sample."""
    vocab = train_vocab(imbalanced_corpus, vocab_size=300)
    encoded = []

    def counting_encode(vocab, text, *args, **kwargs):
        encoded.append(text)
        return encode(vocab, text, *args, **kwargs)

    monkeypatch.setattr(balance_module, "encode", counting_encode)
    _, plan = balance_corpus(imbalanced_corpus, vocab, seed=4)
    assert plan.total_synthetic() > 0
    assert encoded == [s.text for s in imbalanced_corpus.samples]


def test_balance_plans_over_the_truncation_window(monkeypatch):
    # With max_len=6 only four content tokens survive, so both texts look
    # identical to the planner; with max_len=2 there is no content window.
    corpus = _simple_corpus(["aaaaffff", "aaaazzzz"], [0, 1])
    vocab = Vocabulary.from_merges([])
    planned = []

    def capture(vectors, *args, **kwargs):
        planned.append(vectors)
        return plan_adasyn(vectors, *args, **kwargs)

    monkeypatch.setattr(balance_module, "plan_adasyn", capture)
    balance_corpus(corpus, vocab, max_len=6)
    balance_corpus(corpus, vocab, max_len=2)
    short, empty = planned
    assert short[0] == short[1]
    assert short[0].indices == (4 + ord("a"),)
    assert all(vec.is_zero for vec in empty)


def test_synthesize_rejects_windows_of_another_corpus(balanced_setup):
    corpus, vocab = balanced_setup
    plan = plan_adasyn(vectorize(_windows(corpus, vocab)), [int(s.label) for s in corpus.samples])
    with pytest.raises(ValueError, match="windows but"):
        synthesize(plan, corpus, _windows(corpus, vocab)[:-1], vocab, seed=0)


def test_balance_report_shape(imbalanced_corpus):
    vocab = train_vocab(imbalanced_corpus, vocab_size=300)
    merged, _ = balance_corpus(imbalanced_corpus, vocab, seed=4)
    report = balance_report(imbalanced_corpus, merged)
    assert set(report) == {"before", "after", "added"}
    assert report["before"] == {"ham": 30, "spam": 20, "phishing": 10}
    for name in ("ham", "spam", "phishing"):
        assert report["added"][name] == report["after"][name] - report["before"][name]
    assert report["added"]["ham"] == 0
