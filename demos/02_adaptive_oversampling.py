#!/usr/bin/env python3
"""
Show how the adaptive oversampler decides where to put synthetic minority
samples: hard-to-learn samples (minority points surrounded by other classes)
get more synthetics than samples deep inside their own cluster.
"""

from ipsdm.balance import CountVector, balance_corpus, plan_adasyn, synthesize_detailed
from ipsdm.corpus import Corpus, Label, LabeledEmail
from ipsdm.tokenizer import encode, train_vocab

# Each sample is how often it uses three words, say "meeting", "free" and
# "claim"; neighbours are ranked by the angle between these count vectors.
# Six "ham" samples and a small "spam" group. One spam sample points almost
# where the ham cluster points (hard), the other two far away (easy).
POINTS = [
    (5, 1, 0), (4, 1, 0), (6, 1, 0), (5, 2, 0), (3, 1, 0), (4, 2, 0),  # ham
    (4, 1, 1),   # spam, embedded in the ham cluster
    (0, 1, 5), (0, 2, 5),  # spam, isolated pair
]
LABELS = [Label.ham] * 6 + [Label.spam] * 3

HAM_TEXTS = [
    "meeting notes attached for review",
    "lunch order closes at noon",
    "printer on floor two is jammed",
    "quarterly figures look solid",
    "agenda for the team offsite",
    "dentist reminder friday morning",
]
SPAM_TEXTS = [
    "win a free prize claim now",
    "free cash offer expires tonight",
    "claim your free gift card today",
]


def main():
    # -- geometric view -----------------------------------------------------
    vectors = [
        CountVector(tuple(i for i, c in enumerate(point) if c), tuple(c for c in point if c))
        for point in POINTS
    ]
    plan = plan_adasyn(vectors, LABELS, k=3, beta=1.0)

    print(f"majority class: {Label(plan.majority_label).name}")
    print(f"synthetic targets per class: "
          f"{{ {', '.join(f'{Label(c).name}: {g}' for c, g in plan.targets)} }}")
    print("\nper-sample allocation (r = other-class share of the neighborhood):")
    for item in plan.items:
        print(f"  sample {item.sample_index} counts {POINTS[item.sample_index]}: "
              f"r={item.r:.3f}  r_hat={item.r_hat:.3f}  -> {item.g} synthetic(s)")

    embedded = next(i for i in plan.items if i.sample_index == 6)
    isolated = [i for i in plan.items if i.sample_index in (7, 8)]
    assert embedded.r >= max(i.r for i in isolated), (
        "the embedded point should look at least as hard as the isolated ones"
    )

    # -- the same machinery on text ------------------------------------------
    samples = [
        LabeledEmail(text, label, "demo", i)
        for i, (text, label) in enumerate(
            [(t, Label.ham) for t in HAM_TEXTS] + [(t, Label.spam) for t in SPAM_TEXTS]
        )
    ]
    corpus = Corpus.from_samples(samples)
    vocab = train_vocab(corpus, vocab_size=280)

    balanced, text_plan = balance_corpus(corpus, vocab, k=3, beta=1.0, seed=0, max_len=32)
    before = {l.name: corpus.class_counts[l] for l in Label}
    after = {l.name: balanced.class_counts[l] for l in Label}
    print(f"\ntext corpus counts: {before} -> {after}")

    # each synthetic keeps a prefix of its parent and a suffix of a same-class
    # neighbor; the provenance records show exactly which pair produced it
    windows = [encode(vocab, s.text, 32).content_ids for s in corpus.samples]
    _, records = synthesize_detailed(text_plan, corpus, windows, vocab, seed=0)
    print("synthetic spam with provenance:")
    for record in records:
        print(f"  parent {record.sample_index} + neighbor {record.neighbor_index} "
              f"(lambda={record.lam:.3f}): {record.text!r}")


if __name__ == "__main__":
    main()
