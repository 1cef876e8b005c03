"""System-level acceptance checks, one per core guarantee of the pipeline.

Each test covers one end-to-end property — gradient correctness, optimizer
fidelity, metric/oversampling oracle equivalence, end-to-end learning,
determinism, split protocol, tokenizer round trip — and prints a single
PASS line when it holds. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from ipsdm.balance import CountVector, balance_corpus, plan_adasyn
from ipsdm.cli import main as cli_main
from ipsdm.corpus import Corpus, Label, LabeledEmail, SplitSpec, merge, split
from ipsdm.metrics import confusion, cross_entropy, score, softmax
from ipsdm.model import ModelConfig, forward, backward, init
from ipsdm.optim import OptimizerHyperparams, adamw_step, init_state
from ipsdm.tokenizer import decode, encode, train_vocab
from ipsdm.trainer import TrainingConfig, load_checkpoint, save_checkpoint, train

from conftest import keyword_label, make_separable_corpus
from oracles import (
    corpus_pieces,
    exhaustive_adasyn_plan,
    finite_difference_gradient,
    naive_bpe_merges,
    scalar_adamw_trace,
    tally_confusion,
    tally_scores,
)


def _report(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number} PASS — {message}")


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_check_every_parameter_group():
    """Central finite differences (64-bit, step 1e-5) agree with the analytic
    backward pass to relative error < 1e-4 in every parameter tensor of the
    full-size model, on a 2-sample batch, in under two minutes."""
    started = time.monotonic()
    from ipsdm.tokenizer import Vocabulary

    vocab = Vocabulary.from_merges([])
    config = ModelConfig(
        num_layers=2, num_heads=4, d_model=128, d_ff=256, max_len=16,
        vocab_size=vocab.size, dropout_rate=0.0,
    )
    params = init(config, seed=0, dtype=np.float64)
    # Fresh-init weights put attention so close to uniform that some gradient
    # entries sit near 1e-10, below central-difference resolution; scaling the
    # weights and jittering the normalization parameters keeps every path
    # active without changing what is being differentiated.
    rng = np.random.default_rng(1)
    for name, tensor in params.tensors.items():
        if "ln" in name:
            tensor += rng.normal(0.0, 0.2, size=tensor.shape)
        elif name == "classifier.bias":
            tensor += rng.normal(0.0, 0.3, size=tensor.shape)
        else:
            tensor *= 6.0

    texts = ["free cash now", "team meeting notes"]
    labels = np.array([Label.spam, Label.ham], dtype=np.int64)
    batch = [encode(vocab, text, config.max_len) for text in texts]

    def loss_fn():
        logits, _ = forward(params, batch, training=False)
        return cross_entropy(logits, labels)[0]

    logits, cache = forward(params, batch, training=False)
    _, dlogits = cross_entropy(logits, labels)
    grads = backward(params, cache, dlogits)

    pos_rng = np.random.default_rng(7)
    used_ids = sorted({i for seq in batch for i in seq.ids})
    checked = 0
    worst = 0.0
    for name in sorted(params.tensors):
        tensor = params.tensors[name]
        if name == "token_embedding":
            # only rows gathered by this batch receive gradient
            d = tensor.shape[1]
            rows = pos_rng.choice(used_ids, size=3, replace=False)
            positions = [int(r) * d + int(pos_rng.integers(d)) for r in rows]
        else:
            count = min(4, tensor.size)
            positions = [int(p) for p in pos_rng.choice(tensor.size, size=count, replace=False)]
        numeric = finite_difference_gradient(loss_fn, tensor, positions, step=1e-5)
        analytic = grads[name].reshape(-1)
        for position, fd_value in numeric.items():
            rel = abs(analytic[position] - fd_value) / max(
                abs(analytic[position]), abs(fd_value), 1e-6
            )
            assert rel < 1e-4, (name, position, analytic[position], fd_value)
            worst = max(worst, rel)
            checked += 1

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s"
    _report(1, f"{checked} positions across {len(params.tensors)} tensors, "
               f"worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. update-rule fidelity


def test_criterion_2_update_rule_matches_scalar_trace():
    """Three optimizer steps on a single weight match an independent
    straight-line evaluation of the update equations to 1e-12, for both
    variants; the bias-correction identity holds after step one."""
    grads = [1.0, -1.0, 0.5]
    for variant in ("paper", "decoupled"):
        hyper = OptimizerHyperparams(variant=variant)
        tensors = {"z": np.array([0.3], dtype=np.float64)}
        state = init_state(tensors)
        got = []
        for g in grads:
            adamw_step(tensors, {"z": np.array([g], dtype=np.float64)}, state, hyper)
            got.append(float(tensors["z"][0]))
        want, _, _ = scalar_adamw_trace(0.3, grads, variant=variant)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    # bias correction: with constant gradient g, m_hat == g and v_hat == g**2
    # exactly (up to rounding) after the first step
    for g in (0.7, -1.3):
        hyper = OptimizerHyperparams(variant="decoupled")
        tensors = {"z": np.zeros(1, dtype=np.float64)}
        state = init_state(tensors)
        adamw_step(tensors, {"z": np.full(1, g)}, state, hyper)
        m_hat = float(state.m["z"][0]) / (1.0 - hyper.beta1)
        v_hat = float(state.v["z"][0]) / (1.0 - hyper.beta2)
        np.testing.assert_allclose(m_hat, g, rtol=1e-15)
        np.testing.assert_allclose(v_hat, g * g, rtol=1e-15)

    _report(2, "3-step traces match the scalar evaluation to 1e-12 for both "
               "variants; bias-correction identity holds")


# ---------------------------------------------------------------------------
# 3. metrics oracle equivalence


def test_criterion_3_metrics_match_brute_force_tally():
    """score() agrees exactly with a first-principles TP/FP/FN tally on 1,000
    random confusion fixtures; uniform logits give ln(3) cross-entropy; the
    softmax is bitwise shift-invariant."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        y_true = rng.integers(0, 3, size=n)
        y_pred = rng.integers(0, 3, size=n)
        matrix = confusion(y_true, y_pred)
        expected_counts = tally_confusion(y_true, y_pred)
        assert [list(row) for row in matrix.counts] == expected_counts
        got = score(matrix)
        accuracy, per_class = tally_scores(expected_counts)
        assert got.accuracy == accuracy
        for c, (p, r, f1) in enumerate(per_class):
            assert got.per_class[c].precision == p
            assert got.per_class[c].recall == r
            assert got.per_class[c].f1 == f1
        assert got.macro_precision == sum(p for p, _, _ in per_class) / 3
        assert got.macro_recall == sum(r for _, r, _ in per_class) / 3
        assert got.macro_f1 == sum(f for _, _, f in per_class) / 3

    labels = rng.integers(0, 3, size=64)
    loss, _ = cross_entropy(np.zeros((64, 3)), labels)
    assert abs(loss - math.log(3.0)) < 1e-12

    logits = rng.integers(-8, 9, size=(32, 3)).astype(np.float64)
    for shift in (1.0, -64.0, 1024.0):
        assert (softmax(logits) == softmax(logits + shift)).all()

    _report(3, "1000 random fixtures match the brute-force tally exactly; "
               "uniform CE = ln 3; softmax shift-invariant bitwise")


# ---------------------------------------------------------------------------
# 4. oversampling correctness


def _dense_to_vectors(points):
    """2-D integer points as count vectors of ids 0 and 1."""
    return [CountVector((0, 1), (x, y)) for x, y in points]


def test_criterion_4_oversampling_plan_matches_exhaustive_oracle():
    """The allocation plan (r, r_hat, g, G and each sample's same-class
    neighbors) matches an exhaustive, exact pairwise cosine oracle on fixed
    2-D count fixtures, and balancing drives every class to within one
    original minority size of the majority count."""
    two_class = (
        [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (10, 10), (11, 10)],
        [0, 0, 0, 0, 0, 0, 1, 1],
        3,
    )
    three_class = (
        [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2),
         (10, 1), (11, 1), (10, 2), (11, 2), (6, 6), (7, 6)],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2],
        5,
    )
    for points, labels, k in (two_class, three_class):
        for beta in (1.0, 0.4):
            plan = plan_adasyn(
                _dense_to_vectors(points), [Label(l) for l in labels], k=k, beta=beta
            )
            oracle = exhaustive_adasyn_plan(points, labels, k=k, beta=beta)
            items = {item.sample_index: item for item in plan.items}
            for c, (g_total, allocation) in oracle.items():
                assert plan.target_for(Label(c)) == g_total
                for i, (r, r_hat, g, same) in allocation.items():
                    assert items[i].r == r, (c, i)
                    assert items[i].r_hat == r_hat, (c, i)
                    assert items[i].g == g, (c, i)
                    assert items[i].same_class_neighbors == same, (c, i)

    corpus = make_separable_corpus(
        {Label.ham: 30, Label.spam: 20, Label.phishing: 10}, seed=7
    )
    vocab = train_vocab(corpus, vocab_size=300)
    balanced, _ = balance_corpus(corpus, vocab, k=5, beta=1.0, seed=0, max_len=48)
    majority = max(corpus.class_counts.values())
    for label, before in corpus.class_counts.items():
        after = balanced.class_counts[label]
        assert abs(after - majority) <= before, (label, before, after, majority)

    _report(4, "allocation plans equal the exact exhaustive oracle on 2-D count fixtures; "
               "balanced counts land within one minority size of the majority")


# ---------------------------------------------------------------------------
# 5. end-to-end learning


def test_criterion_5_end_to_end_pipeline_learns(tmp_path):
    """On a 300-sample keyword-separable corpus the full pipeline (prepare,
    tokenizer, balance, train, evaluate) reaches >= 90% test accuracy within
    10 epochs at the default model size, with a validation/test accuracy gap
    under 0.05, in under five minutes."""
    started = time.monotonic()
    corpus = make_separable_corpus(
        {Label.ham: 150, Label.spam: 100, Label.phishing: 50}, seed=13
    )
    assert len(corpus) == 300
    for sample in corpus.samples:  # independent labeling rule agrees everywhere
        assert keyword_label(sample.text) == sample.label

    source = tmp_path / "mail.csv"
    with open(source, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Email", "Category"])
        for sample in corpus.samples:
            writer.writerow([sample.text, sample.label.name])

    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "data": {"sources": [{"path": str(source)}]},
        "split": {"seed": 0},
        "balance": {"k": 5, "beta": 1.0},
        "tokenizer": {"vocab_size": 500},
        "model": {"num_layers": 2, "num_heads": 4, "d_model": 128, "d_ff": 256,
                  "max_len": 64, "dropout_rate": 0.1},
        "training": {"train_batch_size": 16, "num_epochs": 10, "seed": 0,
                     "optimizer": {"learning_rate": 1e-3}},
        "output_dir": str(out),
    }), encoding="utf-8")

    stages = (
        ["prepare"],
        ["tokenizer-train"],
        ["balance"],
        ["train"],
        ["evaluate", "--split", "validation", "--model-name", "desk"],
        ["evaluate", "--split", "test", "--model-name", "desk"],
    )
    for argv in stages:
        assert cli_main(argv + ["--config", str(config_path)]) == 0, argv

    history = json.loads((out / "history.json").read_text())
    assert len(history) <= 10
    val = json.loads((out / "report_validation.json").read_text())
    test = json.loads((out / "report_test.json").read_text())
    gap = abs(val["accuracy"] - test["accuracy"])
    assert test["accuracy"] >= 0.90, test["accuracy"]
    assert gap < 0.05, gap

    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"pipeline took {elapsed:.1f}s"
    _report(5, f"test accuracy {test['accuracy']:.4f}, val/test gap {gap:.4f}, "
               f"{len(history)} epochs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. determinism and resume


def test_criterion_6_determinism_and_bit_exact_resume(tmp_path):
    """Identical seeds give bit-identical checkpoints, and stopping after
    epoch 2 then resuming from disk reproduces the uninterrupted 4-epoch run
    bit for bit."""
    corpus = make_separable_corpus({Label.ham: 8, Label.spam: 6}, seed=3)
    vocab = train_vocab(corpus, vocab_size=300)
    config = TrainingConfig(
        model=ModelConfig(
            num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=24,
            vocab_size=vocab.size, dropout_rate=0.1,
        ),
        optimizer=OptimizerHyperparams(learning_rate=1e-3, variant="decoupled"),
        train_batch_size=4,
        num_epochs=4,
        seed=0,
    )

    first, history_a = train(config, corpus, corpus, vocab)
    second, history_b = train(config, corpus, corpus, vocab)
    assert set(first.tensors) == set(second.tensors)
    for name in first.tensors:
        assert np.array_equal(first.tensors[name], second.tensors[name]), name
    assert [r.as_dict() for r in history_a] == [r.as_dict() for r in history_b]

    partial, _ = train(config, corpus, corpus, vocab, stop_after_epoch=2)
    assert partial.resumable
    path = tmp_path / "partial.ckpt"
    save_checkpoint(partial, path)
    resumed, history_c = train(
        config, corpus, corpus, vocab, resume_from=load_checkpoint(path)
    )
    assert set(resumed.tensors) == set(first.tensors)
    for name in first.tensors:
        assert np.array_equal(resumed.tensors[name], first.tensors[name]), name
    assert [r.as_dict() for r in history_c] == [r.as_dict() for r in history_a]
    assert (resumed.best_epoch, resumed.best_metric) == (first.best_epoch, first.best_metric)

    _report(6, "two seeded runs and a stop/save/resume run produce "
               "bit-identical checkpoints and histories")


# ---------------------------------------------------------------------------
# 7. data protocol fidelity


def test_criterion_7_counts_and_split_sizes():
    """A corpus shaped like the published dataset mix loads to counts
    {ham: 4825, spam: 747, phishing: 189} (total 5761) and the 60/20/20 floor
    rule yields split sizes 3457/1152/1152."""
    counts = {Label.ham: 4825, Label.spam: 747, Label.phishing: 189}
    samples = []
    row = 0
    for label, count in counts.items():
        for _ in range(count):
            samples.append(LabeledEmail(f"message {row}", label, "fixture", row))
            row += 1
    corpus = merge([Corpus.from_samples(samples)])
    assert corpus.class_counts == counts
    assert len(corpus) == 5761

    spec = SplitSpec(
        train_fraction=0.6, val_fraction=0.2, test_fraction=0.2,
        seed=0, stratified=False,
    )
    train_split, val_split, test_split = split(corpus, spec)
    assert (len(train_split), len(val_split), len(test_split)) == (3457, 1152, 1152)

    _report(7, "counts {ham: 4825, spam: 747, phishing: 189} split to "
               "3457/1152/1152 under the floor rule")


# ---------------------------------------------------------------------------
# 8. tokenizer round trip


TWENTY_LINES = [
    "the meeting is moved to thursday afternoon",
    "please review the attached budget figures",
    "lunch order closes at eleven thirty",
    "the server restart window opens tonight",
    "quarterly report numbers look solid",
    "win a free cruise claim your prize today",
    "free free free click now to claim cash",
    "limited offer expires tonight act now",
    "congratulations you won a gift card",
    "cheap meds online no prescription needed",
    "verify your account or it will be closed",
    "your password expires click to reset now",
    "unusual sign in detected confirm identity",
    "update billing information to avoid suspension",
    "security alert confirm your bank details",
    "the printer on floor two is jammed again",
    "team offsite agenda attached please read",
    "reminder dentist appointment friday morning",
    "invoice for march services attached here",
    "the cafeteria menu changes next week",
]

ROUND_TRIP_TEXTS = [
    "plain ascii text",
    "tabs\tand  double  spaces",
    "héllo wörld café",
    "数据 安全 通知",
    "Привет мир",
    "mixed: ascii + héllo + 数据 + 🙂",
]


def test_criterion_8_tokenizer_round_trip_and_merge_oracle():
    """decode(encode(t)) reproduces every fixture text byte for byte, and the
    learned merge list equals a full-recount pair-frequency oracle over the
    pieces of a 20-line fixture."""
    labels = list(Label)
    samples = [
        LabeledEmail(line, labels[i % 3], "fixture", i)
        for i, line in enumerate(TWENTY_LINES)
    ]
    corpus = Corpus.from_samples(samples)
    vocab = train_vocab(corpus, vocab_size=300)
    expected = naive_bpe_merges(corpus_pieces(TWENTY_LINES), 40)
    assert vocab.merges == expected

    for text in TWENTY_LINES + ROUND_TRIP_TEXTS:
        sequence = encode(vocab, text, max_len=128)
        assert sequence.true_length <= 128  # fixture texts all fit
        decoded = decode(vocab, sequence.content_ids)
        assert decoded == text
        assert decoded.encode("utf-8") == text.encode("utf-8")

    _report(8, f"{len(TWENTY_LINES) + len(ROUND_TRIP_TEXTS)} texts round-trip "
               f"byte-for-byte; {len(vocab.merges)} merges equal the oracle")
