"""Training loop, checkpoint container, resume equivalence, gap reporting."""

import json
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from ipsdm.corpus import Corpus, Label
from ipsdm.errors import (
    ConfigError,
    CorruptFile,
    DivergedLoss,
    EmptySplit,
    VersionMismatch,
    VocabularyMismatch,
)
from ipsdm.metrics import SplitScores, confusion, score
from ipsdm.model import ModelConfig, init
from ipsdm.optim import OptimizerHyperparams
from ipsdm.trainer import (
    OVERFIT_GAP_THRESHOLD,
    Checkpoint,
    EarlyStopping,
    EpochRecord,
    GapRecord,
    TrainingConfig,
    check_vocabulary,
    evaluate,
    gap_warns,
    load_checkpoint,
    make_batches,
    overfit_gap,
    save_checkpoint,
    train,
)
from ipsdm.tokenizer import train_vocab, vocab_sha256

from conftest import make_separable_corpus, rewrite_checkpoint


def _training_setup(counts, seed=0, **overrides):
    corpus = make_separable_corpus(counts, seed=seed)
    vocab = train_vocab(corpus, vocab_size=300)
    model = ModelConfig(
        num_layers=1,
        num_heads=2,
        d_model=16,
        d_ff=32,
        max_len=overrides.pop("max_len", 24),
        vocab_size=vocab.size,
        dropout_rate=overrides.pop("dropout_rate", 0.0),
    )
    optimizer = overrides.pop(
        "optimizer",
        OptimizerHyperparams(learning_rate=1e-3, variant="decoupled"),
    )
    config = TrainingConfig(model=model, optimizer=optimizer, **overrides)
    return corpus, vocab, config


@pytest.fixture(scope="module")
def memorized():
    """A 10-sample run at the full default model size that memorizes its
    training data.  The throwaway 16-wide model used elsewhere is too small
    to reach accuracy 1.0 at this learning rate, so this fixture pays for
    the real configuration once per module."""
    corpus = make_separable_corpus(
        {Label.ham: 4, Label.spam: 3, Label.phishing: 3}, seed=1
    )
    vocab = train_vocab(corpus, vocab_size=300)
    model = ModelConfig(
        num_layers=2,
        num_heads=4,
        d_model=128,
        d_ff=256,
        max_len=32,
        vocab_size=vocab.size,
        dropout_rate=0.0,
    )
    config = TrainingConfig(
        model=model,
        optimizer=OptimizerHyperparams(learning_rate=1e-3, variant="decoupled"),
        train_batch_size=2,
        num_epochs=10,
        seed=1,
    )
    checkpoint, history = train(config, corpus, corpus, vocab)
    return corpus, vocab, config, checkpoint, history


# ---------------------------------------------------------------------------
# batching


def test_make_batches_sizes_and_coverage():
    corpus = make_separable_corpus({Label.ham: 50, Label.spam: 30, Label.phishing: 20}, seed=0)
    batches = make_batches(corpus, 32, shuffle=False, seed=0, epoch=1)
    assert [len(b) for b in batches] == [32, 32, 32, 4]
    flat = [i for b in batches for i in b]
    assert flat == list(range(100))  # unshuffled order is the identity


def test_make_batches_shuffle_is_per_epoch_deterministic():
    corpus = make_separable_corpus({Label.ham: 30, Label.spam: 20}, seed=0)
    a = make_batches(corpus, 8, shuffle=True, seed=5, epoch=1)
    b = make_batches(corpus, 8, shuffle=True, seed=5, epoch=1)
    assert a == b
    c = make_batches(corpus, 8, shuffle=True, seed=5, epoch=2)
    assert a != c
    d = make_batches(corpus, 8, shuffle=True, seed=6, epoch=1)
    assert a != d
    flat = sorted(i for batch in a for i in batch)
    assert flat == list(range(50))


def test_make_batches_pinned_epoch_order():
    # one epoch's order for a fixed (seed, epoch), as the original inline
    # Fisher-Yates shuffle produced it
    corpus = make_separable_corpus({Label.ham: 8, Label.spam: 5}, seed=0)
    batches = make_batches(corpus, 5, shuffle=True, seed=3, epoch=2)
    assert batches == [[1, 4, 8, 5, 3], [9, 11, 12, 2, 7], [6, 0, 10]]
    assert all(type(i) is int for batch in batches for i in batch)


def test_make_batches_oversized_batch():
    corpus = make_separable_corpus({Label.ham: 3}, seed=0)
    batches = make_batches(corpus, 100, shuffle=False, seed=0, epoch=1)
    assert [len(b) for b in batches] == [3]


def test_make_batches_rejects_bad_input():
    corpus = make_separable_corpus({Label.ham: 3}, seed=0)
    with pytest.raises(EmptySplit):
        make_batches(Corpus.from_samples([]), 8, shuffle=False, seed=0, epoch=1)
    with pytest.raises(ConfigError):
        make_batches(corpus, 0, shuffle=False, seed=0, epoch=1)


# ---------------------------------------------------------------------------
# train


def test_train_single_epoch_record(memorized):
    corpus, vocab, config, checkpoint, history = memorized
    assert len(history) == config.num_epochs
    first = history[0]
    assert first.epoch == 1
    assert np.isfinite(first.train_loss) and first.train_loss > 0
    assert np.isfinite(first.val_loss)
    assert 0.0 <= first.val_accuracy <= 1.0
    assert first.learning_rate == config.optimizer.learning_rate
    assert "wall_time" not in first.as_dict()

    assert not checkpoint.resumable
    assert checkpoint.optimizer_step is None
    assert checkpoint.vocab_sha256 == vocab_sha256(vocab)
    assert not any(k.startswith(("best.", "opt.")) for k in checkpoint.tensors)
    params = checkpoint.model_parameters()
    reference = init(config.model, seed=0)
    assert set(params.tensors) == set(reference.tensors)
    for name in params.tensors:
        assert params.tensors[name].shape == reference.tensors[name].shape


def test_train_memorizes_and_loss_decreases(memorized):
    _, _, _, checkpoint, history = memorized
    losses = [r.train_loss for r in history[:5]]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses
    assert history[-1].val_accuracy == 1.0
    assert checkpoint.best_metric == 1.0


def test_train_zero_learning_rate_keeps_parameters():
    corpus, vocab, config = _training_setup(
        {Label.ham: 4, Label.spam: 4},
        num_epochs=2,
        optimizer=OptimizerHyperparams(learning_rate=0.0, variant="decoupled"),
    )
    checkpoint, history = train(config, corpus, corpus, vocab)
    reference = init(config.model, seed=config.seed)
    for name, tensor in checkpoint.model_parameters().tensors.items():
        assert np.array_equal(tensor, reference.tensors[name]), name
    assert len(history) == 2
    assert history[0].val_accuracy == history[1].val_accuracy


def test_train_rejects_vocab_size_mismatch():
    corpus, vocab, config = _training_setup({Label.ham: 4, Label.spam: 4})
    bad_model = replace(config.model, vocab_size=config.model.vocab_size + 7)
    with pytest.raises(ConfigError):
        train(replace(config, model=bad_model), corpus, corpus, vocab)


def test_train_rejects_empty_splits():
    corpus, vocab, config = _training_setup({Label.ham: 4, Label.spam: 4})
    empty = Corpus.from_samples([])
    with pytest.raises(EmptySplit):
        train(config, empty, corpus, vocab)
    with pytest.raises(EmptySplit):
        train(config, corpus, empty, vocab)


def test_train_keeps_best_epoch_parameters():
    """The final checkpoint must hold the weights from the best validation
    epoch, not the last one: a shorter run stopped at that epoch produces
    bit-identical tensors."""
    corpus, vocab, config = _training_setup(
        {Label.ham: 6, Label.spam: 5, Label.phishing: 5},
        num_epochs=6,
        train_batch_size=4,
        optimizer=OptimizerHyperparams(learning_rate=5e-3, variant="decoupled"),
    )
    checkpoint, history = train(config, corpus, corpus, vocab)
    best = checkpoint.best_epoch
    accuracies = [r.val_accuracy for r in history]
    assert checkpoint.best_metric == max(accuracies)
    assert best == accuracies.index(max(accuracies)) + 1  # strict improvement

    partial, _ = train(config, corpus, corpus, vocab, stop_after_epoch=best)
    final_tensors = checkpoint.model_parameters().tensors
    at_best = partial.model_parameters().tensors  # current weights after epoch `best`
    for name in final_tensors:
        assert np.array_equal(final_tensors[name], at_best[name]), name


def test_train_early_stopping_patience():
    # lr=0 freezes the validation metric, so the first epoch is the best and
    # training halts after `patience` non-improving epochs.
    for patience, expected_epochs in ((1, 2), (2, 3)):
        corpus, vocab, config = _training_setup(
            {Label.ham: 4, Label.spam: 4},
            num_epochs=10,
            optimizer=OptimizerHyperparams(learning_rate=0.0, variant="decoupled"),
            early_stopping=EarlyStopping(enabled=True, patience=patience),
        )
        _, history = train(config, corpus, corpus, vocab)
        assert len(history) == expected_epochs


def test_train_divergence_raises_with_checkpoint():
    """The "paper" update rule multiplies zero-gradient parameters by
    -(lr*wd/eps) every step, so rows that are read in the forward pass but
    receive no gradient (the padding embedding row, read at the padded
    positions of the batch's shorter texts) overflow after a dozen steps and
    poison the loss.  Full-batch training
    confines the blowup to those rows — with smaller batches any token that
    sits out a few consecutive steps explodes before finishing epoch 1 —
    so several epochs complete first and the error must carry the last good
    checkpoint."""
    corpus, vocab, config = _training_setup(
        {Label.ham: 4, Label.spam: 3, Label.phishing: 3},
        seed=2,
        max_len=48,
        train_batch_size=10,
        num_epochs=25,
        optimizer=OptimizerHyperparams(
            learning_rate=1e-3, weight_decay=0.01, epsilon=1e-8, variant="paper"
        ),
    )
    with pytest.raises(DivergedLoss) as excinfo:
        with np.errstate(all="ignore"):
            train(config, corpus, corpus, vocab)
    err = excinfo.value
    assert isinstance(err.checkpoint, Checkpoint)
    assert not err.checkpoint.resumable
    assert len(err.checkpoint.history) >= 1
    assert err.checkpoint.history[-1].epoch == len(err.checkpoint.history)


def test_train_divergence_first_seen_in_validation_raises_with_checkpoint():
    """One full-batch update at learning rate 1e20 leaves finite gradients
    but parameters near 1e20, whose products overflow float32 in the
    epoch's validation pass: that is a divergence, as in a training step."""
    corpus, vocab, config = _training_setup(
        {Label.ham: 4, Label.spam: 3, Label.phishing: 3},
        train_batch_size=10,
        num_epochs=2,
        optimizer=OptimizerHyperparams(learning_rate=1e20, variant="decoupled"),
    )
    with pytest.raises(DivergedLoss, match="in epoch 1: .*non-finite") as excinfo:
        with np.errstate(all="ignore"):
            train(config, corpus, corpus, vocab)
    assert isinstance(excinfo.value.checkpoint, Checkpoint)
    assert excinfo.value.checkpoint.history == []


def test_train_bit_identical_across_runs():
    corpus, vocab, config = _training_setup(
        {Label.ham: 5, Label.spam: 5},
        num_epochs=3,
        train_batch_size=4,
        dropout_rate=0.1,
    )
    first, history_a = train(config, corpus, corpus, vocab)
    second, history_b = train(config, corpus, corpus, vocab)
    assert set(first.tensors) == set(second.tensors)
    for name in first.tensors:
        assert np.array_equal(first.tensors[name], second.tensors[name]), name
    assert [r.as_dict() for r in history_a] == [r.as_dict() for r in history_b]


@pytest.mark.parametrize("schedule", ["constant", "linear_decay"])
def test_resume_matches_uninterrupted_run(schedule, tmp_path):
    """Stop after epoch 2 of 4, resume (through a disk round trip), and
    compare bitwise with the uninterrupted run."""
    corpus, vocab, config = _training_setup(
        {Label.ham: 6, Label.spam: 5, Label.phishing: 5},
        num_epochs=4,
        train_batch_size=4,
        dropout_rate=0.1,
        lr_schedule=schedule,
    )
    full, full_history = train(config, corpus, corpus, vocab)

    partial, partial_history = train(config, corpus, corpus, vocab, stop_after_epoch=2)
    assert partial.resumable
    assert len(partial_history) == 2
    assert partial.optimizer_step == 2 * 4  # 16 samples / batch 4, two epochs
    path = tmp_path / "mid.ckpt"
    save_checkpoint(partial, path)
    reloaded = load_checkpoint(path)

    resumed, resumed_history = train(config, corpus, corpus, vocab, resume_from=reloaded)
    assert [r.as_dict() for r in resumed_history] == [r.as_dict() for r in full_history]
    assert set(resumed.tensors) == set(full.tensors)
    for name in full.tensors:
        assert np.array_equal(resumed.tensors[name], full.tensors[name]), name
    assert resumed.best_epoch == full.best_epoch
    assert resumed.best_metric == full.best_metric


def test_resume_rejects_wrong_vocab_and_final_checkpoints():
    corpus, vocab, config = _training_setup(
        {Label.ham: 4, Label.spam: 4}, num_epochs=2
    )
    final, _ = train(config, corpus, corpus, vocab)
    with pytest.raises(ValueError):
        train(config, corpus, corpus, vocab, resume_from=final)

    partial, _ = train(config, corpus, corpus, vocab, stop_after_epoch=1)
    other_corpus = make_separable_corpus({Label.ham: 6, Label.spam: 6}, seed=9)
    other_vocab = train_vocab(other_corpus, vocab_size=290)
    bad = replace(config, model=replace(config.model, vocab_size=other_vocab.size))
    with pytest.raises(VocabularyMismatch):
        train(bad, corpus, corpus, other_vocab, resume_from=partial)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_memorized_split(memorized):
    corpus, vocab, _, checkpoint, _ = memorized
    report = evaluate(checkpoint, corpus, vocab, split_name="train")
    assert report.split == "train"
    assert report.scores.accuracy == 1.0
    diag = [report.matrix.counts[i][i] for i in range(3)]
    assert diag == [4, 3, 3]


def test_evaluate_deterministic_and_batch_size_free(memorized):
    corpus, vocab, _, checkpoint, _ = memorized
    a = evaluate(checkpoint, corpus, vocab)
    b = evaluate(checkpoint, corpus, vocab)
    assert a.as_dict() == b.as_dict()
    c = evaluate(checkpoint, corpus, vocab, batch_size=3)
    assert c.matrix.counts == a.matrix.counts


def test_evaluate_guards(memorized):
    corpus, _, _, checkpoint, _ = memorized
    other = make_separable_corpus({Label.ham: 4, Label.spam: 4}, seed=30)
    wrong_vocab = train_vocab(other, vocab_size=290)
    with pytest.raises(VocabularyMismatch):
        evaluate(checkpoint, corpus, wrong_vocab)
    with pytest.raises(EmptySplit):
        evaluate(checkpoint, Corpus.from_samples([]), wrong_vocab)


def test_check_vocabulary_compares_hash_and_size(memorized):
    corpus, vocab, _, checkpoint, _ = memorized
    check_vocabulary(checkpoint, vocab)
    fewer = replace(checkpoint, config=replace(checkpoint.config, vocab_size=vocab.size - 1))
    with pytest.raises(VocabularyMismatch, match=f"{vocab.size} tokens, the model has"):
        check_vocabulary(fewer, vocab)
    with pytest.raises(VocabularyMismatch):
        evaluate(fewer, corpus, vocab)
    with pytest.raises(VocabularyMismatch, match="trained with another"):
        check_vocabulary(replace(checkpoint, vocab_sha256="0" * 64), vocab)


# ---------------------------------------------------------------------------
# overfit gap


def _split_scores(correct_per_class, wrong):
    """SplitScores with a hand-built confusion matrix."""
    true, pred = [], []
    for c, n in enumerate(correct_per_class):
        true.extend([c] * n)
        pred.extend([c] * n)
    for t, p, n in wrong:
        true.extend([t] * n)
        pred.extend([p] * n)
    matrix = confusion(true, pred)
    return SplitScores(split="test", matrix=matrix, scores=score(matrix))


def test_overfit_gap_reported_to_four_decimals():
    history = [
        EpochRecord(1, 0.5, 0.4, 0.9600, 2e-5),
        EpochRecord(2, 0.3, 0.3, 0.9750, 2e-5),
        EpochRecord(3, 0.2, 0.35, 0.9700, 2e-5),
    ]
    # 971 correct out of 1000 -> test accuracy exactly 971/1000
    report = _split_scores([400, 300, 271], [(0, 1, 10), (1, 0, 10), (1, 2, 9)])
    assert report.scores.accuracy == pytest.approx(0.9710, abs=1e-12)
    gap = overfit_gap(history, report)
    assert isinstance(gap, GapRecord)
    assert gap.best_val_accuracy == 0.9750
    assert gap.gap == pytest.approx(0.0040, abs=1e-12)
    assert round(gap.gap, 4) == 0.0040
    assert not gap.warn


def test_overfit_gap_warns_over_threshold():
    history = [EpochRecord(1, 0.5, 0.4, 0.98, 2e-5)]
    report = _split_scores([45, 30, 15], [(0, 2, 10)])  # accuracy 0.9
    gap = overfit_gap(history, report, threshold=0.05)
    assert gap.gap == pytest.approx(0.08, abs=1e-12)
    assert gap.warn
    relaxed = overfit_gap(history, report, threshold=0.10)
    assert not relaxed.warn


def test_overfit_gap_does_not_warn_at_exactly_the_threshold():
    history = [EpochRecord(1, 0.5, 0.4, 1.0, 2e-5)]
    report = _split_scores([7, 6, 6], [(1, 2, 1)])  # 19 of 20 correct
    assert 1.0 - report.scores.accuracy > OVERFIT_GAP_THRESHOLD  # float error
    gap = overfit_gap(history, report)
    assert round(gap.gap, 4) == 0.05
    assert not gap.warn


def test_gap_warns_strictly_above_the_threshold():
    assert not gap_warns(1.0 - 0.95) and not gap_warns(-(1.0 - 0.95))
    assert gap_warns(0.0501) and gap_warns(-0.0501)
    assert not gap_warns(0.0499)
    assert gap_warns(0.08, threshold=0.05) and not gap_warns(0.08, threshold=0.10)


def test_overfit_gap_needs_history():
    report = _split_scores([1, 1, 1], [])
    with pytest.raises(ValueError):
        overfit_gap([], report)


# ---------------------------------------------------------------------------
# checkpoint container


def test_checkpoint_round_trip_bit_identical(memorized, tmp_path):
    _, _, _, checkpoint, _ = memorized
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    first_bytes = path.read_bytes()

    loaded = load_checkpoint(path)
    assert loaded.config == checkpoint.config
    assert loaded.vocab_sha256 == checkpoint.vocab_sha256
    assert loaded.resumable == checkpoint.resumable
    assert loaded.optimizer_step == checkpoint.optimizer_step
    assert loaded.best_epoch == checkpoint.best_epoch
    assert loaded.best_metric == checkpoint.best_metric
    assert [r.as_dict() for r in loaded.history] == [r.as_dict() for r in checkpoint.history]
    assert set(loaded.tensors) == set(checkpoint.tensors)
    for name in loaded.tensors:
        assert np.array_equal(loaded.tensors[name], checkpoint.tensors[name]), name

    save_checkpoint(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == first_bytes


def test_resumable_checkpoint_round_trip(tmp_path):
    corpus, vocab, config = _training_setup(
        {Label.ham: 4, Label.spam: 4}, num_epochs=3
    )
    partial, _ = train(config, corpus, corpus, vocab, stop_after_epoch=1)
    assert partial.resumable
    assert any(k.startswith("best.") for k in partial.tensors)
    assert any(k.startswith("opt.m.") for k in partial.tensors)
    assert any(k.startswith("opt.v.") for k in partial.tensors)
    path = tmp_path / "resume.ckpt"
    save_checkpoint(partial, path)
    loaded = load_checkpoint(path)
    state = loaded.optimizer_state()
    assert state.step == partial.optimizer_step
    plain = {k for k in partial.tensors if not k.startswith(("best.", "opt."))}
    assert set(state.m) == plain
    assert set(state.v) == plain


def test_checkpoint_container_layout(memorized, tmp_path):
    _, _, _, checkpoint, _ = memorized
    path = tmp_path / "layout.ckpt"
    save_checkpoint(checkpoint, path)
    data = path.read_bytes()
    assert data[:4] == b"IPSD"
    (version,) = struct.unpack("<I", data[4:8])
    assert version == 1
    (head_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + head_len].decode("utf-8"))
    names = [entry["name"] for entry in header["tensors"]]
    assert names == sorted(names)
    assert all("wall_time" not in record for record in header["history"])
    (crc,) = struct.unpack("<I", data[-4:])
    assert crc == zlib.crc32(data[:-4]) & 0xFFFFFFFF
    payload = sum(
        4 * int(np.prod(e["shape"])) for e in header["tensors"]
    )
    assert len(data) == 12 + head_len + payload + 4


def test_checkpoint_corruption_detection(memorized, tmp_path):
    _, _, _, checkpoint, _ = memorized
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    data = bytearray(path.read_bytes())

    flipped = tmp_path / "flipped.ckpt"
    corrupted = bytearray(data)
    corrupted[len(corrupted) // 2] ^= 0xFF
    flipped.write_bytes(corrupted)
    with pytest.raises(CorruptFile):
        load_checkpoint(flipped)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(bytes(data[: len(data) - 100]))
    with pytest.raises(CorruptFile):
        load_checkpoint(truncated)

    not_mine = tmp_path / "other.bin"
    not_mine.write_bytes(b"PKZZ" + bytes(data[4:]))
    with pytest.raises(CorruptFile):
        load_checkpoint(not_mine)

    for size in (4, 10, 15):
        stub = tmp_path / f"stub{size}.ckpt"
        stub.write_bytes(bytes(data[:size]))
        with pytest.raises(CorruptFile, match="truncated"):
            load_checkpoint(stub)
    not_mine.write_bytes(b"IPS")
    with pytest.raises(CorruptFile, match="bad magic"):
        load_checkpoint(not_mine)

    future = tmp_path / "future.ckpt"
    bumped = bytearray(data)
    bumped[4:8] = struct.pack("<I", 99)
    future.write_bytes(bumped)
    with pytest.raises(VersionMismatch):
        load_checkpoint(future)


_SMALL_MODEL = ModelConfig(
    num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=24, vocab_size=280,
    dropout_rate=0.0,
)


def _small_checkpoint(tmp_path, resumable):
    tensors = init(_SMALL_MODEL, seed=0).tensors
    if resumable:
        tensors = {
            f"{prefix}{name}": t.copy()
            for prefix in ("", "best.", "opt.m.", "opt.v.")
            for name, t in tensors.items()
        }
    path = tmp_path / "good.ckpt"
    save_checkpoint(
        Checkpoint(
            config=_SMALL_MODEL, vocab_sha256="0" * 64, tensors=tensors,
            resumable=resumable, optimizer_step=3 if resumable else None,
        ),
        path,
    )
    return path


W1 = "layers.0.ff.w1"

# (case, resumable source, tensor edit, header edit, message fragment)
_FORGED_CHECKPOINTS = [
    ("header key missing", False, None, lambda h: h.pop("history"), "lacks 'history'"),
    ("model config missing", False, None, lambda h: h.pop("model_config"),
     "lacks 'model_config'"),
    ("flag of the wrong type", False, None, lambda h: h.update(resumable="no"), "wrong type"),
    ("step of the wrong type", False, None, lambda h: h.update(optimizer_step=1.5),
     "wrong type"),
    ("hash of the wrong type", False, None, lambda h: h.update(vocab_sha256=7), "wrong type"),
    ("resumable without a step", True, None, lambda h: h.update(optimizer_step=None),
     "no optimizer step"),
    ("unknown config key", False, None, lambda h: h["model_config"].update(depth=3),
     "invalid model config"),
    ("config key missing", False, None, lambda h: h["model_config"].pop("d_model"),
     "invalid model config"),
    ("heads do not divide d_model", False, None,
     lambda h: h["model_config"].update(num_heads=3), "invalid model config"),
    ("size of the wrong type", False, None, lambda h: h["model_config"].update(num_layers="1"),
     "invalid model config"),
    ("non-integer size", False, None, lambda h: h["model_config"].update(d_ff=32.0),
     "invalid model config"),
    ("unknown pooling", False, None, lambda h: h["model_config"].update(pooling="max"),
     "invalid model config"),
    ("tensor dropped", False, lambda t: t.pop("classifier.bias"), None, "classifier.bias"),
    ("tensor added", False, lambda t: t.update(extra=np.zeros(2, np.float32)), None, "'extra'"),
    ("tensor transposed", False, lambda t: t.update({W1: t[W1].T}), None,
     f"{W1} has shape [32, 16]"),
    ("position table too short", False,
     lambda t: t.update(position_embedding=np.zeros((12, 16), np.float32)), None,
     "position_embedding has shape [12, 16]"),
    ("non-integer shape", False, None, lambda h: h["tensors"][0].update(shape=[280.0, 16]),
     "malformed tensor table entry"),
    ("final checkpoint flagged resumable", False, None,
     lambda h: h.update(resumable=True, optimizer_step=3), "best.classifier.bias"),
    ("resumable without a moment", True, lambda t: t.pop("opt.v.classifier.bias"), None,
     "opt.v.classifier.bias"),
    ("resumable tensors in a final checkpoint", True, None, lambda h: h.update(resumable=False),
     "unexpected ['best."),
    ("unreadable history record", False, None, lambda h: h.update(history=[{"epoch": 1}]),
     "history record"),
]


@pytest.mark.parametrize(
    "resumable,edit_tensors,edit_header,message",
    [case[1:] for case in _FORGED_CHECKPOINTS],
    ids=[case[0] for case in _FORGED_CHECKPOINTS],
)
def test_load_checkpoint_rejects_a_forged_header_or_tensor_table(
    tmp_path, resumable, edit_tensors, edit_header, message
):
    good = _small_checkpoint(tmp_path, resumable)
    assert load_checkpoint(good).resumable == resumable
    forged = tmp_path / "forged.ckpt"
    rewrite_checkpoint(good, forged, edit_tensors, edit_header)
    with pytest.raises(CorruptFile) as caught:
        load_checkpoint(forged)
    assert str(forged) in str(caught.value)
    assert message in str(caught.value)


def test_checkpoint_write_is_atomic(memorized, tmp_path):
    _, _, _, checkpoint, _ = memorized
    target = tmp_path / "nested" / "dir" / "model.ckpt"
    save_checkpoint(checkpoint, target)
    assert target.exists()
    assert [p.name for p in target.parent.iterdir()] == ["model.ckpt"]


def test_final_checkpoint_best_flag_falls_back(memorized):
    _, _, _, checkpoint, _ = memorized
    plain = checkpoint.model_parameters()
    best = checkpoint.model_parameters(best=True)
    for name in plain.tensors:
        assert np.array_equal(plain.tensors[name], best.tensors[name])
    with pytest.raises(ValueError):
        checkpoint.optimizer_state()
