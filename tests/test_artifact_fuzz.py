"""Fuzzing of the config, `vocab.json` and `model.ckpt` a user hands the CLI.

- A config with one model, training, optimizer or split value changed must
  load or raise `InputError`; a config that loads must encode at its
  `max_len`, initialize its model and take one optimizer step to finite
  weights.
- A `vocab.json` with a few byte edits must load or raise `CorruptFile`.
- A checkpoint with one `model_config` integer set to a small value, its
  tensors rebuilt at the shapes that config names and its CRC re-signed, must
  make `classify` and `evaluate` exit 0 or 2, never end in a traceback.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipsdm.cli import EXIT_INPUT, EXIT_OK, load_config, main
from ipsdm.corpus import Label, save_split_csv
from ipsdm.errors import CorruptFile, InputError
from ipsdm.model import ModelConfig, init, tensor_shapes
from ipsdm.optim import adamw_step, init_state
from ipsdm.tokenizer import (
    decode, encode, load_vocab, save_vocab, train_vocab, vocab_sha256, vocab_to_json,
)
from ipsdm.trainer import Checkpoint, save_checkpoint

from conftest import make_separable_corpus, rewrite_checkpoint
from test_input_fuzz import _mutate

CORPUS = make_separable_corpus({Label.ham: 4, Label.spam: 4, Label.phishing: 4}, seed=3)
VOCAB = train_vocab(CORPUS, vocab_size=280)
SMALL_MODEL = {"num_layers": 1, "num_heads": 2, "d_model": 8, "d_ff": 16, "max_len": 16}

# ---------------------------------------------------------------------------
# config

CONFIG = {
    "split": {"train_fraction": 0.6, "val_fraction": 0.2, "test_fraction": 0.2, "seed": 0,
              "stratified": True},
    "model": {**SMALL_MODEL, "dropout_rate": 0.1, "pooling": "first_token"},
    "training": {"train_batch_size": 8, "val_batch_size": 16, "num_epochs": 2, "seed": 0,
                 "lr_schedule": "constant",
                 "optimizer": {"learning_rate": 2e-5, "beta1": 0.9, "beta2": 0.999,
                               "epsilon": 1e-8, "weight_decay": 0.01, "variant": "decoupled",
                               "clip_max_norm": 1.0}},
}
# Paths to every leaf: (section, key), or (section, "optimizer", key).
_CONFIG_KEYS = [
    (section, key) for section, values in CONFIG.items() for key in values if key != "optimizer"
] + [("training", "optimizer", key) for key in CONFIG["training"]["optimizer"]]
# Small integers sit at every lower bound; the rest are the wrong type, NaN or
# out of range for at least one key.
_JSON_VALUES = st.integers(-1, 3) | st.sampled_from(
    [64, 0.5, 1.0, float("nan"), float("inf"), True, None, "", "mean", "linear", [], {}]
)


@given(where=st.sampled_from(_CONFIG_KEYS), value=_JSON_VALUES)
def test_config_with_one_value_changed_loads_or_raises_input_error(where, value):
    *parents, key = where
    doc = json.loads(json.dumps(CONFIG))
    section = doc
    for name in parents:
        section = section[name]
    section[key] = value
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            config = load_config(path)
            config.validate()
        except InputError:
            return
    model = replace(config.training.model, vocab_size=VOCAB.size)
    assert len(encode(VOCAB, CORPUS.samples[0].text, model.max_len).ids) == model.max_len
    tensors = init(model, config.training.seed).tensors
    grads = {name: np.ones_like(t) for name, t in tensors.items()}
    adamw_step(tensors, grads, init_state(tensors), config.training.optimizer)
    assert all(np.isfinite(t).all() for t in tensors.values())


# ---------------------------------------------------------------------------
# vocab.json

VOCAB_BYTES = vocab_to_json(VOCAB).encode("utf-8")
_JSON_BYTES = st.sampled_from(b'{}[]",:\\-0123456789 \xff\xc3') | st.integers(0, 255)
_VOCAB_EDITS = st.lists(
    st.tuples(st.sampled_from(["overwrite", "insert", "delete"]), st.integers(0, 1 << 16),
              _JSON_BYTES),
    min_size=1,
    max_size=4,
)


def test_unmutated_vocab_loads():
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "vocab.json"
        path.write_bytes(VOCAB_BYTES)
        assert vocab_sha256(load_vocab(path)) == vocab_sha256(VOCAB)


@given(edits=_VOCAB_EDITS)
def test_mutated_vocab_loads_or_raises_corrupt_file(edits):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "vocab.json"
        path.write_bytes(_mutate(VOCAB_BYTES, edits))
        try:
            vocab = load_vocab(path)
        except CorruptFile:
            return
    text = CORPUS.samples[0].text
    assert decode(vocab, encode(vocab, text, max_len=len(text.encode()) + 2).ids) == text


# ---------------------------------------------------------------------------
# model.ckpt

_CONFIG_INTEGERS = ["num_layers", "num_heads", "d_model", "d_ff", "max_len", "vocab_size",
                    "num_labels"]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """An output directory with vocab.json and a test split, its config, and the
    model config and checkpoint of an initialized model paired with VOCAB."""
    root = tmp_path_factory.mktemp("served")
    out = root / "out"
    save_vocab(VOCAB, out / "vocab.json")
    save_split_csv(CORPUS, out / "test.csv", "test")
    config = root / "config.json"
    config.write_text(json.dumps({"output_dir": str(out)}), encoding="utf-8")
    model = ModelConfig(**SMALL_MODEL, vocab_size=VOCAB.size)
    checkpoint = root / "model.ckpt"
    save_checkpoint(
        Checkpoint(config=model, vocab_sha256=vocab_sha256(VOCAB),
                   tensors=init(model, seed=0).tensors),
        checkpoint,
    )
    return root, config, model, checkpoint


@given(key=st.sampled_from(_CONFIG_INTEGERS), value=st.integers(0, 6))
def test_checkpoint_with_a_small_config_integer_exits_ok_or_input(served, key, value):
    root, config, model, checkpoint = served
    shapes = tensor_shapes(replace(model, **{key: value}))

    def rebuild(tensors):
        tensors.clear()
        tensors.update({name: np.full(shape, 0.5, np.float32) for name, shape in shapes.items()})

    forged = root / "forged.ckpt"
    rewrite_checkpoint(checkpoint, forged, rebuild, lambda h: h["model_config"].update({key: value}))
    assert main([
        "classify", "--checkpoint", str(forged), "--vocab", str(root / "out" / "vocab.json"),
        "--text", CORPUS.samples[0].text,
    ]) in (EXIT_OK, EXIT_INPUT)
    assert main([
        "evaluate", "--config", str(config), "--checkpoint", str(forged),
        "--out", str(root / "fragment.json"),
    ]) in (EXIT_OK, EXIT_INPUT)
