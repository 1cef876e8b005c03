"""The benchmark's tracing contract with the package, checked in tier 1.

`bench/tracing.py` wraps functions at the module globals their callers look
up, and its count hooks read the arguments (a list of `TokenSequence` for
`forward`, a cache with 2-D `ids` for `backward`). A rename or a signature
change in `src/` breaks a traced benchmark run; this test loads the tracer
from its file, unchanged, and runs a tiny train, evaluate and predict under
it.
"""

import importlib.util
from pathlib import Path

import pytest

import ipsdm.model
from ipsdm.corpus import Label
from ipsdm.model import ModelConfig
from ipsdm.optim import OptimizerHyperparams
from ipsdm.tokenizer import train_vocab
from ipsdm.trainer import TrainingConfig, evaluate, train

from conftest import make_separable_corpus

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(tracing):
    for module_name, attr, _, _ in tracing.STAGE_WRAPS + tracing.PREDICT_WRAPS:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


def _traced(tracing, wraps, run):
    tracer = tracing.Tracer("contract")
    tracer.install(wraps)
    try:
        run()  # a count hook that raises propagates out of the traced call
    finally:
        tracer.uninstall()
    return tracer.dump()


def test_train_evaluate_and_predict_run_under_the_tracer(tracing):
    corpus = make_separable_corpus({Label.ham: 4, Label.spam: 4, Label.phishing: 4}, seed=3)
    vocab = train_vocab(corpus, vocab_size=300)
    model = ModelConfig(
        num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=24, vocab_size=vocab.size,
        dropout_rate=0.1,
    )
    config = TrainingConfig(
        model=model, optimizer=OptimizerHyperparams(learning_rate=1e-3), train_batch_size=4,
        num_epochs=1,
    )
    results = {}

    def stages():
        results["checkpoint"], _ = train(config, corpus, corpus, vocab)
        evaluate(results["checkpoint"], corpus, vocab)

    stage_dump = _traced(tracing, tracing.STAGE_WRAPS, stages)
    params = results["checkpoint"].model_parameters()
    predict_dump = _traced(
        tracing, tracing.PREDICT_WRAPS,
        lambda: ipsdm.model.predict(params, vocab, "verify your account now"),
    )

    names = {span[0] for span in stage_dump["spans"]}
    assert {"model.forward_train", "model.backward", "model.forward_eval",
            "tokenizer.encode", "optim.adamw_step"} <= names
    assert {span[0] for span in predict_dump["spans"]} >= {"model.predict", "tokenizer.encode",
                                                           "model.forward_eval"}
    assert len(stage_dump["counts"]["backward"]) == 3  # 12 samples in batches of 4
    metrics = tracing.layer_metrics(
        [{**stage_dump, "wall_s": 1.0}], predict_dump,
        {"num_layers": 1, "d_model": 16, "d_ff": 32},
    )
    assert metrics["model.backward_gflop"][0] > 0
    assert metrics["optim.steps"][0] == 3
