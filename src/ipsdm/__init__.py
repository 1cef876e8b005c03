"""ipsdm: a from-scratch phishing/spam/ham email classification pipeline.

Corpus preparation, adaptive minority oversampling, byte-pair tokenization,
a numpy transformer encoder with handwritten backpropagation, AdamW
fine-tuning, and evaluation reporting — desk-scale and fully deterministic.

The public names below import their home module on first use, so importing
the package (or a numpy-free module of it, such as the CLI) loads no numpy.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    **dict.fromkeys(
        ("Corpus", "Label", "LabeledEmail", "SplitSpec", "load_csv", "merge", "split"), "corpus"),
    **dict.fromkeys(("Vocabulary", "decode", "encode", "train_vocab"), "tokenizer"),
    **dict.fromkeys(
        ("AdasynPlan", "balance_corpus", "plan_adasyn", "synthesize", "vectorize"), "balance"),
    **dict.fromkeys(
        ("ModelConfig", "OptimizerHyperparams", "EarlyStopping", "TrainingConfig"), "config"),
    **dict.fromkeys(("ModelParameters", "backward", "forward", "init", "predict"), "model"),
    **dict.fromkeys(("OptimizerState", "adamw_step", "init_state", "lr_at"), "optim"),
    **dict.fromkeys(
        ("ConfusionMatrix", "Scores", "confusion", "cross_entropy", "score", "softmax"), "metrics"),
    **dict.fromkeys(
        ("Checkpoint", "EpochRecord", "evaluate", "load_checkpoint", "make_batches",
         "save_checkpoint", "train"), "trainer"),
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
