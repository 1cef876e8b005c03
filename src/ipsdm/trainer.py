"""Training orchestration: deterministic batching, the epoch loop with
per-epoch validation, best-epoch parameter retention, optional early
stopping, divergence handling, and binary checkpointing.

Checkpoint container layout:

    magic "IPSD" | u32 LE format version | u32 LE header length |
    canonical JSON header | tensors (float32 LE, row-major, header order) |
    u32 LE CRC32 of all preceding bytes

The header carries the model config, the vocabulary hash, the training
history, and the tensor table. Resumable checkpoints additionally hold the
best-so-far parameters (``best.<name>``) and the optimizer moments
(``opt.m.<name>``, ``opt.v.<name>``); final checkpoints hold only the best
parameters under their plain names.

Determinism: the shuffle and dropout streams for an epoch are derived
statelessly from (seed, epoch), so training resumed from an epoch-boundary
checkpoint consumes exactly the randomness an uninterrupted run would.
"""

import json
import logging
import math
import os
import struct
import tempfile
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import (  # noqa: F401  (EARLY_STOP_METRICS and EarlyStopping re-exported)
    EARLY_STOP_METRICS,
    EarlyStopping,
    ModelConfig,
    TrainingConfig,
)
from .corpus import Corpus
from .errors import (
    ConfigError,
    CorruptFile,
    DivergedLoss,
    EmptySplit,
    NonFiniteGradient,
    NonFiniteInput,
    VersionMismatch,
    VocabularyMismatch,
)
from .metrics import (
    OVERFIT_GAP_THRESHOLD,
    SplitScores,
    confusion,
    cross_entropy,
    gap_warns,
    score,
)
from .model import ModelParameters, backward, forward
from .optim import OptimizerState, adamw_step, init_state, lr_at
from .shuffle import SeededStream, fisher_yates
from .tokenizer import Vocabulary, encode, vocab_sha256
from . import model as model_mod

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"IPSD"
CHECKPOINT_FORMAT_VERSION = 1
_SHUFFLE_TAG = 0
_DROPOUT_TAG = 1


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    learning_rate: float

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EpochRecord":
        return cls(
            epoch=int(d["epoch"]),
            train_loss=float(d["train_loss"]),
            val_loss=float(d["val_loss"]),
            val_accuracy=float(d["val_accuracy"]),
            learning_rate=float(d["learning_rate"]),
        )


@dataclass
class Checkpoint:
    config: ModelConfig
    vocab_sha256: str
    tensors: dict[str, np.ndarray]
    history: list[EpochRecord] = field(default_factory=list)
    resumable: bool = False
    optimizer_step: int | None = None
    best_epoch: int | None = None
    best_metric: float | None = None

    def model_parameters(self, best: bool = False) -> ModelParameters:
        # final checkpoints store the best weights under their plain names
        resumable_best = best and any(k.startswith("best.") for k in self.tensors)
        prefix = "best." if resumable_best else ""
        tensors = {
            name: self.tensors[prefix + name].copy()
            for name in self.tensors
            if not name.startswith(("best.", "opt."))
        }
        return ModelParameters(config=self.config, tensors=tensors)

    def optimizer_state(self) -> OptimizerState:
        if not self.resumable or self.optimizer_step is None:
            raise ValueError("checkpoint holds no optimizer state")
        m = {
            name[len("opt.m.") :]: t.copy()
            for name, t in self.tensors.items()
            if name.startswith("opt.m.")
        }
        v = {
            name[len("opt.v.") :]: t.copy()
            for name, t in self.tensors.items()
            if name.startswith("opt.v.")
        }
        return OptimizerState(step=self.optimizer_step, m=m, v=v)


def check_vocabulary(checkpoint: Checkpoint, vocab: Vocabulary) -> None:
    """Raise VocabularyMismatch unless vocab has the checkpoint's vocab_sha256
    and its model's vocab_size, so no id overruns the token embedding. Resume,
    evaluate and classify all pair a checkpoint with a vocabulary here."""
    if vocab_sha256(vocab) != checkpoint.vocab_sha256:
        raise VocabularyMismatch(
            "vocabulary does not match the checkpoint's: it was trained with another"
        )
    if vocab.size != checkpoint.config.vocab_size:
        raise VocabularyMismatch(
            f"vocabulary does not match the checkpoint's: {vocab.size} tokens, "
            f"the model has {checkpoint.config.vocab_size}"
        )


def make_batches(
    split: Corpus, batch_size: int, shuffle: bool, seed: int, epoch: int
) -> list[list[int]]:
    """Partition sample indices into ordered batches; the last may be short.

    With shuffle the permutation depends only on (seed, epoch), so any epoch's
    order can be reproduced without replaying earlier epochs.
    """
    n = len(split)
    if n == 0:
        raise EmptySplit("cannot batch an empty split")
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if shuffle:
        order = fisher_yates(n, SeededStream([seed, epoch, _SHUFFLE_TAG]))
    else:
        order = list(range(n))
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _encode_split(split: Corpus, vocab: Vocabulary, max_len: int):
    sequences = [encode(vocab, s.text, max_len) for s in split.samples]
    labels = np.array([int(s.label) for s in split.samples], dtype=np.int64)
    return sequences, labels


def _eval_pass(
    params: ModelParameters, sequences, labels: np.ndarray, batch_size: int
) -> tuple[float, list[int]]:
    """Deterministic inference pass: mean loss (64-bit accumulate) and
    per-sample argmax predictions."""
    total_loss = 0.0
    predictions: list[int] = []
    n = len(sequences)
    for start in range(0, n, batch_size):
        batch = sequences[start : start + batch_size]
        batch_labels = labels[start : start + batch_size]
        logits, _ = forward(params, batch, training=False)
        loss, _ = cross_entropy(logits, batch_labels)
        total_loss += loss * len(batch)
        predictions.extend(int(i) for i in np.argmax(logits, axis=1))
    return total_loss / n, predictions


def _metric_value(record: EpochRecord, metric: str) -> float:
    return record.val_accuracy if metric == "val_accuracy" else record.val_loss


def _improved(value: float, best: float, metric: str) -> bool:
    return value > best if metric == "val_accuracy" else value < best


def train(
    config: TrainingConfig,
    train_split: Corpus,
    val_split: Corpus,
    vocab: Vocabulary,
    resume_from: Checkpoint | None = None,
    stop_after_epoch: int | None = None,
) -> tuple[Checkpoint, list[EpochRecord]]:
    """Run the fine-tuning loop and return (checkpoint, history).

    The returned checkpoint holds the best-validation-metric parameters
    unless stop_after_epoch interrupts the run first, in which case it is a
    resumable checkpoint (current + best parameters + optimizer moments) that
    train() accepts back via resume_from. On divergence the raised error
    carries a checkpoint of the last completed epoch's best parameters.
    """
    config.validate()
    if len(train_split) == 0:
        raise EmptySplit("training split is empty")
    if len(val_split) == 0:
        raise EmptySplit("validation split is empty")
    if config.model.vocab_size != vocab.size:
        raise ConfigError(
            f"model vocab_size {config.model.vocab_size} != vocabulary size {vocab.size}"
        )
    vhash = vocab_sha256(vocab)

    train_seqs, train_labels = _encode_split(train_split, vocab, config.model.max_len)
    val_seqs, val_labels = _encode_split(val_split, vocab, config.model.max_len)
    steps_per_epoch = math.ceil(len(train_split) / config.train_batch_size)
    total_steps = steps_per_epoch * config.num_epochs

    if resume_from is not None:
        check_vocabulary(resume_from, vocab)
        if not resume_from.resumable:
            raise ValueError("checkpoint is final; only epoch-boundary checkpoints resume")
        params = resume_from.model_parameters()
        best_params = resume_from.model_parameters(best=True)
        opt_state = resume_from.optimizer_state()
        history = [EpochRecord.from_dict(r.as_dict()) for r in resume_from.history]
        best_epoch = resume_from.best_epoch
        best_metric = resume_from.best_metric
        start_epoch = len(history) + 1
    else:
        params = model_mod.init(config.model, config.seed)
        best_params = None
        opt_state = init_state(params.tensors)
        history = []
        best_epoch = None
        best_metric = None
        start_epoch = 1

    metric_name = config.early_stopping.metric

    def snapshot(resumable: bool) -> Checkpoint:
        chosen_best = best_params if best_params is not None else params
        if resumable:
            tensors = {k: v.copy() for k, v in params.tensors.items()}
            tensors.update({f"best.{k}": v.copy() for k, v in chosen_best.tensors.items()})
            tensors.update({f"opt.m.{k}": v.copy() for k, v in opt_state.m.items()})
            tensors.update({f"opt.v.{k}": v.copy() for k, v in opt_state.v.items()})
        else:
            tensors = {k: v.copy() for k, v in chosen_best.tensors.items()}
        return Checkpoint(
            config=config.model,
            vocab_sha256=vhash,
            tensors=tensors,
            history=list(history),
            resumable=resumable,
            optimizer_step=opt_state.step if resumable else None,
            best_epoch=best_epoch,
            best_metric=best_metric,
        )

    epochs_since_best = 0
    for epoch in range(start_epoch, config.num_epochs + 1):
        started = time.perf_counter()
        dropout_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, epoch, _DROPOUT_TAG])
        )
        batches = make_batches(
            train_split, config.train_batch_size, True, config.seed, epoch
        )
        epoch_lr = lr_at(
            opt_state.step, config.lr_schedule, config.optimizer.learning_rate, total_steps
        )
        loss_sum = 0.0
        try:
            for batch_indices in batches:
                batch = [train_seqs[i] for i in batch_indices]
                batch_labels = train_labels[batch_indices]
                logits, cache = forward(params, batch, training=True, dropout_rng=dropout_rng)
                loss, dlogits = cross_entropy(logits, batch_labels)
                if not math.isfinite(loss):
                    raise NonFiniteInput(f"training loss became {loss}")
                grads = backward(params, cache, dlogits.astype(logits.dtype))
                step_lr = lr_at(
                    opt_state.step, config.lr_schedule, config.optimizer.learning_rate, total_steps
                )
                adamw_step(params.tensors, grads, opt_state, config.optimizer, learning_rate=step_lr)
                params.version += 1
                loss_sum += loss * len(batch_indices)
            # An update can leave finite gradients but parameters that
            # overflow on the next forward, which may be this one.
            val_loss, val_preds = _eval_pass(params, val_seqs, val_labels, config.val_batch_size)
            if not math.isfinite(val_loss):
                raise NonFiniteInput(f"validation loss became {val_loss}")
        except (NonFiniteInput, NonFiniteGradient) as err:
            raise DivergedLoss(
                f"training diverged in epoch {epoch}: {err}", checkpoint=snapshot(False)
            ) from err

        val_matrix = confusion(val_labels.tolist(), val_preds)
        val_accuracy = score(val_matrix).accuracy
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / len(train_split),
            val_loss=val_loss,
            val_accuracy=val_accuracy,
            learning_rate=epoch_lr,
        )
        history.append(record)
        log.info(
            "epoch %d/%d: train_loss=%.4f val_loss=%.4f val_accuracy=%.4f (%.1fs)",
            epoch, config.num_epochs, record.train_loss, record.val_loss,
            record.val_accuracy, time.perf_counter() - started,
        )

        value = _metric_value(record, metric_name)
        if best_metric is None or _improved(value, best_metric, metric_name):
            best_metric = value
            best_epoch = epoch
            best_params = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1

        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            return snapshot(True), history
        if config.early_stopping.enabled and epochs_since_best >= config.early_stopping.patience:
            break

    return snapshot(False), history


def evaluate(
    checkpoint: Checkpoint,
    split: Corpus,
    vocab: Vocabulary,
    split_name: str = "validation",
    batch_size: int = TrainingConfig.val_batch_size,
) -> SplitScores:
    """Deterministic scoring of a split with a checkpoint's parameters."""
    if len(split) == 0:
        raise EmptySplit(f"{split_name} split is empty")
    check_vocabulary(checkpoint, vocab)
    params = checkpoint.model_parameters()
    sequences, labels = _encode_split(split, vocab, checkpoint.config.max_len)
    _, predictions = _eval_pass(params, sequences, labels, batch_size)
    matrix = confusion(labels.tolist(), predictions)
    return SplitScores(split=split_name, matrix=matrix, scores=score(matrix))


@dataclass(frozen=True)
class GapRecord:
    best_val_accuracy: float
    test_accuracy: float
    gap: float
    warn: bool
    threshold: float


def overfit_gap(
    history: list[EpochRecord], test_report: SplitScores, threshold: float = OVERFIT_GAP_THRESHOLD
) -> GapRecord:
    """|best validation accuracy - test accuracy|, warning when it exceeds
    the threshold."""
    if not history:
        raise ValueError("history is empty; train at least one epoch first")
    best_val = max(record.val_accuracy for record in history)
    test_accuracy = test_report.scores.accuracy
    gap = abs(best_val - test_accuracy)
    return GapRecord(
        best_val_accuracy=best_val,
        test_accuracy=test_accuracy,
        gap=gap,
        warn=gap_warns(gap, threshold),
        threshold=threshold,
    )


def _canonical_json(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Serialize to the IPSD container; the write is atomic (temp + rename)."""
    path = Path(path)
    names = sorted(checkpoint.tensors)
    header = {
        "model_config": asdict(checkpoint.config),
        "vocab_sha256": checkpoint.vocab_sha256,
        "history": [r.as_dict() for r in checkpoint.history],
        "resumable": checkpoint.resumable,
        "optimizer_step": checkpoint.optimizer_step,
        "best_epoch": checkpoint.best_epoch,
        "best_metric": checkpoint.best_metric,
        "tensors": [
            {"name": name, "shape": list(checkpoint.tensors[name].shape)} for name in names
        ],
    }
    head_bytes = _canonical_json(header)
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_FORMAT_VERSION),
        struct.pack("<I", len(head_bytes)),
        head_bytes,
    ]
    for name in names:
        parts.append(np.ascontiguousarray(checkpoint.tensors[name], dtype="<f4").tobytes())
    payload = b"".join(parts)
    payload += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read an IPSD container. A file that is not one, fails its checksum,
    or whose header, model config or tensor table is not what save_checkpoint
    writes for that config raises CorruptFile; another format version raises
    VersionMismatch."""
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CorruptFile(f"{path} is not a checkpoint file (bad magic)")
    if len(data) < 12 + 4:
        raise CorruptFile(f"{path} is truncated")
    (version,) = struct.unpack("<I", data[4:8])
    if version != CHECKPOINT_FORMAT_VERSION:
        raise VersionMismatch(
            f"checkpoint format version {version}, this build reads {CHECKPOINT_FORMAT_VERSION}"
        )
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptFile(f"{path} failed its checksum")
    (head_len,) = struct.unpack("<I", data[8:12])
    head_end = 12 + head_len
    if head_end > len(data) - 4:
        raise CorruptFile(f"{path} is truncated inside the header")
    try:
        header = json.loads(data[12:head_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CorruptFile(f"{path} has an unreadable header: {err}") from None

    config, table = _check_header(header, path)
    offset = head_end
    tensors: dict[str, np.ndarray] = {}
    for name, shape in table:
        nbytes = 4 * math.prod(shape)
        raw = data[offset : offset + nbytes]
        if len(raw) != nbytes:
            raise CorruptFile(f"{path} is truncated inside tensor {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        offset += nbytes
    if offset != len(data) - 4:
        raise CorruptFile(f"{path} has {len(data) - 4 - offset} unexpected trailing bytes")

    try:
        history = [EpochRecord.from_dict(r) for r in header["history"]]
    except (KeyError, TypeError, ValueError) as err:
        raise CorruptFile(f"{path} has an unreadable history record: {err!r}") from None
    return Checkpoint(
        config=config,
        vocab_sha256=header["vocab_sha256"],
        tensors=tensors,
        history=history,
        resumable=header["resumable"],
        optimizer_step=header["optimizer_step"],
        best_epoch=header["best_epoch"],
        best_metric=header["best_metric"],
    )


# JSON type(s) of every checkpoint header value; a float field also takes an int.
_HEADER_TYPES = {
    "model_config": (dict,),
    "vocab_sha256": (str,),
    "history": (list,),
    "resumable": (bool,),
    "optimizer_step": (int, type(None)),
    "best_epoch": (int, type(None)),
    "best_metric": (float, int, type(None)),
    "tensors": (list,),
}


def _check_header(header, path) -> tuple[ModelConfig, list[tuple[str, tuple[int, ...]]]]:
    """Validate a checkpoint header; return its model config and tensor table.

    The table must name exactly the tensors model.tensor_shapes gives for the
    config, with the same shapes; a resumable checkpoint also holds the best
    parameters and both optimizer moments under the best./opt.m./opt.v.
    prefixes.
    """
    if not isinstance(header, dict):
        raise CorruptFile(f"{path} has a header that is not a JSON object")
    for key, kinds in _HEADER_TYPES.items():
        if key not in header:
            raise CorruptFile(f"{path} header lacks {key!r}")
        if type(header[key]) not in kinds:
            raise CorruptFile(f"{path} header {key!r} has the wrong type: {header[key]!r}")
    if header["resumable"] and header["optimizer_step"] is None:
        raise CorruptFile(f"{path} is resumable but has no optimizer step")
    try:
        config = ModelConfig(**header["model_config"])
        config.validate()
    except (TypeError, ValueError) as err:
        raise CorruptFile(f"{path} has an invalid model config: {err}") from None

    table = []
    for entry in header["tensors"]:
        if not (
            isinstance(entry, dict)
            and type(entry.get("name")) is str
            and type(entry.get("shape")) is list
            and all(type(n) is int and n >= 0 for n in entry["shape"])
        ):
            raise CorruptFile(f"{path} has a malformed tensor table entry: {entry!r}")
        table.append((entry["name"], tuple(entry["shape"])))
    shapes = model_mod.tensor_shapes(config)
    prefixes = ("", "best.", "opt.m.", "opt.v.") if header["resumable"] else ("",)
    expected = {prefix + name: shape for prefix in prefixes for name, shape in shapes.items()}
    found = dict(table)
    if len(found) != len(table):
        raise CorruptFile(f"{path} names a tensor twice")
    missing = sorted(set(expected) - set(found))
    unexpected = sorted(set(found) - set(expected))
    if missing or unexpected:
        raise CorruptFile(
            f"{path} does not hold the model's tensors: missing {missing}, unexpected {unexpected}"
        )
    for name, shape in table:
        if shape != expected[name]:
            raise CorruptFile(
                f"{path} tensor {name} has shape {list(shape)}, "
                f"the model needs {list(expected[name])}"
            )
    return config, table
