"""The pipeline's settings: model architecture, optimizer, training loop and
ADASYN parameters, with their defaults and range checks.

This module imports no numpy, so the CLI can read and check a config in
stages that compute nothing with it. model, optim, trainer and balance
import these names back, where they are also found.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError

# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    num_heads: int
    d_model: int
    d_ff: int
    max_len: int
    vocab_size: int
    num_labels: int = 3
    dropout_rate: float = 0.1
    # The classifier reads the first-token ([CLS]) state, the only pooling;
    # the field stays so that configs and checkpoint headers name it.
    pooling: str = "first_token"

    def validate(self) -> None:
        """Raise ValueError for a size below 1, or a max_len below 2: encode
        needs room for [cls] and [sep]."""
        for name in ("num_layers", "num_heads", "d_model", "d_ff", "max_len"):
            value = getattr(self, name)
            floor = 2 if name == "max_len" else 1
            if type(value) is not int or value < floor:
                raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
        if type(self.vocab_size) is not int:
            raise ValueError(f"vocab_size must be an integer, got {self.vocab_size!r}")
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}"
            )
        if self.num_labels != 3:
            raise ValueError("this classifier is fixed at 3 labels (ham/spam/phishing)")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.pooling != "first_token":
            raise ValueError(f"pooling must be 'first_token', got {self.pooling!r}")


# ---------------------------------------------------------------------------
# optimizer

VARIANTS = ("paper", "decoupled")
SCHEDULES = ("constant", "linear_decay")


@dataclass(frozen=True)
class OptimizerHyperparams:
    learning_rate: float = 2e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    variant: str = "decoupled"
    clip_max_norm: float | None = None

    def validate(self) -> None:
        """Raise ValueError for an unknown variant or a value out of range;
        every range is finite, and the checks are written so NaN fails them."""
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be non-negative and finite, got {self.learning_rate}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(
                f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if self.clip_max_norm is not None and not 0.0 < self.clip_max_norm < math.inf:
            raise ValueError(
                f"clip_max_norm must be positive and finite when set, got {self.clip_max_norm}")


# ---------------------------------------------------------------------------
# training loop

EARLY_STOP_METRICS = ("val_accuracy", "val_loss")


@dataclass(frozen=True)
class EarlyStopping:
    enabled: bool = False
    patience: int = 2
    metric: str = "val_accuracy"

    def validate(self) -> None:
        if self.patience < 1:
            raise ConfigError("early stopping patience must be >= 1")
        if self.metric not in EARLY_STOP_METRICS:
            raise ConfigError(f"early stopping metric must be one of {EARLY_STOP_METRICS}")


@dataclass(frozen=True)
class TrainingConfig:
    model: ModelConfig
    optimizer: OptimizerHyperparams = OptimizerHyperparams()
    train_batch_size: int = 32
    val_batch_size: int = 64
    num_epochs: int = 3
    seed: int = 0
    early_stopping: EarlyStopping = EarlyStopping()
    lr_schedule: str = "constant"

    def validate(self) -> None:
        if self.train_batch_size < 1 or self.val_batch_size < 1:
            raise ConfigError("batch sizes must be >= 1")
        if self.num_epochs < 1:
            raise ConfigError("num_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.lr_schedule not in SCHEDULES:
            raise ConfigError(f"lr_schedule must be one of {SCHEDULES}")
        self.early_stopping.validate()
        self.model.validate()
        self.optimizer.validate()


# ---------------------------------------------------------------------------
# ADASYN

DEFAULT_K = 5
DEFAULT_BETA = 1.0


def check_params(k: int, beta: float) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
