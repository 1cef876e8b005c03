"""AdamW for the model's tensor dictionary.

Two update rules are provided. The default ("decoupled", Loshchilov & Hutter,
arXiv:1711.05101) applies decay outside the adaptive scaling:

    z_i = z_{i-1} - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * z_{i-1}

The "paper" variant folds the weight-decay term into the adaptive update:

    z_i = z_{i-1} - lr / (sqrt(v_hat) + eps) * (m_hat + wd * z_{i-1})

Both share the moment updates m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2 and
bias corrections m_hat = m/(1-b1^i), v_hat = v/(1-b2^i) with i counting steps
from 1.

Stability note: under the "paper" rule a parameter whose gradient stays
exactly zero (an embedding row no batch ever touches) has m_hat = v_hat = 0,
so each step multiplies it by (1 - lr*wd/eps) — a factor of -999 at the
defaults. That makes the "paper" rule diverge on any model with unused rows,
which is why "decoupled" is the default; it shrinks zero-gradient parameters
by the factor (1 - lr*wd) instead. "paper" stays selectable for fidelity to
the update equations it implements.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SCHEDULES, VARIANTS, OptimizerHyperparams  # noqa: F401  (re-exported)
from .errors import NonFiniteGradient, ShapeMismatch

@dataclass
class OptimizerState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_state(tensors: dict[str, np.ndarray]) -> OptimizerState:
    return OptimizerState(
        step=0,
        m={k: np.zeros_like(t) for k, t in tensors.items()},
        v={k: np.zeros_like(t) for k, t in tensors.items()},
    )


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))


def clip_by_global_norm(
    grads: dict[str, np.ndarray], max_norm: float
) -> dict[str, np.ndarray]:
    norm = global_norm(grads)
    if norm <= max_norm:
        return grads
    factor = max_norm / norm
    return {k: g * factor for k, g in grads.items()}


def adamw_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    hyper: OptimizerHyperparams,
    learning_rate: float | None = None,
) -> None:
    """Apply one update in place to tensors and state.

    All gradients are checked for finiteness before anything is mutated, so a
    bad step leaves tensors and optimizer state untouched. learning_rate
    overrides hyper.learning_rate when a schedule supplies the current value.
    """
    hyper.validate()
    if set(grads) != set(tensors):
        missing = set(tensors) - set(grads)
        extra = set(grads) - set(tensors)
        raise ShapeMismatch(f"gradient keys differ from tensors (missing={missing}, extra={extra})")
    for name, g in grads.items():
        if g.shape != tensors[name].shape:
            raise ShapeMismatch(
                f"gradient for {name} has shape {g.shape}, tensor is {tensors[name].shape}"
            )
        if not np.isfinite(g).all():
            raise NonFiniteGradient(name)

    if hyper.clip_max_norm is not None:
        grads = clip_by_global_norm(grads, hyper.clip_max_norm)

    lr = hyper.learning_rate if learning_rate is None else learning_rate
    step = state.step + 1
    bc1 = 1.0 - hyper.beta1**step
    bc2 = 1.0 - hyper.beta2**step

    # Two scratch arrays per tensor (a third for the "paper" rule's wd * z);
    # every other result is built in place, in the operation order of the
    # update equations, so the update is the same bit for bit.
    for name, z in tensors.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        a = np.multiply(g, 1.0 - hyper.beta1)
        m *= hyper.beta1
        m += a
        np.multiply(g, 1.0 - hyper.beta2, out=a)
        a *= g
        v *= hyper.beta2
        v += a
        np.divide(m, bc1, out=a)  # m_hat
        denom = np.divide(v, bc2)  # v_hat
        np.sqrt(denom, out=denom)
        denom += hyper.epsilon
        if hyper.variant == "paper":
            np.divide(lr, denom, out=denom)
            a += hyper.weight_decay * z
            a *= denom
        else:
            a *= lr
            a /= denom
            np.multiply(z, lr * hyper.weight_decay, out=denom)
            a += denom
        z -= a
    state.step = step


def lr_at(step: int, schedule: str, base_lr: float, total_steps: int | None = None) -> float:
    """Learning rate for 0-indexed step. linear_decay runs from base_lr at
    step 0 down to 0 at total_steps."""
    if schedule not in SCHEDULES:
        raise ValueError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
    if step < 0:
        raise ValueError("step must be non-negative")
    if schedule == "constant":
        return base_lr
    if total_steps is None or total_steps <= 0:
        raise ValueError("linear_decay requires positive total_steps")
    return base_lr * max(0.0, 1.0 - step / total_steps)
