"""Classification loss and evaluation metrics: numerically safe softmax and
cross-entropy, a 3x3 confusion matrix, and one-vs-rest precision/recall/F1
with macro averages. Also renders reports to CSV/JSON and a small SVG chart.
Only softmax and cross_entropy compute with numpy, and import it when called,
so reports render without it.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import Label
from .errors import EmptyMatrix, InputError, LengthMismatch, NonFiniteInput

if TYPE_CHECKING:
    import numpy as np

NUM_CLASSES = 3
METRIC_NAMES = ("accuracy", "precision", "recall", "f1")


def softmax(logits: "np.ndarray") -> "np.ndarray":
    """Row-wise softmax over the last axis, max-subtracted for stability."""
    import numpy as np

    logits = np.asarray(logits)
    if not np.isfinite(logits).all():
        raise NonFiniteInput("softmax received non-finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=-1, keepdims=True)


def cross_entropy(logits: "np.ndarray", labels: "np.ndarray") -> tuple[float, "np.ndarray"]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    The loss is computed through log-sum-exp rather than log(softmax) so that
    extreme logits cannot produce log(0). Gradient: (softmax - onehot) / B.
    """
    import numpy as np

    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got shape {logits.shape}")
    if labels.shape[0] != logits.shape[0]:
        raise LengthMismatch(
            f"{logits.shape[0]} logit rows but {labels.shape[0]} labels"
        )
    if not np.isfinite(logits).all():
        raise NonFiniteInput("cross_entropy received non-finite logits")
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    grad = np.exp(shifted)
    z = grad.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(z[:, 0]) - shifted[np.arange(batch), labels]))
    grad /= z
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i][j] = number of samples with true label i predicted as j."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.counts) != NUM_CLASSES or any(
            len(row) != NUM_CLASSES for row in self.counts
        ):
            raise ValueError("confusion matrix must be 3x3")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def true_positives(self, c: int) -> int:
        return self.counts[c][c]

    def false_positives(self, c: int) -> int:
        return sum(self.counts[i][c] for i in range(NUM_CLASSES) if i != c)

    def false_negatives(self, c: int) -> int:
        return sum(self.counts[c][j] for j in range(NUM_CLASSES) if j != c)

    def support(self, c: int) -> int:
        return sum(self.counts[c])


def confusion(true_labels, predicted_labels) -> ConfusionMatrix:
    true_labels = [int(t) for t in true_labels]
    predicted_labels = [int(p) for p in predicted_labels]
    if len(true_labels) != len(predicted_labels):
        raise LengthMismatch(
            f"{len(true_labels)} true labels but {len(predicted_labels)} predictions"
        )
    for value in (*true_labels, *predicted_labels):
        if not 0 <= value < NUM_CLASSES:
            raise ValueError(f"label {value} outside 0..{NUM_CLASSES - 1}")
    counts = [[0] * NUM_CLASSES for _ in range(NUM_CLASSES)]
    for t, p in zip(true_labels, predicted_labels):
        counts[t][p] += 1
    return ConfusionMatrix(tuple(tuple(row) for row in counts))


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int
    zero_support: bool = False


@dataclass(frozen=True)
class Scores:
    accuracy: float
    per_class: tuple[ClassScores, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def macro(self, metric: str) -> float:
        if metric == "accuracy":
            return self.accuracy
        return getattr(self, f"macro_{metric}")


def score(matrix: ConfusionMatrix) -> Scores:
    """Accuracy plus one-vs-rest precision, recall, and F1 for each class.

    Zero denominators yield 0.0; a class absent from the true labels gets
    recall 0 and is flagged zero_support rather than raising.
    """
    if matrix.total == 0:
        raise EmptyMatrix("cannot score an empty confusion matrix")
    correct = sum(matrix.true_positives(c) for c in range(NUM_CLASSES))
    accuracy = correct / matrix.total
    per_class = []
    for c in range(NUM_CLASSES):
        tp = matrix.true_positives(c)
        fp = matrix.false_positives(c)
        fn = matrix.false_negatives(c)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        per_class.append(
            ClassScores(
                precision=precision,
                recall=recall,
                f1=f1,
                support=matrix.support(c),
                zero_support=matrix.support(c) == 0,
            )
        )
    return Scores(
        accuracy=accuracy,
        per_class=tuple(per_class),
        macro_precision=sum(s.precision for s in per_class) / NUM_CLASSES,
        macro_recall=sum(s.recall for s in per_class) / NUM_CLASSES,
        macro_f1=sum(s.f1 for s in per_class) / NUM_CLASSES,
    )


@dataclass(frozen=True)
class SplitScores:
    split: str  # "validation" or "test"
    matrix: ConfusionMatrix
    scores: Scores

    def as_dict(self) -> dict:
        return {
            "split": self.split,
            "confusion_matrix": [list(row) for row in self.matrix.counts],
            "accuracy": self.scores.accuracy,
            "macro_precision": self.scores.macro_precision,
            "macro_recall": self.scores.macro_recall,
            "macro_f1": self.scores.macro_f1,
            "per_class": {
                Label(c).name: {
                    "precision": s.precision,
                    "recall": s.recall,
                    "f1": s.f1,
                    "support": s.support,
                    "zero_support": s.zero_support,
                }
                for c, s in enumerate(self.scores.per_class)
            },
        }


# `ipsdm report` flags, through gap_warns, a validation-test accuracy gap
# (ModelReport.overfit_gap) above this.
OVERFIT_GAP_THRESHOLD = 0.05


def gap_warns(gap: float, threshold: float = OVERFIT_GAP_THRESHOLD) -> bool:
    """Whether a validation-test accuracy gap lies above the threshold. The
    gap is rounded to 9 decimals first, so that float error in a difference
    of accuracies (1.0 - 0.95 is 0.050000000000000044) cannot tip it over."""
    return round(abs(gap), 9) > threshold


@dataclass(frozen=True)
class ModelReport:
    model: str
    validation: SplitScores
    test: SplitScores

    @property
    def overfit_gap(self) -> float:
        return self.validation.scores.accuracy - self.test.scores.accuracy


def split_scores_from_dict(doc: dict) -> SplitScores:
    """Rebuild a SplitScores from its as_dict() form; derived metrics are
    recomputed from the stored confusion matrix. Raises InputError when the
    matrix is missing or not 3x3 non-negative integer counts."""
    rows = doc.get("confusion_matrix")
    if not (
        isinstance(rows, list)
        and len(rows) == NUM_CLASSES
        and all(isinstance(row, list) and len(row) == NUM_CLASSES for row in rows)
        and all(type(c) is int and c >= 0 for row in rows for c in row)
    ):
        raise InputError(
            f"'confusion_matrix' must be a {NUM_CLASSES}x{NUM_CLASSES} list of "
            "non-negative integer counts"
        )
    matrix = ConfusionMatrix(tuple(tuple(row) for row in rows))
    return SplitScores(split=doc["split"], matrix=matrix, scores=score(matrix))


REPORT_CSV_COLUMNS = ["metric", "split", "model", "value"]
_SPLIT_ORDER = ("validation", "test")


def report_rows(reports: list[ModelReport]) -> list[dict[str, str]]:
    """Long-format rows: one per (model, split, metric), macro-averaged,
    ordered split-major then accuracy/precision/recall/f1."""
    rows = []
    for report in reports:
        for split_name in _SPLIT_ORDER:
            split = report.validation if split_name == "validation" else report.test
            for metric in METRIC_NAMES:
                rows.append(
                    {
                        "metric": metric,
                        "split": split_name,
                        "model": report.model,
                        "value": f"{split.scores.macro(metric):.6f}",
                    }
                )
    return rows


def emit_report_csv(reports: list[ModelReport], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(report_rows(reports))


def emit_report_json(reports: list[ModelReport], path: Path) -> None:
    payload = {
        "models": [
            {
                "model": r.model,
                "validation": r.validation.as_dict(),
                "test": r.test.as_dict(),
                "overfit_gap": r.overfit_gap,
            }
            for r in reports
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_report_svg(reports: list[ModelReport], path: Path) -> None:
    """Grouped bar chart of macro metrics per model and split, written as a
    standalone SVG (no plotting dependency)."""
    bar_w, gap, group_gap = 18, 4, 26
    chart_h, margin_left, margin_top = 220, 50, 30
    groups = [(r.model, s) for r in reports for s in _SPLIT_ORDER]
    group_w = len(METRIC_NAMES) * (bar_w + gap) + group_gap
    width = margin_left + len(groups) * group_w + 20
    height = chart_h + margin_top + 70
    fills = {"accuracy": "#4c72b0", "precision": "#dd8452", "recall": "#55a868", "f1": "#c44e52"}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = margin_top + chart_h * (1 - frac)
        parts.append(
            f'<line x1="{margin_left}" y1="{y:.1f}" x2="{width - 10}" y2="{y:.1f}" '
            f'stroke="#ddd"/>'
            f'<text x="{margin_left - 6}" y="{y + 4:.1f}" text-anchor="end">{frac:.2f}</text>'
        )
    x = margin_left + group_gap / 2
    for report in reports:
        for split_name in _SPLIT_ORDER:
            split = report.validation if split_name == "validation" else report.test
            for metric in METRIC_NAMES:
                value = split.scores.macro(metric)
                h = chart_h * value
                parts.append(
                    f'<rect x="{x:.1f}" y="{margin_top + chart_h - h:.1f}" '
                    f'width="{bar_w}" height="{h:.1f}" fill="{fills[metric]}"/>'
                )
                x += bar_w + gap
            label_x = x - (bar_w + gap) * len(METRIC_NAMES) / 2
            parts.append(
                f'<text x="{label_x:.1f}" y="{margin_top + chart_h + 16}" '
                f'text-anchor="middle">{report.model}/{split_name[:3]}</text>'
            )
            x += group_gap
    legend_x = margin_left
    for metric in METRIC_NAMES:
        parts.append(
            f'<rect x="{legend_x}" y="{height - 24}" width="12" height="12" '
            f'fill="{fills[metric]}"/>'
            f'<text x="{legend_x + 16}" y="{height - 14}">{metric}</text>'
        )
        legend_x += 90
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
