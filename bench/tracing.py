"""Span tracing for the benchmark, recorded from outside the ipsdm package.

A `Tracer` replaces public functions with timing wrappers at the name their
caller looks up: `from .model import forward` binds `forward` in
`ipsdm.trainer`, so the trainer's calls are traced by wrapping
`ipsdm.trainer.forward`, not `ipsdm.model.forward`. Each span records its
name, start, end and parent span; spans stay in memory until the traced
process writes them out, and every span of one benchmark run carries the same
run id. Hooks also count work at the same boundaries (texts encoded, merges
learned, FLOPs from batch shapes, rows of the embedding a step touches).

Run one CLI stage under the tracer:

    python3 bench/tracing.py SPANS.json RUN_ID -- <ipsdm arguments>
"""

import hashlib
import importlib
import json
import os
import sys
import time
import unicodedata

import numpy as np

LAYERS = ("cli", "corpus", "tokenizer", "balance", "model", "optim", "trainer", "metrics")


def _encode_hook(counts, args, kwargs, result):
    text = args[1]
    max_len = kwargs.get("max_len", args[2] if len(args) > 2 else 128)
    counts.setdefault("encode_texts", set()).add(
        hashlib.blake2b(text.encode("utf-8", "surrogatepass"), digest_size=8).hexdigest())
    counts["encode_calls"] = counts.get("encode_calls", 0) + 1
    counts["encode_at_max_len"] = counts.get("encode_at_max_len", 0) + int(result.true_length == max_len)


def _train_vocab_hook(counts, args, kwargs, result):
    counts["merges"] = counts.get("merges", 0) + len(result.merges)
    counts["train_bytes"] = counts.get("train_bytes", 0) + sum(
        len(unicodedata.normalize("NFC", s.text).encode("utf-8")) for s in args[0].samples)


def _plan_hook(counts, args, kwargs, result):
    counts["duplicated"] = counts.get("duplicated", 0) + sum(
        item.g for item in result.items if not item.same_class_neighbors)


def _synthesize_hook(counts, args, kwargs, result):
    counts["synthetic"] = counts.get("synthetic", 0) + len(result) - len(args[1])


def _load_csv_hook(counts, args, kwargs, result):
    counts["rows"] = counts.get("rows", 0) + result[1].loaded


def _forward_hook(counts, args, kwargs, result):
    batch = args[1]
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    counts.setdefault("forward", []).append(
        [len(batch), len(batch[0].ids), sum(seq.true_length for seq in batch), bool(training)])


def _backward_hook(counts, args, kwargs, result):
    b, t = args[1].ids.shape
    counts.setdefault("backward", []).append([int(b), int(t)])


def _adamw_hook(counts, args, kwargs, result):
    tensors, grads = args[0], args[1]
    embedding = grads["token_embedding"]
    touched = int(np.count_nonzero(np.any(embedding != 0, axis=1)))
    counts.setdefault("adamw", []).append(
        [touched, int(embedding.shape[0]), int(sum(t.size for t in tensors.values()))])


def _save_checkpoint_hook(counts, args, kwargs, result):
    counts["checkpoint_bytes"] = os.path.getsize(args[1])


def _forward_name(args, kwargs):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "model.forward_train" if training else "model.forward_eval"


# (module, attribute, span name or callable(args, kwargs) -> name, count hook)
STAGE_WRAPS = [
    ("ipsdm.cli", "load_csv", "corpus.load_csv", _load_csv_hook),
    ("ipsdm.cli", "merge", "corpus.merge", None),
    ("ipsdm.cli", "split", "corpus.split", None),
    ("ipsdm.cli", "save_split_csv", "corpus.save_split_csv", None),
    ("ipsdm.cli", "read_split_csv", "corpus.read_split_csv", None),
    ("ipsdm.cli", "train_vocab", "tokenizer.train_vocab", _train_vocab_hook),
    ("ipsdm.cli", "save_vocab", "tokenizer.save_vocab", None),
    ("ipsdm.cli", "load_vocab", "tokenizer.load_vocab", None),
    ("ipsdm.cli", "vocab_sha256", "tokenizer.vocab_sha256", None),
    ("ipsdm.trainer", "vocab_sha256", "tokenizer.vocab_sha256", None),
    ("ipsdm.cli", "balance_corpus", "balance.balance_corpus", None),
    ("ipsdm.balance", "vectorize", "balance.vectorize", None),
    ("ipsdm.balance", "plan_adasyn", "balance.plan_adasyn", _plan_hook),
    ("ipsdm.balance", "synthesize", "balance.synthesize", _synthesize_hook),
    ("ipsdm.balance", "encode", "tokenizer.encode", _encode_hook),
    ("ipsdm.balance", "decode", "tokenizer.decode", None),
    ("ipsdm.cli", "run_training", "trainer.train", None),
    ("ipsdm.cli", "evaluate_checkpoint", "trainer.evaluate", None),
    ("ipsdm.cli", "save_checkpoint", "trainer.save_checkpoint", _save_checkpoint_hook),
    ("ipsdm.cli", "load_checkpoint", "trainer.load_checkpoint", None),
    ("ipsdm.cli", "predict", "model.predict", None),
    ("ipsdm.trainer", "encode", "tokenizer.encode", _encode_hook),
    ("ipsdm.trainer", "make_batches", "trainer.make_batches", None),
    ("ipsdm.trainer", "forward", _forward_name, _forward_hook),
    ("ipsdm.trainer", "backward", "model.backward", _backward_hook),
    ("ipsdm.trainer", "cross_entropy", "metrics.cross_entropy", None),
    ("ipsdm.trainer", "confusion", "metrics.score", None),
    ("ipsdm.trainer", "score", "metrics.score", None),
    ("ipsdm.trainer", "adamw_step", "optim.adamw_step", _adamw_hook),
    ("ipsdm.cli", "emit_report_csv", "metrics.emit_report", None),
    ("ipsdm.cli", "emit_report_json", "metrics.emit_report", None),
    ("ipsdm.cli", "render_report_svg", "metrics.emit_report", None),
] + [
    # ipsdm.model's own globals: the predict path (encode, forward) and the
    # kernels forward/backward call (attention, gelu, gelu_grad, init).
    ("ipsdm.model", "encode", "tokenizer.encode", _encode_hook),
    ("ipsdm.model", "forward", _forward_name, _forward_hook),
    ("ipsdm.model", "init", "model.init", None),
    ("ipsdm.model", "attention", "model.attention", None),
    ("ipsdm.model", "gelu", "model.gelu", None),
    ("ipsdm.model", "gelu_grad", "model.gelu_grad", None),
]

# The in-process read path: predict -> encode + forward -> kernels.
PREDICT_WRAPS = [
    ("ipsdm.model", "predict", "model.predict", None),
] + [w for w in STAGE_WRAPS if w[0] == "ipsdm.model"]


class Tracer:
    """Collects spans and counts from wrapped functions in this process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict = {}
        self._stack: list[int] = []
        self._installed: list = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module_name: str, attr: str, name, hook=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            index = self.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def install(self, wraps) -> None:
        for module_name, attr, name, hook in wraps:
            self.wrap(module_name, attr, name, hook)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def dump(self) -> dict:
        counts = {k: sorted(v) if isinstance(v, set) else v for k, v in self.counts.items()}
        return {"run_id": self.run_id, "spans": self.spans, "counts": counts}


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _forward_flop(b: int, t: int, model: dict) -> int:
    """Multiply-adds x 2 of one encoder forward over a (b, t) batch: the Q, K,
    V and output projections, the two attention products, the feed-forward
    pair, and the classifier head."""
    d, f = model["d_model"], model["d_ff"]
    per_layer = 8 * b * t * d * d + 4 * b * t * t * d + 4 * b * t * d * f
    return model["num_layers"] * per_layer + 2 * b * d * 3


def _ancestor(spans: list, index: int, ancestor: int) -> bool:
    while index >= 0 and index != ancestor:
        index = spans[index][3]
    return index == ancestor


def _p(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def merge_counts(dumps: list[dict]) -> dict:
    merged: dict = {}
    for dump in dumps:
        for key, value in dump["counts"].items():
            if isinstance(value, list) and key == "encode_texts":
                merged.setdefault(key, set()).update(value)
            elif isinstance(value, list):
                merged.setdefault(key, []).extend(value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def layer_metrics(stages: list[dict], predict: dict, model: dict) -> dict:
    """Per-layer metrics from the traced stages (each a tracer dump plus the
    stage's child-process `wall_s`) and the traced in-process predict loop.

    Returns {name: (value, unit)}; times are sums over the run unless the
    name says p50/p99 or per-call ms.
    """
    dumps = stages + [predict]
    durations: dict[str, list[float]] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    span_count = 0
    epoch_s: list[float] = []
    step_ms: list[float] = []
    for dump in dumps:
        spans = dump["spans"]
        span_count += len(spans)
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            durations.setdefault(name, []).append(end - start)
            self_by_layer[name.split(".")[0]] += own
        if "wall_s" in dump:  # interpreter start-up, imports and exit of the stage's child
            root = [end - start for name, start, end, parent in spans if parent < 0
                    and name.startswith("cli.")]
            self_by_layer["cli"] += dump["wall_s"] - sum(root)
        # A training step runs from its forward to its optimizer update; an
        # epoch from one make_batches call to the next (the last to the end of
        # train, which includes its validation pass).
        pending = None
        for name, start, end, _ in spans:
            if name == "model.forward_train":
                pending = start
            elif name == "optim.adamw_step" and pending is not None:
                step_ms.append((end - pending) * 1e3)
                pending = None
        for i, (name, _, train_end, _) in enumerate(spans):
            if name == "trainer.train":
                starts = [start for n, start, _, parent in spans if n == "trainer.make_batches"
                          and _ancestor(spans, parent, i)]
                epoch_s.extend(b - a for a, b in zip(starts, starts[1:] + [train_end]))

    def total(name):
        return float(sum(durations.get(name, [])))

    def ms(name, q):
        return _p([d * 1e3 for d in durations.get(name, [])], q)

    counts = merge_counts(dumps)
    encode_calls = counts.get("encode_calls", 0)
    forwards = counts.get("forward", [])
    fwd_flop = sum(_forward_flop(b, t, model) for b, t, _, _ in forwards)
    fwd_train_flop = sum(_forward_flop(b, t, model) for b, t, _, tr in forwards if tr)
    bwd_flop = sum(2 * _forward_flop(b, t, model) for b, t in counts.get("backward", []))
    train_time = total("model.forward_train") + total("model.backward")
    positions = sum(b * t for b, t, _, _ in forwards)
    steps = counts.get("adamw", [])
    n_params = steps[0][2] if steps else 0
    traced_wall = sum(s["wall_s"] for s in stages)

    out = {
        "corpus.load_csv_s": (total("corpus.load_csv"), "s"),
        "corpus.split_s": (total("corpus.split"), "s"),
        "corpus.save_split_csv_s": (total("corpus.save_split_csv"), "s"),
        "corpus.read_split_csv_s": (total("corpus.read_split_csv"), "s"),
        "corpus.rows": (counts.get("rows", 0), "count"),
        "tokenizer.train_vocab_s": (total("tokenizer.train_vocab"), "s"),
        "tokenizer.merges": (counts.get("merges", 0), "count"),
        "tokenizer.train_bytes": (counts.get("train_bytes", 0), "bytes"),
        "tokenizer.encode_calls": (encode_calls, "count"),
        "tokenizer.encode_unique_ratio": (
            len(counts.get("encode_texts", ())) / encode_calls if encode_calls else 0.0, "fraction"),
        "tokenizer.encode_s": (total("tokenizer.encode"), "s"),
        "tokenizer.encode_ms_p50": (ms("tokenizer.encode", 50), "ms"),
        "tokenizer.encode_ms_p99": (ms("tokenizer.encode", 99), "ms"),
        "tokenizer.truncated_frac": (
            counts.get("encode_at_max_len", 0) / encode_calls if encode_calls else 0.0, "fraction"),
        "tokenizer.decode_s": (total("tokenizer.decode"), "s"),
        "tokenizer.load_vocab_s": (total("tokenizer.load_vocab"), "s"),
        "balance.vectorize_s": (total("balance.vectorize"), "s"),
        "balance.plan_adasyn_s": (total("balance.plan_adasyn"), "s"),
        "balance.synthesize_s": (total("balance.synthesize"), "s"),
        "balance.synthetic": (counts.get("synthetic", 0), "count"),
        "balance.duplicated": (counts.get("duplicated", 0), "count"),
        "model.forward_train_ms": (ms("model.forward_train", 50), "ms"),
        "model.backward_ms": (ms("model.backward", 50), "ms"),
        "model.forward_eval_ms": (ms("model.forward_eval", 50), "ms"),
        "model.attention_s": (total("model.attention"), "s"),
        "model.gelu_s": (total("model.gelu"), "s"),
        "model.gelu_grad_s": (total("model.gelu_grad"), "s"),
        "model.forward_gflop": (fwd_flop / 1e9, "GFLOP"),
        "model.backward_gflop": (bwd_flop / 1e9, "GFLOP"),
        "model.train_gflop_per_s": (
            (fwd_train_flop + bwd_flop) / 1e9 / train_time if train_time else 0.0, "GFLOP/s"),
        "model.useful_position_frac": (
            sum(n for _, _, n, _ in forwards) / positions if positions else 0.0, "fraction"),
        "model.predict_ms": (_p([(end - start) * 1e3 for name, start, end, _ in predict["spans"]
                                 if name == "model.predict"], 50), "ms"),
        "optim.adamw_step_ms": (ms("optim.adamw_step", 50), "ms"),
        "optim.steps": (len(steps), "count"),
        # g is read by the finiteness check, then z, g, m, v are read and
        # z, m, v written: 8 float32 passes over the parameters per step.
        "optim.bytes_per_step": (8 * 4 * n_params, "bytes"),
        "optim.touched_embedding_row_frac": (
            float(np.mean([t / rows for t, rows, _ in steps])) if steps else 0.0, "fraction"),
        "trainer.step_ms": (_p(step_ms, 50), "ms"),
        "trainer.epoch_s": (_p(epoch_s, 50), "s"),
        "trainer.make_batches_s": (total("trainer.make_batches"), "s"),
        "trainer.save_checkpoint_s": (total("trainer.save_checkpoint"), "s"),
        "trainer.checkpoint_bytes": (counts.get("checkpoint_bytes", 0), "bytes"),
        "trainer.load_checkpoint_s": (total("trainer.load_checkpoint"), "s"),
        "metrics.cross_entropy_s": (total("metrics.cross_entropy"), "s"),
        "metrics.score_s": (total("metrics.score"), "s"),
        "trace.spans": (span_count, "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_by_layer[layer], "s")
        out[f"{layer}.self_frac"] = (
            self_by_layer[layer] / (traced_wall + predict_wall(predict)), "fraction")
    return out


def predict_wall(predict: dict) -> float:
    """The traced predict loop's wall time: its root spans back to back."""
    return sum(end - start for _, start, end, parent in predict["spans"] if parent < 0)


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--" or not cli_args:
        print("usage: tracing.py SPANS.json RUN_ID -- <ipsdm arguments>", file=sys.stderr)
        return 64
    import ipsdm.cli

    tracer = Tracer(run_id)
    tracer.install(STAGE_WRAPS)
    root = tracer.begin("cli." + cli_args[0].replace("-", "_"))
    try:
        code = ipsdm.cli.main(cli_args)
    finally:
        tracer.end(root)
    tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
