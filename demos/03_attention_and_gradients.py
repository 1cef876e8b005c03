#!/usr/bin/env python3
"""
Peek inside the encoder: attention weights on a tiny batch, the padding
invariance guarantee, and a finite-difference spot check of the hand-written
backward pass.
"""

import numpy as np

from ipsdm.corpus import Label
from ipsdm.metrics import cross_entropy
from ipsdm.model import ModelConfig, backward, forward, init
from ipsdm.tokenizer import TokenSequence, Vocabulary, encode


def finite_difference(loss_fn, tensor, flat_position, step=1e-5):
    flat = tensor.reshape(-1)
    saved = flat[flat_position]
    flat[flat_position] = saved + step
    plus = loss_fn()
    flat[flat_position] = saved - step
    minus = loss_fn()
    flat[flat_position] = saved
    return (plus - minus) / (2.0 * step)


def main():
    vocab = Vocabulary.from_merges([])
    config = ModelConfig(
        num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=12,
        vocab_size=vocab.size, dropout_rate=0.0,
    )
    params = init(config, seed=0, dtype=np.float64)
    # fresh init is nearly symmetric; stretching the weights makes the
    # attention pattern (and the gradients below) visibly non-uniform
    for name, tensor in params.tensors.items():
        if "ln" not in name and name != "classifier.bias":
            tensor *= 6.0

    batch = [encode(vocab, "hi!", config.max_len), encode(vocab, "free cash", config.max_len)]
    labels = np.array([Label.ham, Label.spam], dtype=np.int64)

    logits, cache = forward(params, batch, training=False)
    print("logits:")
    for text, row in zip(("hi!", "free cash"), logits):
        print(f"  {text!r}: {np.round(row, 4)}")

    probs = cache.layers[0]["probs"]  # (batch, heads, query, key)
    print(f"\nattention of sample 0 (true length {batch[0].true_length}), head 0, query 0:")
    print(f"  {np.round(probs[0, 0, 0], 4)}")
    padded = probs[0, :, :, batch[0].true_length:]
    print(f"  weight on padding positions: {float(np.abs(padded).max()):.1f} (exactly zero)")
    assert not padded.any()

    # tampering with padding ids must not change the logits at all
    ids = list(batch[0].ids)
    for position in range(batch[0].true_length, config.max_len):
        ids[position] = 4 + (position * 37) % 256
    tampered = [
        TokenSequence(
            ids=ids,
            true_length=batch[0].true_length,
        ),
        batch[1],
    ]
    tampered_logits, _ = forward(params, tampered, training=False)
    assert (tampered_logits == logits).all()
    print("rewriting the padding ids leaves the logits bit-identical")

    # spot-check the analytic gradients against central differences
    def loss_fn():
        out, _ = forward(params, batch, training=False)
        return cross_entropy(out, labels)[0]

    _, dlogits = cross_entropy(logits, labels)
    grads = backward(params, cache, dlogits)
    print("\nfinite-difference spot checks (analytic vs numeric):")
    rng = np.random.default_rng(3)
    for name in ("layers.0.attn.w_q", "layers.0.ff.w1", "classifier.weight"):
        tensor = params.tensors[name]
        position = int(rng.integers(tensor.size))
        numeric = finite_difference(loss_fn, tensor, position)
        analytic = float(grads[name].reshape(-1)[position])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        print(f"  {name}[{position}]: {analytic:+.8f} vs {numeric:+.8f}  (rel {rel:.2e})")
        assert rel < 1e-6


if __name__ == "__main__":
    main()
