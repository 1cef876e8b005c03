"""Encoder tests: shapes, masking, exact backprop vs finite differences.

The gradient check is the load-bearing test here: every parameter tensor is
probed at sampled positions against central finite differences under 64-bit
arithmetic, which exercises the full forward graph (embeddings, every
attention projection, both layer norms, the feed-forward pair, pooling, and
the classifier head) through a single independent route.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ipsdm import blas, model
from ipsdm.corpus import Label
from ipsdm.errors import AllMasked, SequenceLengthMismatch, StaleCache
from ipsdm.metrics import cross_entropy
from ipsdm.model import (
    INIT_STD,
    INIT_TRUNC,
    ModelConfig,
    _dropout_mask,
    _layer_norm,
    _layer_norm_backward,
    attention,
    backward,
    forward,
    gelu,
    gelu_grad,
    init,
    predict,
)
from ipsdm.tokenizer import CLS_ID, PAD_ID, SEP_ID, UNK_ID, TokenSequence, Vocabulary, encode

from oracles import (
    dense_attention,
    finite_difference_gradient,
    layer_norm,
    layer_norm_backward,
)

BASE_VOCAB = Vocabulary.from_merges([])

SMALL = ModelConfig(
    num_layers=2,
    num_heads=2,
    d_model=8,
    d_ff=16,
    max_len=12,
    vocab_size=280,
    dropout_rate=0.0,
)

TEXTS = ["free cash", "team lunch", "verify now"]


def _batch(texts, max_len=12):
    return [encode(BASE_VOCAB, t, max_len) for t in texts]


# ---------------------------------------------------------------------------
# config and init


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(2, 3, 8, 16, 12, 280).validate()  # 8 % 3 != 0
    with pytest.raises(ValueError):
        ModelConfig(2, 2, 8, 16, 12, 280, num_labels=2).validate()
    with pytest.raises(ValueError):
        ModelConfig(2, 2, 8, 16, 12, 280, dropout_rate=1.0).validate()
    with pytest.raises(ValueError):
        ModelConfig(2, 2, 8, 16, 12, 280, pooling="max").validate()
    with pytest.raises(ValueError):
        ModelConfig(2, 2, 8, 16.0, 12, 280).validate()  # sizes are ints
    with pytest.raises(ValueError):
        ModelConfig(2, 2, 8, 16, 12, "280").validate()
    SMALL.validate()


def test_config_max_len_leaves_room_for_cls_and_sep():
    with pytest.raises(ValueError, match="max_len must be an integer >= 2, got 1"):
        ModelConfig(2, 2, 8, 16, 1, 280).validate()
    ModelConfig(2, 2, 8, 16, 2, 280).validate()


def test_init_deterministic():
    a = init(SMALL, seed=3)
    b = init(SMALL, seed=3)
    assert set(a.tensors) == set(b.tensors)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    c = init(SMALL, seed=4)
    assert not np.array_equal(a.tensors["token_embedding"], c.tensors["token_embedding"])


def test_init_layer_norm_and_bias_conventions():
    params = init(SMALL, seed=0)
    for i in range(SMALL.num_layers):
        for ln in ("ln1", "ln2"):
            assert np.all(params.tensors[f"layers.{i}.{ln}.scale"] == 1.0)
            assert np.all(params.tensors[f"layers.{i}.{ln}.offset"] == 0.0)
    assert np.all(params.tensors["classifier.bias"] == 0.0)


def test_init_weights_truncated():
    params = init(SMALL, seed=1)
    bound = INIT_TRUNC * INIT_STD
    for name, tensor in params.tensors.items():
        if "ln" in name or name == "classifier.bias":
            continue
        assert np.abs(tensor).max() <= bound
    spread = params.tensors["token_embedding"].std()
    assert 0.01 < spread < 0.03


def test_parameter_count_closed_form():
    config = ModelConfig(
        num_layers=2, num_heads=4, d_model=128, d_ff=256, max_len=128, vocab_size=8192
    )
    params = init(config, seed=0)
    d, f = config.d_model, config.d_ff
    per_layer = 4 * d * d + 2 * d + d * f + f * d + 2 * d
    expected = (
        config.vocab_size * d
        + config.max_len * d
        + config.num_layers * per_layer
        + d * config.num_labels
        + config.num_labels
    )
    assert params.num_parameters() == expected


# ---------------------------------------------------------------------------
# attention


def test_attention_single_key():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(1, 4))
    k = rng.normal(size=(1, 4))
    v = rng.normal(size=(1, 4))
    out, probs = attention(q, k, v)
    assert np.array_equal(probs, [[1.0]])
    assert np.array_equal(out, v)


def test_attention_identical_keys_uniform():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(3, 4))
    k = np.tile(rng.normal(size=(1, 4)), (5, 1))
    v = rng.normal(size=(5, 4))
    _, probs = attention(q, k, v)
    assert np.all(probs == probs[0, 0])
    assert probs.sum(axis=-1) == pytest.approx(np.ones(3))

    mask = np.array([True, False, True, True, False])
    _, masked_probs = attention(q, k, v, key_mask=mask)
    assert np.all(masked_probs[:, ~mask] == 0.0)
    unmasked = masked_probs[:, mask]
    assert np.all(unmasked == unmasked[0, 0])


def test_attention_matches_dense_oracle():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(3, 4))
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    unmasked = attention(q, k, v)
    for mask in (None, np.ones(5, dtype=bool), np.array([True, True, False, True, False])):
        out, probs = attention(q, k, v, key_mask=mask)
        exp_out, exp_probs = dense_attention(q, k, v, key_mask=mask)
        np.testing.assert_allclose(probs, exp_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, exp_out, rtol=0, atol=1e-12)
        live = probs.sum(axis=-1)
        np.testing.assert_allclose(live, 1.0, atol=1e-6)
        if mask is not None and mask.all():
            # forward drops the key mask of an unpadded batch: no bit moves.
            assert np.array_equal(out, unmasked[0]) and np.array_equal(probs, unmasked[1])


def test_attention_batched_heads_match_oracle():
    rng = np.random.default_rng(9)
    q = rng.normal(size=(2, 3, 4))  # two heads
    k = rng.normal(size=(2, 5, 4))
    v = rng.normal(size=(2, 5, 4))
    mask = np.array([True, False, True, True, True])
    out, probs = attention(q, k, v, key_mask=mask)
    for h in range(2):
        exp_out, exp_probs = dense_attention(q[h], k[h], v[h], key_mask=mask)
        np.testing.assert_allclose(probs[h], exp_probs, atol=1e-12)
        np.testing.assert_allclose(out[h], exp_out, atol=1e-12)


def test_attention_all_masked_rejected():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(2, 4))
    with pytest.raises(AllMasked):
        attention(q, q, q, key_mask=np.zeros(2, dtype=bool))


# ---------------------------------------------------------------------------
# forward


def test_forward_shapes_and_cache():
    params = init(SMALL, seed=0)
    batch = _batch(TEXTS)
    logits, cache = forward(params, batch)
    assert logits.shape == (3, 3)
    assert len(cache.layers) == SMALL.num_layers
    assert cache.pooled.shape == (3, SMALL.d_model)
    assert cache.params_version == params.version


def test_forward_attention_rows_sum_to_one():
    params = init(SMALL, seed=0)
    _, cache = forward(params, _batch(TEXTS))
    key_mask = cache.key_mask
    for layer in cache.layers:
        probs = layer["probs"]  # (batch, heads, T, S)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        masked = ~key_mask[:, None, None, :] & (probs != 0.0)
        assert not masked.any()


def test_forward_zero_head_gives_zero_logits():
    params = init(SMALL, seed=0)
    params.tensors["classifier.weight"][:] = 0.0
    params.tensors["classifier.bias"][:] = 0.0
    logits, _ = forward(params, _batch(TEXTS))
    assert np.all(logits == 0.0)


def test_forward_inference_deterministic():
    """Repeated inference gives the same logits, and so does inference
    that keeps no cache: for a padded batch and an unpadded batch of one."""
    params = init(SMALL, seed=5)
    for batch in (_batch(TEXTS), _batch(TEXTS[:1])):
        first, cache = forward(params, batch, training=False)
        second, _ = forward(params, batch, training=False)
        uncached, none = forward(params, batch, training=False, keep_cache=False)
        assert cache is not None and none is None
        assert np.array_equal(first, second)
        assert np.array_equal(first, uncached)


def _padded_batch(b, t, rng):
    """b sequences of t // 2 + 1 up to t tokens from a 280-id vocabulary,
    padded to max_len t: T = t, and every row but one is padded. Returns
    (true lengths, batch)."""
    lengths = np.linspace(t // 2 + 1, t, b).astype(int)
    batch = [
        TokenSequence([CLS_ID, *rng.integers(UNK_ID + 1, 280, n - 2).tolist(), SEP_ID]
                      + [PAD_ID] * (t - n), int(n))
        for n in lengths
    ]
    return lengths, batch


# Shapes at which a whole batch's attention arrays dwarf one chunk's:
# (16, 4, 96, 96) float32 scores are 2.4 MB. The memory tests set the chunk
# budget to two sequences' scores and padded q, k, v and context.
MEM_B, MEM_T, MEM_D, MEM_HEADS, MEM_D_FF = 16, 96, 32, 4, 64
MEM_CHUNK = 2 * (MEM_HEADS * MEM_T + 4 * MEM_D) * MEM_T * np.dtype(np.float32).itemsize


def test_inference_peak_stays_below_packed_rows_and_one_attention_chunk(monkeypatch):
    """forward(keep_cache=False) runs attention one chunk of sequences at a
    time and drops each array at its last read. So its traced peak on a
    padded batch stays below the larger of a layer's two phases, plus one
    more packed (N, d) array for a chunk's gathered context rows and the
    small per-row arrays. Attention holds five packed (N, d) arrays (the
    layer's input, q, k, v and the merged context) and one chunk's
    attention arrays, the chunk budget; the feed-forward holds two
    (its input and output) and three (N, d_ff) arrays (u, cdf and gelu(u)).
    Attention over the whole padded batch, or a chunk's scores held while
    the next chunk runs, exceed it. The logits are those of
    keep_cache=True, bit for bit. Three layers, so that a middle layer's
    attention runs after a full layer's feed-forward."""
    b, t, d, heads, d_ff = MEM_B, MEM_T, MEM_D, MEM_HEADS, MEM_D_FF
    monkeypatch.setattr(model, "ATTENTION_CHUNK_BYTES", MEM_CHUNK)
    config = ModelConfig(3, heads, d, d_ff, t, 280)
    params = init(config, seed=2)
    lengths, batch = _padded_batch(b, t, np.random.default_rng(0))
    item = np.dtype(np.float32).itemsize
    rows = int(lengths.sum()) * d * item
    ff_rows = int(lengths.sum()) * d_ff * item
    bound = max(5 * rows + MEM_CHUNK, 2 * rows + 3 * ff_rows) + rows

    cached, _ = forward(params, batch)
    forward(params, batch, keep_cache=False)  # first-call allocations are not the pass's
    tracemalloc.start()
    try:
        logits, none = forward(params, batch, keep_cache=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert none is None and np.array_equal(logits, cached)
    assert peak < bound, (peak, bound)


def _training_cache_bytes(config, b, t, n, itemsize):
    """A training cache's bytes from its shapes. Below the last layer, ten
    packed (N, d) arrays (x, q, k, v, the merged context, x1, the two
    normalized inputs and the two dropout masks), u and cdf (N, d_ff), two
    inverse deviations (N, 1) and the chunks' probs, (b, heads, T, T) in
    all. The last layer keeps x, k and v on N rows, and the rest, with
    (b, heads, 1, T) probs, on b rows; pooled is (b, d)."""
    d, f, heads = config.d_model, config.d_ff, config.num_heads

    def layer(rows, queries, t_q):
        return ((3 * rows + 7 * queries) * d + 2 * queries * f + 2 * queries
                + b * heads * t_q * t) * itemsize

    return (config.num_layers - 1) * layer(n, n, t) + layer(n, b, 1) + b * d * itemsize


def test_training_step_peak_stays_below_cache_gradients_and_one_attention_chunk(monkeypatch):
    """The training forward caches q, k and v as packed rows and each
    chunk's probs, and backward runs attention's backward one chunk at a
    time, writing each chunk's dq, dk and dv into packed rows. So the
    traced peak of a training forward plus backward on a padded batch
    stays below the cache's bytes (from its shapes, see
    _training_cache_bytes), plus the gradients', plus the larger of one
    chunk's attention arrays, the chunk budget, and the feed-forward's du
    and gelu_grad's two N*d_ff arrays. A cache of padded q, k and v, or
    a backward over the whole batch's (b, heads, T, T) scores, exceeds it."""
    b, t, d, heads, d_ff = MEM_B, MEM_T, MEM_D, MEM_HEADS, MEM_D_FF
    monkeypatch.setattr(model, "ATTENTION_CHUNK_BYTES", MEM_CHUNK)
    config = ModelConfig(3, heads, d, d_ff, t, 280, dropout_rate=0.1)
    params = init(config, seed=2)
    rng = np.random.default_rng(0)
    lengths, batch = _padded_batch(b, t, rng)
    dlogits = rng.normal(size=(b, config.num_labels)).astype(np.float32)

    def step():
        _, cache = forward(params, batch, training=True, dropout_rng=np.random.default_rng(1))
        return backward(params, cache, dlogits)

    item = np.dtype(np.float32).itemsize
    n = int(lengths.sum())
    bound = (_training_cache_bytes(config, b, t, n, item) + params.num_parameters() * item
             + max(MEM_CHUNK, 3 * n * d_ff * item))

    want = step()  # first-call allocations are not the step's
    tracemalloc.start()
    try:
        grads = step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for name, grad in grads.items():
        assert np.array_equal(grad, want[name]), name
    assert peak < bound, (peak, bound)


def test_forward_duplicated_sequence_gets_identical_rows():
    params = init(SMALL, seed=5)
    seq = _batch(["free cash"])[0]
    logits, _ = forward(params, [seq, seq])
    assert np.array_equal(logits[0], logits[1])


def test_forward_padding_invariance_is_bit_exact():
    config = ModelConfig(2, 2, 8, 16, 12, 280, dropout_rate=0.0)
    params = init(config, seed=8)
    seq = _batch(["hi!"])[0]
    assert seq.true_length < len(seq.ids)
    tampered_ids = list(seq.ids)
    for pos in range(seq.true_length, len(tampered_ids)):
        tampered_ids[pos] = 4 + (pos * 37) % 256
    tampered = type(seq)(
        ids=tampered_ids,
        true_length=seq.true_length,
    )
    clean_logits, _ = forward(params, [seq])
    dirty_logits, _ = forward(params, [tampered])
    assert np.array_equal(clean_logits, dirty_logits)


def test_forward_rejects_wrong_length():
    params = init(SMALL, seed=0)
    with pytest.raises(SequenceLengthMismatch):
        forward(params, _batch(["hello"], max_len=10))


def test_forward_dropout_needs_generator():
    config = ModelConfig(2, 2, 8, 16, 12, 280, dropout_rate=0.5)
    params = init(config, seed=0)
    with pytest.raises(ValueError):
        forward(params, _batch(TEXTS), training=True)


def test_forward_dropout_reproducible_and_off_at_eval():
    config = ModelConfig(2, 2, 8, 16, 12, 280, dropout_rate=0.5)
    params = init(config, seed=0)
    batch = _batch(TEXTS)
    eval_logits, _ = forward(params, batch, training=False)
    a, _ = forward(params, batch, training=True, dropout_rng=np.random.default_rng(1))
    b, _ = forward(params, batch, training=True, dropout_rng=np.random.default_rng(1))
    c, _ = forward(params, batch, training=True, dropout_rng=np.random.default_rng(2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, eval_logits)


def test_dropout_masks_are_draws_over_the_computed_rows():
    """Each mask is the next draw of one float64 uniform per entry of the
    rows its layer computes, drop1 then drop2, layer by layer: every real
    token below the last layer, and in the last layer each sequence's
    first. The generator is left right after them."""
    config = ModelConfig(2, 2, 8, 16, 12, 280, dropout_rate=0.5)
    params = init(config, seed=0)
    batch = _batch(["free cash", "hi", "team"])
    lengths = np.array([seq.true_length for seq in batch])
    assert lengths.max() < config.max_len and len(set(lengths)) > 1
    rng = np.random.default_rng(4)
    _, cache = forward(params, batch, training=True, dropout_rng=rng)
    reference = np.random.default_rng(4)
    for i, layer in enumerate(cache.layers):
        rows = len(batch) if i == config.num_layers - 1 else int(lengths.sum())
        for key in ("drop1", "drop2"):
            kept = reference.random((rows, config.d_model)) >= 0.5
            assert np.array_equal(layer[key], kept.astype(np.float32) / np.float32(0.5)), (i, key)
    assert rng.random() == reference.random()


def test_training_step_does_not_depend_on_max_len():
    """A batch at max_len 16 and the same batch at 12, with the position
    table cut to its first 12 rows and same-seed dropout generators, give
    the same logits, masks and gradients bit for bit."""
    config = ModelConfig(2, 2, 8, 16, 16, 280, dropout_rate=0.3)
    params = init(config, seed=5)
    cut = model.ModelParameters(
        config=replace(config, max_len=12),
        tensors={**params.tensors,
                 "position_embedding": params.tensors["position_embedding"][:12].copy()},
    )
    texts = ["free cash", "hi", "team"]
    dlogits = np.random.default_rng(6).normal(size=(len(texts), 3)).astype(np.float32)

    def step(p, max_len):
        batch = _batch(texts, max_len=max_len)
        logits, cache = forward(p, batch, training=True, dropout_rng=np.random.default_rng(7))
        masks = [(layer["drop1"], layer["drop2"]) for layer in cache.layers]
        return batch, logits, masks, backward(p, cache, dlogits)

    long_batch, long_logits, long_masks, long_grads = step(params, 16)
    short_batch, short_logits, short_masks, short_grads = step(cut, 12)
    assert [s.true_length for s in long_batch] == [s.true_length for s in short_batch]
    assert np.array_equal(long_logits, short_logits)
    assert len(long_masks) == len(short_masks) == config.num_layers
    for long_layer, short_layer in zip(long_masks, short_masks):
        for long_mask, short_mask in zip(long_layer, short_layer):
            assert np.array_equal(long_mask, short_mask)
    assert not long_grads["position_embedding"][12:].any()
    long_grads["position_embedding"] = long_grads["position_embedding"][:12]
    for name, grad in short_grads.items():
        assert np.array_equal(long_grads[name], grad), name


def test_forward_zero_rate_training_equals_eval():
    params = init(SMALL, seed=3)  # dropout_rate 0.0
    batch = _batch(TEXTS)
    train_logits, _ = forward(params, batch, training=True)
    eval_logits, _ = forward(params, batch, training=False)
    assert np.array_equal(train_logits, eval_logits)


def test_forward_single_vs_batched_rows_agree():
    params = init(SMALL, seed=11)
    batch = _batch(TEXTS)
    together, _ = forward(params, batch)
    for i, seq in enumerate(batch):
        alone, _ = forward(params, [seq])
        np.testing.assert_allclose(together[i], alone[0], rtol=1e-5, atol=1e-6)


def test_dropout_mask_values():
    rng = np.random.default_rng(0)
    mask = _dropout_mask(rng, (200, 50), 0.25, np.float32)
    keep = np.float32(0.75)
    assert set(np.unique(mask)) <= {np.float32(0.0), np.float32(1.0) / keep}
    assert abs(float(mask.mean()) - 1.0) < 0.05


# ---------------------------------------------------------------------------
# gelu: the tanh form, against the same formula in float64 and the exact erf


_GELU_C, _GELU_A = math.sqrt(2.0 / math.pi), 0.044715
_math_erf = np.frompyfunc(math.erf, 1, 1)


def _tanh_gelu64(u):
    u = np.asarray(u, dtype=np.float64)
    return 0.5 * u * (1.0 + np.tanh(_GELU_C * (u + _GELU_A * u**3)))


def _every_float32(lo, hi):
    """Every float32 in [lo, hi], for 0 <= lo <= hi."""
    first, last = np.array([lo, hi], dtype=np.float32).view(np.int32)
    return np.arange(first, last + 1, dtype=np.int32).view(np.float32)


def test_gelu_float32_is_within_8e_7_of_float64():
    # A dense grid over [-6, 6], plus every float32 of [3.5, 5], where the
    # largest error lies (4.7e-7, near 4.14). Near there, the product's
    # rounding and the cdf's (2.4e-7 and 1.2e-7) add 1.2e-7 per ulp of the
    # float32 tanh's own error: the bound allows a tanh of up to 3.5 ulp.
    tail = _every_float32(3.5, 5.0)
    u = np.concatenate([np.linspace(-6.0, 6.0, 1 << 20, dtype=np.float32), tail, -tail])
    h = gelu(u)
    assert h.dtype == np.float32
    assert np.abs(h - _tanh_gelu64(u)).max() <= 8e-7


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_is_within_4_8e_4_of_exact_gelu(dtype):
    u = np.linspace(-6.0, 6.0, 1 << 16)
    exact = 0.5 * u * (1.0 + _math_erf(u / math.sqrt(2.0)).astype(np.float64))
    deviation = np.abs(gelu(u.astype(dtype)) - exact).max()
    assert 4.6e-4 < deviation <= 4.8e-4  # the tanh form's own, not rounding


def test_gelu_grad_matches_central_differences():
    u = np.concatenate([np.linspace(-8.0, 8.0, 161), [0.0, -0.0, 40.0, -40.0]])
    step = 1e-6
    numeric = (gelu(u + step) - gelu(u - step)) / (2 * step)
    np.testing.assert_allclose(gelu_grad(u), numeric, rtol=0, atol=1e-8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_reuses_its_tanh_bit_for_bit(dtype):
    """gelu with a cdf to fill equals gelu without one, and gelu_grad given
    that cdf equals gelu_grad(u), exactly."""
    u = np.random.default_rng(3).normal(0.0, 3.0, size=(4, 7, 33)).astype(dtype)
    u[0, 0, :6] = [0.0, -0.0, 40.0, -40.0, 1e30, -1e30]
    cdf = np.empty_like(u)
    h = gelu(u, cdf)
    assert h.dtype == cdf.dtype == dtype
    # bytes, so that -0.0 and +0.0 count as different
    assert h.tobytes() == gelu(u).tobytes()
    assert gelu_grad(u, cdf).tobytes() == gelu_grad(u).tobytes()


@given(arrays(np.float32, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=8),
              elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
def test_gelu_of_u_minus_gelu_of_minus_u_is_u_for_any_finite_float32(u):
    """gelu(u) - gelu(-u) = u, and neither gelu nor gelu_grad warns or
    gives nan, over every finite float32: u^3 overflows past 7e12 and u^2
    past 1.8e19."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, h_neg, grad = gelu(u), gelu(-u), gelu_grad(u)
    assert h.shape == grad.shape == u.shape
    assert h.dtype == grad.dtype == np.float32
    u64 = u.astype(np.float64)
    difference = h.astype(np.float64) - h_neg.astype(np.float64)
    np.testing.assert_allclose(difference, u64, rtol=1e-6, atol=1e-44)
    assert np.isfinite(grad).all()
    assert ((grad >= -0.13) & (grad <= 1.13)).all()


# ---------------------------------------------------------------------------
# layer norm: the oracle's ndarray.mean route, byte for byte


@given(
    rows=st.integers(0, 64),
    # widths that are not powers of two change how numpy groups its sums
    d=st.sampled_from([1, 3, 7, 48, 96, 100, 128, 384]) | st.integers(1, 384),
    dtype=st.sampled_from([np.float32, np.float64]),
    loc=st.sampled_from([0.0, 3.0, -250.0]),
    seed=st.integers(0, 2**16),
)
def test_layer_norm_matches_oracle_byte_for_byte(rows, d, dtype, loc, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc, rng.uniform(0.01, 10.0), size=(rows, d)).astype(dtype)
    scale, offset, dy = (rng.normal(size=shape).astype(dtype) for shape in ((d,), (d,), (rows, d)))

    forward_out = _layer_norm(x, scale, offset)
    expected = layer_norm(x.copy(), scale, offset)
    for name, got, want in zip(("y", "xhat", "inv_std"), forward_out, expected):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name

    xhat, inv_std = expected[1], expected[2]
    got = _layer_norm_backward(dy, xhat, inv_std, scale)
    want = layer_norm_backward(dy, xhat, inv_std, scale)
    for name, g, w in zip(("dx", "dscale", "doffset"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


# ---------------------------------------------------------------------------
# backward


def _loss_and_grads(params, batch, labels):
    logits, cache = forward(params, batch, training=False)
    loss, dlogits = cross_entropy(logits, labels)
    return loss, backward(params, cache, dlogits)


def test_backward_zero_upstream_gives_zero_gradients():
    params = init(SMALL, seed=0)
    logits, cache = forward(params, _batch(TEXTS))
    grads = backward(params, cache, np.zeros_like(logits))
    assert set(grads) == set(params.tensors)
    for name, grad in grads.items():
        assert grad.shape == params.tensors[name].shape
        assert np.all(grad == 0.0), name


def test_backward_linear_in_upstream():
    """backward consumes its cache, so each call gets its own from a
    deterministic inference forward."""
    params = init(SMALL, seed=2, dtype=np.float64)
    logits, cache = forward(params, _batch(TEXTS), training=False)
    _, second_cache = forward(params, _batch(TEXTS), training=False)
    rng = np.random.default_rng(3)
    dlogits = rng.normal(size=logits.shape)
    once = backward(params, cache, dlogits)
    twice = backward(params, second_cache, 2.0 * dlogits)
    for name in once:
        assert np.array_equal(twice[name], 2.0 * once[name]), name


def test_backward_rejects_stale_cache():
    params = init(SMALL, seed=0)
    logits, cache = forward(params, _batch(TEXTS))
    params.version += 1
    with pytest.raises(StaleCache):
        backward(params, cache, np.zeros_like(logits))


def test_backward_consumes_its_cache_and_rejects_reuse():
    """backward drops every activation and keeps ids and key_mask; a second
    backward on the same cache raises StaleCache saying it was consumed."""
    params = init(SMALL, seed=0)
    logits, cache = forward(params, _batch(TEXTS))
    ids, key_mask = cache.ids, cache.key_mask
    backward(params, cache, np.ones_like(logits))
    assert cache.layers == [] and cache.pooled is None
    assert cache.ids is ids and cache.key_mask is key_mask
    with pytest.raises(StaleCache, match="consumed"):
        backward(params, cache, np.ones_like(logits))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dlogits_dtype", [np.float32, np.float64])
def test_gradients_come_in_tensor_order_and_dtype(dtype, dlogits_dtype):
    """Gradients come in params.tensors' key order, which global_norm sums
    in, each in its tensor's dtype: float32 parameters with float64 dlogits
    give float32 gradients, each the float32 rounding of the float64
    product (the classifier's is (pooled.T @ dlogits).astype(float32))."""
    config = replace(SMALL, dropout_rate=0.2)
    params = init(config, seed=1, dtype=dtype)
    batch = _batch(TEXTS)
    logits, cache = forward(params, batch, training=True,
                            dropout_rng=np.random.default_rng(2))
    pooled = cache.pooled
    dlogits = np.random.default_rng(3).normal(size=logits.shape).astype(dlogits_dtype)
    grads = backward(params, cache, dlogits)
    assert list(grads) == list(params.tensors)
    for name, grad in grads.items():
        assert grad.dtype == params.tensors[name].dtype, name
        assert grad.shape == params.tensors[name].shape, name
    want = (pooled.T @ dlogits).astype(dtype)
    assert np.array_equal(grads["classifier.weight"], want)
    assert np.array_equal(grads["classifier.bias"], dlogits.sum(axis=0).astype(dtype))


def _gradcheck_params(config, seed):
    """A non-degenerate operating point for gradient checking: fresh-init
    weights are so small that attention is near-uniform and some gradient
    entries sink to ~1e-10, below what central differences can resolve.
    Scaling the weights and jittering the layer-norm parameters keeps every
    path active with gradients well above finite-difference noise."""
    params = init(config, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    for name, tensor in params.tensors.items():
        if "ln" in name:
            tensor += rng.normal(0.0, 0.2, size=tensor.shape)
        elif name == "classifier.bias":
            tensor += rng.normal(0.0, 0.3, size=tensor.shape)
        else:
            tensor *= 6.0
    return params


def test_gradients_match_finite_differences():
    """Central differences (step 1e-5, 64-bit) vs the analytic gradients,
    relative error < 1e-4, for sampled positions in every parameter tensor.
    The relative error uses max(|analytic|, |numeric|, 1e-6) as denominator
    so exact zeros stay well-defined."""
    config = ModelConfig(
        num_layers=2, num_heads=2, d_model=8, d_ff=16, max_len=12,
        vocab_size=280, dropout_rate=0.0,
    )
    params = _gradcheck_params(config, seed=4)
    batch = _batch(["free cash now", "team meeting notes"])
    labels = np.array([int(Label.spam), int(Label.ham)])

    _, grads = _loss_and_grads(params, batch, labels)

    def loss_fn():
        logits, _ = forward(params, batch, training=False)
        return cross_entropy(logits, labels)[0]

    used_ids = sorted({i for seq in batch for i in seq.ids})
    rng = np.random.default_rng(0)
    worst = 0.0
    for name, tensor in sorted(params.tensors.items()):
        if name == "token_embedding":
            rows = rng.choice(used_ids, size=4, replace=False)
            positions = [int(r) * config.d_model + int(rng.integers(config.d_model)) for r in rows]
        else:
            count = min(4, tensor.size)
            positions = [int(p) for p in rng.choice(tensor.size, size=count, replace=False)]
        numeric = finite_difference_gradient(loss_fn, tensor, positions, step=1e-5)
        analytic = grads[name].reshape(-1)
        for pos, fd in numeric.items():
            a = float(analytic[pos])
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            worst = max(worst, rel)
            assert rel < 1e-4, f"{name}[{pos}]: analytic={a} numeric={fd} rel={rel}"
    assert worst < 1e-4


def test_unused_embedding_rows_get_zero_gradient():
    params = init(SMALL, seed=0, dtype=np.float64)
    batch = _batch(["hi"])
    labels = np.array([0])
    _, grads = _loss_and_grads(params, batch, labels)
    used = {i for seq in batch for i in seq.ids}
    unused = [i for i in range(SMALL.vocab_size) if i not in used][:20]
    assert np.all(grads["token_embedding"][unused] == 0.0)


def test_backward_deterministic():
    params = init(SMALL, seed=6)
    batch = _batch(TEXTS)
    labels = np.array([0, 1, 2])
    _, first = _loss_and_grads(params, batch, labels)
    _, second = _loss_and_grads(params, batch, labels)
    for name in first:
        assert np.array_equal(first[name], second[name]), name


# ---------------------------------------------------------------------------
# predict


def test_predict_zero_head_ties_break_low():
    params = init(SMALL, seed=0)
    params.tensors["classifier.weight"][:] = 0.0
    params.tensors["classifier.bias"][:] = 0.0
    label, probs = predict(params, BASE_VOCAB, "anything at all")
    np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert label == Label.ham


def test_predict_probabilities_sum_to_one():
    params = init(SMALL, seed=12)
    for text in TEXTS:
        label, probs = predict(params, BASE_VOCAB, text)
        assert probs.shape == (3,)
        assert abs(float(probs.sum()) - 1.0) < 1e-9
        assert label == Label(int(np.argmax(probs)))


class _FakeOpenBLAS:
    """Stands in for the OpenBLAS thread-count functions."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get(self):
        return self.threads

    def set(self, n):
        self.calls.append(n)
        self.threads = n


def test_predict_runs_its_forward_on_one_blas_thread(monkeypatch):
    fake = _FakeOpenBLAS(threads=4)
    monkeypatch.setattr(blas, "_openblas", (fake.get, fake.set))
    seen = []
    real_forward = model.forward

    def recording_forward(*args, **kwargs):
        seen.append(fake.threads)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", recording_forward)
    params = init(SMALL, seed=12)
    label, probs = predict(params, BASE_VOCAB, TEXTS[0])
    assert seen == [1]
    assert fake.threads == 4 and fake.calls == [1, 4]
    logits, _ = real_forward(params, _batch(TEXTS[:1]), training=False)
    assert label == Label(int(np.argmax(logits[0])))


def test_single_thread_restores_once_the_outermost_block_exits(monkeypatch):
    fake = _FakeOpenBLAS(threads=2)
    monkeypatch.setattr(blas, "_openblas", (fake.get, fake.set))
    with pytest.raises(RuntimeError):
        with blas.single_thread():
            with blas.single_thread():
                assert fake.threads == 1
            assert fake.threads == 1
            raise RuntimeError
    assert fake.threads == 2 and fake.calls == [1, 2]
    monkeypatch.setattr(blas, "_openblas", None)
    with blas.single_thread():
        pass  # no OpenBLAS found: a no-op


def test_gradients_do_not_depend_on_the_blas_thread_count():
    """One training step of the CLI's default model on a short-text batch
    gives bit-equal gradients at one and two OpenBLAS threads, so a
    checkpoint does not depend on the machine's thread count. A weight
    gradient sums over the rows, and a two-thread OpenBLAS product adds its
    partial sums in another order."""
    if blas._openblas is None:
        pytest.skip("numpy's OpenBLAS was not found")
    get, set_ = blas._openblas
    config = ModelConfig(2, 4, 128, 256, 128, 1024)
    params = init(config, seed=0)
    rng = np.random.default_rng(0)
    batch = [
        TokenSequence(ids=[CLS_ID, *rng.integers(4, 1024, n - 2).tolist(), SEP_ID]
                      + [PAD_ID] * (config.max_len - n), true_length=int(n))
        for n in rng.integers(8, 30, size=32)
    ]
    dlogits = rng.normal(size=(32, 3)).astype(np.float32)
    saved = get()
    grads = []
    try:
        for threads in (1, 2):
            set_(threads)
            if get() != threads:
                pytest.skip(f"OpenBLAS would not run {threads} threads")
            _, cache = forward(params, batch, training=True,
                               dropout_rng=np.random.default_rng(1))
            grads.append(backward(params, cache, dlogits))
    finally:
        set_(saved)
    for name, grad in grads[0].items():
        assert np.array_equal(grad, grads[1][name]), name
