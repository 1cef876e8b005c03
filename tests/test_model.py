"""Encoder tests: shapes, masking, exact backprop vs finite differences.

The gradient check is the load-bearing test here: every parameter tensor is
probed at sampled positions against central finite differences under 64-bit
arithmetic, which exercises the full forward graph (embeddings, every
attention projection, both layer norms, the feed-forward pair, pooling, and
the classifier head) through a single independent route.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import erf as scipy_erf

from ipsdm import blas, model
from ipsdm.corpus import Label
from ipsdm.errors import AllMasked, SequenceLengthMismatch, StaleCache
from ipsdm.metrics import cross_entropy
from ipsdm.model import (
    INIT_STD,
    INIT_TRUNC,
    ModelConfig,
    _dropout_mask,
    attention,
    backward,
    forward,
    gelu,
    gelu_from,
    gelu_grad,
    init,
    predict,
)
from ipsdm.tokenizer import CLS_ID, PAD_ID, SEP_ID, TokenSequence, Vocabulary, encode

from oracles import dense_attention, finite_difference_gradient, full_length_dropout_mask

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
    params = init(SMALL, seed=5)
    batch = _batch(TEXTS)
    first, _ = forward(params, batch, training=False)
    second, _ = forward(params, batch, training=False)
    assert np.array_equal(first, second)


def test_forward_duplicated_sequence_gets_identical_rows():
    params = init(SMALL, seed=5)
    seq = _batch(["free cash"])[0]
    logits, _ = forward(params, [seq, seq])
    assert np.array_equal(logits[0], logits[1])


@pytest.mark.parametrize("pooling", ["first_token", "mean"])
def test_forward_padding_invariance_is_bit_exact(pooling):
    config = ModelConfig(2, 2, 8, 16, 12, 280, dropout_rate=0.0, pooling=pooling)
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


def test_dropout_masks_follow_the_full_length_stream():
    """Masks hold only the computed rows, row by row, of masks drawn for all
    max_len positions, so a short batch consumes the same uniforms as the
    full-length computation and each computed row keeps its entry of them:
    every real token below the last layer, and in the last layer of a
    first-token model each sequence's first."""
    config = ModelConfig(2, 2, 8, 16, 12, 280, dropout_rate=0.5)
    params = init(config, seed=0)
    batch = _batch(["free cash", "hi", "team"])
    lengths = np.array([seq.true_length for seq in batch])
    assert lengths.max() < config.max_len and len(set(lengths)) > 1
    real = np.arange(config.max_len) < lengths[:, None]
    rng = np.random.default_rng(4)
    _, cache = forward(params, batch, training=True, dropout_rng=rng)
    reference = np.random.default_rng(4)
    for i, layer in enumerate(cache.layers):
        for key in ("drop1", "drop2"):
            full = full_length_dropout_mask(reference, (len(batch), 12, 8), 0.5, np.float32)
            expected = full[:, 0] if i == config.num_layers - 1 else full[real]
            assert np.array_equal(layer[key], expected), (i, key)
    assert rng.random() == reference.random()


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


BIT_GENERATORS = {
    "PCG64": np.random.PCG64,  # default_rng's: draws only the positions kept
    "PCG64DXSM": np.random.PCG64DXSM,
    "MT19937": np.random.MT19937,  # no advance: draws every position
    "Philox": np.random.Philox,  # advance counts blocks of four draws
}


@given(
    shape=st.integers(2, 40).flatmap(lambda max_len: st.tuples(
        st.just(max_len),
        st.lists(st.integers(0, max_len) | st.just(max_len), min_size=1, max_size=8))),
    width=st.integers(1, 16),
    rate=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    bit_generator=st.sampled_from(sorted(BIT_GENERATORS)),
    as_array=st.booleans(),
)
def test_dropout_mask_equals_the_cut_full_length_mask(shape, width, rate, seed,
                                                      bit_generator, as_array):
    """The mask cut to per-row lengths is each row's leading positions of the
    mask drawn for all max_len, rows stacked, bit for bit, and the generator
    is left where the full draw leaves it. Lengths may come as a numpy array,
    whose numpy-integer entries PCG64's advance rejects uncoerced."""
    max_len, lengths = shape
    full_shape = (len(lengths), max_len, width)
    rng = np.random.Generator(BIT_GENERATORS[bit_generator](seed))
    reference = np.random.Generator(BIT_GENERATORS[bit_generator](seed))
    mask = _dropout_mask(rng, full_shape, rate, np.float32,
                         np.array(lengths) if as_array else lengths)
    full = full_length_dropout_mask(reference, full_shape, rate, np.float32)
    assert mask.dtype == np.float32
    np.testing.assert_array_equal(mask, full[np.arange(max_len) < np.array(lengths)[:, None]])
    assert rng.random() == reference.random()


def test_dropout_mask_values():
    rng = np.random.default_rng(0)
    mask = _dropout_mask(rng, (200, 50), 0.25, np.float32, [50] * 200)
    keep = np.float32(0.75)
    assert set(np.unique(mask)) <= {np.float32(0.0), np.float32(1.0) / keep}
    assert abs(float(mask.mean()) - 1.0) < 0.05


# ---------------------------------------------------------------------------
# gelu


# ---------------------------------------------------------------------------
# erf: scipy's is the oracle


def _every_float32(lo, hi):
    """Every float32 in [lo, hi], for 0 <= lo <= hi."""
    first, last = np.array([lo, hi], dtype=np.float32).view(np.int32)
    return np.arange(first, last + 1, dtype=np.int32).view(np.float32)


def test_erf_float32_is_close_bounded_and_odd():
    # A dense grid, plus every float32 of [3.3, 4.1], where x P/Q lies closest
    # to 1 and carries the most rounding error.
    tail = _every_float32(3.3, 4.1)
    x = np.concatenate([np.linspace(-8.0, 8.0, 1 << 20, dtype=np.float32), tail, -tail])
    y = model.erf(x)
    assert y.dtype == np.float32
    assert np.abs(y - scipy_erf(x.astype(np.float64))).max() <= 5e-7
    assert np.abs(y).max() <= 1.0
    np.testing.assert_array_equal(model.erf(-x), -y)


def test_erf_float32_special_values():
    y = model.erf(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0], dtype=np.float32))
    np.testing.assert_array_equal(y, [1.0, -1.0, np.nan, 0.0, 0.0])
    assert np.signbit(y).tolist() == [False, True, False, False, True]


@given(arrays(np.float32, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=8),
              elements=st.floats(width=32)))
def test_erf_float32_matches_scipy_on_any_array(x):
    y = model.erf(x)
    assert y.shape == x.shape and y.dtype == np.float32
    np.testing.assert_allclose(y, scipy_erf(x.astype(np.float64)), rtol=0, atol=5e-7)
    assert not (np.abs(y) > 1.0).any()
    np.testing.assert_array_equal(model.erf(-x), -y)
    np.testing.assert_array_equal(model.erf(x.T), y.T)


def test_erf_of_other_dtypes_keeps_float64_accuracy():
    x = np.linspace(-6.0, 6.0, 241)
    y = model.erf(x)
    assert y.dtype == np.float64
    np.testing.assert_allclose(y, scipy_erf(x), rtol=1e-15, atol=0)


def test_gelu_float32_is_within_1_2e_6_of_float64():
    # 0.5 u erf(u / sqrt 2) scales erf's error by u: every float32 of
    # [4.5, 6] is checked, beside a grid over [-6, 6].
    tail = _every_float32(4.5, 6.0)
    u = np.concatenate([np.linspace(-6.0, 6.0, 1 << 18, dtype=np.float32), tail, -tail])
    u64 = u.astype(np.float64)
    exact = 0.5 * u64 * (1.0 + scipy_erf(u64 / math.sqrt(2.0)))
    assert gelu(u).dtype == np.float32
    assert np.abs(gelu(u) - exact).max() <= 1.2e-6


def test_gelu_matches_definition_and_slope():
    u = np.linspace(-4.0, 4.0, 33)
    from scipy.special import erf as scipy_erf

    np.testing.assert_allclose(gelu(u), 0.5 * u * (1 + scipy_erf(u / math.sqrt(2))))
    step = 1e-6
    numeric = (gelu(u + step) - gelu(u - step)) / (2 * step)
    np.testing.assert_allclose(gelu_grad(u), numeric, atol=1e-8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_reuses_its_erf_bit_for_bit(dtype):
    """gelu_grad and gelu_from, given the 1 + erf(u / sqrt 2) that gelu left,
    equal gelu_grad(u) and gelu(u) exactly."""
    u = np.random.default_rng(3).normal(0.0, 3.0, size=(4, 7, 33)).astype(dtype)
    u[0, 0, :4] = [0.0, -0.0, 40.0, -40.0]
    erf_plus_one = np.empty_like(u)
    h = gelu(u, erf_plus_one)
    assert h.dtype == erf_plus_one.dtype == dtype
    # bytes, so that -0.0 and +0.0 count as different
    assert h.tobytes() == gelu(u).tobytes()
    assert gelu_from(u, erf_plus_one).tobytes() == gelu(u).tobytes()
    assert gelu_grad(u, erf_plus_one).tobytes() == gelu_grad(u).tobytes()


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
    params = init(SMALL, seed=2, dtype=np.float64)
    logits, cache = forward(params, _batch(TEXTS))
    rng = np.random.default_rng(3)
    dlogits = rng.normal(size=logits.shape)
    once = backward(params, cache, dlogits)
    twice = backward(params, cache, 2.0 * dlogits)
    for name in once:
        assert np.array_equal(twice[name], 2.0 * once[name]), name


def test_backward_rejects_stale_cache():
    params = init(SMALL, seed=0)
    logits, cache = forward(params, _batch(TEXTS))
    params.version += 1
    with pytest.raises(StaleCache):
        backward(params, cache, np.zeros_like(logits))


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


@pytest.mark.parametrize("pooling", ["first_token", "mean"])
def test_gradients_match_finite_differences(pooling):
    """Central differences (step 1e-5, 64-bit) vs the analytic gradients,
    relative error < 1e-4, for sampled positions in every parameter tensor.
    The relative error uses max(|analytic|, |numeric|, 1e-6) as denominator
    so exact zeros stay well-defined."""
    config = ModelConfig(
        num_layers=2, num_heads=2, d_model=8, d_ff=16, max_len=12,
        vocab_size=280, dropout_rate=0.0, pooling=pooling,
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
