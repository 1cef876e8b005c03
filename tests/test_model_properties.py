"""Property tests: the packed, trimmed forward/backward against three oracles.

`forward` computes only the batch's N real tokens, held as (N, d_model)
rows, up to the batch's longest true length T.

The padded oracle, `tests/oracles.py` `padded_forward` and
`padded_backward`, runs every per-token op over all batch * T positions;
dropout is on, with same-seed generators on both sides. Logits and every
gradient must agree to rounding, and bit for bit for a mean-pooled batch
with no row padded; each cached per-token activation must have N rows, and
past its input the last layer of a first-token model batch rows, so that a
silent return to padded compute, or to computing rows that never reach the
logits, fails here.

The full-length oracle is the same batch with one extra sequence of true
length max_len appended, which forces T = max_len (the pre-trimming
compute), and a zero upstream gradient for that extra row, so it adds
nothing to any gradient. Logits and every gradient must agree to rounding;
`cache.ids` must have T columns, so that a silent return to full-length
compute fails here, and `cache.key_mask` must mark exactly each row's first
true_length positions.

The whole-batch oracle, `whole_batch_forward` and `whole_batch_backward`,
is the packed path with each layer's attention run once over the whole
padded batch. `forward` and `backward` run it in chunks of consecutive
sequences instead; every softmax and stacked product is the same either
way, so logits and every gradient must be byte-equal to the oracle's, at
batch sizes around the chunk size.
"""

from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ipsdm import model
from ipsdm.model import ModelConfig, backward, forward, init
from ipsdm.tokenizer import CLS_ID, PAD_ID, SEP_ID, TokenSequence

from oracles import padded_backward, padded_forward, whole_batch_backward, whole_batch_forward

MAX_LEN = 16
VOCAB = 40
# Lengths below 8 change how numpy groups its sums, so they are drawn often,
# as are the extremes 2 (cls + sep) and max_len (nothing to trim).
lengths = st.sampled_from([2, 3, 5, 7, MAX_LEN]) | st.integers(2, MAX_LEN)
# Batches of one, of equal lengths (nothing padded) and of mixed lengths.
batch_lengths = (
    st.lists(lengths, min_size=1, max_size=4)
    | st.tuples(lengths, st.integers(1, 4)).map(lambda pair: [pair[0]] * pair[1])
)


def _sequence(rng, true_length):
    content = [int(i) for i in rng.integers(4, VOCAB, size=true_length - 2)]
    ids = [CLS_ID, *content, SEP_ID] + [PAD_ID] * (MAX_LEN - true_length)
    return TokenSequence(ids=ids, true_length=true_length)


def _params(config, seed, dtype):
    """Weights scaled up from init so attention is far from uniform and
    gradients are well above rounding."""
    params = init(config, seed=seed, dtype=dtype)
    for name, tensor in params.tensors.items():
        if not name.endswith((".scale", ".offset", ".bias")):
            tensor *= 6.0
    return params


def _assert_close(actual, desired, name):
    """float64: rtol 1e-12, with an atol of 1e-12 times the tensor's largest
    entry, since a sum's rounding follows its terms, not its result, and an
    entry that cancels to near zero is held to the tensor's scale. float32:
    the tolerance of test_forward_single_vs_batched_rows_agree."""
    if desired.dtype == np.float64:
        rtol, atol = 1e-12, 1e-12 * float(np.abs(desired).max())
    else:
        rtol, atol = 1e-5, 1e-6
    np.testing.assert_allclose(actual, desired, rtol=rtol, atol=atol, err_msg=name)


@given(
    true_lengths=st.lists(lengths, min_size=1, max_size=4),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
)
def test_trimmed_pass_matches_full_length_pass(true_lengths, dtype, seed):
    config = ModelConfig(
        num_layers=2, num_heads=2, d_model=8, d_ff=16, max_len=MAX_LEN, vocab_size=VOCAB,
        dropout_rate=0.0,
    )
    params = _params(config, seed, dtype)
    rng = np.random.default_rng(seed)
    batch = [_sequence(rng, n) for n in true_lengths]
    full_length = _sequence(rng, MAX_LEN)
    dlogits = rng.normal(size=(len(batch), config.num_labels)).astype(dtype)

    logits, cache = forward(params, batch, training=False)
    assert cache.ids.shape == (len(batch), max(true_lengths))
    t = max(true_lengths)
    assert np.array_equal(cache.key_mask, np.arange(t) < np.array(true_lengths)[:, None])
    grads = backward(params, cache, dlogits)

    full_logits, full_cache = forward(params, [*batch, full_length], training=False)
    assert full_cache.ids.shape == (len(batch) + 1, MAX_LEN)
    zero_row = np.zeros((1, config.num_labels), dtype=dtype)
    full_grads = backward(params, full_cache, np.concatenate([dlogits, zero_row]))

    _assert_close(logits, full_logits[: len(batch)], "logits")
    assert set(grads) == set(full_grads)
    for name, grad in grads.items():
        assert grad.dtype == dtype
        _assert_close(grad, full_grads[name], name)


@given(
    true_lengths=batch_lengths,
    num_layers=st.integers(1, 3),
    dtype=st.sampled_from([np.float64, np.float32]),
    dropout_rate=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
def test_packed_pass_matches_padded_oracle(true_lengths, num_layers, dtype, dropout_rate,
                                           seed):
    config = ModelConfig(
        num_layers=num_layers, num_heads=2, d_model=8, d_ff=16, max_len=MAX_LEN,
        vocab_size=VOCAB, dropout_rate=dropout_rate,
    )
    params = _params(config, seed, dtype)
    rng = np.random.default_rng(seed)
    batch = [_sequence(rng, n) for n in true_lengths]
    dlogits = rng.normal(size=(len(batch), config.num_labels)).astype(dtype)

    logits, cache = forward(
        params, batch, training=True, dropout_rng=np.random.default_rng(seed + 1))
    # Read before backward, which consumes the cache.
    per_token = ["x1", "ctx_merged", "u", "xhat2"]
    if dropout_rate > 0:
        per_token += ["drop1", "drop2"]
    assert len(cache.layers) == num_layers
    for i, layer in enumerate(cache.layers):
        assert layer["x"].shape[0] == sum(true_lengths), (i, "x")
        rows = len(true_lengths) if i == num_layers - 1 else sum(true_lengths)
        for key in per_token:
            assert layer[key].shape[0] == rows, (i, key)
    grads = backward(params, cache, dlogits)
    oracle_logits, oracle_cache = padded_forward(
        params, batch, training=True, dropout_rng=np.random.default_rng(seed + 1))
    oracle_grads = padded_backward(params, oracle_cache, dlogits)

    assert set(grads) == set(oracle_grads)
    # The oracle computes every row of the last layer; OpenBLAS rounds a
    # product of batch rows apart from one of N rows, even in float64.
    _assert_close(logits, oracle_logits, "logits")
    for name, grad in grads.items():
        assert grad.dtype == dtype
        _assert_close(grad, oracle_grads[name], name)


@given(
    chunk=st.integers(1, 3),
    size=st.sampled_from(["1", "c-1", "c", "c+1", "2c+1"]),
    padded=st.booleans(),
    num_layers=st.integers(1, 3),
    dtype=st.sampled_from([np.float64, np.float32]),
    dlogits_dtype=st.sampled_from([None, np.float64]),
    dropout_rate=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
def test_chunked_attention_matches_whole_batch_oracle_byte_for_byte(
        chunk, size, padded, num_layers, dtype, dlogits_dtype, dropout_rate, seed):
    b = {"1": 1, "c-1": max(chunk - 1, 1), "c": chunk, "c+1": chunk + 1, "2c+1": 2 * chunk + 1}[size]
    config = ModelConfig(
        num_layers=num_layers, num_heads=2, d_model=8, d_ff=16, max_len=MAX_LEN,
        vocab_size=VOCAB, dropout_rate=dropout_rate,
    )
    params = _params(config, seed, dtype)
    rng = np.random.default_rng(seed)
    if padded:  # the longest row sets T, and every other row is shorter
        t = int(rng.integers(3, MAX_LEN + 1))
        true_lengths = [t] + [int(n) for n in rng.integers(2, t, size=b - 1)]
        rng.shuffle(true_lengths)
    else:
        true_lengths = [int(rng.integers(2, MAX_LEN + 1))] * b
    t = max(true_lengths)
    batch = [_sequence(rng, n) for n in true_lengths]
    dlogits = rng.normal(size=(b, config.num_labels)).astype(dlogits_dtype or dtype)
    # A budget of exactly `chunk` sequences' attention arrays at this T.
    budget = chunk * (config.num_heads * t + 4 * config.d_model) * t * np.dtype(dtype).itemsize

    with mock.patch.object(model, "ATTENTION_CHUNK_BYTES", budget):
        logits, cache = forward(
            params, batch, training=True, dropout_rng=np.random.default_rng(seed + 1))
        grads = backward(params, cache, dlogits)
        inference, _ = forward(params, batch, keep_cache=False)
    oracle_logits, oracle_cache = whole_batch_forward(
        params, batch, training=True, dropout_rng=np.random.default_rng(seed + 1))
    oracle_grads = whole_batch_backward(params, oracle_cache, dlogits)

    assert logits.tobytes() == oracle_logits.tobytes()
    assert inference.tobytes() == whole_batch_forward(params, batch)[0].tobytes()
    assert list(grads) == list(oracle_grads)
    for name, grad in grads.items():
        assert grad.dtype == oracle_grads[name].dtype == dtype, name
        assert grad.tobytes() == oracle_grads[name].tobytes(), name
