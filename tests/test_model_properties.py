"""Property tests: the packed, trimmed forward/backward against two oracles.

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
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ipsdm.model import ModelConfig, backward, forward, init
from ipsdm.tokenizer import CLS_ID, PAD_ID, SEP_ID, TokenSequence

from oracles import padded_backward, padded_forward

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
    pooling=st.sampled_from(["first_token", "mean"]),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
)
def test_trimmed_pass_matches_full_length_pass(true_lengths, pooling, dtype, seed):
    config = ModelConfig(
        num_layers=2, num_heads=2, d_model=8, d_ff=16, max_len=MAX_LEN, vocab_size=VOCAB,
        dropout_rate=0.0, pooling=pooling,
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
    pooling=st.sampled_from(["first_token", "mean"]),
    num_layers=st.integers(1, 3),
    dtype=st.sampled_from([np.float64, np.float32]),
    dropout_rate=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
def test_packed_pass_matches_padded_oracle(true_lengths, pooling, num_layers, dtype,
                                           dropout_rate, seed):
    config = ModelConfig(
        num_layers=num_layers, num_heads=2, d_model=8, d_ff=16, max_len=MAX_LEN,
        vocab_size=VOCAB, dropout_rate=dropout_rate, pooling=pooling,
    )
    params = _params(config, seed, dtype)
    rng = np.random.default_rng(seed)
    batch = [_sequence(rng, n) for n in true_lengths]
    dlogits = rng.normal(size=(len(batch), config.num_labels)).astype(dtype)

    logits, cache = forward(
        params, batch, training=True, dropout_rng=np.random.default_rng(seed + 1))
    grads = backward(params, cache, dlogits)
    oracle_logits, oracle_cache = padded_forward(
        params, batch, training=True, dropout_rng=np.random.default_rng(seed + 1))
    oracle_grads = padded_backward(params, oracle_cache, dlogits)

    per_token = ["x1", "ctx_merged", "u", "xhat2"]
    if dropout_rate > 0:
        per_token += ["drop1", "drop2"]
    for i, layer in enumerate(cache.layers):
        assert layer["x"].shape[0] == sum(true_lengths), (i, "x")
        pooled_only = i == num_layers - 1 and pooling == "first_token"
        rows = len(true_lengths) if pooled_only else sum(true_lengths)
        for key in per_token:
            assert layer[key].shape[0] == rows, (i, key)
    assert set(grads) == set(oracle_grads)
    # The oracle computes every row of the last layer; OpenBLAS rounds a
    # product of batch rows apart from one of N rows, even in float64.
    if len(set(true_lengths)) == 1 and pooling == "mean":
        assert np.array_equal(logits, oracle_logits)
        for name, grad in grads.items():
            assert np.array_equal(grad, oracle_grads[name]), name
        return
    _assert_close(logits, oracle_logits, "logits")
    for name, grad in grads.items():
        assert grad.dtype == dtype
        _assert_close(grad, oracle_grads[name], name)
