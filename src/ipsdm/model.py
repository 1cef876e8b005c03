"""Desk-scale transformer encoder with multi-head self-attention, pooling,
and a 3-label classifier head. Forward and backward passes are written out
explicitly in numpy; the backward pass returns exact gradients for every
trainable tensor.

Layer layout (post-layer-norm):
    x = LN1(x + dropout(MHA(x)))
    x = LN2(x + dropout(FF(x)))        FF = GELU(x W1) W2
The classifier reads each sequence's first-token ([CLS]) state, as BERT's
does; padded positions never reach the logits, so logits are bit-identical
under changes to padded token ids.

Inputs are padded to max_len, but forward and backward compute only the
batch's real tokens: activations are (N, d_model) matrices of its N real
tokens, row by row in batch order, so every projection, feed-forward
product, GELU, layer norm, residual add and dropout multiply runs on real
rows only. Attention alone works on a padded view, (c, heads, T, d_head)
with T the batch's longest true length, whose padded slots are zero and
masked as keys. It runs over chunks of c consecutive sequences, sized so
that a chunk's scores and padded arrays fit ATTENTION_CHUNK_BYTES (see
_chunks), and writes each chunk's result into packed rows. Inference
builds no (batch, heads, T, T) array; a training forward caches the
probabilities in one, each chunk's scores computed in its slice, for
backward. Every softmax and stacked product is the same in a chunk as over
the whole batch, so the result is too, bit for bit.
A batch without padding has N = batch * T and runs with no gather or
scatter, and no key mask, at all.

Only the first rows reach the logits. So the last layer computes its keys
and values from every real row, but its queries, attention output, layer
norms, feed-forward and dropout on each sequence's first row alone: batch
rows, not N.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blas import single_thread
from .config import ModelConfig
from .corpus import Label
from .errors import AllMasked, SequenceLengthMismatch, StaleCache
from .tokenizer import TokenSequence, Vocabulary, encode

LN_EPS = 1e-5
# Bytes of one attention chunk's arrays: its (c, heads, T, T) scores and
# its padded (c, T, d_model) q, k, v and context (see _chunks). Measured
# with tracemalloc on the default model, over batches of 32 (a training
# step) and 64 (an inference forward) at T 40 and 63, padded as on `sms`
# and `classify`, and at T 128, 17 % padded and unpadded: both peaks reach
# their floor at every budget from 256 KiB to 2 MiB, and 4 MiB raised them
# at T 40 and 63 (at T 63 a step by 0.3 MiB, a forward by 0.7 MiB). Peak
# RSS of the `train` stage, where heap layout decides, was lower at 512 KiB
# than at 2 MiB on `classify` (61.2 against 61.6 MB) and `email` (60.2
# against 60.3 MB), and 0.2 MB higher on `sms` (one in-process run each).
# At T 63 a step took 34.4 ms against 35.6 ms whole-batch and 33.6 ms at
# 2 MiB (medians of 55, one thread). A chunk is 1 sequence at T 128 and 2
# at T 63.
ATTENTION_CHUNK_BYTES = 512 << 10
INIT_STD = 0.02
INIT_TRUNC = 2.0  # truncation in units of the standard deviation


@dataclass
class ModelParameters:
    """All trainable tensors, keyed by name; version is bumped by the
    optimizer so stale forward caches can be detected."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    version: int = 0

    def num_parameters(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            config=self.config,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            version=self.version,
        )


@dataclass
class ForwardCache:
    """Intermediate activations for exact backpropagation: each layer's
    arrays as packed rows, q, k and v among them, and its (batch, heads,
    T_q, T) attention probabilities. backward consumes them: it empties
    layers and sets pooled to None, and only ids and key_mask stay."""

    ids: np.ndarray
    key_mask: np.ndarray
    layers: list[dict] = field(default_factory=list)
    pooled: Optional[np.ndarray] = None
    params_version: int = -1


def _truncated_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    bound = INIT_TRUNC * std
    out = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(out) > bound
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    return out.astype(dtype)


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable tensor, in the order init draws them.
    This is the model's tensor layout; checkpoints are checked against it."""
    d, f = config.d_model, config.d_ff
    shapes = {"token_embedding": (config.vocab_size, d), "position_embedding": (config.max_len, d)}
    for i in range(config.num_layers):
        prefix = f"layers.{i}"
        for proj in ("w_q", "w_k", "w_v", "w_o"):
            shapes[f"{prefix}.attn.{proj}"] = (d, d)
        shapes.update({
            f"{prefix}.ln1.scale": (d,), f"{prefix}.ln1.offset": (d,),
            f"{prefix}.ff.w1": (d, f), f"{prefix}.ff.w2": (f, d),
            f"{prefix}.ln2.scale": (d,), f"{prefix}.ln2.offset": (d,),
        })
    shapes["classifier.weight"] = (d, config.num_labels)
    shapes["classifier.bias"] = (config.num_labels,)
    return shapes


def init(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParameters:
    """Random initialization: truncated normal (std 0.02) weights, layer-norm
    scales 1 and offsets 0, zero classifier bias. Deterministic per seed."""
    config.validate()
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith(".scale"):
            tensors[name] = np.ones(shape, dtype=dtype)
        elif name.endswith((".offset", ".bias")):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            tensors[name] = _truncated_normal(rng, shape, INIT_STD, dtype)
    return ModelParameters(config=config, tensors=tensors)


# GELU in the tanh form of BERT's reference code (Hendrycks & Gimpel 2016):
# 0.5 u (1 + tanh(sqrt(2 / pi) (u + 0.044715 u^3))).
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(u: np.ndarray, cdf: Optional[np.ndarray] = None) -> np.ndarray:
    """GELU in its tanh form, u * cdf(u): within 4.8e-4 of the exact
    u * Phi(u) on [-6, 6], and in float32 within 8e-7 of the same formula
    in float64 (4.7e-7 with numpy 2's tanh).

    cdf, if given (an array of u's shape and dtype), receives the tanh
    form's Phi(u), (1 + tanh(sqrt(2 / pi) (u + 0.044715 u^3))) / 2, from
    which u * cdf and gelu_grad rebuild their results, bit for bit, without
    another tanh.
    """
    c = np.empty_like(u) if cdf is None else cdf
    # u^2 of |u| > 1.8e19 and u^3 of |u| > 2e13 overflow to inf, whose tanh
    # is +-1 either way.
    with np.errstate(over="ignore"):
        np.multiply(u, u, out=c)
        c *= _GELU_C * _GELU_A
        c += _GELU_C
        c *= u
    np.tanh(c, out=c)
    c *= 0.5
    c += 0.5
    return u * c


def gelu_grad(u: np.ndarray, cdf: Optional[np.ndarray] = None) -> np.ndarray:
    """d gelu / du = cdf + 2 cdf (1 - cdf) sqrt(2 / pi) u (1 + 3 * 0.044715
    u^2), as 2 cdf (1 - cdf) = (1 - tanh^2) / 2. Given gelu's cdf, it
    evaluates no tanh; the result is the same bit for bit.

    cdf (1 - cdf) multiplies u before u's powers grow: it is exactly 0
    wherever u^2 overflows, and 0 * inf would be nan.
    """
    if cdf is None:
        cdf = np.empty_like(u)
        gelu(u, cdf)
    v = np.subtract(1.0, cdf)
    v *= cdf
    v *= u  # u cdf (1 - cdf)
    grad = v * u
    grad *= u
    grad *= 3.0 * _GELU_A
    grad += v
    grad *= 2.0 * _GELU_C
    grad += cdf
    return grad


def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    key_mask: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over the trailing two axes.

    q: (..., T, d), k/v: (..., S, d); key_mask: broadcastable to (..., S),
    True where a key may be attended to. Masked keys get a score of -inf
    (a 0/-inf bias is added) before the softmax, which runs in place on the
    scores. out, if given, is a (..., T, S) array of q's dtype that receives
    the scores, and so the probabilities. Returns (output, probabilities).
    """
    d_head = q.shape[-1]
    scores = np.matmul(q, np.swapaxes(k, -1, -2), out=out)
    scores /= math.sqrt(d_head)
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        if not key_mask.any(axis=-1).all():
            raise AllMasked("a query row has no unmasked key position")
        # x + 0 is x for every score but -0, which exp maps to 1 either way.
        scores += np.where(key_mask, 0.0, -np.inf).astype(scores.dtype)[..., None, :]
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores @ v, scores


def _padded(x: np.ndarray, real: Optional[np.ndarray], batch: int, t: int) -> np.ndarray:
    """(N, d) rows of real tokens -> (batch, T, d), zero in every padded
    slot. real is the (batch, T) key mask, or None when nothing is padded
    (N = batch * T), which makes this a view."""
    if real is None:
        return x.reshape(batch, t, -1)
    out = np.zeros((batch, t, x.shape[-1]), x.dtype)
    out[real] = x
    return out


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(batch, T, d) -> a (batch, heads, T, d / heads) view."""
    b, t, d = x.shape
    return x.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray, real: Optional[np.ndarray], out: np.ndarray) -> None:
    """(batch, heads, T, d_head) -> out, (N, heads * d_head) rows of the real
    tokens, every (batch * T) position when real is None."""
    b, h, t, dh = x.shape
    x = x.transpose(0, 2, 1, 3)
    if real is None:
        out.reshape(b, t, h, dh)[...] = x
    else:
        out[...] = x[real].reshape(-1, h * dh)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last axis, keepdims: x.mean's sum and divide, bit for
    bit, without its Python wrapper."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def _layer_norm(x, scale, offset):
    """Layer norm over the last axis; the variance reuses x - mean, with
    the same sums and divisions as x.var. Returns (y, xhat, inv_std)."""
    xhat = x - _row_mean(x)
    y = np.square(xhat)
    inv_std = _row_mean(y)
    inv_std += LN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(xhat, scale, out=y)
    y += offset
    return y, xhat, inv_std


def _layer_norm_backward(dy, xhat, inv_std, scale):
    """Gradients of _layer_norm: (dx, dscale, doffset), dx as
    (dxhat - mean(dxhat) - xhat mean(dxhat xhat)) inv_std."""
    scratch = dy * xhat
    dscale = np.add.reduce(scratch, axis=0)
    doffset = np.add.reduce(dy, axis=0)
    dx = dy * scale  # dxhat, turned into dx in place
    np.multiply(dx, xhat, out=scratch)
    m2 = _row_mean(scratch)
    dx -= _row_mean(dx)
    np.multiply(xhat, m2, out=scratch)
    dx -= scratch
    dx *= inv_std
    return dx, dscale, doffset


def _dropout_mask(rng, shape, rate, dtype):
    """Inverted-dropout mask of the given shape: one float64 uniform per
    entry, in C order, kept where it is at least rate and scaled by
    1 / (1 - rate)."""
    keep = np.dtype(dtype).type(1.0 - rate)
    return (rng.random(shape) >= rate).astype(dtype) / keep


def _real(key_mask: np.ndarray) -> Optional[np.ndarray]:
    """The packed layout's gather mask: the (batch, T) key mask, or None
    when no row is padded, so the packed rows are the flat (batch * T) ones
    and nothing is gathered or scattered."""
    return None if key_mask.all() else key_mask


def _first_tokens(lengths: np.ndarray) -> np.ndarray:
    """Index of each sequence's first token among the packed rows."""
    return np.cumsum(lengths) - lengths


def _query_rows(config: ModelConfig, layer: int, key_mask: np.ndarray) -> Optional[np.ndarray]:
    """The packed rows that layer `layer` computes past its key and value
    projections: None, every real row, except in the last layer. Only each
    sequence's first row reaches the logits, so that layer computes one
    query per sequence, at these packed indices; its keys and values still
    cover every real row."""
    if layer == config.num_layers - 1:
        return _first_tokens(key_mask.sum(axis=1))
    return None


def _chunks(key_mask: np.ndarray, config: ModelConfig, itemsize: int) -> list[tuple[slice, slice]]:
    """Attention's chunks of consecutive sequences, as (sequences, packed
    rows) slice pairs. A chunk of c sequences holds a (c, heads, T, T) block
    of scores and four (c, T, d_model) padded arrays, q, k, v and the
    context; together they take at most ATTENTION_CHUNK_BYTES, or are one
    sequence's. A batch that fits in one chunk is one pair of whole slices."""
    b, t = key_mask.shape
    per_sequence = (config.num_heads * t + 4 * config.d_model) * t * itemsize
    per = max(1, ATTENTION_CHUNK_BYTES // per_sequence)
    if per >= b:
        return [(slice(0, b), slice(0, None))]
    offsets = np.concatenate([[0], np.cumsum(key_mask.sum(axis=1))])
    return [
        (slice(s, e), slice(int(offsets[s]), int(offsets[e])))
        for s, e in ((s, min(s + per, b)) for s in range(0, b, per))
    ]


def _chunk_views(seqs, rows, real, t, last):
    """A chunk's (c, key mask or None, its query rows, their mask, their T).
    The last layer's queries are one packed row per sequence."""
    mask = None if real is None else real[seqs]
    if last:
        return seqs.stop - seqs.start, mask, seqs, None, 1
    return seqs.stop - seqs.start, mask, rows, mask, t


def _padded_heads(x, real, c, t, heads):
    """A chunk's packed rows -> its zero-padded (c, heads, T, d_head) view."""
    return _split_heads(_padded(x, real, c, t), heads)


def _attend(q, k, v, chunks, real, t, last, heads, probs=None):
    """Self-attention over packed q, k and v rows, one chunk at a time: pad
    the chunk to the batch's T, run `attention`, and write its merged context
    into packed rows. The chunk's padded arrays, and its scores unless
    probs is given, go before the next chunk starts. probs, if given, is the
    (batch, heads, T_q, T) array that receives every chunk's probabilities:
    one block, so that cached chunks leave no holes in the heap between
    them."""
    ctx = np.empty_like(q)
    for seqs, rows in chunks:
        c, mask, q_rows, q_real, q_t = _chunk_views(seqs, rows, real, t, last)
        out = attention(
            _padded_heads(q[q_rows], q_real, c, q_t, heads),
            _padded_heads(k[rows], mask, c, t, heads),
            _padded_heads(v[rows], mask, c, t, heads),
            key_mask=None if mask is None else mask[:, None, :],
            out=None if probs is None else probs[seqs],
        )[0]
        _merge_heads(out, q_real, ctx[q_rows])
        del out
    return ctx


def _attend_backward(dctx, q, k, v, probs, chunks, real, t, last, heads):
    """Gradients of _attend with respect to its packed q, k and v rows,
    from those of its packed context rows, one chunk at a time: each
    chunk's are written into its rows of dq, dk and dv. probs is the
    forward's (batch, heads, T_q, T) probabilities.

    Written over the cached q, k and v instead, which no later chunk reads,
    the gradients would need no arrays of their own, but the heap came out
    more fragmented: paper-scale `train` peaked at 134.0 MB (4 runs),
    against 131.4-131.5 MB with these arrays (5 runs) and 129.6-129.9 MB
    with whole-batch attention (3 runs)."""
    scale = 1.0 / math.sqrt(q.shape[-1] // heads)
    dtype = np.result_type(dctx, q)
    dq, dk, dv = (np.empty(a.shape, dtype) for a in (q, k, v))
    for seqs, rows in chunks:
        c, mask, q_rows, q_real, q_t = _chunk_views(seqs, rows, real, t, last)
        p = probs[seqs]
        dctx_c = _padded_heads(dctx[q_rows], q_real, c, q_t, heads)
        dv_c = np.swapaxes(p, -1, -2) @ dctx_c
        # softmax backward, built in place on d(loss)/d(probs); masked
        # entries have probs == 0, hence dscores == 0
        dscores = dctx_c @ np.swapaxes(_padded_heads(v[rows], mask, c, t, heads), -1, -2)
        del dctx_c
        dscores -= (dscores * p).sum(axis=-1, keepdims=True)
        dscores *= p
        dq_c = dscores @ _padded_heads(k[rows], mask, c, t, heads)
        dq_c *= scale
        dk_c = np.swapaxes(dscores, -1, -2) @ _padded_heads(q[q_rows], q_real, c, q_t, heads)
        del dscores
        dk_c *= scale
        _merge_heads(dq_c, q_real, dq[q_rows])
        _merge_heads(dk_c, mask, dk[rows])
        _merge_heads(dv_c, mask, dv[rows])
        del dq_c, dk_c, dv_c
    return dq, dk, dv


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x.T @ g on one BLAS thread. Its sum runs over the rows, and OpenBLAS
    adds a multi-threaded product's partial sums in another order, so
    gradients, and the checkpoint, would follow the thread count."""
    with single_thread():
        return x.T @ g


def forward(
    params: ModelParameters,
    batch: list[TokenSequence],
    training: bool = False,
    dropout_rng: Optional[np.random.Generator] = None,
    *,
    keep_cache: bool = True,
) -> tuple[np.ndarray, Optional[ForwardCache]]:
    """Run the encoder on a batch, returning (logits, cache).

    Every sequence must be max_len long; compute covers only the batch's N
    real tokens. The cache holds (batch, T) ids and key mask (True before
    each row's true_length), T being the longest true length, and each
    layer's activations as (N, d_model) matrices: the real tokens, row by
    row in batch order. q, k and v are projected as packed rows, one GEMM
    each. Attention then runs one chunk of consecutive sequences at a time
    (see _attend): it scatters the chunk's q, k and v into zero-filled
    (c, heads, T, d_head) arrays, calls `attention`, and gathers the context
    into the chunk's packed rows; a chunk without padding does neither. The
    cache keeps q, k and v as packed rows, and the chunks' probs in one
    (batch, heads, T, T) array, each chunk's scores computed in its slice.
    The last layer computes, past its key and value projections, only each
    sequence's first row (see _query_rows), so its activations after the
    input have batch rows and its probs (batch, heads, 1, T); those rows are
    the pooled states the classifier reads.

    Dropout is applied only when training=True (and dropout_rate > 0), drawing
    masks from dropout_rng in a fixed order: drop1 then drop2, layer by
    layer. Each mask covers exactly the rows its layer computes, one
    uniform per entry, so training does not depend on max_len beyond
    truncation.

    The cache, which only backward reads (and consumes), is built when
    keep_cache is True (the default). With keep_cache=False the same loop
    keeps no activations and drops each array at its last read: a chunk's
    padded arrays, scores and per-head context before the next chunk
    starts; the packed q, k and v once the context is merged; the merged
    context once it is projected; the layer's input once the residual is
    added; the attention output once layer norm has read it; gelu's u and
    cdf once gelu(u) @ w2 is computed. So a layer holds at
    once only what it still reads, and the call returns (logits, None) with
    the same logits bit for bit. Inference (validation, evaluate, predict)
    passes keep_cache=False.
    """
    config = params.config
    for seq in batch:
        if len(seq.ids) != config.max_len:
            raise SequenceLengthMismatch(
                f"a sequence has length {len(seq.ids)}, model expects {config.max_len}"
            )
    lengths = np.array([seq.true_length for seq in batch])
    t = int(lengths.max())
    ids = np.array([seq.ids[:t] for seq in batch], dtype=np.int64)
    key_mask = np.arange(t) < lengths[:, None]
    real = _real(key_mask)
    tensors = params.tensors
    dtype = tensors["token_embedding"].dtype
    use_dropout = training and config.dropout_rate > 0.0
    if use_dropout and dropout_rng is None:
        raise ValueError("training forward with dropout requires dropout_rng")
    b, d, heads = len(batch), config.d_model, config.num_heads

    if real is None:
        x = tensors["token_embedding"][ids]
        x += tensors["position_embedding"][:t]
        x = x.reshape(b * t, d)
    else:
        x = tensors["token_embedding"][ids[real]]
        x += tensors["position_embedding"][np.nonzero(real)[1]]
    cache = (
        ForwardCache(ids=ids, key_mask=key_mask, params_version=params.version)
        if keep_cache else None
    )

    chunks = _chunks(key_mask, config, dtype.itemsize)
    # Each array goes into the cache, if one is kept, when it is built, and
    # its name is dropped at its last read: inference holds nothing past it.
    for i in range(config.num_layers):
        prefix = f"layers.{i}"
        layer: dict = {"x": x} if keep_cache else {}
        rows = _query_rows(config, i, key_mask)
        xq = x if rows is None else x[rows]
        q = xq @ tensors[f"{prefix}.attn.w_q"]
        k = x @ tensors[f"{prefix}.attn.w_k"]
        v = x @ tensors[f"{prefix}.attn.w_v"]
        q_t = 1 if rows is not None else t
        probs = np.empty((b, heads, q_t, t), q.dtype) if keep_cache else None
        ctx_merged = _attend(q, k, v, chunks, real, t, rows is not None, heads, probs)
        if keep_cache:
            layer.update(q=q, k=k, v=v, probs=probs, ctx_merged=ctx_merged)
        del q, k, v, probs
        attn_out = ctx_merged @ tensors[f"{prefix}.attn.w_o"]
        del ctx_merged
        if use_dropout:
            layer["drop1"] = _dropout_mask(dropout_rng, attn_out.shape, config.dropout_rate, dtype)
            attn_out *= layer["drop1"]
        attn_out += xq
        del x, xq
        x1, xhat1, inv_std1 = _layer_norm(
            attn_out, tensors[f"{prefix}.ln1.scale"], tensors[f"{prefix}.ln1.offset"]
        )
        if keep_cache:
            layer.update(xhat1=xhat1, inv_std1=inv_std1, x1=x1)
        del attn_out, xhat1, inv_std1
        u = x1 @ tensors[f"{prefix}.ff.w1"]
        cdf = np.empty_like(u)
        ff_out = gelu(u, cdf) @ tensors[f"{prefix}.ff.w2"]
        if keep_cache:
            # gelu(u) is not kept, so the cache grows by nothing: backward
            # rebuilds it from cdf in one pass.
            layer.update(u=u, cdf=cdf)
        del u, cdf
        if use_dropout:
            layer["drop2"] = _dropout_mask(dropout_rng, ff_out.shape, config.dropout_rate, dtype)
            ff_out *= layer["drop2"]
        ff_out += x1
        x, xhat2, inv_std2 = _layer_norm(
            ff_out, tensors[f"{prefix}.ln2.scale"], tensors[f"{prefix}.ln2.offset"]
        )
        if keep_cache:
            layer.update(xhat2=xhat2, inv_std2=inv_std2)
            cache.layers.append(layer)
        del ff_out, x1, xhat2, inv_std2

    if keep_cache:
        cache.pooled = x
    logits = x @ tensors["classifier.weight"] + tensors["classifier.bias"]
    return logits, cache


def backward(
    params: ModelParameters, cache: ForwardCache, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of the loss w.r.t. every tensor, given d(loss)/d(logits).

    Per-token gradients run on the rows forward computed. Attention's run
    over the same chunks of sequences as in forward (see _attend_backward):
    each chunk's context gradient, q, k and v are padded again, and its dq,
    dk and dv are gathered into the chunk's packed rows. Every
    weight-gradient GEMM and every sum over rows runs whole, on the packed
    rows. The last layer passes its query rows' input
    gradient back to the first rows and its key and value gradients to
    every row. Weight gradients do not depend on the BLAS thread count.
    Position-embedding rows at or past the cache's length T get zero
    gradient.

    backward consumes the cache: it drops pooled after the classifier's
    gradient, pops the layers from the last down and each cached array at
    its last read, so the step holds only what it still reads. ids and
    key_mask stay. A consumed cache raises StaleCache. Each gradient is
    assigned from its first product, in the order of params.tensors and in
    its tensor's dtype; only the embeddings' start from zeros.
    """
    if cache.pooled is None:
        raise StaleCache("cache was consumed by an earlier backward; run forward again")
    if cache.params_version != params.version:
        raise StaleCache(
            f"cache built for parameter version {cache.params_version}, "
            f"parameters are at version {params.version}"
        )
    config = params.config
    tensors = params.tensors
    grads: dict[str, np.ndarray] = dict.fromkeys(tensors)

    def put(name: str, grad: np.ndarray) -> None:
        grads[name] = grad.astype(tensors[name].dtype, copy=False)

    key_mask = cache.key_mask
    real = _real(key_mask)
    b, t = cache.ids.shape
    heads = config.num_heads
    chunks = _chunks(key_mask, config, tensors["token_embedding"].dtype.itemsize)

    pooled, cache.pooled = cache.pooled, None
    put("classifier.weight", _weight_grad(pooled, dlogits))
    del pooled
    put("classifier.bias", dlogits.sum(axis=0))
    dx = dlogits @ tensors["classifier.weight"].T  # the last layer's output rows

    for i in reversed(range(config.num_layers)):
        prefix = f"layers.{i}"
        layer = cache.layers.pop()
        rows = _query_rows(config, i, key_mask)

        dln2_in, dscale2, doffset2 = _layer_norm_backward(
            dx, layer.pop("xhat2"), layer.pop("inv_std2"), tensors[f"{prefix}.ln2.scale"]
        )
        del dx
        put(f"{prefix}.ln2.scale", dscale2)
        put(f"{prefix}.ln2.offset", doffset2)

        dff_out = dln2_in * layer.pop("drop2") if "drop2" in layer else dln2_in
        du = dff_out @ tensors[f"{prefix}.ff.w2"].T
        u, cdf = layer.pop("u"), layer.pop("cdf")
        put(f"{prefix}.ff.w2", _weight_grad(u * cdf, dff_out))
        del dff_out
        du *= gelu_grad(u, cdf)
        del u, cdf
        put(f"{prefix}.ff.w1", _weight_grad(layer.pop("x1"), du))
        dx1 = du @ tensors[f"{prefix}.ff.w1"].T
        del du
        dx1 += dln2_in
        del dln2_in

        dln1_in, dscale1, doffset1 = _layer_norm_backward(
            dx1, layer.pop("xhat1"), layer.pop("inv_std1"), tensors[f"{prefix}.ln1.scale"]
        )
        del dx1
        put(f"{prefix}.ln1.scale", dscale1)
        put(f"{prefix}.ln1.offset", doffset1)

        dattn_out = dln1_in * layer.pop("drop1") if "drop1" in layer else dln1_in
        dctx = dattn_out @ tensors[f"{prefix}.attn.w_o"].T
        put(f"{prefix}.attn.w_o", _weight_grad(layer.pop("ctx_merged"), dattn_out))
        del dattn_out

        dq, dk, dv = _attend_backward(
            dctx, layer.pop("q"), layer.pop("k"), layer.pop("v"), layer.pop("probs"),
            chunks, real, t, rows is not None, heads,
        )
        del dctx

        # The query rows' input gradient: residual plus query path.
        dxq = dln1_in  # no longer read, so the sum can build in place
        del dln1_in
        x_in = layer.pop("x")
        put(f"{prefix}.attn.w_q", _weight_grad(x_in if rows is None else x_in[rows], dq))
        dxq += dq @ tensors[f"{prefix}.attn.w_q"].T
        del dq
        if rows is None:
            dx = dxq
        else:
            dx = np.zeros_like(x_in)
            dx[rows] = dxq
        del dxq
        put(f"{prefix}.attn.w_k", _weight_grad(x_in, dk))
        dx += dk @ tensors[f"{prefix}.attn.w_k"].T
        del dk
        put(f"{prefix}.attn.w_v", _weight_grad(x_in, dv))
        dx += dv @ tensors[f"{prefix}.attn.w_v"].T
        del dv, x_in

    grads["position_embedding"] = np.zeros_like(tensors["position_embedding"])
    grads["position_embedding"][:t] += _padded(dx, real, b, t).sum(axis=0)
    grads["token_embedding"] = np.zeros_like(tensors["token_embedding"])
    np.add.at(grads["token_embedding"], cache.ids[key_mask], dx)
    return grads


def predict(
    params: ModelParameters, vocab: Vocabulary, text: str
) -> tuple[Label, np.ndarray]:
    """Encode, run inference, and return (label, class probabilities).

    The batch-1 forward computes only the text's own encoded length. Ties
    break toward the lowest label index.
    """
    from .metrics import softmax

    seq = encode(vocab, text, params.config.max_len)
    with single_thread():
        logits, _ = forward(params, [seq], training=False, keep_cache=False)
    probs = softmax(logits[0].astype(np.float64))
    return Label(int(np.argmax(probs))), probs
