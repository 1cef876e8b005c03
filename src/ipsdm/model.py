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
rows only. Attention alone works on a padded view, (batch, heads, T, d_head)
with T the batch's longest true length, whose padded slots are zero and
masked as keys. A batch without padding has N = batch * T and runs with no
gather or scatter, and no key mask, at all.

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
    """Intermediate activations for exact backpropagation. backward
    consumes them: it empties layers and sets pooled to None, and only ids
    and key_mask stay."""

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
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over the trailing two axes.

    q: (..., T, d), k/v: (..., S, d); key_mask: broadcastable to (..., S),
    True where a key may be attended to. Masked keys get a score of -inf
    (a 0/-inf bias is added) before the softmax, which runs in place on the
    scores. Returns (output, probabilities).
    """
    d_head = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2)
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


def _merge_heads(x: np.ndarray, real: Optional[np.ndarray]) -> np.ndarray:
    """(batch, heads, T, d_head) -> (N, heads * d_head) rows of the real
    tokens, every (batch * T) position when real is None."""
    b, h, t, dh = x.shape
    x = x.transpose(0, 2, 1, 3)
    return x.reshape(b * t, h * dh) if real is None else x[real].reshape(-1, h * dh)


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


def _query_rows(config: ModelConfig, layer: int, key_mask: np.ndarray):
    """The packed rows that layer `layer` computes past its key and value
    projections, as (rows, real, T) of its queries.

    Every layer computes all real rows (rows None, with the key mask's real
    and T), except the last: only each sequence's first row reaches the
    logits, so that layer computes one unpadded query per sequence (rows
    their packed indices, real None, T 1). Its keys and values still cover
    every real row."""
    if layer == config.num_layers - 1:
        return _first_tokens(key_mask.sum(axis=1)), None, 1
    return None, _real(key_mask), key_mask.shape[1]


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
    row in batch order. Attention scatters q, k and v into zero-filled
    (batch, heads, T, d_head) arrays and gathers its context back to N rows;
    a batch without padding (N = batch * T) does neither. The last layer
    computes, past its key and value projections, only each sequence's
    first row (see _query_rows), so its activations after the input have
    batch rows and its probs (batch, heads, 1, T); those rows are the
    pooled states the classifier reads.

    Dropout is applied only when training=True (and dropout_rate > 0), drawing
    masks from dropout_rng in a fixed order: drop1 then drop2, layer by
    layer. Each mask covers exactly the rows its layer computes, one
    uniform per entry, so training does not depend on max_len beyond
    truncation.

    The cache, which only backward reads (and consumes), is built when
    keep_cache is True (the default). With keep_cache=False the same loop
    keeps no activations and drops each array at its last read: q, k, v,
    the scores and the per-head context once the context is merged; the
    merged context once it is projected; the layer's input once the
    residual is added; the attention output once layer norm has read it;
    gelu's u and cdf once gelu(u) @ w2 is computed. So a layer holds at
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

    # Attention needs no key bias where no key is padded.
    attn_mask = None if real is None else key_mask[:, None, :]
    # Each array goes into the cache, if one is kept, when it is built, and
    # its name is dropped at its last read: inference holds nothing past it.
    for i in range(config.num_layers):
        prefix = f"layers.{i}"
        layer: dict = {"x": x} if keep_cache else {}
        rows, q_real, q_t = _query_rows(config, i, key_mask)
        xq = x if rows is None else x[rows]
        q = _split_heads(_padded(xq @ tensors[f"{prefix}.attn.w_q"], q_real, b, q_t), heads)
        k = _split_heads(_padded(x @ tensors[f"{prefix}.attn.w_k"], real, b, t), heads)
        v = _split_heads(_padded(x @ tensors[f"{prefix}.attn.w_v"], real, b, t), heads)
        ctx, probs = attention(q, k, v, key_mask=attn_mask)
        ctx_merged = _merge_heads(ctx, q_real)
        if keep_cache:
            layer.update(q=q, k=k, v=v, probs=probs, ctx_merged=ctx_merged)
        del q, k, v, ctx, probs
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

    Per-token gradients run on the rows forward computed, attention's on
    its padded view; the last layer passes its query rows' input gradient
    back to the first rows and its key and value gradients to every row.
    Weight gradients do not depend on the BLAS thread count.
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
    d, heads = config.d_model, config.num_heads
    scale = 1.0 / math.sqrt(d // heads)

    pooled, cache.pooled = cache.pooled, None
    put("classifier.weight", _weight_grad(pooled, dlogits))
    del pooled
    put("classifier.bias", dlogits.sum(axis=0))
    dx = dlogits @ tensors["classifier.weight"].T  # the last layer's output rows

    for i in reversed(range(config.num_layers)):
        prefix = f"layers.{i}"
        layer = cache.layers.pop()
        rows, q_real, q_t = _query_rows(config, i, key_mask)

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
        dctx = _padded(dattn_out @ tensors[f"{prefix}.attn.w_o"].T, q_real, b, q_t)
        dctx = _split_heads(dctx, heads)
        put(f"{prefix}.attn.w_o", _weight_grad(layer.pop("ctx_merged"), dattn_out))
        del dattn_out

        probs = layer.pop("probs")
        dv = np.swapaxes(probs, -1, -2) @ dctx
        # softmax backward, built in place on d(loss)/d(probs); masked
        # entries have probs == 0, hence dscores == 0
        dscores = dctx @ np.swapaxes(layer.pop("v"), -1, -2)
        del dctx
        dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
        dscores *= probs
        del probs
        dq = dscores @ layer.pop("k")
        dq *= scale
        dk = np.swapaxes(dscores, -1, -2) @ layer.pop("q")
        del dscores
        dk *= scale

        # The query rows' input gradient: residual plus query path.
        dxq = dln1_in  # no longer read, so the sum can build in place
        del dln1_in
        g = _merge_heads(dq, q_real)
        del dq
        x_in = layer.pop("x")
        put(f"{prefix}.attn.w_q", _weight_grad(x_in if rows is None else x_in[rows], g))
        dxq += g @ tensors[f"{prefix}.attn.w_q"].T
        if rows is None:
            dx = dxq
        else:
            dx = np.zeros_like(x_in)
            dx[rows] = dxq
        del dxq
        g = _merge_heads(dk, real)
        del dk
        put(f"{prefix}.attn.w_k", _weight_grad(x_in, g))
        dx += g @ tensors[f"{prefix}.attn.w_k"].T
        g = _merge_heads(dv, real)
        del dv
        put(f"{prefix}.attn.w_v", _weight_grad(x_in, g))
        dx += g @ tensors[f"{prefix}.attn.w_v"].T
        del g, x_in

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
