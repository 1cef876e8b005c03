"""Desk-scale transformer encoder with multi-head self-attention, pooling,
and a 3-label classifier head. Forward and backward passes are written out
explicitly in numpy; the backward pass returns exact gradients for every
trainable tensor.

Layer layout (post-layer-norm):
    x = LN1(x + dropout(MHA(x)))
    x = LN2(x + dropout(FF(x)))        FF = GELU(x W1) W2
Pooling takes the first-token state (default) or the mean over unmasked
positions; either way padded positions never reach the logits, so logits are
bit-identical under changes to padded token ids.

Inputs are padded to max_len, but forward and backward compute only the
batch's real tokens: activations are (N, d_model) matrices of its N real
tokens, row by row in batch order, so every projection, feed-forward
product, GELU, layer norm, residual add and dropout multiply runs on real
rows only. Attention alone works on a padded view, (batch, heads, T, d_head)
with T the batch's longest true length, whose padded slots are zero and
masked as keys. A batch without padding has N = batch * T and runs with no
gather or scatter, and no key mask, at all.

Only the rows pooling reads reach the logits. So the last layer of a
first-token model computes its keys and values from every real row, but its
queries, attention output, layer norms, feed-forward and dropout on each
sequence's first row alone: batch rows, not N.
"""

import math
import operator
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
    """Intermediate activations for exact backpropagation."""

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


# Eigen's (and XLA's) fast float32 erf: x P(x^2) / Q(x^2) for |x| <= 4, P of
# degree 6 and Q of degree 4, coefficients in ascending powers.
_ERF_P = (-1.60960333262415e-02, -2.95459980854025e-03, -7.34990630326855e-04,
          -5.69250639462346e-05, -2.10102402082508e-06, 2.77068142495902e-08,
          -2.72614225801306e-10)
_ERF_Q = (-1.42647390514189e-02, -7.37332916720468e-03, -1.68282697438203e-03,
          -2.13374055278905e-04, -1.45660718464996e-05)
# Both divided by Q's constant term, which makes it 1: the same rational, but
# less float32 rounding error.
_ERF_A = [np.float32(c / _ERF_Q[0]) for c in _ERF_P]
_ERF_B = [np.float32(c / _ERF_Q[0]) for c in _ERF_Q]
# Elements per pass: its input, output and five scratch buffers (1.8 MB of
# float32) stay in cache.
_ERF_CHUNK = 1 << 16
_math_erf = np.frompyfunc(math.erf, 1, 1)
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _erf_float32_pass(x, p, t, t2, t4, q, w) -> None:
    """erf of the 1-d float32 array x into p; the rest are scratch buffers of
    x's size. Estrin's scheme, whose shorter chains round less than Horner's
    in float32."""
    a, b = _ERF_A, _ERF_B
    np.multiply(x, x, out=t)
    # Capping x^2 at 16 evaluates |x| > 4 as x * erf(4) / 4, which the final
    # clip takes to +-1 (and +-inf to +-1).
    np.minimum(t, np.float32(16.0), out=t)
    np.multiply(t, t, out=t2)
    np.multiply(t2, t2, out=t4)
    # q = (1 + b1 t) + t^2 (b2 + b3 t) + t^4 b4
    np.multiply(t, b[1], out=q)
    q += b[0]
    np.multiply(t, b[3], out=w)
    w += b[2]
    w *= t2
    q += w
    np.multiply(t4, b[4], out=w)
    q += w
    # p = (a0 + a1 t) + t^2 (a2 + a3 t) + t^4 ((a4 + a5 t) + t^2 a6)
    np.multiply(t, a[1], out=p)
    p += a[0]
    np.multiply(t, a[3], out=w)
    w += a[2]
    w *= t2
    p += w
    np.multiply(t, a[5], out=w)
    w += a[4]
    t2 *= a[6]
    w += t2
    w *= t4
    p += w
    p *= x
    p /= q
    # Rounding alone reaches 1 + 2e-7. Two ufuncs cost less than np.clip.
    np.minimum(p, np.float32(1.0), out=p)
    np.maximum(p, np.float32(-1.0), out=p)


def erf(x) -> np.ndarray:
    """The error function of a float array, elementwise, in x's dtype.

    float32, the dtype every CLI stage runs in, takes a rational kernel whose
    result lies within 4.1e-7 of the exact erf (3.4 ulp at 1; checked on
    every float32 with 1e-6 <= |x| <= 8). It is odd, lies in [-1, 1], maps
    +-inf to +-1, nan to nan and +-0 to +-0. Every other dtype goes through
    math.erf, one element at a time, for float64 accuracy.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        return np.asarray(_math_erf(x), dtype=x.dtype)
    out = np.empty(x.shape, np.float32)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    scratch = np.empty((5, min(flat_x.size, _ERF_CHUNK)), np.float32)
    with np.errstate(over="ignore"):  # x^2 of |x| > 1.8e19 is inf, capped at 16
        for start in range(0, flat_x.size, _ERF_CHUNK):
            stop = min(start + _ERF_CHUNK, flat_x.size)
            _erf_float32_pass(flat_x[start:stop], flat_out[start:stop],
                              *scratch[:, : stop - start])
    return out


def _erf_plus_one(u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """1 + erf(u / sqrt 2), the factor gelu and gelu_grad share, into out if
    given."""
    c = erf(u / _SQRT2)
    return np.add(c, 1.0, out=c if out is None else out)


def gelu(u: np.ndarray, erf_plus_one: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact GELU, u * Phi(u), through erf: in float32 within 1.1e-6 of the
    exact value on [-6, 6].

    erf_plus_one, if given (an array of u's shape and dtype), receives
    1 + erf(u / sqrt 2), from which gelu_grad and gelu_from rebuild their
    results without another erf.
    """
    return gelu_from(u, _erf_plus_one(u, erf_plus_one))


def gelu_from(u: np.ndarray, erf_plus_one: np.ndarray) -> np.ndarray:
    """gelu(u), bit for bit, from its 1 + erf(u / sqrt 2): two passes."""
    h = u * 0.5
    h *= erf_plus_one
    return h


def gelu_grad(u: np.ndarray, erf_plus_one: Optional[np.ndarray] = None) -> np.ndarray:
    """d gelu / du = (1 + erf(u / sqrt 2)) / 2 + u exp(-u^2 / 2) / sqrt(2 pi).
    Given gelu's erf_plus_one, it evaluates no erf; the result is the same
    bit for bit."""
    if erf_plus_one is None:
        erf_plus_one = _erf_plus_one(u)
    density = u * -0.5
    density *= u
    np.exp(density, out=density)
    density *= u
    density /= _SQRT_2PI
    grad = erf_plus_one * 0.5
    grad += density
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
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
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


def _layer_norm(x, scale, offset):
    """Layer norm over the last axis; the variance reuses x - mean, with
    the same sums and divisions as x.var."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv_std
    y = xhat * scale
    y += offset
    return y, xhat, inv_std


def _layer_norm_backward(dy, xhat, inv_std, scale):
    dscale = (dy * xhat).sum(axis=0)
    doffset = dy.sum(axis=0)
    dxhat = dy * scale
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dscale, doffset


# Bit generators whose advance(n) skips exactly n 64-bit draws, as n
# float64 uniforms consume. Philox's advance counts blocks of four.
_ADVANCE_BY_DRAWS = (np.random.PCG64, np.random.PCG64DXSM)


def _dropout_mask(rng, shape, rate, dtype, lengths):
    """Inverted-dropout mask of each row's leading lengths[i] positions of a
    (rows, positions, ...) shape, the rows stacked: (sum(lengths),
    *shape[2:]). Those entries, and the point the stream is left at, are
    those of one draw for the whole shape, so neither depends on the
    lengths. A PCG64 generator (default_rng's) draws each row's kept
    positions and advances past the rest; any other draws the whole shape."""
    positions = shape[1]
    lengths = [operator.index(n) for n in lengths]
    keep = np.dtype(dtype).type(1.0 - rate)
    uniforms = np.empty((sum(lengths), *shape[2:]))
    bit_generator = rng.bit_generator
    if all(n == positions for n in lengths):
        rng.random(out=uniforms)
    elif isinstance(bit_generator, _ADVANCE_BY_DRAWS):
        width = math.prod(shape[2:])
        start = 0
        for n in lengths:
            rng.random(out=uniforms[start : start + n])
            bit_generator.advance((positions - n) * width)
            start += n
    else:
        uniforms[...] = rng.random(shape)[np.arange(positions) < np.array(lengths)[:, None]]
    return (uniforms >= rate).astype(dtype) / keep


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
    and T), except the last layer of a first-token model: only each
    sequence's first row reaches the logits, so that layer computes one
    unpadded query per sequence (rows their packed indices, real None, T 1).
    Its keys and values still cover every real row."""
    if layer == config.num_layers - 1 and config.pooling == "first_token":
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
) -> tuple[np.ndarray, ForwardCache]:
    """Run the encoder on a batch, returning (logits, cache).

    Every sequence must be max_len long; compute covers only the batch's N
    real tokens. The cache holds (batch, T) ids and key mask (True before
    each row's true_length), T being the longest true length, and each
    layer's activations as (N, d_model) matrices: the real tokens, row by
    row in batch order. Attention scatters q, k and v into zero-filled
    (batch, heads, T, d_head) arrays and gathers its context back to N rows;
    a batch without padding (N = batch * T) does neither. With first-token
    pooling the last layer computes, past its key and value projections,
    only each sequence's first row (see _query_rows), so its activations
    after the input have batch rows and its probs (batch, heads, 1, T).

    Dropout is applied only when training=True (and dropout_rate > 0), drawing
    masks from dropout_rng in a fixed order. Each mask holds the computed
    rows' entries of one drawn for all max_len positions, and leaves the
    stream where that draw would, so training differs from the full-length
    computation only by rounding.
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
    padded_shape = (b, config.max_len, d)

    if real is None:
        x = tensors["token_embedding"][ids]
        x += tensors["position_embedding"][:t]
        x = x.reshape(b * t, d)
    else:
        x = tensors["token_embedding"][ids[real]]
        x += tensors["position_embedding"][np.nonzero(real)[1]]
    cache = ForwardCache(ids=ids, key_mask=key_mask, params_version=params.version)

    # Attention needs no key bias where no key is padded.
    attn_mask = None if real is None else key_mask[:, None, :]
    for i in range(config.num_layers):
        prefix = f"layers.{i}"
        layer: dict = {"x": x}
        rows, q_real, q_t = _query_rows(config, i, key_mask)
        # Each query row's dropout entries are its position's in the
        # full-length draw: a first row's is position 0.
        xq, q_lengths = (x, lengths) if rows is None else (x[rows], np.ones_like(lengths))
        q = _split_heads(_padded(xq @ tensors[f"{prefix}.attn.w_q"], q_real, b, q_t), heads)
        k = _split_heads(_padded(x @ tensors[f"{prefix}.attn.w_k"], real, b, t), heads)
        v = _split_heads(_padded(x @ tensors[f"{prefix}.attn.w_v"], real, b, t), heads)
        ctx, probs = attention(q, k, v, key_mask=attn_mask)
        ctx_merged = _merge_heads(ctx, q_real)
        attn_out = ctx_merged @ tensors[f"{prefix}.attn.w_o"]
        if use_dropout:
            layer["drop1"] = _dropout_mask(
                dropout_rng, padded_shape, config.dropout_rate, dtype, q_lengths
            )
            attn_out *= layer["drop1"]
        attn_out += xq
        x1, xhat1, inv_std1 = _layer_norm(
            attn_out, tensors[f"{prefix}.ln1.scale"], tensors[f"{prefix}.ln1.offset"]
        )
        u = x1 @ tensors[f"{prefix}.ff.w1"]
        erf_plus_one = np.empty_like(u)
        ff_out = gelu(u, erf_plus_one) @ tensors[f"{prefix}.ff.w2"]
        if use_dropout:
            layer["drop2"] = _dropout_mask(
                dropout_rng, padded_shape, config.dropout_rate, dtype, q_lengths
            )
            ff_out *= layer["drop2"]
        ff_out += x1
        x2, xhat2, inv_std2 = _layer_norm(
            ff_out, tensors[f"{prefix}.ln2.scale"], tensors[f"{prefix}.ln2.offset"]
        )
        # gelu(u) is not kept, so the cache grows by nothing: backward
        # rebuilds it from erf_plus_one in two passes.
        layer.update(
            q=q, k=k, v=v, probs=probs, ctx_merged=ctx_merged,
            xhat1=xhat1, inv_std1=inv_std1, x1=x1,
            u=u, erf_plus_one=erf_plus_one, xhat2=xhat2, inv_std2=inv_std2,
        )
        cache.layers.append(layer)
        x = x2

    if config.pooling == "first_token":
        pooled = x  # the last layer computed only the first rows
    else:
        counts = lengths[:, None].astype(dtype)
        pooled = _padded(x, real, b, t).sum(axis=1) / counts
    cache.pooled = pooled
    logits = pooled @ tensors["classifier.weight"] + tensors["classifier.bias"]
    return logits, cache


def backward(
    params: ModelParameters, cache: ForwardCache, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of the loss w.r.t. every tensor, given d(loss)/d(logits).

    Per-token gradients run on the rows forward computed, attention's on
    its padded view; the last layer of a first-token model passes its query
    rows' input gradient back to the first rows and its key and value
    gradients to every row. Weight gradients do not depend on the BLAS
    thread count. Position-embedding rows at or past the cache's length T
    get zero gradient.
    """
    if cache.params_version != params.version:
        raise StaleCache(
            f"cache built for parameter version {cache.params_version}, "
            f"parameters are at version {params.version}"
        )
    config = params.config
    tensors = params.tensors
    grads = {name: np.zeros_like(t) for name, t in tensors.items()}
    key_mask = cache.key_mask
    real = _real(key_mask)
    lengths = key_mask.sum(axis=1)
    b, t = cache.ids.shape
    d, heads = config.d_model, config.num_heads
    scale = 1.0 / math.sqrt(d // heads)

    grads["classifier.weight"] += _weight_grad(cache.pooled, dlogits)
    grads["classifier.bias"] += dlogits.sum(axis=0)
    d_pooled = dlogits @ tensors["classifier.weight"].T

    if config.pooling == "first_token":
        dx = d_pooled  # the last layer's output is the pooled rows
    else:
        counts = lengths[:, None].astype(d_pooled.dtype)
        dx = np.repeat(d_pooled / counts, lengths, axis=0)

    for i in reversed(range(config.num_layers)):
        prefix = f"layers.{i}"
        layer = cache.layers[i]
        x_in, x1 = layer["x"], layer["x1"]
        rows, q_real, q_t = _query_rows(config, i, key_mask)

        dln2_in, dscale2, doffset2 = _layer_norm_backward(
            dx, layer["xhat2"], layer["inv_std2"], tensors[f"{prefix}.ln2.scale"]
        )
        grads[f"{prefix}.ln2.scale"] += dscale2
        grads[f"{prefix}.ln2.offset"] += doffset2

        dff_out = dln2_in * layer["drop2"] if "drop2" in layer else dln2_in
        du = dff_out @ tensors[f"{prefix}.ff.w2"].T
        u, erf_plus_one = layer["u"], layer["erf_plus_one"]
        grads[f"{prefix}.ff.w2"] += _weight_grad(gelu_from(u, erf_plus_one), dff_out)
        du *= gelu_grad(u, erf_plus_one)
        grads[f"{prefix}.ff.w1"] += _weight_grad(x1, du)
        dx1 = du @ tensors[f"{prefix}.ff.w1"].T
        dx1 += dln2_in

        dln1_in, dscale1, doffset1 = _layer_norm_backward(
            dx1, layer["xhat1"], layer["inv_std1"], tensors[f"{prefix}.ln1.scale"]
        )
        grads[f"{prefix}.ln1.scale"] += dscale1
        grads[f"{prefix}.ln1.offset"] += doffset1

        dattn_out = dln1_in * layer["drop1"] if "drop1" in layer else dln1_in
        dctx = _padded(dattn_out @ tensors[f"{prefix}.attn.w_o"].T, q_real, b, q_t)
        dctx = _split_heads(dctx, heads)
        grads[f"{prefix}.attn.w_o"] += _weight_grad(layer["ctx_merged"], dattn_out)

        probs, q, k, v = layer["probs"], layer["q"], layer["k"], layer["v"]
        dv = np.swapaxes(probs, -1, -2) @ dctx
        # softmax backward, built in place on d(loss)/d(probs); masked
        # entries have probs == 0, hence dscores == 0
        dscores = dctx @ np.swapaxes(v, -1, -2)
        dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
        dscores *= probs
        dq = dscores @ k
        dq *= scale
        dk = np.swapaxes(dscores, -1, -2) @ q
        dk *= scale

        # The query rows' input gradient: residual plus query path.
        dxq = dln1_in  # no longer read, so the sum can build in place
        g = _merge_heads(dq, q_real)
        xq = x_in if rows is None else x_in[rows]
        grads[f"{prefix}.attn.w_q"] += _weight_grad(xq, g)
        dxq += g @ tensors[f"{prefix}.attn.w_q"].T
        if rows is None:
            dx = dxq
        else:
            dx = np.zeros_like(x_in)
            dx[rows] = dxq
        for name, g in (("w_k", dk), ("w_v", dv)):
            g = _merge_heads(g, real)
            weight = f"{prefix}.attn.{name}"
            grads[weight] += _weight_grad(x_in, g)
            dx += g @ tensors[weight].T

    grads["position_embedding"][:t] += _padded(dx, real, b, t).sum(axis=0)
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
        logits, _ = forward(params, [seq], training=False)
    probs = softmax(logits[0].astype(np.float64))
    return Label(int(np.argmax(probs))), probs
