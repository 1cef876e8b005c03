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

Inputs are padded to max_len, but each forward and backward computes only the
first T positions, T being the longest true length in the batch: the trailing
positions are padding in every row, so cutting them changes no result beyond
rounding (summation lengths and BLAS shapes follow T).
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .blas import single_thread
from .corpus import Label
from .errors import AllMasked, SequenceLengthMismatch, StaleCache
from .tokenizer import TokenSequence, Vocabulary, encode

LN_EPS = 1e-5
INIT_STD = 0.02
INIT_TRUNC = 2.0  # truncation in units of the standard deviation


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    num_heads: int
    d_model: int
    d_ff: int
    max_len: int
    vocab_size: int
    num_labels: int = 3
    dropout_rate: float = 0.1
    pooling: str = "first_token"  # or "mean"

    def validate(self) -> None:
        """Raise ValueError for a size below 1, or a max_len below 2: encode
        needs room for [cls] and [sep]."""
        for name in ("num_layers", "num_heads", "d_model", "d_ff", "max_len"):
            value = getattr(self, name)
            floor = 2 if name == "max_len" else 1
            if type(value) is not int or value < floor:
                raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
        if type(self.vocab_size) is not int:
            raise ValueError(f"vocab_size must be an integer, got {self.vocab_size!r}")
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}"
            )
        if self.num_labels != 3:
            raise ValueError("this classifier is fixed at 3 labels (ham/spam/phishing)")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.pooling not in ("first_token", "mean"):
            raise ValueError(f"unknown pooling {self.pooling!r}")


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


def gelu(u: np.ndarray) -> np.ndarray:
    """Exact GELU, u * Phi(u), through erf: in float32 within 1.1e-6 of the
    exact value on [-6, 6]."""
    return 0.5 * u * (1.0 + erf(u / math.sqrt(2.0)))


def gelu_grad(u: np.ndarray) -> np.ndarray:
    """d gelu / du."""
    return 0.5 * (1.0 + erf(u / math.sqrt(2.0))) + u * np.exp(-0.5 * u * u) / math.sqrt(
        2.0 * math.pi
    )


def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    key_mask: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over the trailing two axes.

    q: (..., T, d), k/v: (..., S, d); key_mask: broadcastable to (..., S),
    True where a key may be attended to. Scores for masked keys are set to
    -inf before the softmax. Returns (output, probabilities).
    """
    d_head = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(d_head)
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        if not key_mask.any(axis=-1).all():
            raise AllMasked("a query row has no unmasked key position")
        scores = np.where(key_mask[..., None, :], scores, -np.inf)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    probs = weights / weights.sum(axis=-1, keepdims=True)
    return probs @ v, probs


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _layer_norm(x, scale, offset):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv_std
    return xhat * scale + offset, xhat, inv_std


def _layer_norm_backward(dy, xhat, inv_std, scale):
    dscale = (dy * xhat).sum(axis=(0, 1))
    doffset = dy.sum(axis=(0, 1))
    dxhat = dy * scale
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dscale, doffset


def _dropout_mask(rng, shape, rate, dtype, t=None):
    """Inverted-dropout mask of the given shape, cut to its first t positions
    (axis 1). Uniforms are drawn for the whole shape, so the stream a batch
    consumes does not depend on its true lengths."""
    keep = np.dtype(dtype).type(1.0 - rate)
    return (rng.random(shape)[:, :t] >= rate).astype(dtype) / keep


def forward(
    params: ModelParameters,
    batch: list[TokenSequence],
    training: bool = False,
    dropout_rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the encoder on a batch, returning (logits, cache).

    Every sequence must be max_len long; compute covers only positions up to
    the batch's longest true length T, so the cache holds (batch, T) ids and
    key mask (True before each row's true_length), and only the first T
    position-embedding rows are read.

    Dropout is applied only when training=True (and dropout_rate > 0), drawing
    masks from dropout_rng in a fixed order. Each mask is drawn for all
    max_len positions and cut to T, so the masks on real positions, and the
    stream consumed, are those of the full-length computation: training
    differs from it only by rounding.
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
    tensors = params.tensors
    dtype = tensors["token_embedding"].dtype
    use_dropout = training and config.dropout_rate > 0.0
    if use_dropout and dropout_rng is None:
        raise ValueError("training forward with dropout requires dropout_rng")
    padded_shape = (len(batch), config.max_len, config.d_model)

    x = tensors["token_embedding"][ids] + tensors["position_embedding"][None, :t, :]
    cache = ForwardCache(ids=ids, key_mask=key_mask, params_version=params.version)

    for i in range(config.num_layers):
        prefix = f"layers.{i}"
        layer: dict = {"x": x}
        q = _split_heads(x @ tensors[f"{prefix}.attn.w_q"], config.num_heads)
        k = _split_heads(x @ tensors[f"{prefix}.attn.w_k"], config.num_heads)
        v = _split_heads(x @ tensors[f"{prefix}.attn.w_v"], config.num_heads)
        ctx, probs = attention(q, k, v, key_mask=key_mask[:, None, :])
        ctx_merged = _merge_heads(ctx)
        attn_out = ctx_merged @ tensors[f"{prefix}.attn.w_o"]
        if use_dropout:
            layer["drop1"] = _dropout_mask(
                dropout_rng, padded_shape, config.dropout_rate, dtype, t
            )
            attn_out = attn_out * layer["drop1"]
        x1, xhat1, inv_std1 = _layer_norm(
            x + attn_out, tensors[f"{prefix}.ln1.scale"], tensors[f"{prefix}.ln1.offset"]
        )
        u = x1 @ tensors[f"{prefix}.ff.w1"]
        h = gelu(u)
        ff_out = h @ tensors[f"{prefix}.ff.w2"]
        if use_dropout:
            layer["drop2"] = _dropout_mask(
                dropout_rng, padded_shape, config.dropout_rate, dtype, t
            )
            ff_out = ff_out * layer["drop2"]
        x2, xhat2, inv_std2 = _layer_norm(
            x1 + ff_out, tensors[f"{prefix}.ln2.scale"], tensors[f"{prefix}.ln2.offset"]
        )
        layer.update(
            q=q, k=k, v=v, probs=probs, ctx_merged=ctx_merged,
            xhat1=xhat1, inv_std1=inv_std1, x1=x1,
            u=u, h=h, xhat2=xhat2, inv_std2=inv_std2,
        )
        cache.layers.append(layer)
        x = x2

    if config.pooling == "first_token":
        pooled = x[:, 0, :]
    else:
        counts = key_mask.sum(axis=1, keepdims=True).astype(dtype)
        pooled = (x * key_mask[:, :, None]).sum(axis=1) / counts
    cache.pooled = pooled
    logits = pooled @ tensors["classifier.weight"] + tensors["classifier.bias"]
    return logits, cache


def backward(
    params: ModelParameters, cache: ForwardCache, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of the loss w.r.t. every tensor, given d(loss)/d(logits).

    Position-embedding rows at or past the cache's length T get zero gradient.
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
    b, t = cache.ids.shape
    d = config.d_model
    scale = 1.0 / math.sqrt(d // config.num_heads)

    grads["classifier.weight"] += cache.pooled.T @ dlogits
    grads["classifier.bias"] += dlogits.sum(axis=0)
    d_pooled = dlogits @ tensors["classifier.weight"].T

    dx = np.zeros_like(cache.layers[0]["x"])
    if config.pooling == "first_token":
        dx[:, 0, :] = d_pooled
    else:
        counts = key_mask.sum(axis=1, keepdims=True).astype(d_pooled.dtype)
        dx += (d_pooled / counts)[:, None, :] * key_mask[:, :, None]

    for i in reversed(range(config.num_layers)):
        prefix = f"layers.{i}"
        layer = cache.layers[i]
        x_in, x1 = layer["x"], layer["x1"]

        dln2_in, dscale2, doffset2 = _layer_norm_backward(
            dx, layer["xhat2"], layer["inv_std2"], tensors[f"{prefix}.ln2.scale"]
        )
        grads[f"{prefix}.ln2.scale"] += dscale2
        grads[f"{prefix}.ln2.offset"] += doffset2

        dff_out = dln2_in * layer["drop2"] if "drop2" in layer else dln2_in
        dh = dff_out @ tensors[f"{prefix}.ff.w2"].T
        grads[f"{prefix}.ff.w2"] += layer["h"].reshape(-1, config.d_ff).T @ dff_out.reshape(-1, d)
        du = dh * gelu_grad(layer["u"])
        grads[f"{prefix}.ff.w1"] += x1.reshape(-1, d).T @ du.reshape(-1, config.d_ff)
        dx1 = dln2_in + du @ tensors[f"{prefix}.ff.w1"].T

        dln1_in, dscale1, doffset1 = _layer_norm_backward(
            dx1, layer["xhat1"], layer["inv_std1"], tensors[f"{prefix}.ln1.scale"]
        )
        grads[f"{prefix}.ln1.scale"] += dscale1
        grads[f"{prefix}.ln1.offset"] += doffset1

        dattn_out = dln1_in * layer["drop1"] if "drop1" in layer else dln1_in
        dctx_merged = dattn_out @ tensors[f"{prefix}.attn.w_o"].T
        grads[f"{prefix}.attn.w_o"] += (
            layer["ctx_merged"].reshape(-1, d).T @ dattn_out.reshape(-1, d)
        )
        dctx = _split_heads(dctx_merged, config.num_heads)

        probs, q, k, v = layer["probs"], layer["q"], layer["k"], layer["v"]
        dprobs = dctx @ np.swapaxes(v, -1, -2)
        dv = np.swapaxes(probs, -1, -2) @ dctx
        # softmax backward; masked entries have probs == 0, hence dscores == 0
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = dscores @ k * scale
        dk = np.swapaxes(dscores, -1, -2) @ q * scale

        dQ, dK, dV = (_merge_heads(g) for g in (dq, dk, dv))
        x_flat = x_in.reshape(-1, d)
        grads[f"{prefix}.attn.w_q"] += x_flat.T @ dQ.reshape(-1, d)
        grads[f"{prefix}.attn.w_k"] += x_flat.T @ dK.reshape(-1, d)
        grads[f"{prefix}.attn.w_v"] += x_flat.T @ dV.reshape(-1, d)
        dx = (
            dln1_in
            + dQ @ tensors[f"{prefix}.attn.w_q"].T
            + dK @ tensors[f"{prefix}.attn.w_k"].T
            + dV @ tensors[f"{prefix}.attn.w_v"].T
        )

    grads["position_embedding"][:t] += dx.sum(axis=0)
    np.add.at(grads["token_embedding"], cache.ids, dx)
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
