"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by a different route than the library
code it checks: full recounts instead of incremental bookkeeping, a
character-by-character loop instead of a regex, scalar Python loops instead
of vectorized numpy, exact fractions instead of rounded floats, every padded
position instead of packed real tokens. Slow and simple on purpose.
"""

import math
import unicodedata
from fractions import Fraction

import numpy as np

from ipsdm.model import _layer_norm, _layer_norm_backward, attention, gelu, gelu_from, gelu_grad


# ---------------------------------------------------------------------------
# the seeded shuffle: numpy's own generator


def numpy_fisher_yates(n: int, rng: np.random.Generator) -> list[int]:
    """Seeded shuffle of range(n): one rng.integers(0, i + 1) draw for each i
    from n - 1 down to 1. With rng = np.random.default_rng(entropy), the
    order ipsdm.shuffle.fisher_yates gives for SeededStream(entropy)."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return order


# ---------------------------------------------------------------------------
# pieces: one character at a time, by class


def _char_class(ch: str) -> str:
    if ch == " ":
        return "space"
    if ch.isspace():
        return "blank"
    if ch.isdecimal():
        return "digit"
    if ch.isalnum():  # a letter, or a numeral that is no decimal digit ("²")
        return "letter"
    return "other"  # "_" too


def pieces_by_class(text: str) -> list[bytes]:
    """The UTF-8 pieces of text's NFC form: runs of one class (letters,
    decimal digits, other whitespace than the space, or anything else),
    each taking the space just before it; a space that no run follows is a
    piece alone. Walks the characters one by one, with no regex."""
    pieces: list[str] = []
    run_class = None  # class of the last piece's run; None for a lone space
    for ch in unicodedata.normalize("NFC", text):
        kind = _char_class(ch)
        if kind == "space":
            pieces.append(ch)
            run_class = None
        else:
            if pieces and run_class in (kind, None):
                pieces[-1] += ch
            else:
                pieces.append(ch)
            run_class = kind
    return [piece.encode("utf-8") for piece in pieces]


def corpus_pieces(texts: list[str]) -> list[bytes]:
    """Every piece of every text, in order: what training counts."""
    return [piece for text in texts for piece in pieces_by_class(text)]


def replay_pieces(merges: list[tuple[bytes, bytes]], text: str) -> list[bytes]:
    """replay_merges on each piece of text alone, the tokens joined."""
    return [token for piece in pieces_by_class(text) for token in replay_merges(merges, piece)]


# ---------------------------------------------------------------------------
# byte-pair merges: full pair recount every round


def merge_pass(tokens: list[bytes], left: bytes, right: bytes) -> list[bytes]:
    """One left-to-right scan merging every non-overlapping (left, right)."""
    out = []
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens) and tokens[i] == left and tokens[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out


def naive_bpe_merges(texts_as_bytes: list[bytes], max_merges: int):
    """Greedy highest-frequency pair merging over byte sequences.

    Each document is a list of tokens (bytes objects), initially single
    bytes. Every round recounts all adjacent pairs from scratch, picks the
    most frequent (ties: lexicographically smallest (left, right)), and
    merges it greedily left-to-right in every document. Stops when the best
    pair occurs fewer than 2 times.
    """
    docs = [[bytes([b]) for b in text] for text in texts_as_bytes]
    merges = []
    for _ in range(max_merges):
        counts: dict[tuple[bytes, bytes], int] = {}
        for doc in docs:
            for left, right in zip(doc, doc[1:]):
                counts[(left, right)] = counts.get((left, right), 0) + 1
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < 2:
            break
        best = min(pair for pair, c in counts.items() if c == best_count)
        merges.append(best)
        docs = [merge_pass(doc, *best) for doc in docs]
    return merges


# ---------------------------------------------------------------------------
# byte-pair encode: whole-sequence passes over byte tokens


def replay_merges(merges: list[tuple[bytes, bytes]], data: bytes) -> list[bytes]:
    """Replay the merge list in learned order, one full pass per merge.

    For a merge list learned by training this is the definition of BPE
    encoding; the library's encode must match it token for token.
    """
    tokens = [bytes([b]) for b in data]
    for left, right in merges:
        tokens = merge_pass(tokens, left, right)
    return tokens


def lowest_rank_merges(merges: list[tuple[bytes, bytes]], data: bytes) -> list[bytes]:
    """Rescan the whole sequence for the lowest-ranked pair present and merge
    all its occurrences; repeat until no pair has a rule.

    Equal to replay_merges on a learned merge list. On a hand-made list it
    differs where a merge forms a pair whose rule ranks below its own: this
    route still merges that pair, as the library's encode does.
    """
    ranks: dict[tuple[bytes, bytes], int] = {}
    for rank, pair in enumerate(merges):
        ranks.setdefault(pair, rank)
    tokens = [bytes([b]) for b in data]
    while True:
        present = [ranks[pair] for pair in zip(tokens, tokens[1:]) if pair in ranks]
        if not present:
            return tokens
        tokens = merge_pass(tokens, *merges[min(present)])


# ---------------------------------------------------------------------------
# optimizer: straight-line scalar trace


def scalar_adamw_trace(
    z0: float,
    grads: list[float],
    lr: float = 2e-5,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    wd: float = 0.01,
    variant: str = "paper",
):
    """Evaluate the update equations one scalar step at a time, returning
    (z_values, m_hats, v_hats) after each step."""
    z, m, v = z0, 0.0, 0.0
    zs, m_hats, v_hats = [], [], []
    for i, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**i)
        v_hat = v / (1.0 - beta2**i)
        if variant == "paper":
            z = z - lr / (math.sqrt(v_hat) + eps) * (m_hat + wd * z)
        elif variant == "decoupled":
            z = z - lr * m_hat / (math.sqrt(v_hat) + eps) - lr * wd * z
        else:
            raise ValueError(variant)
        zs.append(z)
        m_hats.append(m_hat)
        v_hats.append(v_hat)
    return zs, m_hats, v_hats


# ---------------------------------------------------------------------------
# attention: dense per-row computation, masked keys skipped outright


def dense_attention(q, k, v, key_mask=None):
    """Single-head attention computed row by row in float64. Masked keys are
    excluded from the softmax sum entirely rather than set to -inf."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    t, d = q.shape
    s = k.shape[0]
    allowed = [True] * s if key_mask is None else [bool(x) for x in key_mask]
    out = np.zeros((t, v.shape[1]))
    probs = np.zeros((t, s))
    for row in range(t):
        scores = {}
        for col in range(s):
            if allowed[col]:
                scores[col] = float(np.dot(q[row], k[col])) / math.sqrt(d)
        peak = max(scores.values())
        weights = {col: math.exp(x - peak) for col, x in scores.items()}
        total = sum(weights.values())
        for col, w in weights.items():
            probs[row, col] = w / total
            out[row] += (w / total) * v[col]
    return out, probs


# ---------------------------------------------------------------------------
# dropout: one draw over every position


def full_length_dropout_mask(rng, shape, rate, dtype):
    """Inverted-dropout mask drawn for the whole shape: one float64 uniform
    per entry, in C order, kept where it is at least rate and scaled by
    1 / (1 - rate)."""
    keep = np.dtype(dtype).type(1.0 - rate)
    return (rng.random(shape) >= rate).astype(dtype) / keep


# ---------------------------------------------------------------------------
# encoder: every per-token op over the padded (batch * T) positions


def _split_heads(x, batch, num_heads):
    d = x.shape[-1]
    return x.reshape(batch, -1, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b * t, h * dh)


def padded_forward(params, batch, training=False, dropout_rng=None):
    """The encoder with every row padded to the batch's longest true length
    T: every per-token op runs on all batch * T positions. It checks the
    packed layout of model.forward, and shares its kernels (layer norm,
    attention, GELU). Dropout masks are the first T positions of
    full_length_dropout_mask. Returns (logits, cache), the cache a dict."""
    config = params.config
    lengths = np.array([seq.true_length for seq in batch])
    t = int(lengths.max())
    ids = np.array([seq.ids[:t] for seq in batch], dtype=np.int64)
    key_mask = np.arange(t) < lengths[:, None]
    tensors = params.tensors
    dtype = tensors["token_embedding"].dtype
    use_dropout = training and config.dropout_rate > 0.0
    b, d, heads = len(batch), config.d_model, config.num_heads
    padded_shape = (b, config.max_len, d)

    def mask():
        full = full_length_dropout_mask(dropout_rng, padded_shape, config.dropout_rate, dtype)
        return full[:, :t]

    x = tensors["token_embedding"][ids]
    x += tensors["position_embedding"][:t]
    x = x.reshape(b * t, d)
    cache = {"ids": ids, "key_mask": key_mask, "layers": []}
    for i in range(config.num_layers):
        prefix = f"layers.{i}"
        layer = {"x": x}
        q = _split_heads(x @ tensors[f"{prefix}.attn.w_q"], b, heads)
        k = _split_heads(x @ tensors[f"{prefix}.attn.w_k"], b, heads)
        v = _split_heads(x @ tensors[f"{prefix}.attn.w_v"], b, heads)
        ctx, probs = attention(q, k, v, key_mask=key_mask[:, None, :])
        ctx_merged = _merge_heads(ctx)
        attn_out = ctx_merged @ tensors[f"{prefix}.attn.w_o"]
        if use_dropout:
            layer["drop1"] = mask()
            attn_out *= layer["drop1"].reshape(b * t, d)
        attn_out += x
        x1, xhat1, inv_std1 = _layer_norm(
            attn_out, tensors[f"{prefix}.ln1.scale"], tensors[f"{prefix}.ln1.offset"]
        )
        u = x1 @ tensors[f"{prefix}.ff.w1"]
        erf_plus_one = np.empty_like(u)
        ff_out = gelu(u, erf_plus_one) @ tensors[f"{prefix}.ff.w2"]
        if use_dropout:
            layer["drop2"] = mask()
            ff_out *= layer["drop2"].reshape(b * t, d)
        ff_out += x1
        x2, xhat2, inv_std2 = _layer_norm(
            ff_out, tensors[f"{prefix}.ln2.scale"], tensors[f"{prefix}.ln2.offset"]
        )
        layer.update(
            q=q, k=k, v=v, probs=probs, ctx_merged=ctx_merged,
            xhat1=xhat1, inv_std1=inv_std1, x1=x1,
            u=u, erf_plus_one=erf_plus_one, xhat2=xhat2, inv_std2=inv_std2,
        )
        cache["layers"].append(layer)
        x = x2

    x = x.reshape(b, t, d)
    if config.pooling == "first_token":
        pooled = x[:, 0, :]
    else:
        counts = key_mask.sum(axis=1, keepdims=True).astype(dtype)
        pooled = (x * key_mask[:, :, None]).sum(axis=1) / counts
    cache["pooled"] = pooled
    logits = pooled @ tensors["classifier.weight"] + tensors["classifier.bias"]
    return logits, cache


def padded_backward(params, cache, dlogits):
    """model.backward over padded_forward's cache: every per-token gradient
    is computed at all batch * T positions, zero at the padded ones."""
    config = params.config
    tensors = params.tensors
    grads = {name: np.zeros_like(t) for name, t in tensors.items()}
    key_mask = cache["key_mask"]
    b, t = cache["ids"].shape
    d, heads = config.d_model, config.num_heads
    scale = 1.0 / math.sqrt(d // heads)

    grads["classifier.weight"] += cache["pooled"].T @ dlogits
    grads["classifier.bias"] += dlogits.sum(axis=0)
    d_pooled = dlogits @ tensors["classifier.weight"].T

    dx = np.zeros_like(cache["layers"][0]["x"])
    if config.pooling == "first_token":
        dx.reshape(b, t, d)[:, 0, :] = d_pooled
    else:
        counts = key_mask.sum(axis=1, keepdims=True).astype(d_pooled.dtype)
        dx.reshape(b, t, d)[...] += (d_pooled / counts)[:, None, :] * key_mask[:, :, None]

    for i in reversed(range(config.num_layers)):
        prefix = f"layers.{i}"
        layer = cache["layers"][i]
        x_in, x1 = layer["x"], layer["x1"]

        dln2_in, dscale2, doffset2 = _layer_norm_backward(
            dx, layer["xhat2"], layer["inv_std2"], tensors[f"{prefix}.ln2.scale"]
        )
        grads[f"{prefix}.ln2.scale"] += dscale2
        grads[f"{prefix}.ln2.offset"] += doffset2

        if "drop2" in layer:
            dff_out = dln2_in * layer["drop2"].reshape(b * t, d)
        else:
            dff_out = dln2_in
        du = dff_out @ tensors[f"{prefix}.ff.w2"].T
        u, erf_plus_one = layer["u"], layer["erf_plus_one"]
        grads[f"{prefix}.ff.w2"] += gelu_from(u, erf_plus_one).T @ dff_out
        du *= gelu_grad(u, erf_plus_one)
        grads[f"{prefix}.ff.w1"] += x1.T @ du
        dx1 = du @ tensors[f"{prefix}.ff.w1"].T
        dx1 += dln2_in

        dln1_in, dscale1, doffset1 = _layer_norm_backward(
            dx1, layer["xhat1"], layer["inv_std1"], tensors[f"{prefix}.ln1.scale"]
        )
        grads[f"{prefix}.ln1.scale"] += dscale1
        grads[f"{prefix}.ln1.offset"] += doffset1

        if "drop1" in layer:
            dattn_out = dln1_in * layer["drop1"].reshape(b * t, d)
        else:
            dattn_out = dln1_in
        dctx = _split_heads(dattn_out @ tensors[f"{prefix}.attn.w_o"].T, b, heads)
        grads[f"{prefix}.attn.w_o"] += layer["ctx_merged"].T @ dattn_out

        probs, q, k, v = layer["probs"], layer["q"], layer["k"], layer["v"]
        dv = np.swapaxes(probs, -1, -2) @ dctx
        dscores = dctx @ np.swapaxes(v, -1, -2)
        dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
        dscores *= probs
        dq = dscores @ k
        dq *= scale
        dk = np.swapaxes(dscores, -1, -2) @ q
        dk *= scale

        dx = dln1_in
        for name, g in (("w_q", dq), ("w_k", dk), ("w_v", dv)):
            g = _merge_heads(g)
            weight = f"{prefix}.attn.{name}"
            grads[weight] += x_in.T @ g
            dx += g @ tensors[weight].T

    dx = dx.reshape(b, t, d)
    grads["position_embedding"][:t] += dx.sum(axis=0)
    np.add.at(grads["token_embedding"], cache["ids"], dx)
    return grads


# ---------------------------------------------------------------------------
# confusion: brute-force tally


def tally_confusion(true_labels, predicted_labels, num_classes: int = 3):
    counts = [[0] * num_classes for _ in range(num_classes)]
    for t, p in zip(true_labels, predicted_labels):
        counts[t][p] += 1
    return counts


def tally_scores(counts):
    """Precision/recall/F1 per class from first principles."""
    num_classes = len(counts)
    total = sum(sum(row) for row in counts)
    correct = sum(counts[c][c] for c in range(num_classes))
    per_class = []
    for c in range(num_classes):
        tp = counts[c][c]
        fp = sum(counts[r][c] for r in range(num_classes)) - tp
        fn = sum(counts[c]) - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        per_class.append((p, r, f1))
    return correct / total, per_class


# ---------------------------------------------------------------------------
# oversampling plan: exhaustive pairwise cosines, in exact fractions


def exhaustive_adasyn_plan(points, labels, k: int, beta: float):
    """Reference allocation over non-negative integer count vectors (dense
    sequences): every pair's cosine enumerated in exact fractions, neighbors
    sorted by (distance, index), self and zero vectors excluded.

    The distance between L2-normalized vectors falls as their cosine rises,
    so neighbors rank by cos**2 = <a, b>**2 / (|a|**2 |b|**2), descending,
    kept as a Fraction: nothing is rounded. Returns {class: (G, {sample_index:
    (r, r_hat, g, same)})} for each minority class, where same is the
    sample's first k same-class neighbors in that order, ranked among the
    class members alone; a class with G = 0 or no non-zero member allocates
    nothing. Rounding is half-up, matching the documented convention.
    """
    points = [[int(x) for x in p] for p in points]
    n = len(points)
    counts: dict[int, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    m_maj = max(counts.values())
    nonzero = [i for i in range(n) if any(points[i])]

    def half_up(x):
        return int(math.floor(x + 0.5))

    def dot(i, j):
        return sum(a * b for a, b in zip(points[i], points[j]))

    def neighbors_of(i, candidates):
        ranked = sorted(
            candidates,
            key=lambda j: (-Fraction(dot(i, j) ** 2, dot(i, i) * dot(j, j)), j),
        )
        return ranked[:k]

    result = {}
    for c in sorted(counts):
        if counts[c] >= m_maj:
            continue
        g_total = half_up(beta * (m_maj - counts[c]))
        members = [i for i in nonzero if labels[i] == c]
        allocation = {}
        if g_total > 0 and members:
            rs = {}
            for i in members:
                near = neighbors_of(i, [j for j in nonzero if j != i])
                rs[i] = sum(1 for j in near if labels[j] != c) / k
            total_r = sum(rs.values())
            for i in members:
                r_hat = rs[i] / total_r if total_r > 0 else 1.0 / len(members)
                same = tuple(neighbors_of(i, [j for j in members if j != i]))
                allocation[i] = (rs[i], r_hat, half_up(r_hat * g_total), same)
        result[c] = (g_total, allocation)
    return result


# ---------------------------------------------------------------------------
# finite differences


def finite_difference_gradient(loss_fn, tensor: np.ndarray, positions, step: float = 1e-5):
    """Central-difference gradient of loss_fn at the given flat positions of
    tensor, evaluated in place (tensor is restored afterwards)."""
    flat = tensor.reshape(-1)
    out = {}
    for pos in positions:
        original = flat[pos]
        flat[pos] = original + step
        plus = loss_fn()
        flat[pos] = original - step
        minus = loss_fn()
        flat[pos] = original
        out[pos] = (plus - minus) / (2.0 * step)
    return out
