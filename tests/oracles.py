"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by a different route than the library
code it checks: full recounts instead of incremental bookkeeping, scalar
Python loops instead of vectorized numpy, dense matrices instead of sparse
ones. Slow and simple on purpose.
"""

import math

import numpy as np


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
# oversampling plan: exhaustive pairwise distances


def exhaustive_adasyn_plan(points, labels, k: int, beta: float):
    """Reference allocation: dense points, all pairwise Euclidean distances
    enumerated, neighbors sorted by (distance, index), self excluded.

    Returns {class: (G, {sample_index: (r, r_hat, g, same)})} for each
    minority class, where same is the sample's first k same-class neighbors
    in that order, ranked among the class members alone. Rounding is
    half-up, matching the documented convention.
    """
    points = [np.asarray(p, dtype=np.float64) for p in points]
    n = len(points)
    counts: dict[int, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    m_maj = max(counts.values())

    def half_up(x):
        return int(math.floor(x + 0.5))

    def neighbors_of(i, candidates):
        ranked = sorted(
            candidates,
            key=lambda j: (float(np.sqrt(np.sum((points[i] - points[j]) ** 2))), j),
        )
        return ranked[:k]

    result = {}
    for c in sorted(counts):
        if counts[c] >= m_maj:
            continue
        g_total = half_up(beta * (m_maj - counts[c]))
        members = [i for i in range(n) if labels[i] == c]
        rs = {}
        for i in members:
            near = neighbors_of(i, [j for j in range(n) if j != i])
            rs[i] = sum(1 for j in near if labels[j] != c) / k
        total_r = sum(rs.values())
        allocation = {}
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
