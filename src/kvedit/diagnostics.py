"""Gap metrics between cache-update strategies.

Representation side: per-layer cosine similarity of stored keys between
two caches. Prediction side: per-step KL divergence of next-token
distributions, and the code-completion line metrics EM (trimmed byte
equality) and ES (100 * (1 - levenshtein/max-length), on characters).

KL direction: the reference distribution (normally full recomputation)
goes first, KL(p_ref || q_strategy). Both directions are just argument
order; the reports in the harness use the reference-first default.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, DiagnosticsError
from .kv_cache import KvCache

KL_FLOOR = 1e-12  # q is floored here so greedy-saturated logits cannot yield inf


def key_cosine_by_layer(cache_a: KvCache, cache_b: KvCache,
                        span: tuple[int, int] | None = None) -> np.ndarray:
    """Mean cosine of per-head key vectors, per layer, over a position span.

    Caches must have identical shape and logical_len; span defaults to all
    positions. Zero vectors: two zeros count as aligned (1.0), a zero
    against a nonzero counts as orthogonal (0.0).
    """
    if (cache_a.keys.shape[0], cache_a.n_heads, cache_a.head_dim) != \
       (cache_b.keys.shape[0], cache_b.n_heads, cache_b.head_dim) or \
       cache_a.logical_len != cache_b.logical_len:
        raise DiagnosticsError(
            f"caches not comparable: lengths {cache_a.logical_len} vs {cache_b.logical_len}")
    start, end = span if span is not None else (0, cache_a.logical_len)
    if not (0 <= start <= end <= cache_a.logical_len):
        raise DiagnosticsError(f"span [{start}, {end}) outside cache length "
                               f"{cache_a.logical_len}")
    if end == start:
        raise DiagnosticsError("empty span has no cosine")
    a = cache_a.keys[:, start:end].astype(np.float64)   # [L, n, H, d]
    b = cache_b.keys[:, start:end].astype(np.float64)
    dot = np.sum(a * b, axis=-1)
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    denom = na * nb
    both_zero = (na == 0) & (nb == 0)
    cos = np.where(both_zero, 1.0, dot / np.where(denom == 0, 1.0, denom))
    return cos.mean(axis=(1, 2))


def kl_divergence(p, q, floor: float = KL_FLOOR) -> float:
    """KL(p || q) in nats, with 0*ln(0) := 0 and q floored before the log.

    Inputs must sum to 1 within 1e-5; they are renormalized in float64 so
    float32 softmax outputs cannot produce a spuriously negative result,
    and roundoff-scale negatives are clamped to 0.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ArgumentError(f"distributions must be same-length vectors, got "
                            f"{p.shape} vs {q.shape}")
    for name, d in (("p", p), ("q", q)):
        if np.any(d < 0) or abs(d.sum() - 1.0) > 1e-5:
            raise ArgumentError(f"{name} is not a probability distribution "
                                f"(sum={d.sum():.6g})")
    p = p / p.sum()
    q = np.maximum(q / q.sum(), floor)
    mask = p > 0
    return max(float(np.sum(p[mask] * np.log(p[mask] / q[mask]))), 0.0)


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit costs, two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def exact_match(pred: str, target: str) -> int:
    """1 iff byte-equal after whitespace trim."""
    return int(pred.strip() == target.strip())


def edit_similarity(pred: str, target: str) -> float:
    """100 * (1 - levenshtein/max(len)); two empty strings score 100."""
    longest = max(len(pred), len(target))
    if longest == 0:
        return 100.0
    return 100.0 * (1.0 - levenshtein(pred, target) / longest)


def first_non_comment_line(text: str, comment_prefix: str = "#") -> str:
    """Truncate generated text to its first non-comment, non-blank line."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(comment_prefix):
            return line
    return ""
