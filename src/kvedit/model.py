"""Deterministic toy decoder: pre-norm blocks, rotary multi-head attention, GeLU MLP.

Small enough to verify on a desk, but faithful where it matters for cache
editing: keys are cached post-rotation, values unrotated, attention scores
scaled by 1/sqrt(head_dim), causal masking throughout. Embeddings are tied
to the unembedding.

Decode protocol: `encode` fills a cache with every prompt position and
returns next-token logits. `decode_step` appends one NEW token. When a
cache already contains the position of the last token (always the case
after an edit-strategy update), `next_logits` runs a query-only pass that
attends to the stored keys - including the stored, possibly edited, key of
the last position itself - without touching the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ArgumentError, CacheError, ConfigError, check_int
from .kv_cache import KvCache
from .rope import RotaryTable
from .tensor_core import F32, check_finite, embedding_lookup, gelu, rms_norm_rows, softmax_rows

_NEG = np.float32(-1e30)  # exp(-1e30 - max) == 0 exactly, so masked mass is 0
_ATTN_SLAB = 512          # query rows per attention slab, aligned to absolute positions


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    n_heads: int = 4
    head_dim: int = 16
    hidden_dim: int = 64
    mlp_dim: int = 256
    vocab_size: int = 512
    rope_base: float = 10000.0
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("n_layers", "n_heads", "head_dim", "hidden_dim", "mlp_dim", "vocab_size"):
            check_int(ConfigError, name, getattr(self, name), 1)
        check_int(ConfigError, "seed", self.seed, 0)
        b = self.rope_base
        if isinstance(b, bool) or not isinstance(b, Real) or not (math.isfinite(b) and b > 0):
            raise ConfigError(f"rope_base must be a finite number > 0, got {b!r}")
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even, got {self.head_dim}")
        if self.hidden_dim != self.n_heads * self.head_dim:
            raise ConfigError(f"hidden_dim {self.hidden_dim} != n_heads*head_dim "
                              f"{self.n_heads}*{self.head_dim}")


class ToyDecoder:
    """Weights plus the forward passes that fill and consume a KvCache.

    Initialization is a pure function of config.seed: weights come from a
    PCG64 stream in a fixed draw order, scaled by 1/sqrt(fan_in), so the
    same seed gives bit-identical buffers.
    """

    def __init__(self, config: ModelConfig):
        c = config
        self.config = c
        self.rope = RotaryTable(c.head_dim, base=c.rope_base)
        rng = np.random.default_rng(c.seed)

        def draw(rows, cols):
            return (rng.standard_normal((rows, cols), dtype=F32)
                    * F32(1.0 / np.sqrt(rows)))

        self.embedding = rng.standard_normal((c.vocab_size, c.hidden_dim), dtype=F32)
        self.wq, self.wk, self.wv, self.wo = [], [], [], []
        self.w_in, self.w_out = [], []
        for _ in range(c.n_layers):
            self.wq.append(draw(c.hidden_dim, c.hidden_dim))
            self.wk.append(draw(c.hidden_dim, c.hidden_dim))
            self.wv.append(draw(c.hidden_dim, c.hidden_dim))
            self.wo.append(draw(c.hidden_dim, c.hidden_dim))
            self.w_in.append(draw(c.hidden_dim, c.mlp_dim))
            self.w_out.append(draw(c.mlp_dim, c.hidden_dim))
        self.attn_gain = [np.ones(c.hidden_dim, dtype=F32) for _ in range(c.n_layers)]
        self.mlp_gain = [np.ones(c.hidden_dim, dtype=F32) for _ in range(c.n_layers)]
        self.final_gain = np.ones(c.hidden_dim, dtype=F32)
        self._scale = F32(1.0 / np.sqrt(c.head_dim))

    # -- internals ------------------------------------------------------------

    def _check_tokens(self, tokens) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ArgumentError("token sequence must be a non-empty 1-D array of ids")
        return tokens

    def _attend(self, q_rot: np.ndarray, keys: np.ndarray, values: np.ndarray,
                past_len: int) -> np.ndarray:
        """Causal attention of a block of queries over keys/values [T, H, d].

        Query row r sits at absolute position past_len + r and may attend
        to columns <= that position. Slabs are aligned to absolute-position
        multiples of _ATTN_SLAB so re-encoding a tail reproduces the exact
        arithmetic of a full encode row by row.

        The cache is read through strided views, never copied. Slab
        [c0, c1) reads only columns [0, past_len + c1), the ones its last
        row can see; a one-row slab (every decode step and next_logits
        call) sees all of them, so it needs no mask. Slabs run last to
        first, so each slab's buffers are no larger than the ones the slab
        before it freed and can reuse their memory.
        """
        b = q_rot.shape[0]
        qh = q_rot.transpose(1, 0, 2)                            # [H, B, d]
        kh = keys.transpose(1, 2, 0)                             # [H, d, T]
        vh = values.transpose(1, 0, 2)                           # [H, T, d]
        out = np.empty_like(q_rot)
        c1 = b
        while c1 > 0:
            c0 = max(0, (past_len + c1 - 1) // _ATTN_SLAB * _ATTN_SLAB - past_len)
            n = past_len + c1
            scores = (qh[:, c0:c1] @ kh[:, :, :n]) * self._scale  # [H, rows, n]
            if c1 - c0 > 1:
                limit = (past_len + np.arange(c0, c1))[:, None]
                scores = np.where(np.arange(n)[None, :] > limit, _NEG, scores)
            probs = softmax_rows(scores)
            out[c0:c1] = (probs @ vh[:, :n]).transpose(1, 0, 2)
            c1 = c0
        return out

    def _block_forward(self, cache: KvCache, tokens: np.ndarray) -> np.ndarray:
        """Encode tokens at positions [len, len+B), appending K/V to the cache.

        Returns next-token logits for every block position, [B, vocab].
        """
        c = self.config
        b = tokens.shape[0]
        x = embedding_lookup(self.embedding, tokens)
        start = cache.reserve(b)
        positions = start + np.arange(b)
        for l in range(c.n_layers):
            h = rms_norm_rows(x, self.attn_gain[l])
            k = (h @ self.wk[l]).reshape(b, c.n_heads, c.head_dim)
            v = (h @ self.wv[l]).reshape(b, c.n_heads, c.head_dim)
            cache.write_block(l, start, self.rope.rotate_block(k, positions), v)
            x = self._layer(l, x, h, cache, start)
        cache.commit(b)
        return self._unembed(x)

    def _layer(self, l: int, x: np.ndarray, h: np.ndarray, cache: KvCache,
               start: int) -> np.ndarray:
        """Layer l for hidden rows x at positions [start, start+B), given
        h = the attention-normed x. Cache rows [0, start+B) of the layer
        must already hold K/V; the queries attend to them causally.
        """
        c = self.config
        b = x.shape[0]
        q = (h @ self.wq[l]).reshape(b, c.n_heads, c.head_dim)
        q = self.rope.rotate_block(q, start + np.arange(b))
        attn = self._attend(q, cache.layer_keys(l, start + b),
                            cache.layer_values(l, start + b), start)
        x = x + attn.reshape(b, c.hidden_dim) @ self.wo[l]
        hm = rms_norm_rows(x, self.mlp_gain[l])
        x = x + gelu(hm @ self.w_in[l]) @ self.w_out[l]
        return check_finite(x, f"layer {l} hidden states")

    def _unembed(self, x: np.ndarray) -> np.ndarray:
        h = rms_norm_rows(x, self.final_gain)
        return check_finite(h @ self.embedding.T, "logits")

    # -- public operations ------------------------------------------------------

    def encode(self, tokens):
        """Full-sequence encode: returns (cache, next-token logits).

        The cache holds rotated keys and plain values for every position
        of `tokens`, at every layer.
        """
        tokens = self._check_tokens(tokens)
        c = self.config
        cache = KvCache.empty(c.n_layers, c.n_heads, c.head_dim, len(tokens))
        return cache, self._block_forward(cache, tokens)[-1]

    def extend_cache(self, cache: KvCache, tokens) -> np.ndarray:
        """Encode a block of new tokens on top of an existing cache.

        Tokens take positions [logical_len, logical_len + B) and attend to
        everything already stored plus themselves causally. Returns
        [B, vocab] next-token logits.
        """
        tokens = self._check_tokens(tokens)
        c = self.config
        cache.check_model(c.n_layers, c.n_heads, c.head_dim)
        return self._block_forward(cache, tokens)

    def decode_step(self, cache: KvCache, token: int) -> np.ndarray:
        """Append one new token; returns logits for the position after it."""
        return self.extend_cache(cache, [int(token)])[0]

    def next_logits(self, cache: KvCache, last_token: int) -> np.ndarray:
        """Logits for the next token given a cache that already contains
        `last_token`'s position.

        Query-only pass: recomputes the last position's hidden trajectory,
        attending to the stored keys/values of all logical_len positions
        (its own stored entry included), and writes nothing back. On an
        honestly encoded cache this reproduces encode's final-row logits;
        on an edited cache the stored (edited) keys stand in.
        """
        c = self.config
        cache.check_model(c.n_layers, c.n_heads, c.head_dim)
        if cache.logical_len < 1:
            raise CacheError("next_logits needs a non-empty cache")
        tokens = self._check_tokens([int(last_token)])
        x = embedding_lookup(self.embedding, tokens)
        start = cache.logical_len - 1
        for l in range(c.n_layers):
            x = self._layer(l, x, rms_norm_rows(x, self.attn_gain[l]), cache, start)
        return self._unembed(x)[0]

    def generate_greedy(self, cache: KvCache, last_token: int, n_new: int,
                        return_distributions: bool = False):
        """Greedy decoding of n_new tokens, ties broken by lowest token id.

        The first step probes via next_logits (the cache already holds
        last_token); each chosen token is then appended, so the cache ends
        n_new positions longer. With return_distributions=True also
        returns the softmax distribution each token was drawn from.
        """
        if n_new < 1:
            raise ArgumentError(f"n_new must be >= 1, got {n_new}")
        logits = self.next_logits(cache, last_token)
        out: list[int] = []
        dists: list[np.ndarray] = []
        for _ in range(n_new):
            if return_distributions:
                dists.append(softmax_rows(logits))
            tok = int(np.argmax(logits))  # argmax returns the first = lowest id on ties
            out.append(tok)
            logits = self.decode_step(cache, tok)
        if return_distributions:
            return out, dists
        return out


def init_model(config: ModelConfig) -> ToyDecoder:
    """Build a ToyDecoder; same seed yields bit-identical weights."""
    config.validate()
    return ToyDecoder(config)
