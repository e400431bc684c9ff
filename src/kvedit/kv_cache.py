"""Per-layer, per-head key/value storage with explicit position bookkeeping.

Layout is a pair of float32 arrays [n_layers, capacity, n_heads, head_dim]
with a shared logical length; position p of the post-edit sequence lives at
row p, always contiguous 0..logical_len-1. Keys are stored post-rotation
(position baked in), values unrotated.

Every cache is built by `KvCache.empty(..., rows)`, which allocates the
`rows` it is about to fill plus HEADROOM spare rows, one attention slab.
So a cache returned by `encode`, by any update strategy or by `copy()`
takes HEADROOM `decode_step`s before it must grow. Rows at or past
logical_len are uninitialised (`np.empty`): every reader slices to
logical_len or to an explicit `upto`, and nothing may read past it.

`positionally_consistent` is True when no stale row was retained: every
stored key's rotation matches its row index. False means a stale row may
remain. Conflict-fast splicing clears it when it leaves shifted rows
unrotated, and an update that retains any row of a flagged cache stays
flagged; an update that retains no row of it starts clean.

A cache has a single owner at a time; there is no internal locking.
"""

from __future__ import annotations

import numpy as np

from .errors import CacheError

F32 = np.float32
HEADROOM = 512  # spare rows every new cache gets: one attention slab of decode steps


class KvCache:
    def __init__(self, keys: np.ndarray, values: np.ndarray, logical_len: int,
                 positionally_consistent: bool = True):
        self.keys = keys
        self.values = values
        self.logical_len = int(logical_len)
        self.positionally_consistent = positionally_consistent

    @classmethod
    def empty(cls, n_layers: int, n_heads: int, head_dim: int, rows: int = 0) -> "KvCache":
        """A zero-length cache with room for `rows` rows plus HEADROOM."""
        shape = (n_layers, rows + HEADROOM, n_heads, head_dim)
        return cls(np.empty(shape, dtype=F32), np.empty(shape, dtype=F32), 0)

    # -- shape/introspection ------------------------------------------------

    @property
    def n_layers(self) -> int:
        return self.keys.shape[0]

    @property
    def n_heads(self) -> int:
        return self.keys.shape[2]

    @property
    def head_dim(self) -> int:
        return self.keys.shape[3]

    def check_model(self, n_layers: int, n_heads: int, head_dim: int) -> None:
        got = (self.n_layers, self.n_heads, self.head_dim)
        want = (n_layers, n_heads, head_dim)
        if got != want:
            raise CacheError(f"cache shape {got} does not match model (L, H, head_dim) {want}")

    def copy(self) -> "KvCache":
        n = self.logical_len
        out = KvCache.empty(self.n_layers, self.n_heads, self.head_dim, n)
        out.keys[:, :n] = self.keys[:, :n]
        out.values[:, :n] = self.values[:, :n]
        out.logical_len = n
        out.positionally_consistent = self.positionally_consistent
        return out

    # -- views --------------------------------------------------------------

    def layer_keys(self, layer: int, upto: int | None = None) -> np.ndarray:
        return self.keys[layer, :self.logical_len if upto is None else upto]

    def layer_values(self, layer: int, upto: int | None = None) -> np.ndarray:
        return self.values[layer, :self.logical_len if upto is None else upto]

    def segment(self, start: int, end: int):
        """Copy of (keys, values) over positions [start, end), all layers."""
        if not (0 <= start <= end <= self.logical_len):
            raise CacheError(f"segment [{start}, {end}) out of range for length {self.logical_len}")
        return self.keys[:, start:end].copy(), self.values[:, start:end].copy()

    # -- mutation -----------------------------------------------------------

    def _ensure_capacity(self, needed: int) -> None:
        """Make room for `needed` rows, doubling capacity until it fits.

        The new arrays are `np.empty`; only the live rows [:, :logical_len]
        are copied across, so growth costs one copy of what is stored, not
        of the whole capacity, and writes no zeros.
        """
        cap = self.keys.shape[1]
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        n = self.logical_len

        def grow(a):
            out = np.empty((a.shape[0], cap) + a.shape[2:], dtype=F32)
            out[:, :n] = a[:, :n]
            return out
        self.keys, self.values = grow(self.keys), grow(self.values)

    def reserve(self, n: int) -> int:
        """Reserve n rows for a block encode; returns the start row.

        logical_len is bumped only by commit(), so the per-layer length
        invariant holds between operations even though layers are filled
        one at a time during the forward pass.
        """
        self._ensure_capacity(self.logical_len + n)
        return self.logical_len

    def write_block(self, layer: int, start: int, k: np.ndarray, v: np.ndarray) -> None:
        n = k.shape[0]
        self.keys[layer, start:start + n] = k
        self.values[layer, start:start + n] = v

    def commit(self, n: int) -> None:
        self.logical_len += n

    def append_segment(self, k_seg: np.ndarray, v_seg: np.ndarray) -> None:
        """Splice a retained segment [L, m, H, d] onto the end of every layer."""
        m = k_seg.shape[1]
        if k_seg.shape != (self.n_layers, m, self.n_heads, self.head_dim):
            raise CacheError(f"segment shape {k_seg.shape} does not fit cache "
                             f"(L={self.n_layers}, H={self.n_heads}, d={self.head_dim})")
        self._ensure_capacity(self.logical_len + m)
        self.keys[:, self.logical_len:self.logical_len + m] = k_seg
        self.values[:, self.logical_len:self.logical_len + m] = v_seg
        self.logical_len += m
