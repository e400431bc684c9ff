"""Rotary position encoding: forward, inverse, and relative re-rotation.

Pairing convention is half-split ("rotate_half"): component k pairs with
component k + head_dim/2, and the pair is rotated by angle pos * f_k with
f_k = base**(-2k/head_dim). Rotations compose additively (rotating by a
then b equals rotating by a+b) and are orthogonal, which is what lets a
cached key be moved to a new position with a single rotation by the
position delta - no knowledge of its absolute position required.

Angles are computed in float64 for the positions at hand; outputs
preserve the input dtype.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


class RotaryTable:
    """Rotation to any signed position; holds only the frequencies f_k.

    Rotation is pure and safe to share across threads.
    """

    def __init__(self, head_dim: int, base: float = 10000.0):
        if head_dim <= 0 or head_dim % 2 != 0:
            raise ShapeError(f"head_dim must be a positive even count, got {head_dim}")
        self.head_dim = head_dim
        self.base = float(base)
        self.freqs = self.base ** (-2.0 * np.arange(head_dim // 2) / head_dim)

    def _cos_sin(self, positions: np.ndarray):
        """cos/sin rows for signed positions, shape [len(positions), head_dim/2]."""
        angles = np.asarray(positions, dtype=np.int64)[:, None] * self.freqs
        return np.cos(angles), np.sin(angles)

    @staticmethod
    def _apply(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
        """Rotate half-split pairs of the last axis; cos/sin broadcast over it."""
        half = x.shape[-1] // 2
        lo, hi = x[..., :half], x[..., half:]
        out = np.empty_like(x)
        out[..., :half] = lo * cos - hi * sin
        out[..., half:] = hi * cos + lo * sin
        return out

    def rotate(self, v: np.ndarray, pos: int) -> np.ndarray:
        """Rotate one head-dim vector to (signed) position pos."""
        v = np.asarray(v)
        if v.shape != (self.head_dim,):
            raise ShapeError(f"rotate expects shape ({self.head_dim},), got {v.shape}")
        cos, sin = self._cos_sin(np.array([pos]))
        return self._apply(v, cos[0], sin[0]).astype(v.dtype, copy=False)

    def rotate_block(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Rotate x[i, ..., :] to positions[i]; x is [n, ...heads..., head_dim]."""
        x = np.asarray(x)
        if x.shape[-1] != self.head_dim:
            raise ShapeError(f"rotate_block last dim {x.shape[-1]} != head_dim {self.head_dim}")
        cos, sin = self._cos_sin(positions)
        # align per-position cos/sin with any head axes between n and head_dim
        extra = x.ndim - 2
        shape = (len(cos),) + (1,) * extra + (self.head_dim // 2,)
        return self._apply(x, cos.reshape(shape), sin.reshape(shape)).astype(x.dtype, copy=False)

    def rotate_segment(self, x: np.ndarray, delta: int) -> np.ndarray:
        """Re-rotate every head-dim vector in x by one shared delta.

        The hot path of a cache update: one fused multiply over a whole
        retained segment, any leading shape. delta=0 is a bit-identical
        pass-through.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.head_dim:
            raise ShapeError(f"rotate_segment last dim {x.shape[-1]} != head_dim {self.head_dim}")
        if delta == 0:
            return x
        cos, sin = self._cos_sin(np.array([delta]))
        return self._apply(x, cos[0], sin[0]).astype(x.dtype, copy=False)
