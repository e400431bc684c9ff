"""Dense numeric kernels for the toy decoder.

Row kernels over the last axis of float32 arrays, plus the two checks the
decoder applies at its boundaries: token ids inside the vocabulary
(ArgumentError) and finite activations (NumericError). The hot-path
kernels do not validate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, NumericError

F32 = np.float32

# tanh-based GeLU constants
_GELU_C = np.float32(np.sqrt(2.0 / np.pi))
_GELU_A = np.float32(0.044715)


def check_finite(a: np.ndarray, what: str = "result") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{what} contains NaN/Inf")
    return a


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, max-subtracted for stability.

    No validation: this is the hot path shared with masked attention,
    where -inf-like sentinel entries are expected to map to zero mass.
    """
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted, dtype=F32)
    return e / np.sum(e, axis=-1, keepdims=True)


def rms_norm_rows(x: np.ndarray, gain: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """RMS-normalize each row of x (last axis) and scale by gain."""
    ms = np.mean(np.square(x, dtype=F32), axis=-1, keepdims=True)
    return (x / np.sqrt(ms + F32(eps))) * gain


def gelu(x: np.ndarray) -> np.ndarray:
    """GeLU, tanh approximation (keeps the kernel scipy-free)."""
    x = np.asarray(x, dtype=F32)
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    return F32(0.5) * x * (F32(1.0) + np.tanh(inner))


def embedding_lookup(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Gather rows of an embedding matrix for a vector of token ids."""
    ids = np.asarray(ids)
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        bad = int(ids[(ids < 0) | (ids >= table.shape[0])][0])
        raise ArgumentError(f"token id {bad} out of vocabulary [0, {table.shape[0]})")
    return table[ids]
