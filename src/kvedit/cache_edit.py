"""Editable KV cache: span-replacement scripts and the four update strategies.

An edit replaces tokens [start, end) of the pre-edit sequence with
new_tokens (0-based, half-open; insertion start == end, deletion empty
new_tokens). The net position shift a single op imposes on everything to
its right is delta = len(new_tokens) - (end - start).

Strategies, cheapest honest description first:

* reuse              - ignore the edit; hand back the stale cache.
* conflict_fast      - encode only the new tokens and splice; retained
                       suffix keys keep their stale rotations, so key
                       positions collide or gap (temporal confusion).
* pie                - conflict_fast's splice, plus one rotation per
                       retained key by the cumulative delta at its
                       location, restoring contiguous positions without
                       re-encoding anything.
* full_recompute     - the splice of one op that replaces everything from
                       the first edit onward; the exact reference.

All strategies are pure with respect to `pre_cache`: the updated cache is
a fresh object, built left to right so each newly encoded segment attends
to the already-updated cache on its left. A spliced cache is positionally
consistent when no stale row was retained: it left no shifted row
unrotated, and it kept no row of a flagged pre-edit cache.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import CacheError, ScriptError
from .kv_cache import KvCache
from .model import ToyDecoder

__all__ = [
    "EditOp", "EditScript", "UpdateTiming", "apply_edit_tokens",
    "update_full_recompute", "update_conflict_fast", "update_reuse", "update_pie",
    "load_script_jsonl", "dump_script_jsonl", "STRATEGIES",
]


@dataclass(frozen=True)
class EditOp:
    """Replace pre-edit tokens [start, end) with new_tokens.

    Note on conventions: spans are 0-based half-open here. A 1-based
    formulation that keeps prefix [1..i] and suffix [j+1..n] intact maps
    to start = i, end = j, and the net shift of everything to the right
    is the same delta = m - (j - i) in both.
    """
    start: int
    end: int
    new_tokens: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "new_tokens", tuple(int(t) for t in self.new_tokens))
        if self.start < 0 or self.end < self.start:
            raise ScriptError(f"bad op span [{self.start}, {self.end})")

    @property
    def delta(self) -> int:
        return len(self.new_tokens) - (self.end - self.start)


@dataclass(frozen=True)
class EditScript:
    """Ordered, pairwise non-overlapping ops over one pre-edit sequence."""
    ops: tuple[EditOp, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        prev = None
        for idx, op in enumerate(self.ops):
            if prev is not None and (op.start < prev.end or op.start <= prev.start):
                raise ScriptError(
                    f"op {idx} [{op.start}, {op.end}) overlaps or is not sorted after "
                    f"op {idx - 1} [{prev.start}, {prev.end})")
            prev = op

    @property
    def net_delta(self) -> int:
        return sum(op.delta for op in self.ops)

    def validate(self, seq_len: int) -> None:
        for idx, op in enumerate(self.ops):
            if op.end > seq_len:
                raise ScriptError(
                    f"op {idx} [{op.start}, {op.end}) out of range for sequence length {seq_len}")


def apply_edit_tokens(seq, script: EditScript) -> list[int]:
    """Pure splice of every op; result length is len(seq) + net_delta."""
    seq = list(seq)
    script.validate(len(seq))
    out: list[int] = []
    cursor = 0
    for op in script.ops:
        out.extend(seq[cursor:op.start])
        out.extend(op.new_tokens)
        cursor = op.end
    out.extend(seq[cursor:])
    return out


@dataclass
class UpdateTiming:
    """Cost of one cache update, excluding any subsequent generation."""
    update_ms: float = 0.0
    recomputed_tokens: int = 0
    rotated_keys: int = 0

    def as_dict(self) -> dict:
        return {"update_ms": self.update_ms,
                "recomputed_tokens": self.recomputed_tokens,
                "rotated_keys": self.rotated_keys}


def _check_pre(model: ToyDecoder, pre_cache: KvCache, pre_seq) -> list[int]:
    c = model.config
    pre_cache.check_model(c.n_layers, c.n_heads, c.head_dim)
    pre_seq = list(pre_seq)
    if pre_cache.logical_len != len(pre_seq):
        raise CacheError(f"cache length {pre_cache.logical_len} does not match "
                         f"pre-edit sequence length {len(pre_seq)}")
    return pre_seq


def update_full_recompute(model: ToyDecoder, pre_cache: KvCache, pre_seq,
                          script: EditScript):
    """Retain [0, first op start), re-encode the rest. Exact reference.

    This is a splice with one op that replaces everything from the first
    edit onward with its post-edit tokens.
    """
    pre_seq = _check_pre(model, pre_cache, pre_seq)
    i_first = script.ops[0].start if script.ops else len(pre_seq)
    tail = apply_edit_tokens(pre_seq, script)[i_first:]  # validates the script
    one_op = EditScript((EditOp(i_first, len(pre_seq), tuple(tail)),))
    return _splice_update(model, pre_cache, pre_seq, one_op, reposition=False)


def _splice_update(model: ToyDecoder, pre_cache: KvCache, pre_seq,
                   script: EditScript, reposition: bool):
    """Shared left-to-right assembly for full and conflict_fast
    (reposition=False) and pie (reposition=True)."""
    t0 = time.perf_counter()
    pre_seq = _check_pre(model, pre_cache, pre_seq)
    script.validate(len(pre_seq))
    c = model.config
    n = len(pre_seq)
    post = KvCache.empty(c.n_layers, c.n_heads, c.head_dim, n + script.net_delta)
    recomputed = 0
    rotated = 0
    retained = 0
    stale = False
    cum_delta = 0
    cursor = 0
    bounds = [(op.start, op) for op in script.ops] + [(n, None)]
    for upto, op in bounds:
        if upto > cursor:  # retained segment at cumulative shift cum_delta
            k_seg, v_seg = pre_cache.segment(cursor, upto)
            if reposition:
                k_seg = model.rope.rotate_segment(k_seg, cum_delta)
                if cum_delta != 0:
                    rotated += c.n_layers * (upto - cursor)
            elif cum_delta != 0:
                stale = True
            post.append_segment(k_seg, v_seg)
            retained += upto - cursor
        if op is None:
            break
        if op.new_tokens:  # pure deletions skip the forward pass entirely
            model.extend_cache(post, list(op.new_tokens))
            recomputed += len(op.new_tokens)
        cum_delta += op.delta
        cursor = op.end
    # a retained row of a flagged pre_cache may be stale
    post.positionally_consistent = not stale and (pre_cache.positionally_consistent
                                                  or retained == 0)
    timing = UpdateTiming(update_ms=(time.perf_counter() - t0) * 1e3,
                          recomputed_tokens=recomputed, rotated_keys=rotated)
    return post, timing


def update_conflict_fast(model: ToyDecoder, pre_cache: KvCache, pre_seq,
                         script: EditScript):
    """Encode only the new tokens; splice everything else as-is.

    Fast, but any nonzero shift leaves suffix keys rotated for their old
    positions; the returned cache is flagged positionally inconsistent.
    """
    return _splice_update(model, pre_cache, pre_seq, script, reposition=False)


def update_pie(model: ToyDecoder, pre_cache: KvCache, pre_seq, script: EditScript):
    """Conflict-fast splice plus positional repair of retained keys.

    Each retained key is rotated exactly once, by the cumulative delta of
    all ops at or before its segment; values are never rotated. The
    result has contiguous positions 0..len-1 again.
    """
    return _splice_update(model, pre_cache, pre_seq, script, reposition=True)


def update_reuse(model: ToyDecoder, pre_cache: KvCache, pre_seq, script: EditScript):
    """Ignore the edit entirely; prediction then conditions on stale context.

    Returns a copy so downstream decoding cannot mutate the caller's
    pre-edit cache.
    """
    t0 = time.perf_counter()
    pre_seq = _check_pre(model, pre_cache, pre_seq)
    script.validate(len(pre_seq))
    post = pre_cache.copy()
    return post, UpdateTiming(update_ms=(time.perf_counter() - t0) * 1e3)


# name -> update function; every strategy takes (model, pre_cache, pre_seq, script)
# and returns (cache, UpdateTiming)
STRATEGIES = {"full": update_full_recompute, "conflict_fast": update_conflict_fast,
              "reuse": update_reuse, "pie": update_pie}


# -- edit-script files ----------------------------------------------------------
# JSON Lines, one op per line: {"start": int, "end": int, "tokens": [int, ...]}

def load_script_jsonl(path) -> EditScript:
    ops = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                op = EditOp(int(obj["start"]), int(obj["end"]),
                            tuple(int(t) for t in obj.get("tokens", ())))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, ScriptError) as e:
                raise ScriptError(f"{path}: line {lineno}: {e}") from e
            ops.append(op)
    try:
        return EditScript(tuple(ops))
    except ScriptError as e:
        raise ScriptError(f"{path}: {e}") from e


def dump_script_jsonl(script: EditScript, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for op in script.ops:
            f.write(json.dumps({"start": op.start, "end": op.end,
                                "tokens": list(op.new_tokens)}) + "\n")
