"""Span recorder for the traced benchmark run.

The traced run wraps kvedit's public functions from the outside: methods
are replaced on their classes, the update strategies on `kvedit.cache_edit`
(the benchmark looks them up there at call time), and the tensor_core
kernels where `kvedit.model` imports them. `patched()` undoes every replacement
on exit, so timed runs never go through a wrapper.

A span is [name, start_s, end_s, parent_index, request_id, counts]. Spans
stay in memory until the run ends. Byte counts are computed from tensor
shapes, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from kvedit import cache_edit, kv_cache, model, rope, scenarios

NAME, START, END, PARENT, REQUEST, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.request, {}]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def parent_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def wrap(self, fn, name, counts=None, skip_under=None):
        """`fn` recording a span `name`; counts(args, out, before) -> dict.

        `before` is (cache, capacity on entry) when self or the first
        argument is a KvCache, so that growth can be counted; else None.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_under is not None and self.parent_name() == skip_under:
                return fn(*args, **kwargs)
            before = _capacity(args)
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if counts is not None:
                rec[COUNTS] = counts(args, out, before)
            return out
        return traced


def _capacity(args):
    for a in args[:2]:
        if isinstance(a, kv_cache.KvCache):
            return a, a.keys.shape[1]
    return None


def _grow(before) -> dict:
    if before is None:
        return {}
    cache, cap = before
    if cache.keys.shape[1] == cap:
        return {}
    return {"grow": 1, "grow_bytes": cache.keys.nbytes + cache.values.nbytes}


def _counts_extend(args, out, before):
    return {"tokens": len(args[2]), **_grow(before)}


def _counts_rotate_segment(args, out, before):
    x, delta = args[1], args[2]
    if delta == 0:
        return {}
    # keys as UpdateTiming counts them: layers x positions
    return {"keys": x.size // (x.shape[-1] * x.shape[-2]), "bytes": 2 * x.nbytes}


def _counts_segment(args, out, before):
    return {"bytes": out[0].nbytes + out[1].nbytes}


def _counts_append(args, out, before):
    return {"bytes": args[1].nbytes + args[2].nbytes, **_grow(before)}


def _counts_update(args, out, before):
    timing, script = out[1], args[3]
    return {"recomputed_tokens": timing.recomputed_tokens,
            "rotated_keys": timing.rotated_keys,
            "new_tokens": sum(len(op.new_tokens) for op in script.ops)}


def _counts_softmax(args, out, before):
    return {"bytes": args[0].nbytes + out.nbytes}


# (owner, attribute, span name, counts, skip when called under this span)
TARGETS = (
    (cache_edit, "update_full_recompute", "cache_edit.update_full", _counts_update, None),
    (cache_edit, "update_pie", "cache_edit.update_pie", _counts_update, None),
    (cache_edit, "update_conflict_fast", "cache_edit.update_conflict_fast", _counts_update, None),
    (model.ToyDecoder, "encode", "model.encode",
     lambda a, o, b: {"tokens": len(a[1])}, None),
    (model.ToyDecoder, "extend_cache", "model.extend_cache", _counts_extend,
     "model.decode_step"),
    (model.ToyDecoder, "next_logits", "model.next_logits", None, None),
    (model.ToyDecoder, "decode_step", "model.decode_step",
     lambda a, o, b: _grow(b), None),
    (model.ToyDecoder, "generate_greedy", "model.generate_greedy", None, None),
    (rope.RotaryTable, "rotate_segment", "rope.rotate_segment", _counts_rotate_segment, None),
    (rope.RotaryTable, "rotate_block", "rope.rotate_block",
     lambda a, o, b: {"rows": a[1].shape[0]}, None),
    (kv_cache.KvCache, "segment", "kv_cache.segment", _counts_segment, None),
    (kv_cache.KvCache, "append_segment", "kv_cache.append_segment", _counts_append, None),
    (model, "softmax_rows", "tensor_core.softmax_rows", _counts_softmax, None),
    (model, "gelu", "tensor_core.gelu", None, None),
    (scenarios, "tile_document", "scenarios.tile_document", None, None),
    (scenarios.ByteTokenizer, "encode", "scenarios.tokenize", None, None),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the public kvedit functions in TARGETS through `tracer`."""
    saved = []
    try:
        for owner, attr, name, counts, skip in TARGETS:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name, counts, skip))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# -- aggregation -----------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children, in s."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def per_request(spans: list[list], self_s: list[float]) -> dict:
    """{request: {name: {"ms", "self_ms", "calls", <count>: total}}}."""
    table: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for s, own in zip(spans, self_s):
        row = table[s[REQUEST]][s[NAME]]
        row["ms"] += (s[END] - s[START]) * 1e3
        row["self_ms"] += own * 1e3
        row["calls"] += 1
        for key, value in s[COUNTS].items():
            row[key] += value
    return table


def child_ms(spans: list[list], parent_name: str, child_names: set[str]) -> tuple[float, float]:
    """(total ms of spans named parent_name, ms of their direct children in child_names)."""
    total = 0.0
    inner = 0.0
    for s in spans:
        if s[NAME] == parent_name:
            total += (s[END] - s[START]) * 1e3
        elif s[PARENT] >= 0 and s[NAME] in child_names and spans[s[PARENT]][NAME] == parent_name:
            inner += (s[END] - s[START]) * 1e3
    return total, inner


def pie_path_share(spans: list[list]) -> float:
    """Share of the user's wait spent in model.decode_step.

    The user's path in a request is its first pie update, the probe right
    after it and the first continuation (the benchmark decodes from the
    pie cache before the full reference); the reference work is left out.
    """
    by_request: dict = defaultdict(list)
    for i, s in enumerate(spans):
        if s[REQUEST] is not None and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "request":
            by_request[s[REQUEST]].append(i)
    path = 0.0
    continuations = set()
    for top in by_request.values():
        names = [spans[i][NAME] for i in top]
        u = names.index("cache_edit.update_pie")
        probe = top[names.index("model.next_logits", u)]
        gen = top[names.index("model.generate_greedy")]
        continuations.add(gen)
        for i in (top[u], probe, gen):
            path += spans[i][END] - spans[i][START]
    decode = sum(s[END] - s[START] for s in spans
                 if s[PARENT] in continuations and s[NAME] == "model.decode_step")
    return decode / path
