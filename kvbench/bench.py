"""Workloads, the closed measurement loop, correctness checks and metrics.

One client edits one document and waits for each reply before sending the
next edit. Every request applies one seeded edit with `full`, `pie` and
`conflict_fast`, probes each updated cache with `next_logits`, then lets
the model continue greedily from the `pie` and the `full` cache. Only the
generated token lists and EditScripts reach the library.

All times are wall times taken by this file around public kvedit calls
(time.perf_counter); `UpdateTiming.update_ms`, the library's own clock,
is reported beside them.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from kvedit import cache_edit
from kvedit.diagnostics import kl_divergence
from kvedit.model import ModelConfig, init_model
from kvedit.tensor_core import softmax_rows

import edits
import spans

STRATEGIES = ("full", "pie", "conflict_fast")
# looked up on cache_edit at call time, so the traced run sees its wrappers
UPDATE = {"full": "update_full_recompute",
          "pie": "update_pie",
          "conflict_fast": "update_conflict_fast"}
CHECK_EVERY = 16     # every n-th edit's full probe is checked against a fresh encode
LOGIT_TOL = 1e-4     # acceptance criterion 2
LAYER0_TOL = 1e-6    # acceptance criterion 3
CACHE_TOL = 1e-4     # chained full cache against a fresh encode


@dataclass(frozen=True)
class Workload:
    name: str
    context_len: int
    n_decode: int          # tokens generated after each request (chain end for sessions)
    chain_len: int = 0     # 0: independent edits of one context; >0: chained session
    pool: int = 256        # edits (or chains) generated up front
    round: int = 16        # the loop stops only after a multiple of this many requests


WORKLOADS = {
    "edit-4k": Workload("edit-4k", 4096, n_decode=8, round=32),
    "decode-4k": Workload("decode-4k", 4096, n_decode=128, pool=128),
    "session-1k": Workload("session-1k", 1024, n_decode=32, chain_len=30, pool=32, round=1),
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "encode_ms.p50": "ms",
    "full.update_ms.p50": "ms",
    "pie.update_ms.p50": "ms",
    "conflict_fast.update_ms.p50": "ms",
    "full.first_token_ms.p50": "ms",
    "pie.first_token_ms.p50": "ms",
    "pie.first_token_ms.p75": "ms",
    "decode_tok_s": "tok/s",
    "pie.token_match_pct": "%",
    "peak_rss_mb": "MB",
}


@dataclass
class Record:
    """Samples and operation tallies of one measured phase.

    Every operation counts once in `attempted`: a timed call or a check
    when it completes, an exception (see Run.loop) when one is raised.
    """
    samples: dict = field(default_factory=dict)
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    kl: list = field(default_factory=list)
    matched: int = 0
    decoded: int = 0
    deferred: list = field(default_factory=list)    # (edited tokens, full probe logits)
    cache_bytes: list = field(default_factory=list)  # (reserved, used) per request

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] += 1

    def timed(self, fn, *args):
        """Call fn as one operation; returns (its result, its wall ms)."""
        t0 = time.perf_counter()
        out = fn(*args)
        ms = (time.perf_counter() - t0) * 1e3
        self.attempted += 1
        return out, ms


def layer0_diff(a, b) -> float:
    """Largest absolute difference of two caches' layer-0 keys."""
    n = a.logical_len
    return float(np.max(np.abs(a.keys[0, :n] - b.keys[0, :n])))


class Run:
    """A built workload: model, context, pre-edit cache and generated edits."""

    def __init__(self, wl: Workload, seed: int, rec: Record):
        self.wl = wl
        self.model = init_model(ModelConfig(seed=0))
        self.context = edits.build_context(wl.context_len)
        if wl.chain_len:
            self.chains = edits.session_chains(self.context, seed, wl.pool, wl.chain_len)
        else:
            self.edits = edits.independent_edits(self.context, seed, wl.pool)
        (self.cache, _), ms = rec.timed(self.model.encode, self.context)
        rec.add("encode_ms", ms)

    # -- one edit ---------------------------------------------------------------

    def edit(self, rec: Record, full_pre, pie_pre, seq, script, index: int):
        """Apply one edit with every strategy, each timed once and probed;
        returns the updated full and pie caches and the edited tokens."""
        model = self.model
        edited = cache_edit.apply_edit_tokens(seq, script)
        op = script.ops[0]
        last = edited[-1]
        shifted = model.config.n_layers * (len(seq) - op.end) if op.delta else 0
        out = {}
        for strategy, pre, recomputed, rotated in (
                ("full", full_pre, len(edited) - op.start, 0),
                ("pie", pie_pre, len(op.new_tokens), shifted),
                ("conflict_fast", full_pre, len(op.new_tokens), 0)):
            (cache, timing), ms = rec.timed(getattr(cache_edit, UPDATE[strategy]),
                                            model, pre, seq, script)
            logits, probe = rec.timed(model.next_logits, cache, last)
            rec.add(f"{strategy}.update_ms", ms)
            rec.add(f"{strategy}.probe_ms", probe)
            rec.add(f"{strategy}.first_token_ms", ms + probe)
            rec.add(f"{strategy}.library_update_ms", timing.update_ms)
            self._check_cache(rec, strategy, cache, edited, timing, recomputed, rotated)
            out[strategy] = cache, logits
        (full, full_logits), (pie, pie_logits) = out["full"], out["pie"]
        rec.check(pie.positionally_consistent, "pie cache not consistent")
        rec.check(out["conflict_fast"][0].positionally_consistent == (shifted == 0),
                  "conflict_fast consistency flag wrong")
        if pie_pre is full_pre:
            rec.check(layer0_diff(pie, full) <= LAYER0_TOL, "pie layer-0 keys differ from full")
        else:  # a chain's pie cache drifts from full's as float32 rotations add up
            rec.add("pie.chain_layer0_diff", layer0_diff(pie, full))
        if index % CHECK_EVERY == 0:
            rec.deferred.append((edited, full_logits))
        rec.kl.append(kl_divergence(softmax_rows(full_logits), softmax_rows(pie_logits)))
        return full, pie, edited

    def _check_cache(self, rec, strategy, cache, edited, timing, recomputed, rotated):
        rec.check(cache.logical_len == len(edited), f"{strategy} cache length")
        rec.check(timing.recomputed_tokens == recomputed, f"{strategy} recomputed_tokens")
        rec.check(timing.rotated_keys == rotated, f"{strategy} rotated_keys")

    def decode(self, rec: Record, full, pie, last: int) -> None:
        """Greedy continuation from both caches: decode speed, token match, KL."""
        n = self.wl.n_decode
        (toks, dists), ms = rec.timed(self.model.generate_greedy, pie, last, n, True)
        rec.add("decode_ms", ms)
        rec.add("decode_tok_s", n / (ms / 1e3))
        rec.cache_bytes.append((pie.keys.nbytes + pie.values.nbytes,
                                2 * pie.logical_len * pie.keys[0, 0].nbytes * pie.n_layers))
        (ref_toks, ref_dists), ms = rec.timed(self.model.generate_greedy, full, last, n, True)
        rec.add("full.decode_ms", ms)
        same = 0
        while same < n and toks[same] == ref_toks[same]:
            same += 1
        rec.matched += sum(a == b for a, b in zip(toks, ref_toks))
        rec.decoded += n
        # distributions are comparable while both continuations share a prefix;
        # step 0 is the probe, already counted by edit()
        for p, q in zip(ref_dists[1:same + 1], dists[1:same + 1]):
            rec.kl.append(kl_divergence(p, q))

    # -- requests -----------------------------------------------------------------

    def request(self, rec: Record, index: int) -> None:
        """One independent edit of the shared pre-edit cache, then a continuation."""
        script = self.edits[index % len(self.edits)]
        full, pie, edited = self.edit(rec, self.cache, self.cache, self.context, script, index)
        self.decode(rec, full, pie, edited[-1])

    def session(self, rec: Record, index: int) -> None:
        """One chain of edits, each on the previous update's output."""
        chain = self.chains[index % len(self.chains)]
        (cache, _), ms = rec.timed(self.model.encode, self.context)
        rec.add("encode_ms", ms)
        full = pie = cache
        seq = self.context
        for i, script in enumerate(chain):
            full, pie, seq = self.edit(rec, full, pie, seq, script, index * len(chain) + i)
        fresh, fresh_logits = self.model.encode(seq)
        n = len(seq)
        rec.check(all(np.max(np.abs(a[:, :n] - b[:, :n])) <= CACHE_TOL
                      for a, b in ((full.keys, fresh.keys), (full.values, fresh.values))),
                  "chained full cache differs from a fresh encode")
        rec.check(np.max(np.abs(self.model.next_logits(full, seq[-1]) - fresh_logits))
                  <= LOGIT_TOL, "chained full probe differs from a fresh encode")
        self.decode(rec, full, pie, seq[-1])

    def warm_up(self) -> None:
        """One untimed request with a fixed edit near the end of the context,
        so set-up costs the same for every seed; it grows the rotary table
        past every position the run reaches."""
        scratch = Record()
        script = edits.make_edit(self.context, 0.999, np.random.default_rng(0),
                                 edits.corpus_lines(), "insert")
        full, pie, edited = self.edit(scratch, self.cache, self.cache, self.context, script, 1)
        self.decode(scratch, full, pie, edited[-1])

    def loop(self, rec: Record, seconds: float, tracer=None) -> None:
        """Closed loop: the next request starts when the previous one returns.

        Runs whole rounds: the first 16, 32, 48, ... edits each cover the
        document evenly, and a round is long enough that the machine's
        speed seldom changes how many requests a run makes.
        """
        deadline = time.perf_counter() + seconds
        index = 0
        while index % self.wl.round or index == 0 or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.request = index
                with tracer.span("request"):
                    self._guarded(rec, index)
            else:
                self._guarded(rec, index)
            index += 1
        rec.requests += index

    def _guarded(self, rec, index):
        """One request. An exception is one attempted and failed operation; the
        request's remaining operations are not attempted, and the loop goes on."""
        try:
            (self.session if self.wl.chain_len else self.request)(rec, index)
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            rec.attempted += 1
            rec.fail(f"{type(e).__name__}: {e}")

    def verify_deferred(self, rec: Record) -> None:
        """Sampled edits: full's probe against a fresh encode of the edited text."""
        for edited, logits in rec.deferred:
            _, fresh = self.model.encode(edited)
            rec.check(np.max(np.abs(logits - fresh)) <= LOGIT_TOL,
                      "full probe differs from a fresh encode")
        rec.deferred.clear()


def build(wl: Workload, seed: int, rec: Record) -> Run:
    """Set-up: model, context, edits, pre-edit encode and a warm-up request."""
    run = Run(wl, seed, rec)
    run.warm_up()
    return run


# -- metrics ---------------------------------------------------------------------

def pct(values, q: float) -> float:
    return float(np.percentile(values, q))


def tail_label(n: int) -> tuple[str, float]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", q
    return "p50", 50


# end-to-end metric -> (sample series, percentile)
SERIES = {
    "encode_ms.p50": ("encode_ms", 50),
    "full.update_ms.p50": ("full.update_ms", 50),
    "pie.update_ms.p50": ("pie.update_ms", 50),
    "conflict_fast.update_ms.p50": ("conflict_fast.update_ms", 50),
    "full.first_token_ms.p50": ("full.first_token_ms", 50),
    "pie.first_token_ms.p50": ("pie.first_token_ms", 50),
    "pie.first_token_ms.p75": ("pie.first_token_ms", 75),
    "decode_tok_s": ("decode_tok_s", 50),
}


def end_to_end(rec: Record, setup_s: float, setups: int) -> tuple[dict, dict]:
    """(value, sample count) of every END_TO_END metric."""
    values = {name: pct(rec.samples[key], q) for name, (key, q) in SERIES.items()}
    counts = {name: len(rec.samples[key]) for name, (key, _) in SERIES.items()}
    values["setup_s"] = setup_s
    values["pie.token_match_pct"] = 100.0 * rec.matched / rec.decoded
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts.update({"setup_s": setups, "pie.token_match_pct": rec.decoded, "peak_rss_mb": 1})
    return {k: values[k] for k in END_TO_END}, counts


def quality(rec: Record) -> dict:
    """KL(full || pie) over every next-token distribution drawn from both caches.

    Per-edit KL spans orders of magnitude, so its mean over one run moves
    by tens of percent between seeds; it is reported here and as a
    per-layer metric of the traced run, not as a bounded end-to-end metric.
    """
    return {"pie.kl_vs_full": {"mean": float(np.mean(rec.kl)),
                               "p50": float(np.median(rec.kl)), "n": len(rec.kl)},
            "pie.token_match": {"matched": rec.matched, "decoded": rec.decoded}}


def tails(rec: Record) -> dict:
    """Median and the highest well-supported percentile of every timed series."""
    out = {}
    for key, values in sorted(rec.samples.items()):
        label, q = tail_label(len(values))
        out[key] = {"n": len(values), "p50": statistics.median(values), label: pct(values, q)}
    return out


# -- per-layer metrics from the traced phase -----------------------------------------

PER_LAYER = {  # name -> unit
    "diagnostics.pie.kl_vs_full": "nats",
    "cache_edit.update_full.self_ms": "ms",
    "cache_edit.update_pie.self_ms": "ms",
    "cache_edit.update_conflict_fast.self_ms": "ms",
    "cache_edit.full.recomputed_tokens": "count",
    "cache_edit.pie.recomputed_tokens": "count",
    "cache_edit.conflict_fast.recomputed_tokens": "count",
    "cache_edit.pie.rotated_keys": "count",
    "cache_edit.full.useful_recompute_ratio": "ratio",
    "cache_edit.pie.useful_recompute_ratio": "ratio",
    "cache_edit.update_full.extend_cache_share": "ratio",
    "cache_edit.update_pie.rotate_copy_share": "ratio",
    "model.encode.ms": "ms",
    "model.encode.tokens": "count",
    "model.extend_cache.calls": "count",
    "model.extend_cache.tokens": "count",
    "model.extend_cache.self_ms": "ms",
    "model.next_logits.self_ms": "ms",
    "model.decode_step.calls": "count",
    "model.decode_step.self_ms": "ms",
    "model.decode_step.pie_path_share": "ratio",
    "rope.rotate_segment.calls": "count",
    "rope.rotate_segment.keys": "count",
    "rope.rotate_segment.ms": "ms",
    "rope.rotate_segment.bytes": "B",
    "rope.rotate_block.rows": "count",
    "rope.rotate_block.ms": "ms",
    "kv_cache.segment.ms": "ms",
    "kv_cache.segment.bytes": "B",
    "kv_cache.append_segment.ms": "ms",
    "kv_cache.append_segment.bytes": "B",
    "kv_cache.grow.count": "count",
    "kv_cache.grow.bytes": "B",
    "kv_cache.bytes_reserved": "B",
    "kv_cache.bytes_used": "B",
    "tensor_core.softmax_rows.calls": "count",
    "tensor_core.softmax_rows.ms": "ms",
    "tensor_core.softmax_rows.bytes": "B",
    "tensor_core.gelu.ms": "ms",
    "scenarios.tile_document.ms": "ms",
    "scenarios.tokenize.ms": "ms",
}

# per-layer metric -> (span name, field); the value is the median over
# requests of the per-request total
PER_REQUEST = {
    "model.extend_cache.calls": ("model.extend_cache", "calls"),
    "model.extend_cache.tokens": ("model.extend_cache", "tokens"),
    "model.extend_cache.self_ms": ("model.extend_cache", "self_ms"),
    "model.next_logits.self_ms": ("model.next_logits", "self_ms"),
    "model.decode_step.calls": ("model.decode_step", "calls"),
    "model.decode_step.self_ms": ("model.decode_step", "self_ms"),
    "rope.rotate_segment.calls": ("rope.rotate_segment", "calls"),
    "rope.rotate_segment.keys": ("rope.rotate_segment", "keys"),
    "rope.rotate_segment.ms": ("rope.rotate_segment", "ms"),
    "rope.rotate_segment.bytes": ("rope.rotate_segment", "bytes"),
    "rope.rotate_block.rows": ("rope.rotate_block", "rows"),
    "rope.rotate_block.ms": ("rope.rotate_block", "ms"),
    "kv_cache.segment.ms": ("kv_cache.segment", "ms"),
    "kv_cache.segment.bytes": ("kv_cache.segment", "bytes"),
    "kv_cache.append_segment.ms": ("kv_cache.append_segment", "ms"),
    "kv_cache.append_segment.bytes": ("kv_cache.append_segment", "bytes"),
    "tensor_core.softmax_rows.calls": ("tensor_core.softmax_rows", "calls"),
    "tensor_core.softmax_rows.ms": ("tensor_core.softmax_rows", "ms"),
    "tensor_core.softmax_rows.bytes": ("tensor_core.softmax_rows", "bytes"),
    "tensor_core.gelu.ms": ("tensor_core.gelu", "ms"),
}

GROW_SPANS = ("model.extend_cache", "model.decode_step", "kv_cache.append_segment")


def per_layer(tracer, rec: Record) -> dict:
    all_spans = tracer.spans
    self_s = spans.self_times(all_spans)
    table = spans.per_request(all_spans, self_s)
    requests = [r for r in table if r is not None]
    setup_rows = table[None]

    def median_of(name, fld):
        return statistics.median(table[r][name][fld] for r in requests)

    out = {key: median_of(*src) for key, src in PER_REQUEST.items()}
    out["kv_cache.grow.count"] = statistics.median(
        sum(table[r][n]["grow"] for n in GROW_SPANS) for r in requests)
    out["kv_cache.grow.bytes"] = statistics.median(
        sum(table[r][n]["grow_bytes"] for n in GROW_SPANS) for r in requests)

    updates = {s: [(sp, own) for sp, own in zip(all_spans, self_s)
                   if sp[spans.NAME] == f"cache_edit.update_{s}"] for s in STRATEGIES}
    for s in STRATEGIES:
        calls = updates[s]
        out[f"cache_edit.update_{s}.self_ms"] = statistics.median(own * 1e3 for _, own in calls)
        out[f"cache_edit.{s}.recomputed_tokens"] = statistics.median(
            sp[spans.COUNTS]["recomputed_tokens"] for sp, _ in calls)
    out["cache_edit.pie.rotated_keys"] = statistics.median(
        sp[spans.COUNTS]["rotated_keys"] for sp, _ in updates["pie"])
    for s in ("full", "pie"):
        useful = sum(sp[spans.COUNTS]["new_tokens"] for sp, _ in updates[s])
        spent = sum(sp[spans.COUNTS]["recomputed_tokens"] for sp, _ in updates[s])
        # a run of pure deletions recomputes nothing and wastes nothing
        out[f"cache_edit.{s}.useful_recompute_ratio"] = useful / spent if spent else 1.0

    total, extend = spans.child_ms(all_spans, "cache_edit.update_full", {"model.extend_cache"})
    out["cache_edit.update_full.extend_cache_share"] = extend / total
    total, extend = spans.child_ms(all_spans, "cache_edit.update_pie", {"model.extend_cache"})
    _, copies = spans.child_ms(all_spans, "cache_edit.update_pie",
                               {"rope.rotate_segment", "kv_cache.segment",
                                "kv_cache.append_segment"})
    out["cache_edit.update_pie.rotate_copy_share"] = copies / (total - extend)
    out["model.decode_step.pie_path_share"] = spans.pie_path_share(all_spans)

    out["model.encode.ms"] = setup_rows["model.encode"]["ms"]
    out["model.encode.tokens"] = setup_rows["model.encode"]["tokens"]
    out["scenarios.tile_document.ms"] = setup_rows["scenarios.tile_document"]["ms"]
    out["scenarios.tokenize.ms"] = setup_rows["scenarios.tokenize"]["ms"]
    out["diagnostics.pie.kl_vs_full"] = np.mean(rec.kl)
    out["kv_cache.bytes_reserved"] = statistics.median(r for r, _ in rec.cache_bytes)
    out["kv_cache.bytes_used"] = statistics.median(u for _, u in rec.cache_bytes)
    return {k: float(out[k]) for k in PER_LAYER}


def check_counters(tracer, rec: Record) -> None:
    """UpdateTiming's counters against what the layers below saw in each update.

    Tokens passed to model.extend_cache must sum to recomputed_tokens, and
    keys rotated by rope.rotate_segment to rotated_keys.
    """
    all_spans = tracer.spans
    seen: dict = {}
    for sp in all_spans:
        parent = sp[spans.PARENT]
        if parent >= 0 and sp[spans.NAME] in ("model.extend_cache", "rope.rotate_segment"):
            tally = seen.setdefault(parent, {"tokens": 0, "keys": 0})
            for key in tally:
                tally[key] += sp[spans.COUNTS].get(key, 0)
    for i, sp in enumerate(all_spans):
        if sp[spans.NAME].startswith("cache_edit.update_"):
            tally = seen.get(i, {"tokens": 0, "keys": 0})
            rec.check(tally["tokens"] == sp[spans.COUNTS]["recomputed_tokens"],
                      f"{sp[spans.NAME]}: extend_cache tokens != recomputed_tokens")
            rec.check(tally["keys"] == sp[spans.COUNTS]["rotated_keys"],
                      f"{sp[spans.NAME]}: rotate_segment keys != rotated_keys")
