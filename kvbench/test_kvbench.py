"""Tests of the benchmark's own code.

    python3 -m pytest kvbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kvedit import cache_edit
from kvedit import model as kv_model
from kvedit.cache_edit import apply_edit_tokens

import bench
import edits
import run
import spans

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "independent": bench.Workload("tiny", 256, n_decode=4, pool=8, round=2),
    "session": bench.Workload("tiny-session", 256, n_decode=4, chain_len=5, pool=4, round=1),
}
# stands in for run.cold_setups, which can only start the named workloads;
# test_cold_setup_times_a_fresh_interpreter runs a real one
COLD = [{"setup_s": 1.0, "encode_ms": 2.0}]


def tiny_report(kind: str, trace: bool) -> dict:
    return run.measure(bench, TINY[kind], seed=3, seconds=0.3, trace=trace, cold=COLD)


def test_same_seed_gives_identical_scripts():
    ctx = edits.build_context(1024)

    def stream(seed):
        flat = edits.independent_edits(ctx, seed, 40)
        flat += [s for chain in edits.session_chains(ctx, seed, 3, 10) for s in chain]
        return repr([[(op.start, op.end, op.new_tokens) for op in s.ops] for s in flat]).encode()

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_edits_are_line_aligned_and_spare_the_last_line():
    ctx = edits.build_context(4096)
    bounds = set(edits.line_bounds(ctx))
    for script in edits.independent_edits(ctx, 5, 200):
        (op,) = script.ops
        assert op.start in bounds and op.end in bounds
        assert apply_edit_tokens(ctx, script)[-1] == ctx[-1]


def test_session_length_stays_in_band():
    ctx = edits.build_context(1024)
    for seed in range(6):
        for chain in edits.session_chains(ctx, seed, 4, 30):
            seq = ctx
            for script in chain:
                seq = apply_edit_tokens(seq, script)
                assert 768 <= len(seq) <= 1280


@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_match_benchmark_json(trace):
    report = tiny_report("independent", trace)
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in report["metrics"].values())


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_has_no_failed_operations(kind, trace):
    ops = tiny_report(kind, trace)["operations"]
    assert ops["attempted"] > 0
    assert ops["failed"] == 0, ops["failures"]


def test_checks_catch_a_pie_that_does_not_rotate(monkeypatch):
    monkeypatch.setattr(cache_edit, "update_pie", cache_edit.update_conflict_fast)
    ops = tiny_report("independent", trace=False)["operations"]
    assert ops["failed"] > 0
    assert {"pie rotated_keys", "pie cache not consistent",
            "pie layer-0 keys differ from full"} <= set(ops["failures"])


@pytest.mark.parametrize("kind, caught", [
    ("independent", "full probe differs from a fresh encode"),
    ("session", "chained full cache differs from a fresh encode"),
])
def test_checks_catch_a_wrong_full_cache(monkeypatch, kind, caught):
    exact = cache_edit.update_full_recompute

    def perturbed(model, pre_cache, pre_seq, script):
        post, timing = exact(model, pre_cache, pre_seq, script)
        post.keys[:, post.logical_len - 1] += 1.0
        return post, timing

    monkeypatch.setattr(cache_edit, "update_full_recompute", perturbed)
    ops = tiny_report(kind, trace=False)["operations"]
    assert {caught, "pie layer-0 keys differ from full"} <= set(ops["failures"])


def test_an_exception_is_one_failed_operation(monkeypatch):
    rec = bench.Record()
    runner = bench.build(TINY["independent"], 3, rec)

    def broken(*args):
        raise RuntimeError("broken update")

    monkeypatch.setattr(cache_edit, "update_full_recompute", broken)
    before = rec.attempted
    runner.loop(rec, 0.0)          # one round: two requests, each fails at its first call
    assert rec.requests == 2
    assert rec.attempted - before == 2
    assert rec.failed == 2
    assert rec.failures == {"RuntimeError: broken update": 2}


def test_cold_setup_times_a_fresh_interpreter():
    (cold,) = run.cold_setups("session-1k", 3, 1)
    assert 0 < cold["encode_ms"] / 1e3 < cold["setup_s"] < 60


def test_traced_spans_nest_inside_their_parents():
    original = cache_edit.update_pie, kv_model.ToyDecoder.extend_cache
    report = tiny_report("session", trace=True)
    assert (cache_edit.update_pie, kv_model.ToyDecoder.extend_cache) == original  # unwrapped
    all_spans = report["spans"]
    self_s = spans.self_times(all_spans)
    names = {s[spans.NAME] for s in all_spans}
    assert {"request", "cache_edit.update_pie", "rope.rotate_segment",
            "model.decode_step", "model.encode"} <= names
    for s, own in zip(all_spans, self_s):
        assert s[spans.END] >= s[spans.START]
        assert own >= 0
        if s[spans.PARENT] >= 0:
            parent = all_spans[s[spans.PARENT]]
            assert parent[spans.START] <= s[spans.START] <= s[spans.END] <= parent[spans.END]
            assert parent[spans.REQUEST] == s[spans.REQUEST]
    # decode_step's internal extend_cache call is folded into decode_step
    assert not any(s[spans.NAME] == "model.extend_cache" and s[spans.PARENT] >= 0
                   and all_spans[s[spans.PARENT]][spans.NAME] == "model.decode_step"
                   for s in all_spans)


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "kvbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "kvbench/run.py", "--workload", "edit-4k",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
