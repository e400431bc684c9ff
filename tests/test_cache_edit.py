import numpy as np
import pytest

from kvedit import (STRATEGIES, CacheError, EditOp, EditScript, ScriptError,
                    apply_edit_tokens, dump_script_jsonl, kl_divergence, load_script_jsonl,
                    random_script, update_conflict_fast, update_full_recompute, update_pie,
                    update_reuse)
from kvedit.kv_cache import HEADROOM
from tests.conftest import TINY


def seqs(rng, n, vocab=TINY.vocab_size):
    return [int(t) for t in rng.integers(0, vocab, n)]


def cache_arrays(cache):
    return (cache.keys[:, :cache.logical_len], cache.values[:, :cache.logical_len])


def caches_equal(a, b):
    ka, va = cache_arrays(a)
    kb, vb = cache_arrays(b)
    return a.logical_len == b.logical_len and np.array_equal(ka, kb) and np.array_equal(va, vb)


def fold_pie(model, pre_cache, pre_seq, script):
    """Apply a k-op script one op at a time, re-basing indices after each."""
    cache, seq, shift = pre_cache, list(pre_seq), 0
    for op in script.ops:
        one = EditScript((EditOp(op.start + shift, op.end + shift, op.new_tokens),))
        cache, _ = update_pie(model, cache, seq, one)
        seq = apply_edit_tokens(seq, one)
        shift += op.delta
    return cache, seq


class TestEditTypes:
    def test_delta(self):
        assert EditOp(2, 5, (1, 2)).delta == -1
        assert EditOp(3, 3, (1, 2, 3)).delta == 3
        assert EditOp(1, 4).delta == -3

    def test_bad_span(self):
        with pytest.raises(ScriptError):
            EditOp(4, 2)

    def test_overlap_rejected(self):
        with pytest.raises(ScriptError, match="op 1"):
            EditScript((EditOp(0, 4), EditOp(3, 6)))

    def test_unsorted_rejected(self):
        with pytest.raises(ScriptError):
            EditScript((EditOp(5, 6), EditOp(0, 2)))

    def test_equal_starts_rejected(self):
        with pytest.raises(ScriptError):
            EditScript((EditOp(2, 2, (1,)), EditOp(2, 4)))

    def test_out_of_range(self):
        with pytest.raises(ScriptError, match="op 0"):
            EditScript((EditOp(0, 9),)).validate(5)


class TestApplyEditTokens:
    def test_empty_script_is_identity(self):
        seq = [1, 2, 3]
        assert apply_edit_tokens(seq, EditScript()) == seq

    def test_five_token_insertion(self):
        # 5 tokens, insert 3 between the 2nd and 3rd: the old tail lands at 5,6,7
        seq = [10, 11, 12, 13, 14]
        out = apply_edit_tokens(seq, EditScript((EditOp(2, 2, (20, 21, 22)),)))
        assert out == [10, 11, 20, 21, 22, 12, 13, 14]
        assert len(out) == 8
        assert out[5:8] == [12, 13, 14]

    def test_deletion(self):
        out = apply_edit_tokens([0, 1, 2, 3, 4], EditScript((EditOp(1, 3),)))
        assert out == [0, 3, 4]

    def test_multi_op_splice(self):
        script = EditScript((EditOp(1, 2, (9,)), EditOp(4, 4, (7, 7))))
        assert apply_edit_tokens([0, 1, 2, 3, 4], script) == [0, 9, 2, 3, 7, 7, 4]


class TestFullRecompute:
    def test_identity_script_is_noop(self, tiny_model, rng):
        seq = seqs(rng, 20)
        pre, _ = tiny_model.encode(seq)
        post, timing = update_full_recompute(tiny_model, pre, seq, EditScript())
        assert caches_equal(post, pre)
        assert timing.recomputed_tokens == 0

    def test_fresh_encode_oracle(self, tiny_model, rng):
        for _ in range(5):
            seq = seqs(rng, int(rng.integers(8, 48)))
            script = random_script(len(seq), rng, vocab_size=TINY.vocab_size)
            pre, _ = tiny_model.encode(seq)
            post, _ = update_full_recompute(tiny_model, pre, seq, script)
            edited = apply_edit_tokens(seq, script)
            fresh, fresh_logits = tiny_model.encode(edited)
            np.testing.assert_allclose(cache_arrays(post)[0], cache_arrays(fresh)[0],
                                       atol=1e-5)
            np.testing.assert_allclose(cache_arrays(post)[1], cache_arrays(fresh)[1],
                                       atol=1e-5)
            logits = tiny_model.next_logits(post, edited[-1])
            np.testing.assert_allclose(logits, fresh_logits, atol=1e-4)

    def test_recomputed_token_accounting(self, tiny_model, rng):
        seq = seqs(rng, 30)
        script = EditScript((EditOp(12, 14, (1, 2, 3)),))
        pre, _ = tiny_model.encode(seq)
        _, timing = update_full_recompute(tiny_model, pre, seq, script)
        assert timing.recomputed_tokens == (30 + script.net_delta) - 12

    def test_cache_length_mismatch(self, tiny_model, rng):
        seq = seqs(rng, 10)
        pre, _ = tiny_model.encode(seq[:8])
        with pytest.raises(CacheError):
            update_full_recompute(tiny_model, pre, seq, EditScript())


class TestConflictFast:
    def test_delta_zero_identical_to_pie(self, tiny_model, rng):
        seq = seqs(rng, 32)
        script = EditScript((EditOp(4, 7, tuple(seqs(rng, 3))),
                             EditOp(15, 17, tuple(seqs(rng, 2)))))
        pre, _ = tiny_model.encode(seq)
        cfe, _ = update_conflict_fast(tiny_model, pre, seq, script)
        pie, _ = update_pie(tiny_model, pre, seq, script)
        assert caches_equal(cfe, pie)
        assert cfe.positionally_consistent  # no shift ever happened

    def test_stale_rotation_detectable_at_layer_zero(self, tiny_model, rng):
        seq = seqs(rng, 40)
        ins = tuple(seqs(rng, 6))
        script = EditScript((EditOp(10, 10, ins),))
        pre, _ = tiny_model.encode(seq)
        cfe, _ = update_conflict_fast(tiny_model, pre, seq, script)
        full, _ = update_full_recompute(tiny_model, pre, seq, script)
        suffix = slice(16, cfe.logical_len)  # retained tail in post-edit coords
        assert not np.allclose(cfe.keys[0, suffix], full.keys[0, suffix], atol=1e-4)
        # rotate-by-delta oracle: layer-0 keys only miss the position shift
        repaired = tiny_model.rope.rotate_segment(cfe.keys[0, suffix], script.net_delta)
        np.testing.assert_allclose(repaired, full.keys[0, suffix], atol=1e-5)
        assert not cfe.positionally_consistent

    def test_recomputed_token_accounting(self, tiny_model, rng):
        seq = seqs(rng, 25)
        script = EditScript((EditOp(3, 5, (1, 2, 3)), EditOp(10, 10, (4,))))
        pre, _ = tiny_model.encode(seq)
        _, timing = update_conflict_fast(tiny_model, pre, seq, script)
        assert timing.recomputed_tokens == 4
        assert timing.rotated_keys == 0


class TestReuse:
    def test_bit_identical_and_independent(self, tiny_model, rng):
        seq = seqs(rng, 18)
        pre, _ = tiny_model.encode(seq)
        out, timing = update_reuse(tiny_model, pre, seq, EditScript((EditOp(2, 9),)))
        assert caches_equal(out, pre)
        assert out.logical_len == pre.logical_len
        assert timing.recomputed_tokens == timing.rotated_keys == 0
        tiny_model.decode_step(out, 1)  # appending must not touch the original
        assert pre.logical_len == 18
        with pytest.raises(ScriptError):  # validated like the other strategies
            update_reuse(tiny_model, pre, seq, EditScript((EditOp(2, 40),)))
        with pytest.raises(CacheError):
            update_reuse(tiny_model, pre, seq[:-1], EditScript())

    def test_positive_kl_downstream(self, tiny_model, rng):
        seq = seqs(rng, 48)
        script = EditScript((EditOp(8, 8, tuple(seqs(rng, 10))),))
        pre, _ = tiny_model.encode(seq)
        full, _ = update_full_recompute(tiny_model, pre, seq, script)
        reused, _ = update_reuse(tiny_model, pre, seq, script)
        edited = apply_edit_tokens(seq, script)
        _, d_full = tiny_model.generate_greedy(full.copy(), edited[-1], 8,
                                               return_distributions=True)
        _, d_reuse = tiny_model.generate_greedy(reused.copy(), seq[-1], 8,
                                                return_distributions=True)
        mean_kl = np.mean([kl_divergence(p, q) for p, q in zip(d_full, d_reuse)])
        assert mean_kl > 0


class TestConsistencyFlag:
    """A stale row left by conflict_fast keeps a cache flagged through later
    updates that retain any of its rows."""

    @pytest.mark.parametrize("update, op, consistent", [
        (update_conflict_fast, EditOp(150, 152, (1, 2)), False),  # delta 0
        (update_pie, EditOp(150, 150, (1, 2)), False),
        (update_full_recompute, EditOp(200, 200, (1,)), False),
        (update_full_recompute, EditOp(0, 0, (1,)), True),
        # replacing all of [0, 303) retains no row of the flagged cache
        (update_pie, EditOp(0, 303, (1, 2)), True),
        (update_conflict_fast, EditOp(0, 303, (1, 2, 3, 4)), True),
    ], ids=["conflict_fast_delta0", "pie", "full_from_200", "full_from_0",
            "pie_whole_sequence", "conflict_fast_whole_sequence"])
    def test_chain_after_shifting_conflict_fast(self, tiny_model, rng, update, op,
                                                consistent):
        seq = seqs(rng, 300)
        pre, _ = tiny_model.encode(seq)
        first = EditScript((EditOp(100, 100, (5, 6, 7)),))
        stale, _ = update_conflict_fast(tiny_model, pre, seq, first)
        assert not stale.positionally_consistent
        post, _ = update(tiny_model, stale, apply_edit_tokens(seq, first),
                         EditScript((op,)))
        assert post.positionally_consistent is consistent


class TestPie:
    def test_identity_replacement_self_oracle(self, tiny_model, rng):
        seq = seqs(rng, 36)
        i, j = 12, 18
        script = EditScript((EditOp(i, j, tuple(seq[i:j])),))
        pre, _ = tiny_model.encode(seq)
        post, _ = update_pie(tiny_model, pre, seq, script)
        assert post.logical_len == 36
        assert np.array_equal(post.keys[:, :i], pre.keys[:, :i])
        assert np.array_equal(post.keys[:, j:36], pre.keys[:, j:36])
        assert np.array_equal(post.values[:, j:36], pre.values[:, j:36])
        np.testing.assert_allclose(post.keys[:, i:j], pre.keys[:, i:j], atol=1e-5)
        np.testing.assert_allclose(post.values[:, i:j], pre.values[:, i:j], atol=1e-5)

    def test_layer_zero_exactness(self, tiny_model, rng):
        for _ in range(5):
            seq = seqs(rng, int(rng.integers(10, 60)))
            script = random_script(len(seq), rng, vocab_size=TINY.vocab_size)
            pre, _ = tiny_model.encode(seq)
            pie, _ = update_pie(tiny_model, pre, seq, script)
            full, _ = update_full_recompute(tiny_model, pre, seq, script)
            np.testing.assert_allclose(pie.keys[0, :pie.logical_len],
                                       full.keys[0, :full.logical_len], atol=1e-6)

    def test_suffix_key_norms_preserved(self, tiny_model, rng):
        seq = seqs(rng, 40)
        script = EditScript((EditOp(5, 9, tuple(seqs(rng, 11))),))
        pre, _ = tiny_model.encode(seq)
        pie, _ = update_pie(tiny_model, pre, seq, script)
        pre_suffix = np.linalg.norm(pre.keys[:, 9:40], axis=-1)
        post_suffix = np.linalg.norm(pie.keys[:, 16:47], axis=-1)
        np.testing.assert_allclose(post_suffix, pre_suffix, atol=1e-6)

    def test_composition_deltas_sum(self, tiny_model, rng):
        seq = seqs(rng, 30)
        pre, _ = tiny_model.encode(seq)
        a = EditScript((EditOp(4, 4, tuple(seqs(rng, 3))),))    # delta +3
        after_a, _ = update_pie(tiny_model, pre, seq, a)
        seq_a = apply_edit_tokens(seq, a)
        b = EditScript((EditOp(10, 15),))                       # delta -5
        after_b, _ = update_pie(tiny_model, after_a, seq_a, b)
        # position 20 of the original survives both edits; net shift is -2
        expected = tiny_model.rope.rotate_segment(pre.keys[:, 20:30], -2)
        np.testing.assert_allclose(after_b.keys[:, 18:28], expected, atol=1e-6)

    def test_sequential_fold_equivalence(self, tiny_model, rng):
        for _ in range(4):
            seq = seqs(rng, int(rng.integers(20, 60)))
            script = random_script(len(seq), rng, max_ops=4, vocab_size=TINY.vocab_size)
            pre, _ = tiny_model.encode(seq)
            single, _ = update_pie(tiny_model, pre, seq, script)
            folded, folded_seq = fold_pie(tiny_model, pre, seq, script)
            assert folded.logical_len == single.logical_len == len(folded_seq)
            sk, sv = cache_arrays(single)
            fk, fv = cache_arrays(folded)
            np.testing.assert_allclose(fk, sk, atol=1e-5)
            np.testing.assert_allclose(fv, sv, atol=1e-5)

    def test_cost_accounting(self, tiny_model, rng):
        seq = seqs(rng, 40)
        # segment [8, 20) rides at cumulative delta +2; [22, 40) nets back to 0,
        # so only the first retained segment needs (and is charged) rotation work
        script = EditScript((EditOp(5, 8, tuple(seqs(rng, 5))),
                             EditOp(20, 22),))
        pre, _ = tiny_model.encode(seq)
        pie, timing = update_pie(tiny_model, pre, seq, script)
        assert timing.recomputed_tokens == 5
        assert timing.rotated_keys == TINY.n_layers * 12
        assert pie.positionally_consistent

    def test_edit_at_end_and_start(self, tiny_model, rng):
        seq = seqs(rng, 16)
        pre, _ = tiny_model.encode(seq)
        tail, t1 = update_pie(tiny_model, pre, seq,
                              EditScript((EditOp(16, 16, (1, 2)),)))
        assert tail.logical_len == 18 and t1.rotated_keys == 0
        head, _ = update_pie(tiny_model, pre, seq,
                             EditScript((EditOp(0, 0, (3,)),)))
        assert head.logical_len == 17

    def test_pure_deletion_no_forward_pass(self, tiny_model, rng):
        seq = seqs(rng, 20)
        pre, _ = tiny_model.encode(seq)
        post, timing = update_pie(tiny_model, pre, seq, EditScript((EditOp(4, 9),)))
        assert timing.recomputed_tokens == 0
        assert timing.rotated_keys == TINY.n_layers * 11
        assert post.logical_len == 15


SPLICE = EditScript((EditOp(10, 14, (1, 2, 3, 4, 5, 6)),))


def built_cache(model, rng, source):
    """(cache, its tokens) as encode, copy() or one strategy's update returns it."""
    seq = seqs(rng, 40)
    cache, _ = model.encode(seq)
    if source == "copy":
        return cache.copy(), seq
    if source in STRATEGIES:
        post, _ = STRATEGIES[source](model, cache, seq, SPLICE)
        return post, (seq if source == "reuse" else apply_edit_tokens(seq, SPLICE))
    return cache, seq


def spare_filled(cache, value):
    """A copy of cache whose rows at and past logical_len hold `value`."""
    out = cache.copy()
    out.keys[:, out.logical_len:] = value
    out.values[:, out.logical_len:] = value
    return out


class TestHeadroom:
    @pytest.mark.parametrize("source", ["encode", "copy", *STRATEGIES])
    def test_headroom_decode_steps_then_growth(self, tiny_model, rng, source):
        cache, seq = built_cache(tiny_model, rng, source)
        keys, values = cache.keys, cache.values
        tiny_model.generate_greedy(cache, seq[-1], HEADROOM)  # HEADROOM decode steps
        assert cache.keys is keys and cache.values is values
        live_k, live_v = (a.copy() for a in cache_arrays(cache))
        n = cache.logical_len
        tiny_model.decode_step(cache, 1)
        assert cache.keys is not keys and cache.values is not values
        assert np.array_equal(cache.keys[:, :n], live_k)
        assert np.array_equal(cache.values[:, :n], live_v)

    @pytest.mark.parametrize("source", ["encode", "pie"])
    def test_spare_rows_are_never_read(self, tiny_model, rng, source):
        cache, seq = built_cache(tiny_model, rng, source)
        zero, nan = spare_filled(cache, 0.0), spare_filled(cache, np.nan)
        assert np.array_equal(tiny_model.next_logits(zero, seq[-1]),
                              tiny_model.next_logits(nan, seq[-1]))
        for update in STRATEGIES.values():
            assert caches_equal(update(tiny_model, zero, seq, SPLICE)[0],
                                update(tiny_model, nan, seq, SPLICE)[0])
        assert np.array_equal(tiny_model.decode_step(zero, 7), tiny_model.decode_step(nan, 7))
        assert caches_equal(zero, nan)


class TestScriptFiles:
    def test_round_trip(self, tmp_path):
        script = EditScript((EditOp(1, 4, (7, 8)), EditOp(9, 9, (1,))))
        path = tmp_path / "edits.jsonl"
        dump_script_jsonl(script, path)
        assert load_script_jsonl(path) == script

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"start": 0, "end": 2, "tokens": []}\n{"start": 5}\n')
        with pytest.raises(ScriptError, match="line 2"):
            load_script_jsonl(path)

    def test_overlap_reported_with_path(self, tmp_path):
        path = tmp_path / "overlap.jsonl"
        path.write_text('{"start": 0, "end": 4, "tokens": []}\n'
                        '{"start": 2, "end": 6, "tokens": []}\n')
        with pytest.raises(ScriptError, match="overlap.jsonl"):
            load_script_jsonl(path)
