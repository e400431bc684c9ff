import numpy as np
import pytest

from kvedit import ArgumentError, CacheError, ConfigError, KvCache, ModelConfig, init_model
from tests.conftest import TINY


def seqs(rng, n, vocab=TINY.vocab_size):
    return [int(t) for t in rng.integers(0, vocab, n)]


def all_logits(model, seq):
    """Next-token logits at every position of seq, [n, vocab]."""
    c = model.config
    return model.extend_cache(KvCache.empty(c.n_layers, c.n_heads, c.head_dim), seq)


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = init_model(TINY), init_model(TINY)
        assert np.array_equal(a.embedding, b.embedding)
        for l in range(TINY.n_layers):
            assert np.array_equal(a.wq[l], b.wq[l])
            assert np.array_equal(a.w_out[l], b.w_out[l])

    def test_different_seeds_differ(self):
        a = init_model(ModelConfig(seed=1))
        b = init_model(ModelConfig(seed=2))
        assert not np.array_equal(a.embedding, b.embedding)

    def test_hidden_dim_invariant(self):
        with pytest.raises(ConfigError, match="hidden_dim"):
            ModelConfig(n_heads=4, head_dim=16, hidden_dim=60)

    def test_odd_head_dim(self):
        with pytest.raises(ConfigError, match="even"):
            ModelConfig(n_heads=4, head_dim=15, hidden_dim=60)

    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigError, match="n_layers"):
            ModelConfig(n_layers=0)


class TestEncode:
    def test_single_token(self, tiny_model):
        cache, logits = tiny_model.encode([3])
        assert cache.logical_len == 1
        assert logits.shape == (TINY.vocab_size,)
        assert np.all(np.isfinite(logits))

    def test_empty_rejected(self, tiny_model):
        with pytest.raises(ArgumentError):
            tiny_model.encode([])

    def test_out_of_vocab_rejected(self, tiny_model):
        with pytest.raises(ArgumentError, match="out of vocabulary"):
            tiny_model.encode([1, TINY.vocab_size])

    def test_incremental_equals_batch_at_every_position(self, tiny_model, rng):
        for _ in range(3):
            n = int(rng.integers(4, 65))
            seq = seqs(rng, n)
            batch = all_logits(tiny_model, seq)
            cache, logits = tiny_model.encode(seq[:1])
            np.testing.assert_allclose(logits, batch[0], atol=1e-4)
            for t in range(1, n):
                logits = tiny_model.decode_step(cache, seq[t])
                np.testing.assert_allclose(logits, batch[t], atol=1e-4)

    def test_position_sensitivity(self, tiny_model):
        seq = [5, 9, 5, 9, 5, 9, 1, 2]
        _, a = tiny_model.encode(seq)
        swapped = list(seq)
        swapped[1], swapped[6] = swapped[6], swapped[1]
        _, b = tiny_model.encode(swapped)
        assert not np.allclose(a, b, atol=1e-6)

    def test_causality(self, tiny_model, rng):
        seq = seqs(rng, 24)
        logits_a = all_logits(tiny_model, seq)
        changed = list(seq)
        changed[15] = (changed[15] + 1) % TINY.vocab_size
        logits_b = all_logits(tiny_model, changed)
        np.testing.assert_array_equal(logits_a[:15], logits_b[:15])
        assert not np.allclose(logits_a[15], logits_b[15], atol=1e-6)

    def test_cache_completeness(self, tiny_model, rng):
        seq = seqs(rng, 17)
        cache, _ = tiny_model.encode(seq)
        assert cache.logical_len == 17
        for l in range(TINY.n_layers):
            assert cache.layer_keys(l).shape == (17, TINY.n_heads, TINY.head_dim)
            assert cache.layer_values(l).shape == (17, TINY.n_heads, TINY.head_dim)


class TestAttend:
    @pytest.mark.parametrize("past_len, b", [(0, 1), (0, 600), (511, 1), (511, 3),
                                             (700, 1), (300, 900)])
    def test_matches_dense_float64_reference(self, tiny_model, rng, past_len, b):
        h, d = TINY.n_heads, TINY.head_dim
        total = past_len + b
        q = rng.standard_normal((b, h, d)).astype(np.float32)
        k = rng.standard_normal((total, h, d)).astype(np.float32)
        v = rng.standard_normal((total, h, d)).astype(np.float32)
        got = tiny_model._attend(q, k, v, past_len)
        scores = np.einsum("bhd,thd->hbt", q.astype(np.float64), k.astype(np.float64))
        scores /= np.sqrt(d)
        visible = np.arange(total)[None, :] <= (past_len + np.arange(b))[:, None]
        scores = np.where(visible, scores, -np.inf)
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        want = np.einsum("hbt,thd->bhd", probs, v.astype(np.float64))
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_chunks_across_slab_boundary_match_encode(self, tiny_model, rng):
        seq = seqs(rng, 1100)
        ref, ref_logits = tiny_model.encode(seq)
        c = TINY
        cache = KvCache.empty(c.n_layers, c.n_heads, c.head_dim)
        for a, z in [(0, 300), (300, 512), (512, 513), (513, 1100)]:
            logits = tiny_model.extend_cache(cache, seq[a:z])
        n = ref.logical_len
        assert cache.logical_len == n
        np.testing.assert_allclose(cache.keys[:, :n], ref.keys[:, :n], atol=1e-5)
        np.testing.assert_allclose(cache.values[:, :n], ref.values[:, :n], atol=1e-5)
        np.testing.assert_allclose(logits[-1], ref_logits, atol=1e-5)
        for p in (511, 512, 513):
            step_cache, _ = tiny_model.encode(seq[:p])
            _, want = tiny_model.encode(seq[:p + 1])
            np.testing.assert_allclose(tiny_model.decode_step(step_cache, seq[p]),
                                       want, atol=1e-5)


class TestDecodeStep:
    def test_matches_batch_last_position(self, tiny_model, rng):
        seq = seqs(rng, 12)
        cache, _ = tiny_model.encode(seq[:-1])
        step_logits = tiny_model.decode_step(cache, seq[-1])
        _, batch_logits = tiny_model.encode(seq)
        np.testing.assert_allclose(step_logits, batch_logits, atol=1e-4)

    def test_extends_by_one(self, tiny_model):
        cache, _ = tiny_model.encode([1, 2, 3])
        tiny_model.decode_step(cache, 4)
        assert cache.logical_len == 4

    def test_mismatched_cache(self, tiny_model):
        other = init_model(ModelConfig(n_layers=2, n_heads=2, head_dim=4,
                                       hidden_dim=8, mlp_dim=16, vocab_size=64))
        cache, _ = other.encode([1, 2])
        with pytest.raises(CacheError):
            tiny_model.decode_step(cache, 3)


class TestGenerate:
    def test_single_step_equals_argmax(self, tiny_model):
        cache, _ = tiny_model.encode([4, 8, 15])
        probe = int(np.argmax(tiny_model.next_logits(cache, 15)))
        out = tiny_model.generate_greedy(cache.copy(), 15, 1)
        assert out == [probe]

    def test_deterministic(self, tiny_model):
        cache, _ = tiny_model.encode([4, 8, 15, 16])
        a = tiny_model.generate_greedy(cache.copy(), 16, 8)
        b = tiny_model.generate_greedy(cache.copy(), 16, 8)
        assert a == b

    def test_extends_cache_by_n_new(self, tiny_model):
        cache, _ = tiny_model.encode([4, 8])
        tiny_model.generate_greedy(cache, 8, 5)
        assert cache.logical_len == 7

    def test_distributions_returned(self, tiny_model):
        cache, _ = tiny_model.encode([4, 8])
        toks, dists = tiny_model.generate_greedy(cache, 8, 6, return_distributions=True)
        assert len(toks) == len(dists) == 6
        for d in dists:
            assert abs(float(d.sum()) - 1.0) < 1e-5

    def test_n_new_must_be_positive(self, tiny_model):
        cache, _ = tiny_model.encode([4])
        with pytest.raises(ArgumentError):
            tiny_model.generate_greedy(cache, 4, 0)

    def test_next_logits_matches_encode(self, tiny_model, rng):
        seq = seqs(rng, 20)
        cache, enc_logits = tiny_model.encode(seq)
        np.testing.assert_allclose(tiny_model.next_logits(cache, seq[-1]),
                                   enc_logits, atol=1e-4)
