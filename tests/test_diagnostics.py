import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kvedit import (ArgumentError, DiagnosticsError, edit_similarity, exact_match,
                    first_non_comment_line, key_cosine_by_layer, kl_divergence,
                    levenshtein)


def oracle_levenshtein(a: str, b: str) -> int:
    """Full-matrix DP, kept independent of the two-row implementation."""
    m = [[i + j for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            m[i][j] = min(m[i - 1][j] + 1, m[i][j - 1] + 1,
                          m[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return m[len(a)][len(b)]


class TestCosine:
    def test_self_is_one(self, tiny_model, rng):
        cache, _ = tiny_model.encode([int(t) for t in rng.integers(0, 64, 12)])
        np.testing.assert_allclose(key_cosine_by_layer(cache, cache), 1.0, atol=1e-7)

    def test_negation_is_minus_one(self, tiny_model, rng):
        cache, _ = tiny_model.encode([int(t) for t in rng.integers(0, 64, 6)])
        neg = cache.copy()
        neg.keys = -neg.keys
        np.testing.assert_allclose(key_cosine_by_layer(cache, neg), -1.0, atol=1e-7)

    def test_closed_form_pair(self, tiny_model):
        cache, _ = tiny_model.encode([3])
        other = cache.copy()
        cache.keys[:, :, :, :] = 0.0
        cache.keys[:, :, :, 0] = 1.0
        cache.keys[:, :, :, 1] = 1.0
        other.keys[:, :, :, :] = 0.0
        other.keys[:, :, :, 0] = 1.0
        np.testing.assert_allclose(key_cosine_by_layer(cache, other),
                                   1 / math.sqrt(2), atol=1e-7)

    def test_length_mismatch(self, tiny_model):
        a, _ = tiny_model.encode([1, 2, 3])
        b, _ = tiny_model.encode([1, 2])
        with pytest.raises(DiagnosticsError):
            key_cosine_by_layer(a, b)

    def test_span_bounds(self, tiny_model):
        a, _ = tiny_model.encode([1, 2, 3])
        with pytest.raises(DiagnosticsError):
            key_cosine_by_layer(a, a, span=(0, 9))


class TestKl:
    def test_equal_distributions(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_closed_form(self):
        got = kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert abs(got - (0.5 * math.log(2) + 0.5 * math.log(2 / 3))) < 1e-9

    def test_degenerate_p(self):
        assert abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - math.log(2)) < 1e-9

    def test_zero_q_is_floored_not_infinite(self):
        got = kl_divergence([0.5, 0.5], [1.0, 0.0])
        assert math.isfinite(got) and got > 0
        tighter = kl_divergence([0.5, 0.5], [1.0, 0.0], floor=1e-6)
        assert tighter < got

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_non_distribution(self):
        with pytest.raises(ArgumentError, match="not a probability"):
            kl_divergence([0.9, 0.4], [0.5, 0.5])

    @given(st.integers(2, 20), st.integers(0, 2**32 - 1))
    def test_nonnegative(self, n, seed):
        r = np.random.default_rng(seed)
        p = r.random(n) + 1e-6
        q = r.random(n) + 1e-6
        assert kl_divergence(p / p.sum(), q / q.sum()) >= 0.0


class TestLineMetrics:
    def test_exact_match(self):
        assert exact_match("x = 1", "x = 1") == 1
        assert exact_match("x = 1", "x = 2") == 0
        assert exact_match("  x = 1  ", "x = 1") == 1

    def test_edit_similarity_identical(self):
        assert edit_similarity("foo", "foo") == 100.0

    def test_edit_similarity_kitten(self):
        assert abs(edit_similarity("kitten", "sitting") - 100 * (1 - 3 / 7)) < 1e-9

    def test_edit_similarity_empty(self):
        assert edit_similarity("", "abc") == 0.0
        assert edit_similarity("", "") == 100.0

    @given(st.text(alphabet="abcd#", max_size=24), st.text(alphabet="abcd#", max_size=24))
    def test_symmetry_and_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a) == oracle_levenshtein(a, b)
        assert edit_similarity(a, b) == edit_similarity(b, a)

    def test_first_non_comment_line(self):
        text = "# header\n\n  # more\nresult = 3\nrest"
        assert first_non_comment_line(text) == "result = 3"
        assert first_non_comment_line("// x\nint y;", comment_prefix="//") == "int y;"
        assert first_non_comment_line("# only comments\n") == ""
