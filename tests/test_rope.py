import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kvedit import RotaryTable, ShapeError

POS = st.integers(min_value=-4096, max_value=4096)


def rand_vec(seed, dim=16, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal(dim).astype(dtype)


class TestRotateExamples:
    def test_position_zero_is_identity(self):
        t = RotaryTable(2)
        np.testing.assert_allclose(t.rotate(np.array([1.0, 0.0]), 0), [1.0, 0.0])

    def test_unit_rotation(self):
        t = RotaryTable(2)  # f_0 = 1, so pos=1 rotates by exactly 1 radian
        out = t.rotate(np.array([1.0, 0.0]), 1)
        np.testing.assert_allclose(out, [math.cos(1.0), math.sin(1.0)], atol=1e-9)

    def test_inverse_rotation_round_trip(self):
        t = RotaryTable(2)
        fwd = t.rotate(np.array([1.0, 0.0]), 1)
        np.testing.assert_allclose(t.rotate(fwd, -1), [1.0, 0.0], atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            RotaryTable(4).rotate(np.ones(6), 3)


class TestRerotateDelta:
    def test_zero_delta_bit_identical(self):
        t = RotaryTable(8)
        v = rand_vec(0, 8, np.float32)
        assert t.rotate_segment(v, 0) is v
        seg = np.ones((3, 2, 5, 8), dtype=np.float32)
        assert t.rotate_segment(seg, 0) is seg

    def test_matches_direct_rotation(self):
        t = RotaryTable(16)
        v = rand_vec(1)
        via_delta = t.rotate_segment(t.rotate(v, 7), -3)
        np.testing.assert_allclose(via_delta, t.rotate(v, 4), atol=1e-6)

    def test_delta_additivity(self):
        t = RotaryTable(16)
        v = rand_vec(2)
        np.testing.assert_allclose(t.rotate_segment(t.rotate_segment(v, 2), 3),
                                   t.rotate_segment(v, 5), atol=1e-6)


class TestTable:
    def test_pythagorean_identity(self):
        cos, sin = RotaryTable(8)._cos_sin(np.arange(-512, 512))
        np.testing.assert_allclose(cos ** 2 + sin ** 2, 1.0, atol=1e-6)

    def test_head_dim_must_be_even(self):
        with pytest.raises(ShapeError):
            RotaryTable(5)

    def test_lazy_growth_no_wraparound(self):
        # far positions use their own angle, not one wrapped into a range
        t = RotaryTable(4)
        v = rand_vec(3, 4)
        angles = 1000 * t.freqs
        half = 2
        expected = np.concatenate([v[:half] * np.cos(angles) - v[half:] * np.sin(angles),
                                   v[half:] * np.cos(angles) + v[:half] * np.sin(angles)])
        np.testing.assert_allclose(t.rotate(v, 1000), expected, atol=1e-12)

    def test_negative_positions_grow_table_too(self):
        t = RotaryTable(4)
        v = rand_vec(4, 4)
        np.testing.assert_allclose(t.rotate(t.rotate(v, 100_000), -100_000), v, atol=1e-9)


@given(POS, st.integers(0, 2**32 - 1))
def test_norm_preserved(pos, seed):
    t = RotaryTable(16)
    v = rand_vec(seed)
    assert abs(np.linalg.norm(t.rotate(v, pos)) - np.linalg.norm(v)) < 1e-6


@given(POS, POS, st.integers(0, 2**32 - 1))
def test_composition(a, b, seed):
    t = RotaryTable(16)
    v = rand_vec(seed)
    np.testing.assert_allclose(t.rotate(t.rotate(v, a), b), t.rotate(v, a + b),
                               atol=1e-6)


@given(st.integers(1, 4096), st.integers(0, 2**32 - 1))
def test_inverse_is_sin_negation(pos, seed):
    t = RotaryTable(16)
    v = rand_vec(seed)
    cos, sin = t._cos_sin(np.array([pos]))
    half = 8
    expected = np.empty_like(v)
    expected[:half] = v[:half] * cos[0] - v[half:] * (-sin[0])
    expected[half:] = v[half:] * cos[0] + v[:half] * (-sin[0])
    np.testing.assert_array_equal(t.rotate(v, -pos), expected)


@given(st.integers(0, 1024), st.integers(0, 1024), st.integers(-512, 512),
       st.integers(0, 2**32 - 1))
def test_relative_score_invariance(i, j, s, seed):
    t = RotaryTable(16)
    r = np.random.default_rng(seed)
    q, k = r.standard_normal(16), r.standard_normal(16)
    base = float(np.dot(t.rotate(q, i), t.rotate(k, j)))
    shifted = float(np.dot(t.rotate(q, i + s), t.rotate(k, j + s)))
    assert abs(base - shifted) < 1e-5


def test_rotate_block_matches_per_vector(rng):
    t = RotaryTable(8)
    x = rng.standard_normal((5, 3, 8)).astype(np.float32)
    positions = np.array([0, 4, 9, 2, 7])
    out = t.rotate_block(x, positions)
    for n in range(5):
        for h in range(3):
            np.testing.assert_allclose(out[n, h], t.rotate(x[n, h], int(positions[n])),
                                       atol=1e-7)


def test_rotate_segment_matches_per_vector(rng):
    t = RotaryTable(8)
    x = rng.standard_normal((2, 4, 3, 8)).astype(np.float32)
    out = t.rotate_segment(x, 13)
    for idx in np.ndindex(2, 4, 3):
        np.testing.assert_allclose(out[idx], t.rotate(x[idx], 13), atol=1e-7)
