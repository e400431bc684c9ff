import math

import numpy as np
from hypothesis import given, strategies as st

from kvedit.tensor_core import gelu, rms_norm_rows, softmax_rows


def f32(vals):
    return np.asarray(vals, dtype=np.float32)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(f32([0.0, 0.0])), [0.5, 0.5])

    def test_max_subtraction_prevents_overflow(self):
        np.testing.assert_allclose(softmax_rows(f32([1000.0, 1000.0])), [0.5, 0.5])

    def test_closed_form(self):
        out = softmax_rows(f32([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-6)


class TestRmsNorm:
    def test_unit_rms(self):
        np.testing.assert_array_equal(
            rms_norm_rows(f32([1, 1, 1, 1]), f32(np.ones(4)), eps=0.0), [1, 1, 1, 1])

    def test_zero_vector(self):
        np.testing.assert_array_equal(
            rms_norm_rows(f32([0, 0]), f32(np.ones(2)), eps=1e-5), [0, 0])

    def test_direct_formula(self):
        out = rms_norm_rows(f32([3.0, 4.0]), f32(np.ones(2)), eps=0.0)
        np.testing.assert_allclose(out, np.array([3.0, 4.0]) / math.sqrt(12.5),
                                   rtol=1e-6)

    def test_gain_applied(self):
        out = rms_norm_rows(f32([3.0, 4.0]), f32([2.0, 0.5]), eps=0.0)
        np.testing.assert_allclose(out, np.array([6.0, 2.0]) / math.sqrt(12.5),
                                   rtol=1e-6)


finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, width=32)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
                min_size=1, max_size=32))
def test_softmax_sums_to_one(vals):
    out = softmax_rows(f32(vals))
    assert abs(float(out.sum()) - 1.0) < 1e-6
    assert np.all(out >= 0)


@given(st.lists(finite, min_size=1, max_size=32), st.integers(0, 2**16))
def test_rms_norm_unit_rms_property(vals, _seed):
    v = np.asarray(vals, dtype=np.float32)
    if float(np.sqrt(np.mean(v * v))) < 1e-2:
        return  # rms of near-zero vectors is numerically meaningless at eps=0
    out = rms_norm_rows(v, np.ones_like(v), eps=0.0)
    assert abs(float(np.sqrt(np.mean(out * out))) - 1.0) < 1e-5


def test_softmax_rows_matches_row_version(rng):
    x = rng.standard_normal((4, 7)).astype(np.float32)
    batched = softmax_rows(x)
    for i in range(4):
        np.testing.assert_allclose(batched[i], softmax_rows(x[i]), atol=1e-7)


def test_rms_norm_rows_matches_row_version(rng):
    x = rng.standard_normal((3, 5)).astype(np.float32)
    g = rng.standard_normal(5).astype(np.float32)
    batched = rms_norm_rows(x, g, 1e-5)
    for i in range(3):
        np.testing.assert_allclose(batched[i], rms_norm_rows(x[i], g, 1e-5), atol=1e-7)


def test_gelu_fixed_points():
    out = gelu(np.array([0.0, 10.0, -10.0], dtype=np.float32))
    np.testing.assert_allclose(out, [0.0, 10.0, 0.0], atol=1e-5)
