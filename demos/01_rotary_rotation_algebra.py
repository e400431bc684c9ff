"""Rotary rotation algebra: the identities that make cache editing cheap.

A key stored at position p carries a rotation by angle p*f_k in each
frequency plane. Because rotations compose additively and preserve norms,
moving a key from position p to p+delta is a single rotation by delta -
no need to know p, no need to re-run the model.
"""

import numpy as np

from kvedit import RotaryTable

table = RotaryTable(head_dim=8)
rng = np.random.default_rng(0)
v = rng.standard_normal(8).astype(np.float32)

print("== rotation by position 0 is the identity ==")
print("v          :", np.round(v, 4))
print("rotate(v,0):", np.round(table.rotate(v, 0), 4))

print("\n== composition: rotate twice == rotate once by the sum ==")
two_step = table.rotate(table.rotate(v, 300), -113)
one_step = table.rotate(v, 187)
print("rotate(rotate(v, 300), -113) vs rotate(v, 187)")
print("max |difference| =", float(np.abs(two_step - one_step).max()))

print("\n== norms survive any rotation (orthogonality) ==")
for pos in (1, 64, -4096):
    print(f"pos {pos:6d}: |v| = {np.linalg.norm(v):.6f}  "
          f"|R v| = {np.linalg.norm(table.rotate(v, pos)):.6f}")

print("\n== attention scores depend only on relative distance ==")
q = rng.standard_normal(8)
k = rng.standard_normal(8)
for shift in (0, 17, 1000):
    score = float(np.dot(table.rotate(q, 50 + shift), table.rotate(k, 20 + shift)))
    print(f"dot(R_{{50+{shift}}} q, R_{{20+{shift}}} k) = {score:.8f}")

print("\n== rotate_segment: reposition cached keys without knowing their positions ==")
key_at_7 = table.rotate(v, 7)
moved = table.rotate_segment(key_at_7, -3)          # now "as if" encoded at 4
direct = table.rotate(v, 4)
print("max |rerotated - direct| =", float(np.abs(moved - direct).max()))
print("rotate_segment(key, 0) is bit-identical:",
      np.array_equal(table.rotate_segment(key_at_7, 0), key_at_7))

print("\n== angles are computed per call; any position works, no table to outgrow ==")
far = table.rotate(v, 100_000)
print("rotate(rotate(v, 100000), -100000) vs v: max |difference| =",
      float(np.abs(table.rotate(far, -100_000) - v).max()))
