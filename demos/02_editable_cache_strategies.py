"""The four cache-update strategies on a tiny worked example.

Start from a 5-token sequence whose cache is already encoded, then insert
three tokens between the 2nd and 3rd token. The inserted tokens take
positions 2,3,4 - positions the old tail (previously at 2,3,4) also
claims. Unless the tail keys are repositioned, the model sees two sets of
keys fighting over the same indices: temporal confusion.

  reuse          ignores the edit entirely (cache unchanged, stale text)
  conflict_fast  encodes the 3 new tokens, splices, leaves the tail stale
  pie            conflict_fast + one rotation of each tail key by +3
  full           re-encodes everything from the edit onward (reference)
"""

import numpy as np

from kvedit import (EditOp, EditScript, ModelConfig, apply_edit_tokens, init_model,
                    update_conflict_fast, update_full_recompute, update_pie,
                    update_reuse)

model = init_model(ModelConfig(seed=7))
seq = [10, 11, 12, 13, 14]
script = EditScript((EditOp(2, 2, (20, 21, 22)),))
edited = apply_edit_tokens(seq, script)

print("pre-edit tokens :", seq)
print("edit            : insert (20, 21, 22) at position 2")
print("post-edit tokens:", edited)
print("old tokens 12,13,14 now live at positions", [edited.index(t) for t in (12, 13, 14)])

pre_cache, _ = model.encode(seq)

full, t_full = update_full_recompute(model, pre_cache, seq, script)
pie, t_pie = update_pie(model, pre_cache, seq, script)
cfe, t_cfe = update_conflict_fast(model, pre_cache, seq, script)
reused, _ = update_reuse(model, pre_cache, seq, script)

print("\n== work done by each strategy ==")
print(f"full recompute : re-encoded {t_full.recomputed_tokens} tokens")
print(f"pie            : re-encoded {t_pie.recomputed_tokens} tokens, "
      f"rotated {t_pie.rotated_keys} keys")
print(f"conflict fast  : re-encoded {t_cfe.recomputed_tokens} tokens, rotated none")
print(f"reuse          : nothing (cache still has {reused.logical_len} positions)")

print("\n== layer-0 keys of the retained tail (head 0, first 3 dims) ==")
print("full recompute keys are the ground truth for positions 5,6,7.")
for name, cache in (("full", full), ("pie", pie), ("conflict_fast", cfe)):
    rows = np.array2string(cache.keys[0, 5:8, 0, :3], precision=3,
                           separator=" ", suppress_small=True).replace("\n", " ")
    flag = "" if cache.positionally_consistent else "  <- flagged inconsistent"
    print(f"{name:14s} {rows}{flag}")

gap_pie = float(np.abs(pie.keys[0, 5:8] - full.keys[0, 5:8]).max())
gap_cfe = float(np.abs(cfe.keys[0, 5:8] - full.keys[0, 5:8]).max())
print(f"\nmax layer-0 tail gap vs full: pie {gap_pie:.2e}   conflict_fast {gap_cfe:.2e}")
print("pie repairs the tail exactly at layer 0; conflict_fast leaves the stale")
print("rotation in place, which is precisely a rotation by -3 of the truth:")
repaired = model.rope.rotate_segment(cfe.keys[0, 5:8], script.net_delta)
print("rotating conflict_fast's tail by +3 ->",
      float(np.abs(repaired - full.keys[0, 5:8]).max()), "from full")

print("\n== next-token distributions after the edit ==")
for name, cache, entry in (("full", full, edited[-1]), ("pie", pie, edited[-1]),
                           ("conflict_fast", cfe, edited[-1]),
                           ("reuse", reused, seq[-1])):
    logits = model.next_logits(cache, entry)
    top = int(np.argmax(logits))
    print(f"{name:14s} argmax token {top:3d}   max logit {float(logits[top]):.4f}")
