"""Seeded, line-aligned edit streams for the kvedit benchmark.

An edit is one op of five whole lines: an insertion of corpus lines
before a line, a deletion of lines, or a replacement of lines by corpus
lines. Edits never touch the context's last (partial) line, so the probe
token after every edit is the context's own last token.

Edit i is an insertion, deletion or replacement as i % 3 is 0, 1 or 2,
and sits at fraction vdc(i) of the document's lines, vdc being the base-2
van der Corput sequence: any run of consecutive edits covers the document
evenly with each kind, the same way for every seed. The seed picks the
inserted lines, one from each fifth of the corpus lines by length, so
an edit's new-token count varies by a few tokens only. Update costs depend steeply on position and kind (a
deletion skips the forward pass; `full` re-encodes the whole tail), and
seeding either of them moved the medians of a 20 s run by 10-36% from one
seed to the next.
"""

from __future__ import annotations

import numpy as np

from kvedit import scenarios
from kvedit.cache_edit import EditOp, EditScript, apply_edit_tokens

KINDS = ("insert", "delete", "replace")
LINES_PER_EDIT = 5
SLACK = 128          # tokens a session may drift from its start length before the op kind is forced
NEWLINE = 10


def build_context(n_tokens: int) -> list[int]:
    """DEFAULT_CORPUS tiled to whole lines, cut to exactly n_tokens tokens."""
    doc = scenarios.tile_document(scenarios.DEFAULT_CORPUS, n_tokens)
    return scenarios.ByteTokenizer().encode(doc)[:n_tokens]


def corpus_lines() -> list[tuple[int, ...]]:
    """Token tuples of the corpus lines that edits insert."""
    tok = scenarios.ByteTokenizer()
    return [tuple(tok.encode(line))
            for line in scenarios.DEFAULT_CORPUS.splitlines(keepends=True)]


def line_bounds(tokens: list[int]) -> list[int]:
    """Start of each newline-terminated line, then the end of the last one.

    A trailing partial line is left out, so edits never reach it.
    """
    bounds = [0]
    bounds.extend(i + 1 for i, t in enumerate(tokens) if t == NEWLINE)
    return bounds


def make_edit(tokens: list[int], u: float, rng: np.random.Generator,
              pool: list[tuple[int, ...]], kind: str) -> EditScript:
    """One line-aligned edit at fraction u of the document's full lines."""
    bounds = line_bounds(tokens)
    n_lines = len(bounds) - 1
    k = LINES_PER_EDIT
    if n_lines < k + 1:
        raise ValueError(f"context has {n_lines} full lines; an edit needs more than {k}")
    new = pick_lines(rng, pool) if kind != "delete" else ()
    if kind == "insert":
        a = min(int(u * n_lines), n_lines - 1)
        return EditScript((EditOp(bounds[a], bounds[a], new),))
    a = min(int(u * (n_lines - k + 1)), n_lines - k)
    return EditScript((EditOp(bounds[a], bounds[a + k], new),))


def pick_lines(rng: np.random.Generator, pool: list[tuple[int, ...]]) -> tuple[int, ...]:
    """LINES_PER_EDIT lines in seeded order, one seeded line from each
    LINES_PER_EDIT-quantile of the pool by length."""
    by_len = sorted(pool, key=len)
    strata = np.array_split(np.arange(len(by_len)), LINES_PER_EDIT)
    picked = [by_len[int(rng.choice(s))] for s in strata]
    return sum((picked[int(i)] for i in rng.permutation(len(picked))), ())


def vdc(i: int) -> float:
    """i-th point of the base-2 van der Corput sequence: 0, 1/2, 1/4, 3/4, ..."""
    out, scale = 0.0, 0.5
    while i:
        out += scale * (i & 1)
        i >>= 1
        scale /= 2
    return out


def independent_edits(tokens: list[int], seed: int, count: int) -> list[EditScript]:
    """`count` edits, each over the same pre-edit `tokens`."""
    rng = np.random.default_rng(seed)
    pool = corpus_lines()
    return [make_edit(tokens, vdc(i), rng, pool, KINDS[i % 3]) for i in range(count)]


def session_chains(tokens: list[int], seed: int, n_chains: int,
                   chain_len: int) -> list[list[EditScript]]:
    """`n_chains` chains of `chain_len` edits; edit i applies to edit i-1's output.

    Each chain starts from `tokens`. The op kind follows the current
    length so the context stays near len(tokens): past SLACK tokens
    over it only deletions, past SLACK under it only insertions.
    """
    rng = np.random.default_rng(seed)
    pool = corpus_lines()
    target = len(tokens)
    chains = []
    i = 0
    for _ in range(n_chains):
        seq = list(tokens)
        chain = []
        for _ in range(chain_len):
            kind = KINDS[i % 3]
            if len(seq) > target + SLACK:
                kind = "delete"
            elif len(seq) < target - SLACK:
                kind = "insert"
            script = make_edit(seq, vdc(i), rng, pool, kind)
            seq = apply_edit_tokens(seq, script)
            chain.append(script)
            i += 1
        chains.append(chain)
    return chains
