"""Edit-scenario generators over line-structured corpora.

Each generator produces (original, script, edited) such that applying the
script to the original reproduces the edited sequence byte-exactly:

* insertion  - remove a random block of consecutive lines from the
               document; the script puts it back.
* deletion   - plant sampled junk lines at a random boundary; the script
               removes them.
* edition    - both at once, at disjoint sites (two ops).
* contextual - find the line(s) most similar to a target line by edit
               distance and insert a copy of the surrounding block there;
               num_sites > 1 gives multi-place scripts.

Text is tokenized at byte level (ids 0..255 plus reserved specials), which
keeps the positional mechanics tokenizer-agnostic and dependency-free.
Everything is seeded: (document, config, seed) fully determines output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cache_edit import EditOp, EditScript, apply_edit_tokens
from .diagnostics import levenshtein
from .errors import ScenarioError, check_int

SCENARIO_KINDS = ("insertion", "deletion", "edition", "contextual", "multi_place_contextual")

_REPLACEMENT = "\N{REPLACEMENT CHARACTER}"


class ByteTokenizer:
    """UTF-8 byte tokenizer: ids 0..255 are bytes, 256.. are specials.

    Specials are reserved so desk-scale vocabularies (e.g. 512) have
    headroom; generated ids outside the byte range decode to U+FFFD.
    """

    def __init__(self, specials: tuple[str, ...] = ("<pad>", "<bos>", "<eos>")):
        self.specials = tuple(specials)
        self.vocab_size = 256 + len(self.specials)

    def encode(self, text) -> list[int]:
        data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        return list(data)

    def decode(self, ids) -> str:
        out = []
        run: list[int] = []
        for t in ids:
            if 0 <= t < 256:
                run.append(t)
            else:
                out.append(bytes(run).decode("utf-8", errors="replace"))
                out.append(_REPLACEMENT)
                run = []
        out.append(bytes(run).decode("utf-8", errors="replace"))
        return "".join(out)


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str = "insertion"
    lines_per_edit: int = 5
    num_sites: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}; "
                                f"expected one of {SCENARIO_KINDS}")
        check_int(ScenarioError, "lines_per_edit", self.lines_per_edit, 1)
        check_int(ScenarioError, "num_sites", self.num_sites, 1)
        check_int(ScenarioError, "rng_seed", self.rng_seed, 0)
        if self.kind == "multi_place_contextual" and self.num_sites < 2:
            raise ScenarioError(f"multi_place_contextual needs num_sites >= 2, "
                                f"got {self.num_sites}")


@dataclass
class Scenario:
    original: list[int]
    script: EditScript
    edited: list[int]
    manifest: dict = field(default_factory=dict)


def _lines(document: str) -> list[str]:
    return document.splitlines(keepends=True)


def _with_newline(line: str) -> str:
    return line if line.endswith("\n") else line + "\n"


def _tok_len(lines: list[str]) -> int:
    return sum(len(l.encode("utf-8")) for l in lines)


def gen_insertion(document: str, cfg: ScenarioConfig) -> Scenario:
    """Original = document minus a random block; the script inserts it back."""
    tok = ByteTokenizer()
    lines = _lines(document)
    k = cfg.lines_per_edit
    if len(lines) <= k:
        raise ScenarioError(f"document has {len(lines)} lines; need more than {k}")
    rng = np.random.default_rng(cfg.rng_seed)
    a = int(rng.integers(0, len(lines) - k + 1))
    block = "".join(lines[a:a + k])
    original = "".join(lines[:a] + lines[a + k:])
    pos = _tok_len(lines[:a])
    script = EditScript((EditOp(pos, pos, tuple(tok.encode(block))),))
    return Scenario(tok.encode(original), script, tok.encode(document),
                    manifest={"kind": "insertion", "seed": cfg.rng_seed,
                              "sites": [a], "lines_per_edit": k})


def gen_deletion(document: str, cfg: ScenarioConfig) -> Scenario:
    """Original = document plus sampled junk lines; the script deletes them."""
    tok = ByteTokenizer()
    lines = _lines(document)
    k = cfg.lines_per_edit
    if len(lines) <= k:
        raise ScenarioError(f"document has {len(lines)} lines; need more than {k}")
    rng = np.random.default_rng(cfg.rng_seed)
    b = int(rng.integers(0, len(lines) + 1))
    junk = [_with_newline(lines[int(rng.integers(0, len(lines)))]) for _ in range(k)]
    original = "".join(lines[:b] + junk + lines[b:])
    pos = _tok_len(lines[:b])
    span = _tok_len(junk)
    script = EditScript((EditOp(pos, pos + span),))
    return Scenario(tok.encode(original), script, tok.encode(document),
                    manifest={"kind": "deletion", "seed": cfg.rng_seed,
                              "sites": [b], "lines_per_edit": k})


_MAX_RETRIES = 100  # draws of the two sites; only b == a is redrawn


def gen_edition(document: str, cfg: ScenarioConfig) -> Scenario:
    """Insertion and deletion at disjoint sites: a sorted two-op script."""
    tok = ByteTokenizer()
    lines = _lines(document)
    k = cfg.lines_per_edit
    if len(lines) <= 2 * k:
        raise ScenarioError(f"document has {len(lines)} lines; need more than {2 * k}")
    rng = np.random.default_rng(cfg.rng_seed)
    for _ in range(_MAX_RETRIES):
        a = int(rng.integers(0, len(lines) - k + 1))     # block removed, to re-insert
        reduced = lines[:a] + lines[a + k:]
        b = int(rng.integers(0, len(reduced) + 1))       # junk boundary in reduced coords
        if b == a:
            continue
        junk = [_with_newline(lines[int(rng.integers(0, len(lines)))]) for _ in range(k)]
        original_lines = reduced[:b] + junk + reduced[b:]
        block = "".join(lines[a:a + k])
        ins_line = a if a < b else a + k                 # junk shifts the boundary
        p_ins = _tok_len(original_lines[:ins_line])
        p_del = _tok_len(original_lines[:b])
        span = _tok_len(junk)
        ins_op = EditOp(p_ins, p_ins, tuple(tok.encode(block)))
        del_op = EditOp(p_del, p_del + span)
        script = EditScript(tuple(sorted((ins_op, del_op), key=lambda o: o.start)))
        return Scenario(tok.encode("".join(original_lines)), script, tok.encode(document),
                        manifest={"kind": "edition", "seed": cfg.rng_seed,
                                  "sites": [a, b], "lines_per_edit": k})
    raise ScenarioError(f"could not place disjoint edit sites after {_MAX_RETRIES} retries")


def gen_contextual(document: str, target_line: str, cfg: ScenarioConfig) -> Scenario:
    """Insert blocks at the line(s) most similar to target_line.

    Similarity is plain edit distance on line content (no newline); ties
    go to the earliest line. Each chosen site gets a copy of the
    lines_per_edit-line block starting there, inserted right below it.
    """
    tok = ByteTokenizer()
    lines = _lines(document)
    if not lines:
        raise ScenarioError("empty context")
    if cfg.num_sites > len(lines):
        raise ScenarioError(f"num_sites {cfg.num_sites} exceeds {len(lines)} context lines")
    ranked = sorted(range(len(lines)),
                    key=lambda i: (levenshtein(lines[i].rstrip("\n"), target_line), i))
    sites = sorted(ranked[:cfg.num_sites])
    ops = []
    for s in sites:
        content = "".join(_with_newline(l) for l in lines[s:s + cfg.lines_per_edit])
        pos = _tok_len(lines[:s + 1])
        ops.append(EditOp(pos, pos, tuple(tok.encode(content))))
    script = EditScript(tuple(ops))
    original = tok.encode(document)
    return Scenario(original, script, apply_edit_tokens(original, script),
                    manifest={"kind": "contextual", "seed": cfg.rng_seed,
                              "sites": sites,
                              "distances": [levenshtein(lines[s].rstrip("\n"), target_line)
                                            for s in sites]})


def gen_scenario(document: str, cfg: ScenarioConfig, target_line: str | None = None) -> Scenario:
    """Dispatch on cfg.kind. For contextual kinds without an explicit
    target, the document's last line is the prediction target and the
    preceding lines are the context."""
    if cfg.kind == "insertion":
        return gen_insertion(document, cfg)
    if cfg.kind == "deletion":
        return gen_deletion(document, cfg)
    if cfg.kind == "edition":
        return gen_edition(document, cfg)
    if target_line is None:
        lines = _lines(document)
        if len(lines) < 2:
            raise ScenarioError("contextual scenario needs a multi-line document")
        target_line = lines[-1].rstrip("\n")
        document = "".join(lines[:-1])
    out = gen_contextual(document, target_line, cfg)
    out.manifest["kind"] = cfg.kind
    return out


# -- synthetic inputs -----------------------------------------------------------

def random_script(seq_len: int, rng: np.random.Generator, max_ops: int = 3,
                  max_span: int = 12, max_new: int = 12,
                  vocab_size: int = 512) -> EditScript:
    """Valid random script over a length-seq_len sequence (sorted, disjoint)."""
    if seq_len < 1:
        raise ScenarioError("sequence too short for a script")
    ops = []
    pos = 0
    for _ in range(int(rng.integers(1, max_ops + 1))):
        if pos >= seq_len:
            break
        start = int(rng.integers(pos, seq_len))
        end = int(rng.integers(start, min(start + max_span, seq_len) + 1))
        m = int(rng.integers(0, max_new + 1))
        toks = tuple(int(t) for t in rng.integers(0, vocab_size, size=m))
        ops.append(EditOp(start, end, toks))
        pos = end + 1
    return EditScript(tuple(ops))


def dump_scenario(scen: Scenario, script_path, manifest_path) -> None:
    """Write a scenario as a JSONL edit script plus a JSON manifest."""
    import json

    from .cache_edit import dump_script_jsonl
    dump_script_jsonl(scen.script, script_path)
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(scen.manifest, f, indent=2)
        f.write("\n")


# -- corpus handling ------------------------------------------------------------

DEFAULT_CORPUS = """\
import os
import sys
import json
import math
LIMIT = 64
SCALE = 2.5
DEBUG = False
def load(path):
    f = open(path)
    data = f.read()
    f.close()
    return data
def save(path, s):
    f = open(path, "w")
    f.write(s)
    f.close()
def clip(x, lo, hi):
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x
def mean(xs):
    total = 0.0
    for x in xs:
        total += x
    return total / len(xs)
def scale(xs, k):
    out = []
    for x in xs:
        out.append(x * k)
    return out
def main(argv):
    path = argv[1]
    raw = load(path)
    rows = raw.split()
    vals = []
    for r in rows:
        vals.append(float(r))
    m = mean(vals)
    print(m)
    return 0
code = main(sys.argv)
sys.exit(code)
"""


def load_corpus(path) -> str:
    """UTF-8 text file, or a directory of files concatenated in name order."""
    import os
    if os.path.isdir(path):
        parts = []
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if os.path.isfile(full):
                with open(full, "r", encoding="utf-8") as f:
                    parts.append(f.read())
        if not parts:
            raise ScenarioError(f"corpus directory {path} has no files")
        return "".join(parts)
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def tile_document(corpus: str, min_tokens: int) -> str:
    """Smallest whole-line tiling of the corpus with at least min_tokens bytes."""
    lines = _lines(_with_newline(corpus))
    if not lines:
        raise ScenarioError("empty corpus")
    out = []
    total = 0
    i = 0
    while total < min_tokens:
        line = lines[i % len(lines)]
        out.append(line)
        total += len(line.encode("utf-8"))
        i += 1
    return "".join(out)
