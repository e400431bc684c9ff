import numpy as np
import pytest

from kvedit import scenarios
from kvedit import (ByteTokenizer, DEFAULT_CORPUS, ScenarioConfig, ScenarioError,
                    apply_edit_tokens, gen_contextual, gen_deletion, gen_edition,
                    gen_insertion, gen_scenario, load_corpus, random_script,
                    tile_document)

DOC = tile_document(DEFAULT_CORPUS, 700)


def assert_round_trip(scen):
    assert apply_edit_tokens(scen.original, scen.script) == scen.edited


class TestByteTokenizer:
    def test_round_trip(self):
        tok = ByteTokenizer()
        text = "def f(x):\n    return x\n"
        assert tok.decode(tok.encode(text)) == text

    def test_vocab_size(self):
        assert ByteTokenizer().vocab_size == 259

    def test_non_byte_ids_decode_to_replacement(self):
        tok = ByteTokenizer()
        assert tok.decode([104, 105, 300, 33]) == "hi\N{REPLACEMENT CHARACTER}!"


class TestInsertion:
    def test_round_trip_and_structure(self):
        scen = gen_insertion(DOC, ScenarioConfig(kind="insertion", rng_seed=3))
        assert_round_trip(scen)
        assert len(scen.script.ops) == 1
        op = scen.script.ops[0]
        assert op.start == op.end and len(op.new_tokens) > 0
        assert len(scen.edited) == len(scen.original) + scen.script.net_delta

    def test_block_size_order_of_magnitude(self):
        # a 5-line block of short python-ish lines lands near 64 byte tokens
        sizes = [len(gen_insertion(DOC, ScenarioConfig(kind="insertion",
                                                       rng_seed=s)).script.ops[0].new_tokens)
                 for s in range(20)]
        mean = float(np.mean(sizes))
        assert 32 <= mean <= 96

    def test_seeded_reproducibility(self):
        a = gen_insertion(DOC, ScenarioConfig(kind="insertion", rng_seed=9))
        b = gen_insertion(DOC, ScenarioConfig(kind="insertion", rng_seed=9))
        assert a.script == b.script and a.original == b.original

    def test_too_short_document(self):
        with pytest.raises(ScenarioError):
            gen_insertion("a\nb\n", ScenarioConfig(kind="insertion"))


class TestDeletion:
    def test_single_empty_op(self):
        scen = gen_deletion(DOC, ScenarioConfig(kind="deletion", rng_seed=4))
        assert len(scen.script.ops) == 1
        assert scen.script.ops[0].new_tokens == ()
        assert_round_trip(scen)

    def test_negative_delta_accounting(self):
        scen = gen_deletion(DOC, ScenarioConfig(kind="deletion", rng_seed=5))
        op = scen.script.ops[0]
        assert op.delta == -(op.end - op.start) < 0
        assert len(scen.edited) == len(scen.original) + op.delta


class TestEdition:
    def test_two_disjoint_sorted_ops(self):
        scen = gen_edition(DOC, ScenarioConfig(kind="edition", rng_seed=6))
        assert len(scen.script.ops) == 2
        first, second = scen.script.ops
        assert first.start < second.start and first.end <= second.start
        assert_round_trip(scen)

    def test_round_trip_over_seeds(self):
        # the two sites never collide once b == a is redrawn, so every
        # generated script reproduces the document
        for seed in range(40):
            assert_round_trip(gen_edition(DOC, ScenarioConfig(kind="edition",
                                                              rng_seed=seed)))

    def test_net_delta_is_insert_minus_delete(self):
        scen = gen_edition(DOC, ScenarioConfig(kind="edition", rng_seed=7))
        ins = sum(len(op.new_tokens) for op in scen.script.ops)
        dels = sum(op.end - op.start for op in scen.script.ops)
        assert scen.script.net_delta == ins - dels

    def test_retry_exhaustion(self, monkeypatch):
        monkeypatch.setattr(scenarios, "_MAX_RETRIES", 0)
        doc = "".join(f"line{i}\n" for i in range(11))
        with pytest.raises(ScenarioError, match="retries"):
            gen_edition(doc, ScenarioConfig(kind="edition", rng_seed=0))


class TestContextual:
    def test_verbatim_target_chosen(self):
        doc = "alpha\nbeta\ngamma\n"
        scen = gen_contextual(doc, "beta", ScenarioConfig(kind="contextual",
                                                          lines_per_edit=1))
        assert scen.manifest["sites"] == [1]
        assert scen.manifest["distances"] == [0]
        assert_round_trip(scen)

    def test_tie_breaks_to_earliest(self):
        doc = "same\nother\nsame\n"
        scen = gen_contextual(doc, "same", ScenarioConfig(kind="contextual",
                                                          lines_per_edit=1))
        assert scen.manifest["sites"] == [0]

    def test_multi_site_disjoint(self):
        scen = gen_contextual(DOC, "    return x", ScenarioConfig(
            kind="contextual", lines_per_edit=2, num_sites=3))
        assert len(scen.script.ops) == 3
        starts = [op.start for op in scen.script.ops]
        assert starts == sorted(starts) and len(set(starts)) == 3
        assert_round_trip(scen)

    def test_empty_context(self):
        with pytest.raises(ScenarioError):
            gen_contextual("", "x", ScenarioConfig(kind="contextual"))

    def test_dispatcher_uses_last_line_as_target(self):
        scen = gen_scenario(DOC, ScenarioConfig(kind="multi_place_contextual",
                                                num_sites=4, rng_seed=1))
        assert len(scen.script.ops) == 4
        assert scen.manifest["kind"] == "multi_place_contextual"
        assert_round_trip(scen)


class TestDispatchAndConfig:
    def test_unknown_kind(self):
        with pytest.raises(ScenarioError):
            ScenarioConfig(kind="swizzle")

    def test_multi_place_needs_two_sites(self):
        with pytest.raises(ScenarioError, match="num_sites"):
            ScenarioConfig(kind="multi_place_contextual", num_sites=1)

    def test_all_kinds_round_trip(self):
        for kind in ("insertion", "deletion", "edition", "contextual",
                     "multi_place_contextual"):
            for seed in range(3):
                sites = 2 if kind == "multi_place_contextual" else 1
                scen = gen_scenario(DOC, ScenarioConfig(kind=kind, rng_seed=seed,
                                                        num_sites=sites))
                assert_round_trip(scen)
                scen.script.validate(len(scen.original))

    def test_determinism(self):
        a = gen_scenario(DOC, ScenarioConfig(kind="edition", rng_seed=21))
        b = gen_scenario(DOC, ScenarioConfig(kind="edition", rng_seed=21))
        assert a.script == b.script and a.edited == b.edited


class TestSyntheticAndCorpus:
    def test_random_script_valid(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 80))
            script = random_script(n, rng, vocab_size=64)
            script.validate(n)
            apply_edit_tokens(list(range(n)), script)

    def test_tile_document_reaches_length(self):
        doc = tile_document("a\nbb\n", 10)
        assert len(doc.encode()) >= 10
        assert doc.endswith("\n")

    def test_load_corpus_file_and_dir(self, tmp_path):
        (tmp_path / "one.py").write_text("x = 1\n")
        (tmp_path / "two.py").write_text("y = 2\n")
        assert load_corpus(tmp_path / "one.py") == "x = 1\n"
        assert load_corpus(tmp_path) == "x = 1\ny = 2\n"

    def test_dump_scenario(self, tmp_path):
        import json

        from kvedit import load_script_jsonl
        from kvedit.scenarios import dump_scenario
        scen = gen_scenario(DOC, ScenarioConfig(kind="insertion", rng_seed=2))
        spath, mpath = tmp_path / "edit.jsonl", tmp_path / "manifest.json"
        dump_scenario(scen, spath, mpath)
        assert load_script_jsonl(spath) == scen.script
        manifest = json.loads(mpath.read_text())
        assert manifest["kind"] == "insertion" and "sites" in manifest
        assert manifest["seed"] == 2
