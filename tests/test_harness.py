import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kvedit
from kvedit import (BenchConfig, ConfigError, DEFAULT_CORPUS, EditOp, EditScript,
                    ModelConfig, ScenarioConfig, dump_script_jsonl, init_model,
                    run_bench, run_diagnose, run_simulate, suffix_span, tile_document,
                    write_report)
from kvedit.cli import main as cli_main
from kvedit.scenarios import ByteTokenizer

# smallest config that can encode raw byte corpora (vocab must cover 0..255)
BYTE_MODEL = ModelConfig(n_layers=3, n_heads=2, head_dim=8, hidden_dim=16,
                         mlp_dim=32, vocab_size=280, seed=5)

CELL_KEYS = {"strategy", "context_len", "trials", "update_ms", "recomputed_tokens_mean",
             "rotated_keys_mean", "em_vs_full_pct", "es_vs_full", "kl_vs_full_mean",
             "kl_by_step", "cosine_by_layer"}


def bench_cfg(**kw):
    base = dict(model=BYTE_MODEL, strategies=("full", "pie"), context_lens=(192,),
                scenario=ScenarioConfig(kind="insertion", rng_seed=2),
                trials=2, n_generate=4)
    base.update(kw)
    return BenchConfig(**base)


class TestSuffixSpan:
    def test_single_insertion(self):
        script = EditScript((EditOp(10, 10, (1, 2, 3)),))
        assert suffix_span(script, 20) == (13, 20)

    def test_multi_op_cumulative(self):
        script = EditScript((EditOp(2, 4, (9,)), EditOp(8, 8, (7, 7)),))
        # first op shifts by -1; second starts at post 7, adds 2 new tokens
        assert suffix_span(script, 15) == (9, 15)

    def test_edit_at_end_has_no_suffix(self):
        script = EditScript((EditOp(5, 5, (1,)),))
        assert suffix_span(script, 6) is None

    def test_empty_script_spans_everything(self):
        assert suffix_span(EditScript(), 9) == (0, 9)


class TestBench:
    def test_cell_grid_and_schema(self):
        report = run_bench(bench_cfg(strategies=("full", "conflict_fast", "pie"),
                                     context_lens=(160, 224)))
        assert report["schema"] == "kvedit.bench.v1"
        assert not report["interrupted"]
        assert len(report["cells"]) == 3 * 2
        for cell in report["cells"]:
            assert set(cell.keys()) == CELL_KEYS
            assert len(cell["update_ms"]["values"]) == report["trials"]

    def test_full_vs_itself_is_exact(self):
        report = run_bench(bench_cfg(strategies=("full",)))
        cell = report["cells"][0]
        assert cell["kl_vs_full_mean"] == 0.0
        assert cell["em_vs_full_pct"] == 100.0
        assert cell["es_vs_full"] == 100.0
        np.testing.assert_allclose(cell["cosine_by_layer"], 1.0, atol=1e-7)

    def test_reuse_cell_has_no_cosine(self):
        report = run_bench(bench_cfg(strategies=("reuse",)))
        assert report["cells"][0]["cosine_by_layer"] is None

    def test_update_timing_excludes_generation(self):
        fast = run_bench(bench_cfg(strategies=("pie",), n_generate=2, trials=3))
        slow = run_bench(bench_cfg(strategies=("pie",), n_generate=24, trials=3))
        t_fast = fast["cells"][0]["update_ms"]["median"]
        t_slow = slow["cells"][0]["update_ms"]["median"]
        # 12x more generated tokens must not drag update time with it
        assert t_slow < 5 * t_fast + 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            bench_cfg(trials=0)
        with pytest.raises(ConfigError):
            bench_cfg(strategies=("pie", "warp"))
        with pytest.raises(ConfigError):
            bench_cfg(context_lens=())
        with pytest.raises(ConfigError):
            bench_cfg(comment_prefix="")
        with pytest.raises(ConfigError, match="n_generate"):
            bench_cfg(n_generate=0)
        with pytest.raises(ConfigError, match="context_lens"):
            bench_cfg(context_lens=(192, 0))
        assert bench_cfg(context_lens=[192], strategies=["pie"]).context_lens == (192,)


class TestDiagnose:
    def test_arrays_and_orderings(self):
        report = run_diagnose(bench_cfg(strategies=("full", "conflict_fast", "pie"),
                                        trials=3, n_generate=6))
        assert report["schema"] == "kvedit.diagnose.v1"
        by_strategy = {c["strategy"]: c for c in report["cells"]}
        pie, cfe = by_strategy["pie"], by_strategy["conflict_fast"]
        assert len(pie["kl_by_step"]) == 6
        assert abs(pie["cosine_by_layer"][0] - 1.0) < 1e-6
        for l in range(BYTE_MODEL.n_layers):
            assert cfe["cosine_by_layer"][l] < pie["cosine_by_layer"][l]


class TestSimulate:
    def test_empty_script_matches_no_edit_generation(self, tmp_path):
        corpus = tile_document(DEFAULT_CORPUS, 150)
        script_path = tmp_path / "noop.jsonl"
        script_path.write_text("")
        report = run_simulate(BYTE_MODEL, str(script_path), corpus, "pie",
                              n_generate=6)
        model = init_model(BYTE_MODEL)
        tok = ByteTokenizer()
        ids = tok.encode(corpus)
        cache, _ = model.encode(ids)
        plain = model.generate_greedy(cache, ids[-1], 6)
        assert report["generated_text"] == tok.decode(plain)
        assert report["matches_full"]

    def test_deterministic(self, tmp_path):
        corpus = tile_document(DEFAULT_CORPUS, 150)
        path = tmp_path / "s.jsonl"
        dump_script_jsonl(EditScript((EditOp(10, 20, tuple(range(40, 55))),)), path)
        a = run_simulate(BYTE_MODEL, str(path), corpus, "pie", n_generate=5)
        b = run_simulate(BYTE_MODEL, path, corpus, "pie", n_generate=5)  # a pathlib.Path
        a["timing"].pop("update_ms")
        b["timing"].pop("update_ms")  # wall time is the one legitimately noisy field
        assert a == b

    def test_reuse_divergence_flagged(self, tmp_path):
        corpus = tile_document(DEFAULT_CORPUS, 150)
        # replace the tail so reuse decodes from a different entry token
        ids = ByteTokenizer().encode(corpus)
        op = EditOp(len(ids) - 8, len(ids), tuple(ByteTokenizer().encode("w = 9\n")))
        path = tmp_path / "tail.jsonl"
        dump_script_jsonl(EditScript((op,)), path)
        report = run_simulate(BYTE_MODEL, str(path), corpus, "reuse", n_generate=6)
        assert "matches_full" in report and "es_vs_full" in report
        full = run_simulate(BYTE_MODEL, str(path), corpus, "full", n_generate=6)
        assert full["matches_full"]


class TestReportFiles:
    def test_json_and_csv(self, tmp_path):
        report = run_bench(bench_cfg())
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        write_report(report, jpath, "json")
        assert json.loads(jpath.read_text())["schema"] == "kvedit.bench.v1"
        write_report(report, cpath, "csv")
        header = cpath.read_text().splitlines()[0]
        assert header.startswith("strategy,context_len,trials,update_ms_mean")
        assert f"cosine_l{BYTE_MODEL.n_layers - 1}" in header

    def test_diagnose_csv(self, tmp_path):
        report = run_diagnose(bench_cfg(strategies=("pie",), n_generate=3))
        path = tmp_path / "d.csv"
        write_report(report, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "strategy,context_len,series,index,value"
        assert any("kl_by_step" in l for l in lines)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            write_report({"schema": "kvedit.bench.v1"}, tmp_path / "x", "yaml")


class TestCli:
    def _write_cfg(self, tmp_path, **fields):
        cfg = {"model": {"n_layers": 2, "n_heads": 2, "head_dim": 8, "hidden_dim": 16,
                         "mlp_dim": 32, "vocab_size": 280, "seed": 3},
               "strategies": ["pie"], "context_lens": [160], "trials": 1, "n_generate": 3,
               **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_bench_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = cli_main(["bench", "--config", self._write_cfg(tmp_path),
                         "--strategy", "pie", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["cells"][0]["strategy"] == "pie"
        assert "wrote" in capsys.readouterr().out

    def test_out_dir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KVEDIT_OUT_DIR", str(tmp_path))
        code = cli_main(["diagnose", "--config", self._write_cfg(tmp_path),
                         "--strategy", "pie"])
        assert code == 0
        assert (tmp_path / "diagnose_report.json").exists()

    def test_simulate_end_to_end(self, tmp_path, capsys):
        corpus_path = tmp_path / "ctx.py"
        corpus_path.write_text(tile_document(DEFAULT_CORPUS, 140))
        script_path = tmp_path / "s.jsonl"
        script_path.write_text('{"start": 4, "end": 4, "tokens": [102, 111, 111, 10]}\n')
        code = cli_main(["simulate", str(script_path), str(corpus_path),
                         "--strategy", "pie", "--n-generate", "3"])
        assert code == 0

    def test_usage_error_exits_1(self):
        assert pytest.raises(SystemExit, cli_main, ["bench", "--format", "xml"]).value.code == 1
        assert pytest.raises(SystemExit, cli_main, []).value.code == 1

    def test_validation_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"start": 5}\n')
        corpus_path = tmp_path / "c.py"
        corpus_path.write_text("x = 1\ny = 2\n")
        assert cli_main(["simulate", str(bad), str(corpus_path)]) == 2

    @pytest.mark.parametrize("flag, value", [("--lines-per-edit", "0"),
                                             ("--num-sites", "0"),
                                             ("--comment-prefix", "")])
    def test_invalid_flag_value_exits_2(self, tmp_path, flag, value):
        assert cli_main(["bench", "--config", self._write_cfg(tmp_path),
                         "--strategy", "pie", flag, value]) == 2

    @pytest.mark.parametrize("command, flags, cfg_fields, field", [
        ("bench", ["--n-generate", "0"], {}, "n_generate"),
        ("bench", ["--context-len", "0"], {}, "context_len"),
        ("bench", [], {"trails": 9}, "trails"),  # misspelt config key
        ("bench", ["--kind", "multi_place_contextual"], {}, "num_sites"),
        ("simulate", ["--n-generate", "0"], {}, "n_generate"),
        ("simulate", ["--comment-prefix", ""], {}, "comment_prefix"),
        ("bench", ["--seed", "-1"], {}, "seed"),
        ("bench", [], {"seed": 1.5}, "seed"),
        ("bench", [], {"scenario": {"rng_seed": -3}}, "rng_seed"),
        ("bench", [], {"model": {"n_layers": 1.5}}, "n_layers"),
        ("bench", [], {"trials": True}, "trials"),
        ("bench", [], {"model": {"rope_base": "x"}}, "rope_base"),
        ("bench", [], {"model": {"rope_base": -5}}, "rope_base"),
        ("bench", [], {"model": {"rope_base": True}}, "rope_base"),
        ("bench", [], {"comment_prefix": 5}, "comment_prefix"),
        ("bench", [], {"strategies": "pie"}, "strategies"),
    ], ids=["bench_n_generate_0", "bench_context_len_0", "bench_unknown_config_key",
            "bench_multi_place_one_site", "simulate_n_generate_0",
            "simulate_empty_comment_prefix", "bench_negative_seed", "bench_float_seed",
            "bench_negative_rng_seed", "bench_float_n_layers", "bench_bool_trials",
            "bench_str_rope_base", "bench_negative_rope_base", "bench_bool_rope_base",
            "bench_int_comment_prefix", "bench_str_strategies"])
    def test_bad_input_exits_2_naming_it(self, tmp_path, capsys, command, flags,
                                         cfg_fields, field):
        if command == "bench":
            cfg = self._write_cfg(tmp_path, **cfg_fields)
            argv = ["bench", "--config", cfg, "--out", str(tmp_path / "r.json"), *flags]
        else:
            corpus_path = tmp_path / "ctx.py"
            corpus_path.write_text(tile_document(DEFAULT_CORPUS, 120))
            script_path = tmp_path / "s.jsonl"
            script_path.write_text('{"start": 2, "end": 2, "tokens": [65, 10]}\n')
            argv = ["simulate", str(script_path), str(corpus_path), *flags]
        assert cli_main(argv) == 2
        assert field in capsys.readouterr().err

    def test_module_entry_point_help(self):
        env = {**os.environ, "PYTHONPATH": str(Path(kvedit.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "kvedit", "--help"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "bench" in done.stdout

    def test_bad_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for raw in ({"model": {"no_such_field": 1}}, [1, 2], {"scenario": "insertion"}):
            cfg.write_text(json.dumps(raw))
            assert cli_main(["bench", "--config", str(cfg), "--strategy", "pie"]) == 2

    def test_simulate_respects_config_model(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"n_layers": 2, "n_heads": 2,
                                             "head_dim": 8, "hidden_dim": 16,
                                             "mlp_dim": 32, "vocab_size": 280}}))
        corpus_path = tmp_path / "ctx.py"
        corpus_path.write_text(tile_document(DEFAULT_CORPUS, 120))
        script_path = tmp_path / "s.jsonl"
        script_path.write_text('{"start": 2, "end": 2, "tokens": [65, 10]}\n')
        code = cli_main(["simulate", str(script_path), str(corpus_path),
                         "--config", str(cfg), "--n-generate", "2"])
        assert code == 0

    def test_missing_corpus_exits_2(self, tmp_path):
        script = tmp_path / "s.jsonl"
        script.write_text("")
        assert cli_main(["simulate", str(script), str(tmp_path / "nope.py")]) == 2
