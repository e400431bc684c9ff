"""Benchmark and diagnostics runners behind the CLI.

A bench cell is one (strategy, context length) pair. Per trial: tile the
corpus to the requested context length, generate a seeded scenario,
pre-encode the original, update the cache with the strategy under test,
then greedily generate and score against the full-recomputation reference.
Update timing comes from the update ops themselves (monotonic clock,
measured around cache-update work only); one untimed warm-up update runs
per cell before the timed trials. Trials within a cell run sequentially
for timing fidelity. `simulate` is one such trial on a user's tokens and
script.

Report dicts are schema-stable; see README for the field list.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cache_edit import (EditScript, STRATEGIES, apply_edit_tokens, load_script_jsonl,
                         update_full_recompute)
from .diagnostics import (edit_similarity, exact_match, first_non_comment_line,
                          key_cosine_by_layer, kl_divergence)
from .errors import ConfigError, check_int
from .model import ModelConfig, ToyDecoder, init_model
from .scenarios import (ByteTokenizer, DEFAULT_CORPUS, ScenarioConfig, gen_scenario,
                        tile_document)

BENCH_SCHEMA = "kvedit.bench.v1"
DIAGNOSE_SCHEMA = "kvedit.diagnose.v1"
SIMULATE_SCHEMA = "kvedit.simulate.v1"

_BENCH_COLUMNS = ["strategy", "context_len", "trials", "update_ms_mean", "update_ms_std",
                  "update_ms_median", "recomputed_tokens_mean", "rotated_keys_mean",
                  "em_vs_full_pct", "es_vs_full", "kl_vs_full_mean"]


@dataclass
class BenchConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    strategies: tuple[str, ...] = ("full", "conflict_fast", "pie")
    context_lens: tuple[int, ...] = (256, 512)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    trials: int = 3
    n_generate: int = 64
    comment_prefix: str = "#"
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.strategies, str):
            raise ConfigError(f"strategies must be a list of names, got {self.strategies!r}")
        self.strategies = tuple(self.strategies)
        self.context_lens = tuple(self.context_lens)
        check_int(ConfigError, "trials", self.trials, 1)
        check_int(ConfigError, "seed", self.seed, 0)
        if not self.context_lens:
            raise ConfigError("context_lens must be non-empty")
        for n in self.context_lens:
            check_int(ConfigError, "context_lens entries", n, 1)
        _check_run_inputs(self.strategies, self.n_generate, self.comment_prefix)


def _check_run_inputs(strategies, n_generate: int, comment_prefix: str) -> None:
    """The checks bench and simulate share, run before any model is built."""
    bad = [s for s in strategies if s not in STRATEGIES]
    if bad:
        raise ConfigError(f"unknown strategy {bad[0]!r}; expected one of {tuple(STRATEGIES)}")
    check_int(ConfigError, "n_generate", n_generate, 1)
    if not (isinstance(comment_prefix, str) and comment_prefix):
        raise ConfigError(f"comment_prefix must be a non-empty string, got {comment_prefix!r}")


def suffix_span(script: EditScript, post_len: int) -> tuple[int, int] | None:
    """Retained suffix after the last op, in post-edit coordinates.

    This is the span where stale rotations live; None when the edit
    reaches the end of the sequence.
    """
    if not script.ops:
        return (0, post_len)
    cum = sum(op.delta for op in script.ops[:-1])
    last = script.ops[-1]
    start = last.start + cum + len(last.new_tokens)
    return (start, post_len) if start < post_len else None


class _Trial:
    """Everything one trial shares across strategy cells."""

    def __init__(self, model: ToyDecoder, original: list[int], script: EditScript,
                 n_generate: int, comment_prefix: str):
        tok = ByteTokenizer()
        self.original = original
        self.script = script
        self.edited = apply_edit_tokens(original, script)
        self.pre_cache, _ = model.encode(self.original)
        self.ref_cache, _ = update_full_recompute(model, self.pre_cache, original, script)
        ref_tokens, self.ref_dists = model.generate_greedy(
            self.ref_cache.copy(), self.edited[-1], n_generate, return_distributions=True)
        self.ref_pred = first_non_comment_line(tok.decode(ref_tokens), comment_prefix)
        self._tok = tok
        self._model = model
        self._n_generate = n_generate
        self._comment_prefix = comment_prefix

    def score(self, strategy: str) -> dict:
        """Update with `strategy`, generate, and compare to the reference."""
        cache, timing = STRATEGIES[strategy](self._model, self.pre_cache,
                                             self.original, self.script)
        entry = self.original[-1] if strategy == "reuse" else self.edited[-1]
        cosine = None
        if cache.logical_len == self.ref_cache.logical_len:
            span = suffix_span(self.script, self.ref_cache.logical_len)
            if span is not None:
                cosine = key_cosine_by_layer(cache, self.ref_cache, span).tolist()
        tokens, dists = self._model.generate_greedy(
            cache.copy(), entry, self._n_generate, return_distributions=True)
        kl = [kl_divergence(p, q) for p, q in zip(self.ref_dists, dists)]
        text = self._tok.decode(tokens)
        pred = first_non_comment_line(text, self._comment_prefix)
        return {"timing": timing.as_dict(), "cosine_by_layer": cosine,
                "kl_by_step": kl, "em": exact_match(pred, self.ref_pred),
                "es": edit_similarity(pred, self.ref_pred), "prediction": pred,
                "text": text}


def _mean_std_median(values: list[float]) -> dict:
    return {"mean": statistics.fmean(values),
            "std": statistics.pstdev(values) if len(values) > 1 else 0.0,
            "median": statistics.median(values),
            "values": list(values)}


def _aggregate_cell(strategy: str, context_len: int, rows: list[dict]) -> dict:
    cosines = [r["cosine_by_layer"] for r in rows]
    kl_steps = np.mean([r["kl_by_step"] for r in rows], axis=0).tolist()
    return {
        "strategy": strategy, "context_len": context_len, "trials": len(rows),
        "update_ms": _mean_std_median([r["timing"]["update_ms"] for r in rows]),
        "recomputed_tokens_mean": statistics.fmean(
            r["timing"]["recomputed_tokens"] for r in rows),
        "rotated_keys_mean": statistics.fmean(
            r["timing"]["rotated_keys"] for r in rows),
        "em_vs_full_pct": 100.0 * statistics.fmean(r["em"] for r in rows),
        "es_vs_full": statistics.fmean(r["es"] for r in rows),
        "kl_vs_full_mean": float(np.mean(kl_steps)),
        "kl_by_step": kl_steps,
        "cosine_by_layer": (np.mean(cosines, axis=0).tolist()
                            if all(c is not None for c in cosines) else None),
    }


def _run_cells(cfg: BenchConfig, corpus: str | None, schema: str) -> dict:
    model = init_model(cfg.model)
    corpus = corpus if corpus is not None else DEFAULT_CORPUS
    cells: list[dict] = []
    interrupted = False
    try:
        for context_len in cfg.context_lens:
            document = tile_document(corpus, context_len)
            trials = []
            for t in range(cfg.trials):
                scen = gen_scenario(document, replace(
                    cfg.scenario, rng_seed=cfg.scenario.rng_seed + cfg.seed + t))
                trials.append(_Trial(model, scen.original, scen.script, cfg.n_generate,
                                     cfg.comment_prefix))
            for strategy in cfg.strategies:
                STRATEGIES[strategy](model, trials[0].pre_cache, trials[0].original,
                                     trials[0].script)  # warm-up, untimed
                rows = [trial.score(strategy) for trial in trials]
                cells.append(_aggregate_cell(strategy, context_len, rows))
    except KeyboardInterrupt:
        interrupted = True
    return {"schema": schema,
            "model": asdict(cfg.model),
            "scenario": {"kind": cfg.scenario.kind,
                         "lines_per_edit": cfg.scenario.lines_per_edit,
                         "num_sites": cfg.scenario.num_sites},
            "trials": cfg.trials, "n_generate": cfg.n_generate, "seed": cfg.seed,
            "interrupted": interrupted, "cells": cells}


def run_bench(cfg: BenchConfig, corpus: str | None = None) -> dict:
    """Aggregate timing + accuracy report: one cell per strategy x context_len."""
    return _run_cells(cfg, corpus, BENCH_SCHEMA)


def run_diagnose(cfg: BenchConfig, corpus: str | None = None) -> dict:
    """The bench report under the diagnose schema, whose CSV flattens the
    plot-ready per-layer cosine and per-step KL arrays."""
    return _run_cells(cfg, corpus, DIAGNOSE_SCHEMA)


def run_simulate(model_cfg: ModelConfig, script_path, corpus: str, strategy: str,
                 n_generate: int = 64, comment_prefix: str = "#") -> dict:
    """Replay a user-provided edit script end to end with one strategy.

    Always also runs the full-recomputation reference and flags divergence
    of the truncated predictions.
    """
    _check_run_inputs((strategy,), n_generate, comment_prefix)
    script = script_path if isinstance(script_path, EditScript) \
        else load_script_jsonl(script_path)
    original = ByteTokenizer().encode(corpus)
    script.validate(len(original))
    trial = _Trial(init_model(model_cfg), original, script, n_generate, comment_prefix)
    row = trial.score(strategy)
    return {"schema": SIMULATE_SCHEMA, "strategy": strategy,
            "model": asdict(model_cfg), "n_generate": n_generate,
            "prediction": row["prediction"], "full_prediction": trial.ref_pred,
            "matches_full": row["prediction"] == trial.ref_pred,
            "em_vs_full": row["em"], "es_vs_full": row["es"],
            "timing": row["timing"], "generated_text": row["text"]}


# -- report files -----------------------------------------------------------------

def write_report(report: dict, path, fmt: str = "json") -> None:
    """Write a report as JSON, or flatten to CSV with a fixed column order."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        return
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}; expected json or csv")
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        if report["schema"] == BENCH_SCHEMA:
            n_layers = report["model"]["n_layers"]
            cols = _BENCH_COLUMNS + [f"cosine_l{i}" for i in range(n_layers)]
            writer.writerow(cols)
            for cell in report["cells"]:
                cos = cell["cosine_by_layer"] or [""] * n_layers
                writer.writerow([cell["strategy"], cell["context_len"], cell["trials"],
                                 cell["update_ms"]["mean"], cell["update_ms"]["std"],
                                 cell["update_ms"]["median"],
                                 cell["recomputed_tokens_mean"], cell["rotated_keys_mean"],
                                 cell["em_vs_full_pct"], cell["es_vs_full"],
                                 cell["kl_vs_full_mean"], *cos])
        elif report["schema"] == DIAGNOSE_SCHEMA:
            writer.writerow(["strategy", "context_len", "series", "index", "value"])
            for cell in report["cells"]:
                for i, v in enumerate(cell["cosine_by_layer"] or []):
                    writer.writerow([cell["strategy"], cell["context_len"],
                                     "cosine_by_layer", i, v])
                for i, v in enumerate(cell["kl_by_step"]):
                    writer.writerow([cell["strategy"], cell["context_len"],
                                     "kl_by_step", i, v])
        else:  # simulate: flat key/value rows
            writer.writerow(["key", "value"])
            for key, value in report.items():
                writer.writerow([key, json.dumps(value) if isinstance(value, (dict, list))
                                 else value])
