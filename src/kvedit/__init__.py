"""kvedit: a desk-scale decoder inference core with an editable KV cache.

Edits to an already-encoded context are applied to the cache by one of
four strategies - full recomputation, conflict-fast splicing, reuse, or
positional re-rotation of retained keys (PIE) - with diagnostics that
quantify how far each cheap strategy drifts from the exact reference.
"""

from .cache_edit import (EditOp, EditScript, STRATEGIES, UpdateTiming,
                         apply_edit_tokens, dump_script_jsonl, load_script_jsonl,
                         update_conflict_fast, update_full_recompute, update_pie,
                         update_reuse)
from .diagnostics import (edit_similarity, exact_match, first_non_comment_line,
                          key_cosine_by_layer, kl_divergence, levenshtein)
from .errors import (ArgumentError, CacheError, ConfigError, DiagnosticsError,
                     KveditError, NumericError, ScenarioError, ScriptError, ShapeError)
from .harness import (BenchConfig, run_bench, run_diagnose, run_simulate, suffix_span,
                      write_report)
from .kv_cache import KvCache
from .model import ModelConfig, ToyDecoder, init_model
from .rope import RotaryTable
from .scenarios import (ByteTokenizer, DEFAULT_CORPUS, Scenario, ScenarioConfig,
                        SCENARIO_KINDS, dump_scenario, gen_contextual, gen_deletion,
                        gen_edition, gen_insertion, gen_scenario, load_corpus,
                        random_script, tile_document)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError", "BenchConfig", "ByteTokenizer", "CacheError", "ConfigError",
    "DEFAULT_CORPUS", "DiagnosticsError", "EditOp", "EditScript", "KvCache",
    "KveditError", "ModelConfig", "NumericError", "RotaryTable", "SCENARIO_KINDS",
    "STRATEGIES", "Scenario", "ScenarioConfig", "ScenarioError", "ScriptError",
    "ShapeError", "ToyDecoder", "UpdateTiming", "apply_edit_tokens", "dump_scenario",
    "dump_script_jsonl", "edit_similarity", "exact_match", "first_non_comment_line",
    "gen_contextual", "gen_deletion", "gen_edition", "gen_insertion", "gen_scenario",
    "init_model", "key_cosine_by_layer", "kl_divergence", "levenshtein", "load_corpus",
    "load_script_jsonl", "random_script", "run_bench", "run_diagnose", "run_simulate",
    "suffix_span", "tile_document", "update_conflict_fast", "update_full_recompute",
    "update_pie", "update_reuse", "write_report",
]
