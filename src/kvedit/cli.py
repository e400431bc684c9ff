"""Command-line entry point: bench, diagnose, and simulate subcommands.

Exit codes: 0 success, 1 usage error, 2 validation error (bad config,
script, scenario, or corpus), 3 runtime failure. An interrupted bench
still flushes the partial report (marked "interrupted": true) and exits 3.

Defaults can come from a JSON config file (--config), whose keys must be
bench config fields; individual flags override it. KVEDIT_OUT_DIR sets
the directory for default report paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cache_edit import STRATEGIES
from .errors import ConfigError, KveditError
from .harness import (BenchConfig, run_bench, run_diagnose, run_simulate, write_report)
from .model import ModelConfig
from .scenarios import SCENARIO_KINDS, ScenarioConfig, load_corpus


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="kvedit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with bench config fields")
        p.add_argument("--strategy", action="append", dest="strategies",
                       help=f"strategy to run (repeatable): {', '.join(STRATEGIES)}")
        p.add_argument("--context-len", action="append", type=int, dest="context_lens",
                       help="context length in tokens (repeatable)")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--n-generate", type=int)
        p.add_argument("--kind", choices=SCENARIO_KINDS)
        p.add_argument("--lines-per-edit", type=int)
        p.add_argument("--num-sites", type=int)
        p.add_argument("--corpus", help="UTF-8 text file or directory (default: built-in)")
        p.add_argument("--comment-prefix")
        p.add_argument("--out", help="report path (default under KVEDIT_OUT_DIR or cwd)")
        p.add_argument("--format", choices=("json", "csv"), default=None)

    b = sub.add_parser("bench", help="timing + accuracy grid across strategies")
    common(b)
    d = sub.add_parser("diagnose", help="per-layer cosine and per-step KL arrays")
    common(d)

    s = sub.add_parser("simulate", help="replay an edit script end to end")
    s.add_argument("script", help="JSONL edit script, one op per line")
    s.add_argument("corpus", help="UTF-8 corpus file to edit")
    s.add_argument("--config", help="JSON file; its \"model\" section sets dimensions")
    s.add_argument("--strategy", default="pie")
    s.add_argument("--n-generate", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--comment-prefix")
    s.add_argument("--out", help="also write the report here")
    s.add_argument("--format", choices=("json", "csv"), default=None)
    return parser


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    if not (isinstance(raw, dict) and all(isinstance(raw.get(k, {}), dict)
                                          for k in ("model", "scenario"))):
        raise ConfigError(f"{path}: config must be a JSON object, as must its "
                          f"model and scenario sections")
    return raw


def _given(args, names) -> dict:
    """The flags among `names` that were given on the command line."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _make(cls, kwargs: dict, what: str):
    try:
        return cls(**kwargs)
    except TypeError as e:  # unknown/missing fields in a config file
        raise ConfigError(f"bad {what}: {e}") from e


def _bench_config(args) -> BenchConfig:
    """Config file fields, overridden by the flags that were given."""
    raw = _load_config_file(args.config) if args.config else {}
    scenario = {**raw.get("scenario", {}),
                **_given(args, ("kind", "lines_per_edit", "num_sites"))}
    fields = {**raw, **_given(args, ("strategies", "context_lens", "trials",
                                     "n_generate", "comment_prefix", "seed"))}
    fields["model"] = _make(ModelConfig, raw.get("model", {}), "model config")
    fields["scenario"] = _make(ScenarioConfig, scenario, "scenario config")
    return _make(BenchConfig, fields, "bench config")


def _out_path(args, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get("KVEDIT_OUT_DIR", "."), default_name)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    fmt = args.format or "json"
    try:
        if args.command in ("bench", "diagnose"):
            cfg = _bench_config(args)
            corpus = load_corpus(args.corpus) if args.corpus else None
            runner = run_bench if args.command == "bench" else run_diagnose
            report = runner(cfg, corpus)
            path = _out_path(args, f"{args.command}_report.{fmt}")
            write_report(report, path, fmt)
            print(f"wrote {path} ({len(report['cells'])} cells)")
            if report["interrupted"]:
                print("interrupted: partial results flushed", file=sys.stderr)
                return 3
            return 0

        # simulate
        raw = _load_config_file(args.config) if args.config else {}
        model_raw = dict(raw.get("model", {}))
        if args.seed is not None:
            model_raw["seed"] = args.seed
        model_cfg = _make(ModelConfig, model_raw, "model config")
        report = run_simulate(model_cfg, args.script,
                              load_corpus(args.corpus), args.strategy,
                              **_given(args, ("n_generate", "comment_prefix")))
        print(report["prediction"])
        if not report["matches_full"]:
            print(f"note: diverges from full recomputation "
                  f"(ES {report['es_vs_full']:.1f})", file=sys.stderr)
        if args.out:
            write_report(report, args.out, fmt)
            print(f"wrote {args.out}", file=sys.stderr)
        return 0
    except KveditError as e:
        print(f"kvedit: validation error: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as e:
        print(f"kvedit: validation error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("kvedit: interrupted", file=sys.stderr)
        return 3
    except Exception as e:  # genuinely unexpected
        print(f"kvedit: runtime failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
