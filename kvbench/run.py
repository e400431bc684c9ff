"""kvedit benchmark runner.

    python3 kvbench/run.py --workload edit-4k --seed 1 --seconds 15 --trace 0

Sets up one workload (edit-4k, decode-4k or session-1k), measures it in a
closed loop for --seconds, and checks the outputs. With --trace 0 the
result carries the end-to-end metrics; with --trace 1 the per-layer
metrics of a traced run, plus the tracing overhead in the report. The
report goes to stdout; its last line is the result as one JSON object.
The report and, for --trace 1, the spans are also written to
kvbench/results/. See kvbench/README.md.

kvedit is imported from src/ of the checkout holding this file. BLAS is
pinned to one thread before numpy is imported.

setup_s is the median of SETUPS cold set-ups, each in a fresh interpreter
(`run.py --setup-only`): from spawning it to the moment it would start
its first timed request. Both ends read CLOCK_MONOTONIC, which all
processes share, so interpreter start-up and imports are included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas() -> None:
    """One BLAS thread for this process; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_threads():
    """Thread count OpenBLAS reports at run time, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "blas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_sha():
    """Commit of the checkout from .git files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_runtime": blas_threads(),
                 "pinned": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("edit-4k", "decode-4k", "session-1k"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def clock() -> float:
    """Seconds on CLOCK_MONOTONIC, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cold_setups(workload: str, seed: int, n: int) -> list[dict]:
    """n set-ups, each in a fresh interpreter; see the module docstring.

    Returns {"setup_s", "encode_ms"} per set-up. A set-up that fails ends
    the benchmark: the measured process would fail the same way.
    """
    out = []
    for _ in range(n):
        t0 = clock()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", "1", "--setup-only"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"kvbench: cold set-up failed:\n{proc.stderr[-2000:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append({"setup_s": child["ready_at"] - t0, "encode_ms": child["encode_ms"]})
    return out


def import_library():
    """Put src/ and this directory on the path; refuse a kvedit from elsewhere."""
    src = ROOT / "src"
    if not (src / "kvedit" / "__init__.py").is_file():
        sys.exit(f"kvbench: no kvedit sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import kvedit
    if Path(kvedit.__file__).resolve().parent != (src / "kvedit").resolve():
        sys.exit(f"kvbench: imported kvedit from {kvedit.__file__}, not {src}")
    import bench
    return bench


def measure(bench, wl, seed: int, seconds: float, trace: bool, cold: list[dict]) -> dict:
    """Set up, measure, check. Returns the report as a dict.

    `cold` holds the cold set-ups (see cold_setups); they give setup_s and
    add their pre-edit encodes to encode_ms.
    """
    import spans
    rec = bench.Record()
    t0 = time.perf_counter()
    run = bench.build(wl, seed, rec)
    report = {"setup": {"cold_s": [c["setup_s"] for c in cold],
                        "in_process_build_s": time.perf_counter() - t0}}
    if not trace:
        for c in cold:
            rec.add("encode_ms", c["encode_ms"])
        run.loop(rec, seconds)
        run.verify_deferred(rec)
        setup_s = statistics.median(c["setup_s"] for c in cold)
        metrics, report["samples"] = bench.end_to_end(rec, setup_s, len(cold))
        units = bench.END_TO_END
        records = [rec]
    else:
        run.loop(rec, seconds / 2)
        run.verify_deferred(rec)
        tracer = spans.Tracer()
        traced = bench.Record()
        with spans.patched(tracer):
            bench.Run(wl, seed, bench.Record())   # spans of one set-up, request None
            run.loop(traced, seconds / 2, tracer)
        run.verify_deferred(traced)
        bench.check_counters(tracer, traced)
        metrics, units = bench.per_layer(tracer, traced), bench.PER_LAYER
        report["tracing_overhead_ms"] = overhead(rec.samples, traced.samples)
        report["spans"] = tracer.spans
        records = [rec, traced]
    report["series"] = {r: bench.tails(x) for r, x in zip(("untraced", "traced"), records)}
    report["quality"] = bench.quality(rec)
    report["library_vs_outside_update_ms"] = {
        s: {"outside_p50": report["series"]["untraced"][f"{s}.update_ms"]["p50"],
            "library_p50": report["series"]["untraced"][f"{s}.library_update_ms"]["p50"]}
        for s in bench.STRATEGIES}
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    failures = sum((r.failures for r in records), Counter())
    report["operations"] = {"requests": [r.requests for r in records],
                            "attempted": attempted, "failed": failed,
                            "failed_pct": 100.0 * failed / attempted,
                            "failures": dict(failures.most_common(20))}
    report["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return report


def overhead(untraced: dict, traced: dict) -> dict:
    """Traced minus untraced median of each timed series, over the samples
    both phases took (both start from the same first edit)."""
    out = {}
    for key, values in traced.items():
        if key.endswith("_ms") and key != "encode_ms" and key in untraced:
            m = min(len(values), len(untraced[key]))
            out[key] = statistics.median(values[:m]) - statistics.median(untraced[key][:m])
    return out


def write_spans(spans: list, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "request", "counts"],
                   "spans": spans}, f, separators=(",", ":"))


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"# kvbench {env['workload']} seed={env['seed']} trace={env['trace']} "
          f"seconds={env['seconds']}")
    print("env " + json.dumps(env, sort_keys=True))
    samples = report.get("samples", {})
    for name, m in report["metrics"].items():
        n = samples.get(name)
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:6s}"
              + (f" n={n}" if n is not None else ""))
    ops = report["operations"]
    print(f"  {'failed_pct':44s} {ops['failed_pct']:14.6g} %      "
          f"failed={ops['failed']} attempted={ops['attempted']}")
    for what, count in ops["failures"].items():
        print(f"  FAILED x{count}: {what}")
    for s, v in report["library_vs_outside_update_ms"].items():
        print(f"  clock {s}.update_ms p50: outside {v['outside_p50']:.4f} ms, "
              f"library UpdateTiming {v['library_p50']:.4f} ms")
    print("  quality (untraced): " + json.dumps(report["quality"], sort_keys=True))
    for phase, series in report["series"].items():
        print(f"  series ({phase}): " + json.dumps(series, sort_keys=True))
    if "tracing_overhead_ms" in report:
        print("  tracing overhead, traced p50 - untraced p50 (ms): "
              + json.dumps(report["tracing_overhead_ms"], sort_keys=True))


def main(argv=None) -> int:
    args = parse(argv)
    if args.seconds <= 0:
        sys.exit("kvbench: --seconds must be positive")
    pin_blas()
    bench = import_library()
    wl = bench.WORKLOADS[args.workload]
    if args.setup_only:
        rec = bench.Record()
        bench.build(wl, args.seed, rec)
        print(json.dumps({"ready_at": clock(), "encode_ms": rec.samples["encode_ms"][0]}))
        return 0
    cold = [] if args.trace else cold_setups(wl.name, args.seed, SETUPS)
    report = measure(bench, wl, args.seed, args.seconds, bool(args.trace), cold)
    report["env"] = environment(args)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if "spans" in report:
        write_spans(report.pop("spans"), results / f"spans-{stem}.json")
    (results / f"report-{stem}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_report(report)
    ops = report["operations"]
    print(json.dumps({"correct": ops["failed"] == 0, "attempted": ops["attempted"],
                      "failed": ops["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
