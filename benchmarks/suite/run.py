"""One benchmark for both pipelines, end to end and layer by layer.

    python3 benchmarks/suite/run.py                      # every workload
    python3 benchmarks/suite/run.py --workload paper-sweep --seed 3 \\
        --seconds 10 --trace 0                           # one workload
    python3 benchmarks/suite/run.py --trace --out DIR    # + layer ledger
    python3 benchmarks/suite/run.py compare PARENT_DIR CHANGE_DIR

A run with ``--workload`` measures that workload in this process (serve
workloads start their own server process) and prints every metric by
name and unit, then, as the last line of stdout, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ledger.  Without
``--workload`` every workload runs in a fresh subprocess, one after
another.  ``--out DIR`` keeps one JSON record per run (and, traced, a
``repro-mcast obs`` artifact) for ``compare``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
SRC = ROOT / "src"

#: End-to-end metrics, reported by every workload: name -> (unit, better).
#: ``op_p10_ms`` is the mean, over the kinds of op (the paths answers
#: take: cache, table, closed form, simulation), of each kind's 10th
#: percentile, so a rare path weighs as much as a common one.  The
#: median, the tail and ops/s are printed and kept in each record's
#: ``detail``, not gated: on a shared 2-vCPU VM they move by up to a
#: quarter (median, ops/s) and a third (tail) between runs, as much as
#: or more than the largest bound allowed.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "op_p10_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Layers whose set-up time (inclusive: what one set-up spent inside
#: them) the traced run reports.
SETUP_LAYERS = (
    "topology.build", "graph.fingerprint", "graph.bfs_many", "store.build",
    "runner.sweep", "table.fit", "fleet.store.publish", "fleet.store.attach",
)
RATIOS = ("forest_cache.hit_ratio", "serve.cache_hit_ratio", "serve.coalesced_ratio")
COVERAGE_GATE = 0.95


def per_layer_metrics(layer_names) -> Dict[str, Tuple[str, str]]:
    """Per-layer metrics, reported by every traced run."""
    metrics: Dict[str, Tuple[str, str]] = {}
    for name in layer_names:
        metrics[f"{name}.self_s"] = ("s", "lower")
        metrics[f"{name}.calls"] = ("count", "lower")
    for name in SETUP_LAYERS:
        metrics[f"setup.{name}.total_s"] = ("s", "lower")
    for name in RATIOS:
        metrics[name] = ("fraction", "higher")
    metrics["trace.coverage"] = ("fraction", "higher")
    metrics["trace.overhead"] = ("fraction", "lower")
    metrics["gen.late_ms_p99"] = ("ms", "lower")
    return metrics


def bootstrap() -> None:
    """Import the program from this checkout's ``src``, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _percentiles(values: List[float]) -> Dict[str, float]:
    import numpy as np

    stats = {f"p{q}": float(np.percentile(values, q)) for q in (10, 50, 90, 95, 99)}
    stats["min"] = min(values)
    stats["mean"] = float(np.mean(values))
    return stats


def _tail(values: List[float]) -> Optional[Tuple[int, float]]:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    import numpy as np

    for q in (99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, float(np.percentile(values, q))
    return None


def _p10_by_kind(latencies: List[float], kinds: List[str]) -> Dict[str, Dict[str, float]]:
    import numpy as np

    by_kind: Dict[str, List[float]] = {}
    for latency, kind in zip(latencies, kinds):
        by_kind.setdefault(kind, []).append(latency)
    return {kind: {"ops": len(values), "p10_ms": 1e3 * float(np.percentile(values, 10))}
            for kind, values in sorted(by_kind.items())}


def evaluate(measured, trace: bool) -> Dict[str, Any]:
    """Metrics, checks and the layer ledger of one measured run."""
    import numpy as np
    import layers

    failures = list(measured.failures)
    latencies = measured.latencies or [op.end - op.start for op in measured.ops]
    detail = dict(measured.detail)
    detail["setup_s"] = measured.setup_s
    detail["latency_ms"] = {k: 1e3 * v for k, v in _percentiles(latencies).items()}
    detail["kinds"] = _p10_by_kind(latencies, measured.kinds or ["op"] * len(latencies))
    span = max(op.end for op in measured.ops) - min(op.start for op in measured.ops)
    detail["ops_per_s"] = len(measured.ops) / span
    tail = _tail(latencies)
    if tail:
        detail["tail_ms"] = {"percentile": tail[0], "value": 1e3 * tail[1]}
    values: Dict[str, Tuple[float, int]] = {}
    ledger = None
    if not trace:
        values["setup_s"] = (float(np.median(measured.setup_s)), len(measured.setup_s))
        values["op_p10_ms"] = (
            float(np.mean([k["p10_ms"] for k in detail["kinds"].values()])), len(latencies)
        )
        values["peak_rss_mb"] = (measured.peak_rss_mb, 1)
    else:
        traced = [i for i, op in enumerate(measured.ops) if op.traced]
        untraced = [i for i, op in enumerate(measured.ops) if not op.traced]
        windows = [(measured.ops[i].start, measured.ops[i].end) for i in traced]
        timed = layers.ledger(
            measured.timed_spans, windows, len(traced),
            sum(hi - lo for lo, hi in windows), measured.extra_layers,
        )
        setup = layers.ledger(
            measured.setup_spans, [(float("-inf"), float("inf"))], 1,
            sum(measured.setup_s),
        )
        ledger = {"timed": timed, "setup": setup}
        if timed["coverage"] < COVERAGE_GATE:
            failures.append(
                f"named layers cover {timed['coverage']:.3f} of the traced "
                f"time, below the {COVERAGE_GATE} gate"
            )
        n = len(traced)
        for name, entry in timed["layers"].items():
            values[f"{name}.self_s"] = (entry["self_s"], n)
            values[f"{name}.calls"] = (entry["calls"], n)
        for name in SETUP_LAYERS:
            values[f"setup.{name}.total_s"] = (setup["layers"][name]["total_s"], 1)
        for name in RATIOS:
            values[name] = (measured.ratios.get(name, 0.0), n)
        values["trace.coverage"] = (timed["coverage"], n)
        overhead = 0.0
        if traced and untraced:
            overhead = (float(np.median([latencies[i] for i in traced]))
                        / float(np.median([latencies[i] for i in untraced])) - 1.0)
        values["trace.overhead"] = (overhead, n)
        values["gen.late_ms_p99"] = (detail.get("gen_late_ms_p99", 0.0), n)
    declared = END_TO_END if not trace else per_layer_metrics(layers.LAYER_NAMES)
    metrics = {
        name: {"value": values[name][0], "unit": declared[name][0],
               "samples": values[name][1]}
        for name in declared
    }
    return {
        "correct": not failures,
        "attempted": len(measured.ops),
        "failed": min(len(failures), len(measured.ops)),
        "failures": failures,
        "digest": measured.digest,
        "metrics": metrics,
        "detail": detail,
        "ledger": ledger,
    }


def _free_path(directory: Path, stem: str, suffix: str) -> Path:
    path = directory / f"{stem}{suffix}"
    n = 2
    while path.exists():
        path = directory / f"{stem}-{n}{suffix}"
        n += 1
    return path


def write_record(args, result: Dict[str, Any], measured) -> Path:
    import layers
    from repro import obs

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    record = dict(
        workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=args.seconds, smoke=args.smoke, git_sha=_git_sha(),
        cpus=os.cpu_count(), **result,
    )
    path = _free_path(out, stem, ".json")
    if args.trace:
        artifact = path.with_name(path.stem + ".obs.json")
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump({
                "version": 1,
                "command": f"run.py --workload {args.workload} --seed {args.seed} --trace 1",
                "metrics": measured.registry or obs.MetricsRegistry().to_dict(),
                "trace": layers.reparent(
                    layers.layer_spans(measured.setup_spans + measured.timed_spans)
                ),
            }, handle, sort_keys=True)
            handle.write("\n")
        record["artifact"] = artifact.name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def print_metrics(result: Dict[str, Any]) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']:9s}"
              f" (n={metric['samples']})")
    latency = result["detail"]["latency_ms"]
    print("  op latency ms: " + "  ".join(
        f"{q} {latency[q]:.6g}" for q in ("p10", "p50", "p90", "p99")))
    if len(result["detail"]["kinds"]) > 1:
        for kind, entry in result["detail"]["kinds"].items():
            print(f"  kind {kind:28s} p10 {entry['p10_ms']:.6g} ms (n={entry['ops']})")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")
    print(f"  digest {result['digest']}")


def run_one(args) -> int:
    import workloads

    measured = workloads.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    result = evaluate(measured, bool(args.trace))
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} cpus={os.cpu_count()}")
    print_metrics(result)
    if args.out:
        print(f"  record {write_record(args, result, measured)}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    summary["metrics"] = {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in result["metrics"].items()}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    import workloads

    failed = []
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        if args.out:
            argv += ["--out", args.out]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
        if done.returncode != 0:
            failed.append(name)
    if failed:
        print(f"FAILED: {', '.join(failed)}")
    return 1 if failed else 0


def default_seconds(smoke: bool) -> int:
    if smoke:
        return 1
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 10


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all, each in a subprocess)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long a run measures (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer ledger instead")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--out", default=None,
                        help="directory for JSON records and obs artifacts")
    args = parser.parse_args(argv)
    bootstrap()
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds is None:
        args.seconds = default_seconds(args.smoke)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
