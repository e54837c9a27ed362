"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload laf-fit-ms768 --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload sharded-glove200 --seed 1 --seconds 22 --trace 1
    python3 perfbench/run.py --workload laf-fit-ms768 --seed 1 --seconds 3 --size smoke

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
session with every layer traced and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and sample count, the derived
report and the environment. The full result (and, when traced, every
span) is written under ``perfbench/out/``. The exit code is 1 when any
output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy is first imported (the
# pool's workers inherit it). The benchmark runs on a few cores of a
# shared host, where BLAS threads spin-waiting for each other, and the
# remote workers' threads on top of them, time the scheduler rather
# than the program.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Seed used while developing the benchmark and changes measured with it.
DEV_SEED = 1
#: Seed kept out of development, for confirming a claimed gain.
HELDOUT_SEED = 7

END_TO_END = {
    "setup_s": "s",
    "dbscan_fit_s": "s",
    "laf_fit_s": "s",
    "lafpp_fit_s": "s",
    "laf_ari": "ratio",
    "predict_p50_ms": "ms",
    "reload_s": "s",
}

PER_LAYER = {
    "estimators.train_s": "s",
    "estimators.estimate_s": "s",
    "estimators.rows": "count",
    "core.range_queries": "count",
    "core.skipped_queries": "count",
    "core.skip_frac": "ratio",
    "core.false_positive_frac": "ratio",
    "core.fn_detected": "count",
    "core.merges": "count",
    "core.partial_neighbors_update_s": "s",
    "core.post_process_s": "s",
    "core.laf_expansion_self_s": "s",
    "core.lafpp_components_s": "s",
    "core.lafpp_assign_s": "s",
    "core.lafpp_self_s": "s",
    "clustering.dbscan_expansion_self_s": "s",
    "engine.fetch_s": "s",
    "engine.batches": "count",
    "engine.computed": "count",
    "engine.cache_hits": "count",
    "index.range_query_s": "s",
    "index.extract_self_s": "s",
    "index.neighbors_returned": "count",
    "distances.kernel_s": "s",
    "distances.blocks": "count",
    "distances.gflop": "GFLOP",
    "distances.bytes_moved": "bytes",
    "distances.gflop_per_s": "GFLOP/s",
    "persistence.save_s": "s",
    "persistence.artifact_bytes": "bytes",
    "persistence.load_s": "s",
    "persistence.predict_s": "s",
    "persistence.predict_rows": "count",
    "persistence.predict_range_query_s": "s",
    "persistence.predict_select_self_s": "s",
    "serving.queue_wait_p50_ms": "ms",
    "serving.queue_wait_p99_ms": "ms",
    "serving.kernel_p50_ms": "ms",
    "serving.kernel_p99_ms": "ms",
    "serving.batch_rows_mean": "rows",
    "serving.batches": "count",
    "serving.rejected_overload": "count",
    "serving.deadline_missed": "count",
    "serving.generator_lag_p99_ms": "ms",
    "sharded.range_query_s": "s",
    "sharded.fanout_wait_s": "s",
    "sharded.merge_s": "s",
    "sharded.inner_builds": "count",
    "sharded.rebalances": "count",
    "sharded.unsharded_fit_s": "s",
    "remote.frames": "count",
    "remote.bytes_sent": "bytes",
    "remote.bytes_received": "bytes",
    "remote.recv_wait_s": "s",
    "trace.dbscan_overhead_s": "s",
    "trace.laf_overhead_s": "s",
    "trace.lafpp_overhead_s": "s",
    "trace.dbscan_unattributed_frac": "ratio",
    "trace.laf_unattributed_frac": "ratio",
    "trace.lafpp_unattributed_frac": "ratio",
    "report.laf_speedup_vs_dbscan": "ratio",
    "report.sharded_speedup": "ratio",
    "report.lafpp_ari": "ratio",
    "report.predict_p99_ms": "ms",
    "report.saturated_rows_per_s": "rows/s",
    "report.failed_frac": "ratio",
}


def median(values) -> float:
    return float(statistics.median(values))


def mean_of_medians(per_dataset) -> float:
    """The mean over the datasets of the median on each (datasets without samples skipped)."""
    return float(statistics.fmean(median(v) for v in per_dataset if v))


def count(per_dataset) -> int:
    return sum(len(v) for v in per_dataset)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def tail_percentile(values, q: float = 99.0) -> float:
    """The ``q``-th percentile, or the highest one with 10 samples beyond it."""
    import numpy as np

    n = len(values)
    if n * (1 - q / 100) < 10:
        q = max(50.0, 100.0 * (1 - 10 / n)) if n > 20 else 100.0
    return float(np.percentile(values, q))


def end_to_end_metrics(out) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count), from an untraced session."""
    fits = count(out.fit_s["dbscan"])
    return {
        "setup_s": (median(out.setup_runs_s) + out.prepare_s, len(out.setup_runs_s)),
        "dbscan_fit_s": (mean_of_medians(out.fit_s["dbscan"]), fits),
        "laf_fit_s": (mean_of_medians(out.fit_s["laf"]), fits),
        "lafpp_fit_s": (mean_of_medians(out.fit_s["lafpp"]), fits),
        "laf_ari": (mean_of_medians(out.ari["laf"]), count(out.ari["laf"])),
        "predict_p50_ms": (1e3 * median(out.latencies_s), len(out.latencies_s)),
        "reload_s": (median(out.reload_s), len(out.reload_s)),
    }


def report(out) -> dict[str, tuple[float, int]]:
    """Shown and recorded, never gated: derived ratios, and the metrics whose
    spread across seeds is wider than any bound allows (see README.md)."""
    dbscan = mean_of_medians(out.fit_s["dbscan"])
    fits = count(out.fit_s["dbscan"])
    unsharded = statistics.fmean(out.unsharded_fit_s) if out.unsharded_fit_s else 0.0
    return {
        "report.laf_speedup_vs_dbscan": (dbscan / mean_of_medians(out.fit_s["laf"]), fits),
        "report.sharded_speedup": (unsharded / dbscan, fits),
        "report.lafpp_ari": (mean_of_medians(out.ari["lafpp"]), count(out.ari["lafpp"])),
        "report.predict_p99_ms": (
            1e3 * tail_percentile(out.latencies_s),
            len(out.latencies_s),
        ),
        "report.saturated_rows_per_s": (
            out.saturated_rows / out.saturated_s,
            out.saturated_rows,
        ),
        "report.failed_frac": (out.failed / max(1, out.attempted), out.attempted),
    }


def layer_metrics(out) -> dict[str, tuple[float, int]]:
    """Per-layer metric -> (value, sample count), from a traced session."""
    setup, fit, serve = out.tracers["setup"], out.tracers["fit"], out.tracers["serve"]
    stats = out.traced_fit_stats
    laf = stats["laf"]
    executed = laf.get("range_queries", 0)
    gated = executed + laf.get("skipped_queries", 0)

    def summed(key: str) -> float:
        return float(sum(s.get(key, 0) for s in stats.values()))

    kernel_s = fit.total("distances.kernel")
    loads = [s.duration for s in serve.select("persistence.load")]
    paced = out.paced_server_stats
    metrics = {
        "estimators.train_s": setup.total("estimators.train"),
        "estimators.estimate_s": fit.total("estimators.estimate"),
        "estimators.rows": fit.counts.get("estimators.rows", 0),
        "core.range_queries": executed,
        "core.skipped_queries": laf.get("skipped_queries", 0),
        "core.skip_frac": laf.get("skipped_queries", 0) / gated if gated else 0.0,
        # LAF-DBSCAN marks core exactly the executed queries with >= tau
        # neighbours; the other executed queries were false positives.
        "core.false_positive_frac": 1 - laf["core_points"] / executed if executed else 0.0,
        "core.fn_detected": laf.get("fn_detected", 0),
        "core.merges": laf.get("merges", 0),
        "core.partial_neighbors_update_s": fit.total(
            "core.partial_neighbors_update", within="core.laf_fit"
        ),
        "core.post_process_s": fit.total("core.post_process", within="core.laf_fit"),
        "core.laf_expansion_self_s": fit.self_total("core.laf_fit"),
        "core.lafpp_components_s": fit.total("core.lafpp_components"),
        "core.lafpp_assign_s": fit.total("core.lafpp_assign"),
        "core.lafpp_self_s": fit.self_total("core.lafpp_fit"),
        "clustering.dbscan_expansion_self_s": fit.self_total("clustering.dbscan_fit"),
        "engine.fetch_s": fit.total("engine.fetch"),
        "engine.batches": summed("engine_batches"),
        "engine.computed": summed("engine_computed"),
        "engine.cache_hits": summed("engine_cache_hits"),
        "index.range_query_s": fit.total("index.range_query"),
        "index.extract_self_s": fit.self_total("index.range_query"),
        "index.neighbors_returned": fit.counts.get("index.neighbors_returned", 0),
        "distances.kernel_s": kernel_s,
        "distances.blocks": fit.counts.get("distances.blocks", 0),
        "distances.gflop": fit.counts.get("distances.gflop", 0.0),
        "distances.bytes_moved": fit.counts.get("distances.bytes_moved", 0.0),
        "distances.gflop_per_s": (
            fit.counts.get("distances.gflop", 0.0) / kernel_s if kernel_s else 0.0
        ),
        "persistence.save_s": out.tracers["prepare"].total("persistence.save"),
        "persistence.artifact_bytes": out.artifact_bytes,
        "persistence.load_s": median(loads) if loads else 0.0,
        "persistence.predict_s": serve.total("persistence.predict"),
        "persistence.predict_rows": serve.counts.get("persistence.predict_rows", 0),
        "persistence.predict_range_query_s": serve.total(
            "index.range_query", within="persistence.predict"
        ),
        "persistence.predict_select_self_s": serve.self_total("persistence.predict"),
        "serving.queue_wait_p50_ms": paced["queue_wait_ms"]["p50"],
        "serving.queue_wait_p99_ms": paced["queue_wait_ms"]["p99"],
        "serving.kernel_p50_ms": paced["kernel_ms"]["p50"],
        "serving.kernel_p99_ms": paced["kernel_ms"]["p99"],
        "serving.batch_rows_mean": paced["batch_rows"]["mean"],
        "serving.batches": paced["counters"]["batches"],
        "serving.rejected_overload": paced["counters"]["rejected_overload"],
        "serving.deadline_missed": paced["counters"]["deadline_missed"],
        "serving.generator_lag_p99_ms": 1e3 * tail_percentile(out.generator_lags_s),
        "sharded.range_query_s": fit.total("sharded.range_query"),
        "sharded.fanout_wait_s": fit.total("sharded.fanout_wait"),
        "sharded.merge_s": fit.total("sharded.merge"),
        "sharded.inner_builds": summed("shard_inner_builds"),
        "sharded.rebalances": summed("shard_rebalances"),
        "sharded.unsharded_fit_s": (
            statistics.fmean(out.unsharded_fit_s) if out.unsharded_fit_s else 0.0
        ),
        "remote.frames": fit.counts.get("remote.frames", 0),
        "remote.bytes_sent": fit.counts.get("remote.bytes_sent", 0),
        "remote.bytes_received": fit.counts.get("remote.bytes_received", 0),
        "remote.recv_wait_s": fit.total("remote.recv"),
    }
    for method, span in (
        ("dbscan", "clustering.dbscan_fit"),
        ("laf", "core.laf_fit"),
        ("lafpp", "core.lafpp_fit"),
    ):
        # The traced round runs on the first dataset.
        metrics[f"trace.{method}_overhead_s"] = out.traced_fit_s[method] - median(
            out.fit_s[method][0]
        )
        total = fit.total(span)
        metrics[f"trace.{method}_unattributed_frac"] = (
            fit.self_total(span) / total if total else 0.0
        )
    metrics.update({name: value for name, (value, _) in report(out).items()})
    return {name: (float(value), 1) for name, value in metrics.items()}


def environment(args) -> dict:
    import numpy as np

    try:
        import threadpoolctl  # noqa: F401

        has_threadpoolctl = True
    except ImportError:
        has_threadpoolctl = False
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpus = usable_cpus()
    return {
        "usable_cpus": cpus,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "openblas_configuration": blas.get("openblas configuration"),
            # Pinned above through OPENBLAS_NUM_THREADS, which also holds
            # without threadpoolctl; the workers inherit it.
            "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "threadpoolctl": has_threadpoolctl,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": args.seed,
        "dev_seed": DEV_SEED,
        "heldout_seed": HELDOUT_SEED,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def parse_args(argv=None):
    from session import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from session import SIZES, WORKLOADS, run_session

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = run_session(
        workload,
        SIZES[args.size],
        args.seed,
        args.seconds,
        bool(args.trace),
        OUT_DIR / f"work-{os.getpid()}",
    )
    if args.trace:
        measured, units = layer_metrics(out), PER_LAYER
    else:
        measured, units = end_to_end_metrics(out), END_TO_END
    correct = out.failed == 0
    print(f"workload {workload.name}")
    for name, unit in units.items():
        value, samples = measured[name]
        print(f"  {name:40s} {value:14.6g} {unit:8s} n={samples}")
    derived = report(out)
    for name, (value, samples) in derived.items():
        if name not in units:
            print(
                f"  {name:40s} {value:14.6g} {PER_LAYER[name]:8s} n={samples}"
                " (reported, not gated)"
            )
    print(f"  environment {json.dumps(env)}")
    for error in out.errors:
        print(f"  WRONG: {error}")
    metrics = {name: {"value": measured[name][0], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    detail = dict(
        result,
        samples={name: measured[name][1] for name in units},
        report={name: value for name, (value, _) in derived.items()},
        environment=env,
        errors=out.errors,
    )
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if args.trace:
        spans = {phase: json.loads(t.to_json()) for phase, t in out.tracers.items()}
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
