"""End-to-end benchmark of the sentiment engine: one workload per run.

Usage (from the repository root)::

    python3 bench_e2e/run.py --workload stream_daily --seed 1 --seconds 10 --trace 0

Prints the host record, one line per input artifact (generated or
reused), one line per metric with its unit, and, as the last line of
standard output, one JSON object::

    {"correct": true, "attempted": 242, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with every layer wrapped, and reports
the per-layer metrics instead.  Exits non-zero when a check fails or
when the program's source (``src/repro``) is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Every per-layer metric a traced run reports, with its unit.  A layer a
#: workload bypasses reports 0.
PER_LAYER_UNITS = {
    "core.spmm.ms": "ms",
    "core.spmm.products_per_sweep": "count",
    "core.spmm.nnz_per_sweep": "count",
    "core.objective.ms": "ms",
    "core.objective.calls_per_sweep": "count",
    "core.updates.ms": "ms",
    "core.offline.fit_ms": "ms",
    "core.offline.sweeps": "count",
    "core.online.sweeps_per_snapshot": "count",
    "core.online.partial_fit_ms": "ms",
    "text.transform_ms": "ms",
    "graph.incremental.ingest_ms": "ms",
    "graph.incremental.build_ms": "ms",
    "graph.incremental.xp_nnz": "count",
    "engine.pipeline.flush_wait_ms": "ms",
    "engine.pipeline.dropped": "count",
    "engine.streaming.commit_ms": "ms",
    "core.inference.fold_in_ms": "ms",
    "core.inference.rows": "count",
    "engine.cache.hit_ratio": "ratio",
    "engine.streaming.classify_self_ms": "ms",
    "engine.persistence.load_ms": "ms",
    "utils.executor.rounds_per_sweep": "count",
    "utils.executor.wait_s": "s",
    "utils.executor.exchange_s": "s",
    "utils.executor.halo_bytes_per_sweep": "bytes",
    "utils.transport.bytes_per_sweep": "bytes",
    "utils.transport.send_s": "s",
    "graph.partition.extract_ms": "ms",
    "graph.partition.gu_cut_fraction": "ratio",
    "core.sharded.fit_ms": "ms",
    "core.sharded.solve_ms": "ms",
    "core.sharded.merge_ms": "ms",
    "core.sharded.objective_rel_gap": "ratio",
    "unaccounted_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.overhead_pct": "%",
}

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, choices=(0, 1), default=0,
                        help="skip the comparison with results/expected.json "
                             "(used by expected.py when recording)")
    return parser.parse_args(argv)


def setups(workload, count: int, handle=None):
    """``count`` set-ups; keeps the last handle, closes the others."""
    for _ in range(count):
        fresh = workload.timed_setup()
        if handle is not None:
            workload.close(handle)
        handle = fresh
    return handle


def end_to_end(workload) -> dict:
    import harness

    latencies = workload.latencies
    tail_value, tail_label = harness.tail(latencies)
    workload.log(f"latency samples: {len(latencies)}; tail is {tail_label}; "
                 f"setup samples: {len(workload.setups)}")
    units = harness.END_TO_END_UNITS
    values = {
        "setup_s": statistics.median(workload.setups),
        "tweets_per_s": workload.throughput(),
        "latency_p50_ms": 1e3 * harness.percentile(latencies, 50),
        "latency_tail_ms": 1e3 * tail_value,
        "on_time_ratio": workload.on_time(),
        "peak_rss_mb": harness.peak_rss_mb(),
        "ops_ok_ratio": (len(latencies) - workload.failed) / len(latencies),
    }
    return {name: (values[name], units[name]) for name in units}


def per_layer(workload, tracer, overhead_pct: float) -> dict:
    import tracing

    charged, wall = tracing.self_times(tracer.spans, tracer.main_thread)
    accounted = sum(charged.values())
    workload.check("trace_sum_identity", abs(accounted - wall) <= 1e-6,
                   f"self times {accounted!r} s vs wall {wall!r} s")
    counts = tracer.counters
    ratio = lambda num, den: counts[num] / counts[den] if counts[den] else 0.0
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update({key: 1e3 * seconds for key, seconds in charged.items()})
    values.update({
        "core.spmm.products_per_sweep": ratio("core.spmm.products", "sweeps"),
        "core.spmm.nnz_per_sweep": ratio("core.spmm.nnz", "sweeps"),
        "core.objective.calls_per_sweep": ratio("core.objective.calls", "sweeps"),
        "core.offline.sweeps": ratio("core.offline.sweeps", "core.offline.fits"),
        "core.online.sweeps_per_snapshot": ratio("core.online.sweeps", "core.online.snapshots"),
        "graph.incremental.xp_nnz": ratio("graph.incremental.xp_nnz",
                                          "graph.incremental.builds"),
        "core.inference.rows": counts["core.inference.rows"],
        "trace.wall_ms": 1e3 * wall,
        "trace.overhead_pct": overhead_pct,
    })
    values.update({name: value for name, (value, _) in workload.layer.items()})
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"per-layer metrics missing from PER_LAYER_UNITS: {sorted(unknown)}")
    workload.counters.update({
        "spmm_products_per_sweep": values["core.spmm.products_per_sweep"],
        "objective_calls_per_sweep": values["core.objective.calls_per_sweep"],
        "online_sweeps_per_snapshot": values["core.online.sweeps_per_snapshot"],
    })
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def traced_run(workload, seconds: float):
    """Untraced baseline, then the same work again with every layer wrapped."""
    import tracing

    handle = setups(workload, workload.setup_reps)
    handle = workload.run(handle, seconds, fixed=True)
    baseline = sum(workload.latencies)
    workload.reset_ops()
    tracer = tracing.Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        handle = setups(workload, workload.setup_reps, handle)
        handle = workload.run(handle, seconds, fixed=True)
    finally:
        tracer.uninstall()
        workload.tracer = None
    workload.close(handle)
    traced = sum(workload.latencies)
    overhead = 100.0 * (traced - baseline) / baseline
    workload.log(f"tracing overhead: {1e3 * (traced - baseline):.1f} ms over "
                 f"{len(workload.latencies)} operations ({overhead:+.2f}%); "
                 f"{len(tracer.spans)} spans")
    return tracer, overhead


def check_counters(workload, trace: int) -> None:
    """Deterministic counters must repeat exactly in every run of a seed."""
    import inputs

    path = inputs.CACHE / (f"counters-{workload.name}-seed{workload.seed}-"
                           f"{inputs.src_hash()}-trace{trace}.json")
    current = json.loads(json.dumps(workload.counters))
    if path.exists():
        recorded = json.loads(path.read_text())
        workload.check("counters_repeat_across_runs", recorded == current,
                       f"recorded {recorded} now {current}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=1, sort_keys=True))
    workload.log("deterministic counters: " + json.dumps(current, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source {SRC / 'repro'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import expected
    import harness
    import inputs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    def log(message: str) -> None:
        print(message, flush=True)

    host = harness.host_record()
    log("host: " + json.dumps(host, sort_keys=True))
    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, log)
    log(f"inputs: loaded in {time.perf_counter() - started:.2f} s (generation included "
        "when reported above; never part of setup_s or peak_rss_mb)")

    if args.trace:
        tracer, overhead = traced_run(workload, args.seconds)
        workload.finish()
        metrics = per_layer(workload, tracer, overhead)
        tracer.write(inputs.OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        # Half the set-ups before the timed operations and half after, so
        # their median samples the host at both ends of the run.
        before = (workload.setup_reps + 1) // 2
        handle = setups(workload, before)
        handle = workload.run(handle, args.seconds, fixed=False)
        workload.close(setups(workload, workload.setup_reps - before, handle))
        workload.finish()
        metrics = end_to_end(workload)
    check_counters(workload, args.trace)
    if not args.record:
        expected.check(workload)
    log(f"tweet_acc {workload.tweet_acc:.6g} ratio")
    log(f"user_acc {workload.user_acc:.6g} ratio")

    for name, (value, unit) in metrics.items():
        log(f"{name} {value:.6g} {unit}")
    for message in workload.failures:
        log(f"failure: {message}")
    correct = all(workload.checks.values()) and workload.failed == 0
    log(f"checks: {json.dumps(workload.checks, sort_keys=True)}")

    results = inputs.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "host": host, "correct": correct,
                    "tweet_acc": workload.tweet_acc, "user_acc": workload.user_acc,
                    "answers": workload.answers,
                    "checks": workload.checks, "failures": workload.failures,
                    "counters": workload.counters, "setup_samples_s": workload.setups,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                   indent=1, sort_keys=True))
    print(harness.result_line(correct, len(workload.latencies), workload.failed, metrics),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
