"""Tests of the benchmark's own harness (no workload is run).

Run from the repository root::

    python3 -m pytest bench_e2e/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


# -- names and units --------------------------------------------------- #


def test_every_declared_metric_has_a_valid_name_and_unit():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert harness.METRIC_NAME.match(metric["name"]), metric
        assert harness.METRIC_UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric


def test_declared_metrics_match_what_the_runs_report():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == harness.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    assert "setup_s" in harness.END_TO_END_UNITS


def test_every_span_key_is_a_reported_per_layer_metric():
    assert set(tracing.SPAN_KEYS) <= set(run.PER_LAYER_UNITS)


def test_setup_bound_is_the_largest_and_every_bound_in_range():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", ["", "_x", "a b", "x" * 65, "ms/s", "é"])
def test_metric_name_regex_rejects(name):
    assert not harness.METRIC_NAME.match(name)


@pytest.mark.parametrize("name", ["setup_s", "core.spmm.ms", "9x", "a-b.c_d", "x" * 64])
def test_metric_name_regex_accepts(name):
    assert harness.METRIC_NAME.match(name)


# -- the percentile rule ------------------------------------------------ #


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 99) == 99
    assert harness.samples_beyond(100, 90) == 10


@pytest.mark.parametrize("count", [1, 5, 11, 99, 100, 101, 242, 999, 1000, 2000, 10000])
def test_tail_leaves_ten_samples_beyond(count):
    values = [float(i) for i in range(count)]
    value, label = harness.tail(values)
    if label == "max":
        assert value == max(values)
        assert all(harness.samples_beyond(count, p) < harness.MIN_BEYOND
                   for p in harness.TAIL_LADDER)
        return
    p = float(label[1:])
    assert harness.samples_beyond(count, p) >= harness.MIN_BEYOND
    assert sum(1 for v in values if v > value) >= harness.MIN_BEYOND
    higher = [q for q in harness.TAIL_LADDER if q > p]
    assert all(harness.samples_beyond(count, q) < harness.MIN_BEYOND for q in higher)


def test_tail_picks_p90_for_a_daily_stream_and_for_serving():
    assert harness.tail(list(range(121)))[1] == "p90"
    assert harness.tail(list(range(2000)))[1] == "p90"
    assert harness.tail(list(range(99)))[1] == "max"


def test_quartile_spread():
    stats = harness.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["median"] == 3.0
    assert stats["iqr_over_median"] == pytest.approx((stats["q3"] - stats["q1"]) / 3.0)


# -- the results JSON --------------------------------------------------- #


def test_result_line_shape():
    line = harness.result_line(True, 12, 1, {"setup_s": (0.5, "s"), "x.y_ms": (3, "ms")})
    body = json.loads(line)
    assert set(body) == {"correct", "attempted", "failed", "metrics"}
    assert body["attempted"] == 12 and body["failed"] == 1 and body["correct"] is True
    assert body["metrics"]["x.y_ms"] == {"value": 3.0, "unit": "ms"}
    assert "\n" not in line


@pytest.mark.parametrize("metrics", [{"bad name": (1.0, "s")}, {"ok": (1.0, "bad unit")},
                                     {"ok": (float("nan"), "s")}])
def test_result_line_rejects_bad_metrics(metrics):
    with pytest.raises(ValueError):
        harness.result_line(True, 1, 0, metrics)


def test_result_line_needs_an_attempt():
    with pytest.raises(ValueError):
        harness.result_line(True, 0, 0, {"setup_s": (1.0, "s")})


# -- span self-time arithmetic ------------------------------------------ #


MAIN, OTHER = 1, 2


def span(sid, key, tid, start, end, parent, depth, wait=False):
    return (sid, key, tid, start, end, parent, depth, "r0", wait)


def test_self_times_nested_and_cross_thread():
    spans = [
        span(1, tracing.UNACCOUNTED, MAIN, 0.0, 10.0, None, 0, wait=True),
        span(2, "a", MAIN, 1.0, 4.0, 1, 1),
        span(3, "b", MAIN, 2.0, 3.0, 2, 2),
        span(4, "wait", MAIN, 5.0, 9.0, 1, 1, wait=True),
        span(5, "worker", OTHER, 6.0, 8.0, 1, 1),
    ]
    charged, wall = tracing.self_times(spans, MAIN)
    assert wall == 10.0
    assert charged == {"b": 1.0, "a": 2.0, "wait": 2.0, "worker": 2.0,
                       tracing.UNACCOUNTED: 3.0}
    assert sum(charged.values()) == wall


def test_worker_time_outside_a_wait_is_not_double_counted():
    spans = [
        span(1, tracing.UNACCOUNTED, MAIN, 0.0, 4.0, None, 0, wait=True),
        span(2, "busy", MAIN, 0.0, 4.0, 1, 1),
        span(3, "worker", OTHER, 1.0, 3.0, 1, 1),
    ]
    charged, wall = tracing.self_times(spans, MAIN)
    assert charged == {"busy": 4.0}
    assert sum(charged.values()) == wall


def test_spans_outside_a_root_are_not_charged():
    spans = [
        span(1, tracing.UNACCOUNTED, MAIN, 0.0, 1.0, None, 0, wait=True),
        span(2, "late", OTHER, 2.0, 3.0, None, 1),
    ]
    charged, wall = tracing.self_times(spans, MAIN)
    assert charged == {tracing.UNACCOUNTED: 1.0}
    assert wall == 1.0


def test_live_tracer_sums_to_wall_across_threads():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def worker_job():
        for _ in range(3):
            traced_leaf()

    traced_leaf = tracer._wrap(leaf, "leaf_ms", False, None)
    traced_join = tracer._wrap(lambda thread: thread.join(5), "join_ms", True, None)
    traced_outer = tracer._wrap(lambda: [traced_leaf() for _ in range(2)], "outer_ms",
                                False, None)
    for index in range(3):
        with tracer.root(f"op-{index}"):
            traced_outer()
            thread = threading.Thread(target=worker_job)
            thread.start()
            traced_join(thread)
            assert not thread.is_alive()
    charged, wall = tracing.self_times(tracer.spans, tracer.main_thread)
    assert sum(charged.values()) == pytest.approx(wall, abs=1e-9)
    assert charged["leaf_ms"] >= 3 * 5 * 0.002 * 0.9
    worker_spans = [s for s in tracer.spans if s[2] != tracer.main_thread]
    assert worker_spans and all(s[5] is not None and s[7] is not None for s in worker_spans)


def test_install_wraps_and_uninstall_restores():
    from repro.text.tokenizer import TweetTokenizer

    original = TweetTokenizer.__dict__["tokenize"]
    tracer = tracing.Tracer()
    tracer.install([("repro.text.tokenizer", "TweetTokenizer.tokenize", "text.transform_ms",
                     False, None)])
    try:
        assert TweetTokenizer.__dict__["tokenize"] is not original
        assert TweetTokenizer.__dict__["__call__"] is TweetTokenizer.__dict__["tokenize"]
        with tracer.root("r"):
            TweetTokenizer()("yes on prop 37 :)")
        assert [s[1] for s in tracer.spans].count("text.transform_ms") == 1
    finally:
        tracer.uninstall()
    assert TweetTokenizer.__dict__["tokenize"] is original
    assert TweetTokenizer.__dict__["__call__"] is original


def test_every_target_exists():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
