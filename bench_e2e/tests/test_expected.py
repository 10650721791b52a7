"""Tests of the recorded-answer comparison and the steadiness arithmetic."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import expected  # noqa: E402
import steady  # noqa: E402


class FakeWorkload:
    def __init__(self, name: str, seed: int, answers: dict) -> None:
        self.name, self.seed, self.answers = name, seed, answers
        self.checks: dict[str, bool] = {}
        self.logged: list[str] = []

    def log(self, message: str) -> None:
        self.logged.append(message)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


@pytest.mark.parametrize("name, value, recorded, ok", [
    ("tweet_acc", 0.50, 0.51, True),     # within the allowed drop
    ("tweet_acc", 0.48, 0.51, False),    # more than ACC_DROP below
    ("user_acc", 0.90, 0.51, True),      # higher accuracy passes
    ("sweeps_per_pass", 9800, 9440, True),
    ("sweeps_per_pass", 8900, 9440, False),
    ("sweeps_per_pass", 10000, 9440, False),
    ("snapshots_per_pass", 121, 122, False),
    ("sweeps", 10, 10, True),
    ("objective", 1.0 + 1e-9, 1.0, True),
    ("full_objective", 1.0 + 1e-5, 1.0, False),
    ("reference_objective", 0.99999, 1.0, False),
    ("objective_rel_gap", 64.0, 65.0, True),   # a smaller gap passes
    ("objective_rel_gap", 65.05, 65.0, True),
    ("objective_rel_gap", 66.0, 65.0, False),
])
def test_compare_rules(name, value, recorded, ok):
    assert expected.compare(name, value, recorded)[0] is ok


def test_compare_refuses_an_answer_without_a_rule():
    with pytest.raises(KeyError):
        expected.compare("latency_p50_ms", 1.0, 1.0)


def test_check_against_a_record():
    records = {"fit_synth": {"3": {"tweet_acc": 1.0, "user_acc": 0.99, "sweeps": 10,
                                   "objective": 4.0e7}}}
    good = FakeWorkload("fit_synth", 3, {"tweet_acc": 1.0, "user_acc": 0.985, "sweeps": 10,
                                          "objective": 4.0e7 * (1 + 1e-9)})
    expected.check(good, records)
    assert good.checks and all(good.checks.values())
    bad = FakeWorkload("fit_synth", 3, {"tweet_acc": 1.0, "user_acc": 0.99, "sweeps": 10,
                                         "objective": 4.1e7})
    expected.check(bad, records)
    assert bad.checks["expected_objective"] is False


def test_check_needs_every_recorded_answer():
    records = {"serve_open": {"1": {"tweet_acc": 0.3, "user_acc": 0.3}}}
    workload = FakeWorkload("serve_open", 1, {"tweet_acc": 0.3})
    expected.check(workload, records)
    assert workload.checks["expected_answers_present"] is False


def test_unrecorded_seed_falls_back_to_fixed_floors():
    workload = FakeWorkload("fit_synth_sharded", 99, {"tweet_acc": 0.99, "user_acc": 0.5,
                                                       "objective_rel_gap": expected.GAP_BOUND / 2})
    expected.check(workload, {})
    assert workload.checks == {"tweet_acc_floor": True, "user_acc_floor": False,
                               "objective_gap_bound": True}
    assert any("no recorded answers" in line for line in workload.logged)


def test_recorded_answers_have_rules_and_lie_above_the_fixed_floors():
    records = expected.load()
    for workload, seeds in records.items():
        tweet_floor, user_floor = expected.FLOORS[workload]
        for seed, answers in seeds.items():
            for name, value in answers.items():
                assert expected.compare(name, value, value)[0], (workload, seed, name)
            assert answers["tweet_acc"] >= tweet_floor, (workload, seed)
            assert answers["user_acc"] >= user_floor, (workload, seed)
            if "objective_rel_gap" in answers:
                assert answers["objective_rel_gap"] <= expected.GAP_BOUND, (workload, seed)


# -- steadiness arithmetic ---------------------------------------------- #


def test_worse_by_follows_the_direction():
    assert steady.worse_by({"better": "lower"}, 10.0, 12.0) == pytest.approx(0.2)
    assert steady.worse_by({"better": "higher"}, 10.0, 12.0) == pytest.approx(-0.2)


def test_within_seed_spread_ignores_differences_between_seeds():
    runs = [{"seed": 1, "metrics": {"x": 10.0}}, {"seed": 1, "metrics": {"x": 11.0}},
            {"seed": 2, "metrics": {"x": 100.0}}, {"seed": 2, "metrics": {"x": 100.0}},
            {"seed": 3, "metrics": {"x": 50.0}}, {"seed": 3, "metrics": {"x": 55.0}}]
    # per seed: 1/10.5, 0, 5/52.5 -> median 5/52.5
    assert steady.within_seed(runs, "x") == pytest.approx(5 / 52.5)


def test_summary_shape():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    runs = [{"seed": seed, "repeat": repeat,
             "metrics": {name: 1.0 + 0.01 * seed + 0.1 * repeat for name in names}}
            for repeat in range(2) for seed in range(1, 6)]
    summary = steady.summarize(spec, runs, 2)
    assert len(summary["sets"]) == 2 and len(summary["set_change"]) == 1
    lower = next(m["name"] for m in spec["end_to_end"] if m["better"] == "lower")
    assert summary["set_change"][0][lower] == pytest.approx(0.1 / 1.03)
    assert set(summary["within_seed"]) == set(names)


def test_print_summary_reports_every_set(capsys):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    runs = [{"seed": seed, "repeat": repeat,
             "metrics": {m["name"]: 1.0 + 0.01 * seed for m in spec["end_to_end"]}}
            for repeat in range(2) for seed in range(1, 4)]
    steady.print_summary(spec, "w", steady.summarize(spec, runs, 2))
    out = capsys.readouterr().out
    for metric in spec["end_to_end"]:
        assert f"{metric['name']:16s} set 2 median" in out
    assert "re-check w/setup_s" in out
