"""Recorded answers per workload and seed, and the script that records them.

Most checks a run makes compare the program with references the same
program produced (the serve checkpoint's labels, the unsharded reference
objective, counters stored by an earlier run of the seed), so a change
that alters the answers the same way every time would pass them.  This
module pins the answers measured once, keyed by workload and seed only,
in ``results/expected.json``, and every run compares its ``answers``
with the record for its seed:

- accuracies (``*_acc``) may not fall more than :data:`ACC_DROP` below
  the recorded value (a higher accuracy passes);
- ``sweeps_per_pass`` (the stream's total solver sweeps) stays within
  :data:`SWEEPS_REL` of the record, either way;
- counts (``snapshots_per_pass``, ``sweeps``) match exactly;
- objectives match to :data:`OBJECTIVE_REL` relative;
- ``objective_rel_gap`` may not exceed the record by more than
  :data:`GAP_REL` of it (a smaller gap passes).

A seed with no record falls back to the fixed accuracy floors in
:data:`FLOORS`, which sit below every recorded value, and the run says so.

Recording (from the repository root; runs every workload once per seed)::

    python3 bench_e2e/expected.py --seeds 0-15
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PATH = BENCH_DIR / "results" / "expected.json"

ACC_DROP = 0.02
SWEEPS_REL = 0.05
OBJECTIVE_REL = 1e-6
GAP_REL = 1e-3

#: ``(tweet_acc, user_acc)`` floors for a seed with no record.
FLOORS = {
    "stream_daily": (0.20, 0.05),
    "serve_open": (0.10, 0.05),
    "fit_synth": (0.95, 0.85),
    "fit_synth_sharded": (0.95, 0.85),
}
#: ``objective_rel_gap`` bound for a seed with no record: a sanity bound
#: above every recorded gap (65-361 on seeds 0-20, see README.md).
GAP_BOUND = 1000.0


def load(path: Path = PATH) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def compare(name: str, value: float, recorded: float) -> tuple[bool, str]:
    """Whether ``value`` agrees with ``recorded`` under the rule for ``name``."""
    if name.endswith("_acc"):
        return value >= recorded - ACC_DROP, f">= {recorded:.6g} - {ACC_DROP}"
    if name == "sweeps_per_pass":
        return abs(value - recorded) <= SWEEPS_REL * recorded, f"{recorded} +- {SWEEPS_REL:.0%}"
    if name in ("snapshots_per_pass", "sweeps"):
        return value == recorded, f"== {recorded}"
    if name.endswith("objective"):
        ok = abs(value - recorded) <= OBJECTIVE_REL * abs(recorded)
        return ok, f"{recorded!r} within {OBJECTIVE_REL:g} relative"
    if name == "objective_rel_gap":
        return value <= recorded * (1 + GAP_REL), f"<= {recorded:.6g} * (1 + {GAP_REL:g})"
    raise KeyError(f"no comparison rule for answer {name!r}")


def check(workload, records: dict | None = None) -> None:
    """Compare ``workload.answers`` with the record for its seed."""
    records = load() if records is None else records
    record = records.get(workload.name, {}).get(str(workload.seed))
    answers = workload.answers
    if record is None:
        tweet_floor, user_floor = FLOORS[workload.name]
        workload.log(f"expected: no recorded answers for seed {workload.seed}; "
                     f"fixed floors apply")
        workload.check("tweet_acc_floor", answers["tweet_acc"] >= tweet_floor,
                       f"{answers['tweet_acc']:.4f} < {tweet_floor}")
        workload.check("user_acc_floor", answers["user_acc"] >= user_floor,
                       f"{answers['user_acc']:.4f} < {user_floor}")
        if "objective_rel_gap" in answers:
            gap = answers["objective_rel_gap"]
            workload.check("objective_gap_bound", gap <= GAP_BOUND, f"{gap:.4g} > {GAP_BOUND}")
        return
    missing = sorted(set(record) - set(answers))
    workload.check("expected_answers_present", not missing, f"missing {missing}")
    for name in sorted(set(record) & set(answers)):
        ok, rule = compare(name, answers[name], record[name])
        workload.check(f"expected_{name}", ok, f"{answers[name]!r} vs {rule}")
    workload.log(f"expected: {len(record)} recorded answers for seed {workload.seed} compared")


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record the answers of every workload per seed.")
    parser.add_argument("--seeds", default="0-15")
    parser.add_argument("--workloads", default=",".join(FLOORS))
    args = parser.parse_args(argv)
    records = load()
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", "0", "--record", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-3000:] + done.stderr[-3000:])
                raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
            result = json.loads((ROOT / ".bench_out" / "results" /
                                 f"{workload}-seed{seed}-trace0.json").read_text())
            answers = result["answers"]
            if not all(math.isfinite(float(v)) for v in answers.values()):
                raise SystemExit(f"{workload} seed {seed}: non-finite answers {answers}")
            records.setdefault(workload, {})[str(seed)] = answers
            print(f"{workload} seed {seed}: {json.dumps(answers, sort_keys=True)}", flush=True)
            PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
