"""Steadiness report: repeated sets of runs over the same seeds.

Usage (from the repository root)::

    python3 bench_e2e/steady.py --seeds 1-10 --repeats 2 \\
        --out bench_e2e/results/steadiness.json

One set is one run of every workload per seed; ``--repeats`` sets run
one after the other, each over the same seeds, so the sets are apart in
time as two sets of a regression check are.  For every workload and
end-to-end metric the report gives:

- per set: the median, the quartiles and IQR/median across the set's
  runs, next to the metric's bound from ``BENCHMARK.json`` (a spread above
  the bound makes the metric unusable; the aim is a third of it);
- ``within_seed``: run-to-run noise on the same input, the median over
  seeds of (max - min) / median of that seed's runs;
- ``set_change``: how much worse each later set's median is than the
  first set's, against the bound.

``setup_s`` and ``latency_p50_ms`` are re-checked on their own lines.
The host record is stored with the results.

``--compare FIRST.json SECOND.json`` compares the first sets of two such
reports in the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None:
        sys.stderr.write(done.stdout[-3000:] + done.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed} printed no result (exit {done.returncode})")
    if done.returncode != 0 or not result["correct"]:
        print(f"{workload} seed {seed}: INCORRECT (exit {done.returncode}): " + " | ".join(
            line for line in lines if line.startswith(("check FAILED", "failure"))), flush=True)
    result["elapsed_s"] = elapsed
    return result


def worse_by(metric: dict, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def within_seed(runs: list[dict], name: str) -> float:
    """Median over seeds of (max - min) / median of one seed's runs."""
    by_seed: dict[int, list[float]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], []).append(run["metrics"][name])
    spreads = [(max(v) - min(v)) / statistics.median(v)
               for v in by_seed.values() if len(v) >= 2 and statistics.median(v)]
    return statistics.median(spreads) if spreads else 0.0


def summarize(spec: dict, runs: list[dict], repeats: int) -> dict:
    import harness

    sets = []
    for repeat in range(repeats):
        chosen = [run for run in runs if run["repeat"] == repeat]
        sets.append({m["name"]: harness.quartile_spread([r["metrics"][m["name"]] for r in chosen])
                     for m in spec["end_to_end"]})
    return {
        "sets": sets,
        "within_seed": {m["name"]: within_seed(runs, m["name"]) for m in spec["end_to_end"]},
        "set_change": [{m["name"]: worse_by(m, sets[0][m["name"]]["median"],
                                            later[m["name"]]["median"])
                        for m in spec["end_to_end"]} for later in sets[1:]],
    }


def print_summary(spec: dict, workload: str, summary: dict) -> None:
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for index, stats in enumerate(set_[name] for set_ in summary["sets"]):
            spread = stats["iqr_over_median"]
            mark = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER BOUND"
            print(f"  {workload:18s} {name:16s} set {index + 1} median {stats['median']:<11.6g} "
                  f"q1 {stats['q1']:<11.6g} q3 {stats['q3']:<11.6g} IQR/median {spread:.4f} "
                  f"(bound {bound}) {mark}", flush=True)
        changes = " ".join(f"{change[name]:+.4f}" for change in summary["set_change"])
        print(f"  {workload:18s} {name:16s} within-seed {summary['within_seed'][name]:.4f}"
              + (f"  later sets worse by {changes} (bound {bound})" if changes else ""),
              flush=True)
    for name in ("setup_s", "latency_p50_ms"):
        spreads = ", ".join(f"{s[name]['iqr_over_median']:.4f}" for s in summary["sets"])
        print(f"  re-check {workload}/{name}: IQR/median per set {spreads}")


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(spec, *args.compare)
    workloads = args.workloads.split(",")
    report = {"host": harness.host_record(), "seconds": args.seconds,
              "repeats": args.repeats, "workloads": {w: {"runs": []} for w in workloads}}
    print("host: " + json.dumps(report["host"], sort_keys=True), flush=True)
    for repeat in range(args.repeats):
        for workload in workloads:
            for seed in seed_list(args.seeds):
                result = run_once(spec["command"], workload, seed, args.seconds)
                report["workloads"][workload]["runs"].append({
                    "seed": seed, "repeat": repeat, "elapsed_s": result["elapsed_s"],
                    "correct": result["correct"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"set {repeat + 1} {workload} seed {seed}: {result['elapsed_s']:.1f} s  "
                      + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
    for workload in workloads:
        entry = report["workloads"][workload]
        entry.update(summarize(spec, entry["runs"], args.repeats))
        print_summary(spec, workload, entry)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


def compare(spec: dict, first: Path, second: Path) -> int:
    """Second report's first-set medians vs the first's; 1 if any is worse than its bound."""
    a, b = (json.loads(path.read_text())["workloads"] for path in (first, second))
    over = False
    for workload in a:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = a[workload]["sets"][0][name]["median"]
            new = b[workload]["sets"][0][name]["median"]
            worse = worse_by(metric, old, new)
            over |= worse > bound
            print(f"{workload:18s} {name:16s} {old:<12.6g} -> {new:<12.6g} worse by "
                  f"{worse:+.4f} (bound {bound}) {'OVER BOUND' if worse > bound else 'ok'}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
