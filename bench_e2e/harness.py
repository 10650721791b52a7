"""Measurement helpers shared by every workload: percentiles, results, host.

Everything here is pure Python over plain numbers so the rules the
benchmark promises (metric names, the percentile rule, the results JSON
shape) can be unit-tested without running a workload.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import statistics
import sys

#: A metric name: starts with a letter or digit, at most 64 of
#: letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
#: A unit: at most 16 of letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
METRIC_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: Percentiles a tail may be reported at, highest first.  The ladder
#: stops at p90: on a shared 2-vCPU host the p99 of a 10 s run tracks the
#: host's slowest seconds (classify p99 spread 0.49 IQR/median over
#: seeds), too wide for any regression bound.
TAIL_LADDER = (90.0,)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: The end-to-end metrics every untraced run reports, with their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "tweets_per_s": "tweets/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "on_time_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "ops_ok_ratio": "ratio",
}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, p: float) -> int:
    """Samples strictly ranked after the nearest-rank ``p`` percentile."""
    return count - max(1, math.ceil(p / 100.0 * count))


def tail(values) -> tuple[float, str]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    Returns ``(value, label)``.  A run too short for any ladder
    percentile (fewer than 100 samples) reports its slowest sample,
    labelled ``max``.
    """
    for p in TAIL_LADDER:
        if samples_beyond(len(values), p) >= MIN_BEYOND:
            return percentile(values, p), f"p{p:g}"
    return max(values), "max"


def quartile_spread(values) -> dict:
    """Median, quartiles and IQR/median of a metric across runs."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr_over_median": spread}


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The one-line JSON result every run ends its standard output with."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    body = {}
    for name, (value, unit) in metrics.items():
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if not METRIC_UNIT.match(unit):
            raise ValueError(f"bad unit {unit!r} for {name}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        body[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": body})


def blas_record() -> dict:
    """The BLAS numpy links and the thread settings it will honour."""
    info: dict = {}
    try:
        import numpy as np

        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["library"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except Exception as exc:  # host record only; never fatal
        info["library"] = f"unknown ({type(exc).__name__})"
    info["threads_env"] = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "REPRO_SPMM_THREADS")
        if key in os.environ
    }
    try:
        from repro.utils.threads import blas_thread_info

        info["threads"] = blas_thread_info()
    except Exception as exc:
        info["threads"] = f"unknown ({type(exc).__name__})"
    return info


def host_record() -> dict:
    """Where the numbers came from: cores, BLAS and library versions."""
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
    }
