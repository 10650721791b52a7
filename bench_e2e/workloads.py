"""The four workloads, each driven only through the program's public API.

A workload object owns its loaded inputs and exposes:

- ``setup()``: construct what the program needs and run the one
  warm-up operation; returns a handle.  Timed by :meth:`Workload.timed_setup`.
- ``run(handle, seconds, fixed)``: the timed operations.  Untraced runs
  last about ``seconds`` (serving and fits by the clock, the stream in
  whole passes); traced runs do a fixed amount of work so the
  per-layer totals compare across runs.
- ``close(handle)``.

Every operation is timed on its own (``latencies``) and checked; a
failed or wrong operation counts in ``failed``.  End-of-run checks go
into ``checks``; any failed check makes the run incorrect.  ``finish()``
fills ``answers``: the values :mod:`expected` compares with the ones
recorded for the seed.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

import harness
import inputs

#: Latency limits for ``on_time_ratio``, per operation: several times the
#: measured tails (snapshot p90 ~0.1 s, classify p90 ~3 ms and p99
#: ~10 ms, slowest warm fit ~2 s), so the ratio moves only on a large
#: regression.
SNAPSHOT_LIMIT_S = 1.0
CLASSIFY_LIMIT_S = 0.025
FIT_LIMIT_S = 5.0

#: stream_daily replays one whole pass over the stream per this many
#: seconds of ``--seconds`` (rounded; a pass takes 8-11 s here), so the
#: work, and with it peak memory, does not depend on the program's speed.
STREAM_PASS_SECONDS = 7.5

#: serve_open traffic: requests per second; a share of requests made of
#: hot (retweet-like, cached after first use) texts, the rest carrying a
#: batch of fresh texts.  Latency is bimodal (cache hits vs fold-in), so
#: the shares keep the p50 inside the hit mode and the p90 inside the
#: fresh-text mode, never on the edge between them.  The gap between
#: requests (10 ms) is about 3x a fresh-text request, so a slow minute
#: on the host does not make requests queue behind each other.
SERVE_RATE = 100.0
SERVE_HOT_SHARE = 0.8
SERVE_HOT_TEXTS = 4
SERVE_COLD_TEXTS = 16
#: The generator sleeps until this close to a request's due time, then
#: spins, so its own wake-up jitter stays out of the latencies.
SPIN_S = 0.001

#: Fits per phase of a traced run.
TRACE_FITS = 3


class Workload:
    name = ""
    setup_reps = 3

    def __init__(self, seed: int, log) -> None:
        self.seed = seed
        self.log = log
        self.setups: list[float] = []
        self.latencies: list[float] = []
        self.op_ok: list[bool] = []  # per timed operation: completed and checked
        self.units = 0  # tweets carried by the timed operations
        self.busy = 0.0  # wall seconds the timed operations took
        self.failures: list[str] = []
        self.checks: dict[str, bool] = {}
        self.counters: dict[str, object] = {}  # deterministic, must repeat
        self.layer: dict[str, tuple[float, str]] = {}  # per-layer extras
        self.answers: dict[str, float] = {}  # compared with results/expected.json
        self.tracer = None
        self.limit_s = 1.0

    # -- helpers shared by the workloads ---------------------------------- #

    def timed_setup(self):
        started = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.root(f"setup-{len(self.setups)}"):
                handle = self.setup()
        else:
            handle = self.setup()
        self.setups.append(time.perf_counter() - started)
        return handle

    def timed_op(self, request: str, fn) -> tuple[bool, object]:
        """Run one timed operation; a raised error counts as a failure."""
        started = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.root(request):
                    value = fn()
            else:
                value = fn()
            ok = True
        except Exception as exc:  # one failed op must not end the run
            value, ok = None, False
            self._note(f"{request}: {type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - started)
        self.op_ok.append(ok)
        return ok, value

    def fail(self, message: str) -> None:
        """Mark the latest timed operation as failed its check."""
        self.op_ok[-1] = False
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return self.op_ok.count(False)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.log(f"check FAILED: {name} {detail}")

    def throughput(self) -> float:
        return self.units / self.busy if self.busy > 0 else 0.0

    def on_time(self) -> float:
        on_time = sum(1 for latency, ok in zip(self.latencies, self.op_ok)
                      if ok and latency <= self.limit_s)
        return on_time / max(1, len(self.latencies))

    def reset_ops(self) -> None:
        """Forget the operations so far (a traced run's untraced baseline)."""
        self.latencies, self.op_ok, self.units, self.busy = [], [], 0, 0.0


def _accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    mask = truth >= 0
    return float((predicted[mask] == truth[mask]).mean()) if mask.any() else 0.0


# ---------------------------------------------------------------------- #
# stream_daily
# ---------------------------------------------------------------------- #


class StreamDaily(Workload):
    """The online path: ingest one day, advance a snapshot, 122 days."""

    name = "stream_daily"
    setup_reps = 20

    def __init__(self, seed, log):
        super().__init__(seed, log)
        self.corpus, self.lexicon = inputs.load_pickle(inputs.ensure("corpus", seed, log))
        self.batches = inputs.daily_batches(self.corpus)
        last_day = self.batches[-1][0]
        self.user_truth = dict(zip(self.corpus.user_ids,
                                   self.corpus.user_labels(day=last_day).tolist()))
        self.limit_s = SNAPSHOT_LIMIT_S
        self.pass_records: list[tuple] = []
        self.dropped = 0

    def setup(self):
        from repro import EngineConfig, StreamingSentimentEngine

        engine = StreamingSentimentEngine(EngineConfig(), lexicon=self.lexicon)
        _, tweets, profiles = self.batches[0]
        engine.ingest(tweets, users=profiles)
        engine.advance_snapshot()
        return engine

    def close(self, engine):
        self.dropped += engine.dropped
        engine.close()

    def run(self, engine, seconds: float, fixed: bool):
        passes = 1 if fixed else max(1, round(seconds / STREAM_PASS_SECONDS))
        for done in range(1, passes + 1):
            engine = self._one_pass(engine)
            if done < passes:
                self.close(engine)
                engine = self.timed_setup()
        return engine

    def _one_pass(self, engine):
        correct = labeled = 0
        for index, (day, tweets, profiles) in enumerate(self.batches[1:], start=1):
            def step(tweets=tweets, profiles=profiles):
                engine.ingest(tweets, users=profiles)
                return engine.advance_snapshot()

            ok, report = self.timed_op(f"snapshot-{index}", step)
            self.busy += self.latencies[-1]
            self.units += len(tweets)
            if not ok:
                continue
            if report.num_tweets != len(tweets):
                self.fail(f"day {day}: snapshot holds {report.num_tweets} of "
                          f"{len(tweets)} ingested tweets")
                continue
            clusters = engine.last_step.tweet_sentiments()
            labels = engine.alignment[clusters]
            truth = engine.last_graph.corpus.tweet_labels()
            mask = truth >= 0
            correct += int((labels[mask] == truth[mask]).sum())
            labeled += int(mask.sum())
        users = engine.user_sentiments()
        uids = [uid for uid in users if self.user_truth.get(uid, -1) >= 0]
        user_acc = _accuracy([users[u] for u in uids], [self.user_truth[u] for u in uids])
        sweeps = [report.iterations for report in engine.reports]
        self.pass_records.append((correct / max(1, labeled), user_acc, sum(sweeps),
                                  len(sweeps)))
        return engine

    def finish(self):
        first = self.pass_records[0]
        self.check("passes_identical", all(r == first for r in self.pass_records),
                   str(self.pass_records))
        self.tweet_acc, self.user_acc, sweeps, snapshots = first
        self.counters = {"snapshots_per_pass": snapshots, "sweeps_per_pass": sweeps}
        self.answers = {"tweet_acc": self.tweet_acc, "user_acc": self.user_acc,
                        "snapshots_per_pass": snapshots, "sweeps_per_pass": sweeps}
        self.check("no_drops", self.dropped == 0, f"{self.dropped} dropped")
        self.layer["engine.pipeline.dropped"] = (self.dropped, "count")
        self.log(f"{len(self.pass_records)} pass(es) of {snapshots} snapshots, "
                 f"{sweeps} sweeps per pass")


# ---------------------------------------------------------------------- #
# serve_open
# ---------------------------------------------------------------------- #


#: Marks a fresh copy of a held-out text: a token outside the vocabulary,
#: so the copy misses the cache but folds in exactly like its original.
FRESH_MARK = " zq"


def fresh_text(pool: list[str], index: int) -> str:
    """The ``index``-th fresh text: a held-out text plus a unique unknown token."""
    return f"{pool[index % len(pool)]}{FRESH_MARK}{index}x"


def base_text(text: str) -> str:
    return text.split(FRESH_MARK, 1)[0]


class ServeOpen(Workload):
    """The read path: open-loop classify against a restored checkpoint."""

    name = "serve_open"
    setup_reps = 20

    def __init__(self, seed, log):
        super().__init__(seed, log)
        root = inputs.ensure("serve", seed, log)
        self.checkpoint = root / "checkpoint"
        pools = inputs.load_json(root / "pools.json")
        self.hot, self.cold, self.warmup = pools["hot"], pools["cold"], pools["warmup"]
        self.truth, self.reference = pools["truth"], pools["reference"]
        self.user_truth = {int(uid): label for uid, label in pools["user_truth"].items()}
        self.limit_s = CLASSIFY_LIMIT_S
        self.lags: list[float] = []
        self.user_accs: list[float] = []
        self.lookups = [0, 0]  # cache hits, misses over timed phases

    def setup(self):
        from repro import SentimentService

        service = SentimentService.load(self.checkpoint)
        service.classify(self.warmup)
        return service

    def close(self, service):
        users = {u.user_id: u.label for u in service.user_sentiments()}
        uids = [uid for uid in self.user_truth if uid in users]
        self.user_accs.append(_accuracy([users[u] for u in uids],
                                        [self.user_truth[u] for u in uids]))
        service.close()

    def _request(self) -> list[str]:
        if self.rng.random() < SERVE_HOT_SHARE:
            return [self.rng.choice(self.hot) for _ in range(SERVE_HOT_TEXTS)]
        start, self.cold_next = self.cold_next, self.cold_next + SERVE_COLD_TEXTS
        return [fresh_text(self.cold, index) for index in range(start, self.cold_next)]

    def run(self, service, seconds: float, fixed: bool):
        cache = service.engine.cache
        hits, misses = cache.hits, cache.misses
        count = max(1, int(SERVE_RATE * seconds))
        # Every phase replays the same requests (a traced run compares two).
        self.rng, self.cold_next = random.Random(self.seed), 0
        requests = [self._request() for _ in range(count)]
        origin = time.perf_counter() + 0.01
        for index, texts in enumerate(requests):
            due = origin + index / SERVE_RATE
            delay = due - time.perf_counter() - SPIN_S
            if delay > 0:
                time.sleep(delay)
            while time.perf_counter() < due:
                pass
            self.lags.append(max(0.0, time.perf_counter() - due))
            self._classify(service, f"request-{index}", texts)
            # Open loop: latency counts from when the request was due;
            # throughput counts the service's own time.
            self.busy += self.latencies[-1]
            self.latencies[-1] = time.perf_counter() - due
            self.units += len(texts)
        self.lookups[0] += cache.hits - hits
        self.lookups[1] += cache.misses - misses
        return service

    def _classify(self, service, request, texts):
        ok, result = self.timed_op(request, lambda: service.classify(texts))
        if ok and list(result.labels) != [self.reference[base_text(text)] for text in texts]:
            self.fail(f"{request}: labels differ from the reference labels")

    def finish(self):
        # Every served label was checked equal to the reference label, so
        # the reference labels of the whole pool stand for the answers;
        # unlike the served subset they do not depend on the run's length.
        texts = self.hot + self.cold
        self.tweet_acc = _accuracy([self.reference[t] for t in texts],
                                   [self.truth[t] for t in texts])
        self.user_acc = self.user_accs[0]
        self.check("user_acc_repeats", all(a == self.user_acc for a in self.user_accs))
        self.answers = {"tweet_acc": self.tweet_acc, "user_acc": self.user_acc}
        hits, misses = self.lookups
        self.layer["engine.cache.hit_ratio"] = (hits / max(1, hits + misses), "ratio")
        lags = sorted(self.lags)
        self.log(f"classify_p99_ms {1e3 * harness.percentile(self.latencies, 99):.6g} ms "
                 f"(informational: {len(self.latencies)} requests, "
                 f"{harness.samples_beyond(len(self.latencies), 99)} beyond)")
        self.log(f"{len(self.latencies)} requests at {SERVE_RATE:g}/s: {SERVE_HOT_SHARE:.0%} of "
                 f"{SERVE_HOT_TEXTS} hot texts, the rest of {SERVE_COLD_TEXTS} fresh texts; "
                 f"cache hit ratio {hits / max(1, hits + misses):.3f}; generator lag "
                 f"p50 {1e3 * lags[len(lags) // 2]:.3f} ms, max {1e3 * lags[-1]:.3f} ms")


# ---------------------------------------------------------------------- #
# fit_synth and fit_synth_sharded
# ---------------------------------------------------------------------- #


def planted_labels(graph) -> tuple[np.ndarray, np.ndarray]:
    """Tweet and user classes planted by ``synthesize_graph``.

    The generator draws each tweet's non-noise words from its class's
    vocabulary block (``Sf0`` marks the head of each block) and its
    noise words from a shared tail after the blocks; a user's class is
    the class of their tweets.  Users without tweets are unlabeled.
    """
    k = graph.sf0.shape[1]
    block = int(np.flatnonzero(graph.sf0[:, 1])[0])
    xp = graph.xp.tocoo()
    in_block = xp.col < k * block
    rows, classes = xp.row[in_block], xp.col[in_block] // block
    tweets = np.full(graph.num_tweets, -1, dtype=np.int64)
    tweets[rows] = classes
    if np.any(tweets[rows] != classes):
        raise ValueError("a synthetic tweet draws words from two class blocks")
    users = np.full(graph.num_users, -1, dtype=np.int64)
    users[graph.corpus.author_rows] = tweets
    return tweets, users


class FitSynth(Workload):
    """Algorithm 1 on the 80k-user synthetic graph, 10 sweeps per fit."""

    name = "fit_synth"

    def __init__(self, seed, log):
        super().__init__(seed, log)
        # The reference objective depends on the graph, so ensuring it
        # verifies (or generates) the graph too.
        self.reference = inputs.load_json(inputs.ensure("synthref", seed, log))
        self.graph = inputs.load_pickle(inputs.artifact_path("graph", seed))
        self.tweet_truth, self.user_truth = planted_labels(self.graph)
        self.limit_s = FIT_LIMIT_S
        self.objectives: set[float] = set()
        self.first_result = None

    def make_solver(self, handle):
        from repro import OfflineTriClustering

        return OfflineTriClustering(max_iterations=inputs.FIT_SWEEPS, seed=self.seed)

    def setup(self):
        solver = self.make_solver(None)
        self.first_result = solver.fit(self.graph)
        self.objectives.add(self.first_result.final_objective)
        return solver

    def close(self, handle):
        pass

    def run(self, handle, seconds: float, fixed: bool):
        started = time.perf_counter()
        fits = 0
        while True:
            solver = self.solver_of(handle)
            ok, result = self.timed_op(f"fit-{len(self.latencies)}",
                                       lambda: solver.fit(self.graph))
            self.busy += self.latencies[-1]
            fits += 1
            if ok:
                self.after_fit(solver, result)
            if (fits >= TRACE_FITS) if fixed else (time.perf_counter() - started >= seconds
                                                   and fits >= 3):
                return handle

    def solver_of(self, handle):
        return handle

    def after_fit(self, solver, result):
        self.objectives.add(result.final_objective)
        if result.iterations != inputs.FIT_SWEEPS:
            self.fail(f"fit ran {result.iterations} sweeps, expected {inputs.FIT_SWEEPS}")
        elif result.final_objective != self.expected_objective():
            self.fail(f"objective {result.final_objective!r} differs from "
                      f"{self.expected_objective()!r}")

    def expected_objective(self) -> float:
        return self.reference["objective"]

    def throughput(self) -> float:
        return self.graph.num_tweets / harness.percentile(self.latencies, 50)

    def finish(self):
        from repro import clustering_accuracy

        result = self.first_result
        self.tweet_acc = clustering_accuracy(result.tweet_sentiments(), self.tweet_truth)
        self.user_acc = clustering_accuracy(result.user_sentiments(), self.user_truth)
        self.check("objective_repeats", len(self.objectives) <= 1, str(self.objectives))
        self.counters = {"sweeps_per_fit": inputs.FIT_SWEEPS,
                         "objective": repr(next(iter(self.objectives), None))}
        self.answers = {"tweet_acc": self.tweet_acc, "user_acc": self.user_acc,
                        "sweeps": result.iterations, "objective": result.final_objective}
        self.log(f"{len(self.latencies)} timed fits of "
                 f"{inputs.FIT_SWEEPS} sweeps on {self.graph.num_users} users / "
                 f"{self.graph.num_tweets} tweets / Xp nnz {self.graph.xp.nnz}")


class FitSynthSharded(FitSynth):
    """The same fit over two socket workers on this host."""

    name = "fit_synth_sharded"
    #: Exchange rounds a fit spends beyond one per sweep (scatter, prime, merge).
    EXTRA_ROUNDS = 3

    def __init__(self, seed, log):
        super().__init__(seed, log)
        self.telemetry: list[dict] = []
        self.plans: list[float] = []

    def setup(self):
        from repro.utils.transport import LocalWorkerFleet

        fleet = LocalWorkerFleet(2)
        try:
            solver = self.make_solver(fleet)
            self.weights = solver.weights
            self.first_result = solver.fit(self.graph)
            self.objectives.add(self.first_result.final_objective)
        except BaseException:
            fleet.close()
            raise
        return fleet, solver

    def make_solver(self, fleet):
        from repro import ShardedTriClustering

        return ShardedTriClustering(max_iterations=inputs.FIT_SWEEPS, seed=self.seed,
                                    n_shards=2, backend="socket",
                                    workers=list(fleet.addresses))

    def close(self, handle):
        handle[0].close()

    def solver_of(self, handle):
        return handle[1]

    def expected_objective(self) -> float:
        return self.first_result.final_objective  # every fit repeats the warm-up's

    def after_fit(self, solver, result):
        super().after_fit(solver, result)
        telemetry = dict(solver.last_telemetry)
        if telemetry["rounds"] != result.iterations + self.EXTRA_ROUNDS:
            self.fail(f"{telemetry['rounds']} exchange rounds for {result.iterations} sweeps")
        self.telemetry.append(telemetry)
        self.plans.append(solver.last_plan.gu_cut_fraction)

    def finish(self):
        super().finish()
        exact = ("rounds", "commands", "bytes_sent", "bytes_received", "halo_updates",
                 "halo_bytes")
        per_fit = {key: sorted({t[key] for t in self.telemetry}) for key in exact}
        self.check("exchange_counters_repeat", all(len(v) == 1 for v in per_fit.values()),
                   str(per_fit))
        self.counters.update({key: values[0] for key, values in per_fit.items()})
        # The fits' own objective is summed over per-shard blocks; compare
        # the whole-graph objective of the merged factors instead, with the
        # unsharded fit's, evaluated the same way.
        objective = inputs.full_objective(self.graph, self.first_result.factors,
                                          self.weights)
        reference = self.reference["full_objective"]
        gap = abs(objective - reference) / abs(reference)
        self.check("objective_gap_finite", math.isfinite(gap), f"{gap!r}")
        self.answers.update({"full_objective": objective, "reference_objective": reference,
                             "objective_rel_gap": gap})
        sweeps = inputs.FIT_SWEEPS
        first = self.telemetry[0]
        mean = lambda key: sum(t[key] for t in self.telemetry) / len(self.telemetry)
        self.layer.update({
            "core.sharded.objective_rel_gap": (gap, "ratio"),
            "utils.executor.rounds_per_sweep": (first["rounds"] / sweeps, "count"),
            "utils.executor.halo_bytes_per_sweep": (first["halo_bytes"] / sweeps, "bytes"),
            "utils.transport.bytes_per_sweep":
                ((first["bytes_sent"] + first["bytes_received"]) / sweeps, "bytes"),
            "utils.executor.wait_s": (mean("wait_seconds"), "s"),
            "utils.executor.exchange_s": (mean("exchange_seconds"), "s"),
            "utils.transport.send_s": (mean("send_seconds"), "s"),
            "graph.partition.gu_cut_fraction": (self.plans[0], "ratio"),
        })
        self.log(f"objective_rel_gap {gap:.6g} ratio (sharded {objective!r} vs unsharded "
                 f"{reference!r}); per fit: {first['rounds']} rounds, "
                 f"{first['bytes_sent']} B sent, {first['bytes_received']} B received, "
                 f"{first['halo_bytes']} B halo")


WORKLOADS = {cls.name: cls for cls in (StreamDaily, ServeOpen, FitSynth, FitSynthSharded)}
