"""Runtime span tracing of the program's layers, from outside ``src/``.

The traced run installs wrappers around public functions and methods of
each layer (:data:`TARGETS`), records one span per call in memory —
``(id, key, thread, start, end, parent, depth, request, wait)`` — and
writes the spans out when the run ends.  Nothing under ``src/`` is
edited: functions are re-bound in every ``repro`` module that imported
them, methods are re-bound on their class, and everything is restored
by :meth:`Tracer.uninstall`.

Self time (:func:`self_times`) is computed by a sweep over the span
timeline.  At each instant the time goes to the innermost open span of
the main thread — unless that span only waits on another thread (a
``wait`` span, or the benchmark's own root span) while a span is open
on another thread, in which case the other thread's innermost span gets
it.  Every instant inside a root span is charged exactly once, so the
layers' self times plus the roots' own time (``unaccounted_ms``) sum to
the traced wall time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Key of the benchmark's own root spans: their self time is the part
#: of the traced wall no wrapped layer accounts for.
UNACCOUNTED = "unaccounted_ms"


def _nnz(matrix) -> int:
    return int(getattr(matrix, "nnz", getattr(matrix, "size", 0)))


def _count_spmm(counters, args, kwargs, result):
    counters["core.spmm.products"] += 1
    counters["core.spmm.nnz"] += _nnz(args[1] if len(args) > 1 else kwargs["x"])


def _count_objective(counters, args, kwargs, result):
    counters["core.objective.calls"] += 1


def _count_offline(counters, args, kwargs, result):
    counters["core.offline.fits"] += 1
    counters["core.offline.sweeps"] += result.iterations
    counters["sweeps"] += result.iterations


def _count_sharded(counters, args, kwargs, result):
    counters["sweeps"] += result.iterations


def _count_online(counters, args, kwargs, result):
    counters["core.online.snapshots"] += 1
    counters["core.online.sweeps"] += result.iterations
    counters["sweeps"] += result.iterations


def _count_build(counters, args, kwargs, result):
    counters["graph.incremental.builds"] += 1
    counters["graph.incremental.xp_nnz"] += _nnz(result.xp)


def _count_fold_in(counters, args, kwargs, result):
    counters["core.inference.rows"] += int(result.shape[0])


_UPDATES = ("update_hp", "update_hu", "update_sp", "update_su", "update_sf",
            "update_su_online", "sf_sweep_contribution", "apply_sf_update")

#: ``(module, "Class.method" or "function", span key, wait, counter)``.
#: A wait span only blocks on another thread; see the module docstring.
TARGETS = [
    # text: tokenize, vocabulary growth, vectorize, idf refresh
    ("repro.text.tokenizer", "TweetTokenizer.tokenize", "text.transform_ms", False, None),
    ("repro.text.vocabulary", "Vocabulary.add_document", "text.transform_ms", False, None),
    ("repro.text.vectorizer", "CountVectorizer.transform", "text.transform_ms", False, None),
    ("repro.text.vectorizer", "CountVectorizer.transform_counts", "text.transform_ms", False, None),
    ("repro.text.vectorizer", "TfidfVectorizer.transform", "text.transform_ms", False, None),
    ("repro.text.vectorizer", "TfidfVectorizer.transform_counts", "text.transform_ms", False, None),
    ("repro.text.vectorizer", "TfidfVectorizer.refresh_idf", "text.transform_ms", False, None),
    # graph.incremental: buffer a batch, assemble a snapshot
    ("repro.graph.incremental", "IncrementalTripartiteBuilder.ingest",
     "graph.incremental.ingest_ms", False, None),
    ("repro.graph.incremental", "IncrementalTripartiteBuilder.build_snapshot",
     "graph.incremental.build_ms", False, _count_build),
    # engine
    ("repro.engine.pipeline", "IngestPipeline.flush", "engine.pipeline.flush_wait_ms", True, None),
    ("repro.engine.streaming", "StreamingSentimentEngine.advance_snapshot",
     "engine.streaming.commit_ms", False, None),
    ("repro.engine.streaming", "StreamingSentimentEngine.classify_memberships",
     "engine.streaming.classify_self_ms", False, None),
    ("repro.engine.persistence", "load_engine", "engine.persistence.load_ms", False, None),
    # core solvers, products, objective, element-wise updates, fold-in
    ("repro.core.offline", "OfflineTriClustering.fit", "core.offline.fit_ms", False, _count_offline),
    ("repro.core.online", "OnlineTriClustering.partial_fit", "core.online.partial_fit_ms", False,
     _count_online),
    ("repro.core.spmm", "SpmmEngine.matmul", "core.spmm.ms", False, _count_spmm),
    ("repro.core.spmm", "ThreadedSpmmEngine.matmul", "core.spmm.ms", False, _count_spmm),
    ("repro.core.spmm", "NumbaSpmmEngine.matmul", "core.spmm.ms", False, _count_spmm),
    ("repro.core.objective", "compute_objective", "core.objective.ms", False, _count_objective),
    *[("repro.core.updates", name, "core.updates.ms", False, None) for name in _UPDATES],
    ("repro.core.inference", "infer_tweet_memberships", "core.inference.fold_in_ms", False,
     _count_fold_in),
    # sharding: partition + block extraction, coordinator, merge
    ("repro.graph.partition", "make_partition", "graph.partition.extract_ms", False, None),
    ("repro.graph.partition", "extract_shard_blocks", "graph.partition.extract_ms", False, None),
    ("repro.core.sharded", "ShardedTriClustering.fit", "core.sharded.fit_ms", False, _count_sharded),
    ("repro.core.sharded", "ShardedSolver.solve_offline", "core.sharded.solve_ms", False, None),
    ("repro.core.sharded", "ShardedSolver.merged_factors", "core.sharded.merge_ms", False, None),
]

#: Every span key a traced run reports (``_ms`` self times).
SPAN_KEYS = sorted({target[2] for target in TARGETS} | {UNACCOUNTED})


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: tuple | None = None  # (span id, request id)
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, request: str):
        """One operation of the benchmark (a request id for its spans)."""
        sid = next(self._ids)
        stack = self._stack()
        previous, self._root = self._root, (sid, request)
        start = time.perf_counter()
        stack.append(sid)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = previous
            self.spans.append((sid, UNACCOUNTED, threading.get_ident(), start, end,
                               None, 0, request, True))

    def _wrap(self, fn, key: str, wait: bool, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            root = tracer._root
            if stack:
                parent = stack[-1]
            elif root is not None:
                parent = root[0]  # another thread, working for the open op
            else:
                parent = None
            sid = next(tracer._ids)
            depth = len(stack) + 1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, key, threading.get_ident(), start, end, parent,
                                     depth, root[1] if root else None, wait))
            if counter is not None:
                counter(tracer.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- installing --------------------------------------------------- #

    def install(self, targets=TARGETS) -> None:
        for module_name, path, key, wait, counter in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__.get(method)
                if original is None:
                    raise AttributeError(f"{module_name}.{path} is not defined there")
                wrapper = self._wrap(original, key, wait, counter)
                # Aliases (``__call__ = tokenize``) share the one wrapper.
                for name, value in list(owner.__dict__.items()):
                    if value is original:
                        self._restore.append((owner, name, original))
                        setattr(owner, name, wrapper)
            else:
                original = getattr(module, path)
                wrapper = self._wrap(original, key, wait, counter)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(loaded).items()):
                        if value is original:
                            self._restore.append((loaded, name, original))
                            setattr(loaded, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- output ------------------------------------------------------- #

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in seconds relative to the first span."""
        origin = min((span[3] for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, key, tid, start, end, parent, depth, request, wait in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": key, "thread": tid, "start": start - origin,
                    "end": end - origin, "parent": parent, "request": request,
                }) + "\n")


def self_times(spans, main_thread: int) -> tuple[dict[str, float], float]:
    """Per-key self time in seconds, and the traced wall (sum of roots).

    ``spans`` are the recorder's tuples.  Only instants inside a root
    span on the main thread are charged (see the module docstring).
    """
    events = []
    wall = 0.0
    for span in spans:
        sid, key, tid, start, end, parent, depth, request, wait = span
        if key == UNACCOUNTED and tid == main_thread:
            wall += end - start
        # At one instant: ends before starts; deeper ends first,
        # shallower starts first, so per-thread stacks stay nested.
        events.append((start, 1, depth, sid, span))
        events.append((end, 0, -depth, sid, span))
    events.sort(key=lambda event: event[:4])
    stacks: dict[int, list] = defaultdict(list)
    charged: dict[str, float] = defaultdict(float)
    previous = None
    for when, kind, _, _, span in events:
        if previous is not None and when > previous:
            owner = _owner(stacks, main_thread)
            if owner is not None:
                charged[owner[1]] += when - previous
        stack = stacks[span[2]]
        if kind == 1:
            stack.append(span)
        else:
            stack.remove(span)
        previous = when
    return dict(charged), wall


def _owner(stacks, main_thread: int):
    main = stacks.get(main_thread)
    if not main:
        return None
    top = main[-1]
    if top[8]:  # a wait span or a root: yield to work on another thread
        others = [stack[-1] for tid, stack in stacks.items() if tid != main_thread and stack]
        if others:
            return max(others, key=lambda span: span[3])
    return top
