"""Seeded inputs, generated once per seed and reused across runs.

Each artifact lives under ``.bench_out/cache/`` in the checkout with a
manifest holding the sha256 of every file it wrote.  A run reuses an
artifact only if every hash still matches; otherwise it generates it
again.  Generation runs in a child process (``python3 inputs.py KIND
SEED``) so its time and memory never land in a workload's ``setup_s``
or ``peak_rss_mb``.

Artifacts (all keyed by seed and by a hash of ``src/repro`` and of this
file, so a changed program or generator rebuilds what it produced):

- ``corpus``: ``prop37_config(scale=1.0)`` corpus plus its lexicon.
- ``graph``: ``synthesize_graph(num_users=80_000)``.
- ``synthref``: the unsharded 10-sweep fit's final objective, and the
  whole-graph objective of its factors.
- ``serve``: a checkpoint of the default engine after the corpus's
  first 15 weeks, the request pools drawn from the remaining days, and
  the labels the restored service gives every pooled text.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CACHE = OUT / "cache"

CORPUS_SCALE = 1.0
SYNTH_USERS = 80_000
FIT_SWEEPS = 10
#: The serve checkpoint covers days [0, TRAIN_DAYS); requests come from the rest.
TRAIN_DAYS = 105
#: Retweet-like texts that repeat in requests (the cache's working set).
HOT_SIZE = 256
WARMUP_TEXTS = 8
#: Generous bound on one input generation step (the corpus takes ~20 s).
PREPARE_TIMEOUT_S = 150


def src_hash() -> str:
    """Short hash of the program's source and of this generator, so
    inputs track the code that made them."""
    digest = hashlib.sha256()
    for path in [*sorted((SRC / "repro").rglob("*.py")), Path(__file__).resolve()]:
        digest.update(path.name.encode() if path.parent == BENCH_DIR
                      else str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _files(path: Path) -> list[Path]:
    return sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]


def artifact_path(kind: str, seed: int) -> Path:
    suffix = {"corpus": ".pkl", "graph": ".pkl", "synthref": ".json", "serve": ""}[kind]
    return CACHE / f"{kind}-seed{seed}-{src_hash()}{suffix}"


def _manifest(path: Path) -> Path:
    return path.with_name(path.name + ".manifest.json")


def verified(path: Path) -> bool:
    """Whether ``path`` exists and matches the hashes recorded for it."""
    manifest = _manifest(path)
    if not (manifest.exists() and path.exists()):
        return False
    recorded = json.loads(manifest.read_text())
    actual = {str(p.relative_to(CACHE)): _sha256(p) for p in _files(path)}
    return recorded == actual


def _publish(tmp: Path, path: Path) -> None:
    """Move a finished artifact into place, then record its hashes."""
    if path.is_dir():
        shutil.rmtree(path)
    os.replace(tmp, path)
    hashes = {str(p.relative_to(CACHE)): _sha256(p) for p in _files(path)}
    manifest = _manifest(path)
    manifest.with_suffix(".tmp").write_text(json.dumps(hashes, indent=1))
    os.replace(manifest.with_suffix(".tmp"), manifest)


def ensure(kind: str, seed: int, log=print) -> Path:
    """The verified artifact, generated in a child process if needed."""
    for dependency in {"serve": ("corpus",), "synthref": ("graph",)}.get(kind, ()):
        ensure(dependency, seed, log)
    path = artifact_path(kind, seed)
    if verified(path):
        log(f"inputs: {kind} seed={seed} reused (sha256 verified)")
        return path
    started = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "inputs.py"), kind, str(seed)],
                   check=True, timeout=PREPARE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    if not verified(path):
        raise RuntimeError(f"input {kind} seed={seed} failed verification after generation")
    log(f"inputs: {kind} seed={seed} generated in {time.perf_counter() - started:.2f} s")
    return path


def load_pickle(path: Path):
    # Only files this benchmark wrote and whose hashes it just verified.
    with open(path, "rb") as handle:
        return pickle.load(handle)


def load_json(path: Path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------- #
# Generation (child process)
# ---------------------------------------------------------------------- #


def _make_corpus(seed: int, tmp: Path) -> None:
    from repro import BallotDatasetGenerator, prop37_config

    generator = BallotDatasetGenerator(prop37_config(scale=CORPUS_SCALE), seed=seed)
    corpus = generator.generate()
    with open(tmp, "wb") as handle:
        pickle.dump((corpus, generator.lexicon()), handle, protocol=pickle.HIGHEST_PROTOCOL)


def _make_graph(seed: int, tmp: Path) -> None:
    from repro.data.synthetic import synthesize_graph

    graph = synthesize_graph(num_users=SYNTH_USERS, seed=seed)
    with open(tmp, "wb") as handle:
        pickle.dump(graph, handle, protocol=pickle.HIGHEST_PROTOCOL)


def full_objective(graph, factors, weights) -> float:
    """The whole-graph objective of ``factors``, as the offline solver evaluates it."""
    from repro.core import compute_objective

    return compute_objective(factors, graph.xp, graph.xu, graph.xr,
                             graph.user_graph.laplacian, weights, sf_prior=graph.sf0).total


def _make_synthref(seed: int, tmp: Path) -> None:
    from repro import OfflineTriClustering

    graph = load_pickle(artifact_path("graph", seed))
    solver = OfflineTriClustering(max_iterations=FIT_SWEEPS, seed=seed)
    result = solver.fit(graph)
    tmp.write_text(json.dumps({
        "objective": result.final_objective, "sweeps": result.iterations,
        "full_objective": full_objective(graph, result.factors, solver.weights)}))


def daily_batches(corpus, first_day: int = 0, last_day: int | None = None):
    """``(day, tweets, profiles)`` per non-empty day, profiles resolved up front."""
    from repro.data.stream import iter_tweet_batches

    batches = []
    for start, _, tweets in iter_tweet_batches(corpus, interval_days=1):
        if start < first_day or (last_day is not None and start > last_day):
            continue
        batches.append((start, tweets, corpus.profiles_for(tweets)))
    return batches


def _make_serve(seed: int, tmp: Path) -> None:
    from repro import EngineConfig, SentimentService

    corpus, lexicon = load_pickle(artifact_path("corpus", seed))
    tmp.mkdir(parents=True)
    with SentimentService(config=EngineConfig(), lexicon=lexicon) as service:
        for _, tweets, profiles in daily_batches(corpus, last_day=TRAIN_DAYS - 1):
            service.ingest(tweets, users=profiles)
            service.snapshot()
        service.save(tmp / "checkpoint")

    held_out = [t for t in corpus.tweets if t.day >= TRAIN_DAYS]
    truth: dict[str, int] = {}
    for tweet in held_out:
        truth.setdefault(tweet.text, -1 if tweet.sentiment is None else int(tweet.sentiment))
    counts = Counter(t.text for t in held_out)
    order = list(truth)  # first-appearance order breaks frequency ties
    hot = sorted(order, key=lambda text: -counts[text])[:HOT_SIZE]
    hot_set = set(hot)
    cold = [text for text in order if text not in hot_set]
    random.Random(seed).shuffle(cold)
    seen = set(truth)
    warmup = []
    for tweet in corpus.tweets:
        if tweet.day < TRAIN_DAYS and tweet.text not in seen and tweet.text not in warmup:
            warmup.append(tweet.text)
            if len(warmup) == WARMUP_TEXTS:
                break

    restored = SentimentService.load(tmp / "checkpoint")
    try:
        texts = hot + cold + warmup
        labels = restored.classify(texts).labels
        users = {u.user_id: u.label for u in restored.user_sentiments()}
    finally:
        restored.close()
    user_truth = corpus.user_labels(day=TRAIN_DAYS - 1)
    user_ids = corpus.user_ids
    pools = {
        "hot": hot, "cold": cold, "warmup": warmup,
        "truth": {text: truth.get(text, -1) for text in texts},
        "reference": dict(zip(texts, labels)),
        "user_truth": {str(uid): int(label) for uid, label in zip(user_ids, user_truth)
                       if label >= 0 and uid in users},
    }
    (tmp / "pools.json").write_text(json.dumps(pools))


_MAKERS = {"corpus": _make_corpus, "graph": _make_graph,
           "synthref": _make_synthref, "serve": _make_serve}


def main(argv: list[str]) -> int:
    kind, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(SRC))
    CACHE.mkdir(parents=True, exist_ok=True)
    path = artifact_path(kind, seed)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    _MAKERS[kind](seed, tmp)
    _publish(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
