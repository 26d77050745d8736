"""Load generation and the soak driver for the allocation service.

The corpus reuses the fuzz generator (:func:`repro.fuzz.generate.
program_for_seed`) so every request is a real, runnable module over the
rotating machine set — and a configurable *duplicate ratio* controls
how much of the stream should hit the cache, which is the service's
whole reason to exist.

:func:`run_soak` is the benchmark: a cold pass (empty cache) and a warm
pass (same corpus again) through one in-process server, reported in the
same ``BENCH`` document shape as ``tools/perf_bench.py`` so the
cold→warm speedup lands straight in ``repro report --perf``'s
trajectory.  The committed artifact is ``BENCH_9.json``.
"""

from __future__ import annotations

import json
import random
import threading
import time

from repro.obs.metrics import quantile
from repro.serve.client import ServeClient, ServeError


def build_corpus(requests: int, *, dup_ratio: float = 0.5,
                 seed: int = 0) -> list[dict]:
    """``requests`` allocate documents, ``dup_ratio`` of them repeats.

    The unique programs come from the fuzz generator (seeds offset by
    ``seed * 10_000`` so distinct load runs use distinct programs); the
    duplicate tail re-samples uniques and the whole sequence is
    shuffled, all through a *string-seeded* RNG so the corpus is stable
    across ``PYTHONHASHSEED`` values and processes.
    """
    from repro.fuzz.generate import program_for_seed
    from repro.ir.printer import print_module

    if requests < 1:
        raise ValueError("requests must be >= 1")
    if not 0.0 <= dup_ratio < 1.0:
        raise ValueError("dup_ratio must be in [0, 1)")
    rng = random.Random(f"loadgen:{seed}")
    unique = max(1, round(requests * (1.0 - dup_ratio)))
    docs = []
    for i in range(unique):
        program = program_for_seed(seed * 10_000 + i)
        machine = program.machine
        spec = ("alpha" if machine.name == "alpha"
                else f"tiny:{machine.n_gpr}x{machine.n_fpr}")
        docs.append({"op": "allocate", "ir": print_module(program.module),
                     "machine": spec, "allocator": "second-chance",
                     "context": "", "spill_cleanup": False})
    sequence = list(docs)
    sequence.extend(rng.choice(docs) for _ in range(requests - unique))
    rng.shuffle(sequence)
    return sequence


class LoadReport:
    """One pass of the load generator: latencies, hit counts, errors."""

    def __init__(self, label: str = "load"):
        self.label = label
        self.latencies: list[float] = []
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.wall_s = 0.0

    # -- accumulation ---------------------------------------------------
    def record(self, seconds: float, cached: bool) -> None:
        self.latencies.append(seconds)
        if cached:
            self.hits += 1
        else:
            self.misses += 1

    # -- derived numbers ------------------------------------------------
    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.errors

    @property
    def hit_rate(self) -> float:
        answered = self.hits + self.misses
        return self.hits / answered if answered else 0.0

    @property
    def median_s(self) -> float:
        return quantile(self.latencies, 0.50) if self.latencies else 0.0

    @property
    def p90_s(self) -> float:
        return quantile(self.latencies, 0.90) if self.latencies else 0.0

    @property
    def p99_s(self) -> float:
        return quantile(self.latencies, 0.99) if self.latencies else 0.0

    @property
    def throughput(self) -> float:
        return self.requests / self.wall_s if self.wall_s else 0.0

    def to_json(self) -> dict:
        return {"label": self.label, "requests": self.requests,
                "hits": self.hits, "misses": self.misses,
                "errors": self.errors,
                "hit_rate": round(self.hit_rate, 4),
                "median_s": round(self.median_s, 6),
                "p90_s": round(self.p90_s, 6),
                "p99_s": round(self.p99_s, 6),
                "wall_s": round(self.wall_s, 3),
                "throughput_rps": round(self.throughput, 1)}

    def render(self) -> str:
        return (f"{self.label}: {self.requests} requests, "
                f"{self.hits} hits / {self.misses} misses "
                f"({100 * self.hit_rate:.1f}% hit rate), "
                f"{self.errors} errors, "
                f"median {1e3 * self.median_s:.2f} ms, "
                f"p90 {1e3 * self.p90_s:.2f} ms, "
                f"{self.throughput:.1f} req/s")


def run_load(host: str, port: int, corpus: list[dict], *,
             label: str = "load") -> LoadReport:
    """Drive the whole corpus through one connection, serially.

    Serial on purpose: per-request latency is then a clean measurement,
    and the duplicate ratio translates directly into the hit rate.
    Structured errors are counted, not raised — a load run should
    survive a few bad programs.
    """
    report = LoadReport(label)
    t0 = time.perf_counter()
    with ServeClient(host, port) as client:
        for doc in corpus:
            t1 = time.perf_counter()
            try:
                response = client.request(dict(doc))
            except ServeError:
                report.errors += 1
                continue
            report.record(time.perf_counter() - t1,
                          bool(response.get("cached")))
    report.wall_s = time.perf_counter() - t0
    return report


def run_soak(store_dir: str, *, requests: int = 200, dup_ratio: float = 0.5,
             seed: int = 0, jobs: int = 1,
             echo=None) -> dict:
    """Cold pass + warm pass through a fresh in-process server.

    Returns a BENCH-style document (``before`` = cold, ``after`` = warm,
    ``speedup.serve`` = cold/warm median latency) that
    ``repro report --perf`` folds into the perf trajectory; the serve
    counters ride along under each phase's ``serve`` key.
    """
    from repro.serve.server import AllocationServer

    def say(message: str) -> None:
        if echo is not None:
            echo(message)

    corpus = build_corpus(requests, dup_ratio=dup_ratio, seed=seed)
    server = AllocationServer(store_dir, jobs=jobs)
    thread = threading.Thread(target=server.run, name="serve-soak",
                              daemon=True)
    thread.start()
    server.wait_ready()
    say(f"soak: server on 127.0.0.1:{server.port}, "
        f"{requests} requests ({int(100 * dup_ratio)}% duplicates), "
        f"jobs={jobs}")
    try:
        cold = run_load("127.0.0.1", server.port, corpus, label="cold")
        say(cold.render())
        warm = run_load("127.0.0.1", server.port, corpus, label="warm")
        say(warm.render())
        with ServeClient("127.0.0.1", server.port) as client:
            stats = client.stats()
    finally:
        server.request_shutdown()
        thread.join(timeout=30)

    def phase(report: LoadReport) -> dict:
        return {"mode": report.label, "reps": 1,
                "benchmarks": {"serve.request": {
                    "median_s": round(report.median_s, 6),
                    "reps": report.requests}},
                "groups": {"serve": round(report.median_s, 6)},
                "serve": report.to_json()}

    warm_median = warm.median_s or 1e-9
    return {"schema": 1, "tool": "repro serve --soak",
            "requests": requests, "dup_ratio": dup_ratio, "seed": seed,
            "jobs": jobs,
            "before": phase(cold), "after": phase(warm),
            "speedup": {"serve": round(cold.median_s / warm_median, 2)},
            "server": {"cache_cells": stats.get("cache_cells"),
                       "metrics": stats.get("metrics", {})}}


__all__ = ["LoadReport", "build_corpus", "run_load", "run_soak"]
