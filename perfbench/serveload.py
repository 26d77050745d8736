"""The ``serve`` workload: a closed loop over one JSONL connection to
``python -m repro serve --jobs 1`` running in its own process on a fresh
store.

The program pool comes from ``repro.serve.load.build_corpus`` and is the
same on every seed; each program is requested once under each of the
four allocators (in an order the seed draws), so every run sends the same
set of misses and per-allocator numbers cover the same programs.  The
seed draws the duplicate tail (a fixed share of the stream) and the
request order.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve.client import ServeClient, ServeError
from repro.serve.load import build_corpus

from common import ALLOCATORS, OUT, child_env, median, vm_hwm_mb
from layers import SETUP_LAYERS, Cell, end_to_end, run_counts
from spans import self_seconds

HOST = "127.0.0.1"
#: Share of requests that repeat an earlier request (cache hits).
DUP_SHARE = 0.5
#: Programs in the pool.  Each is requested under all four allocators,
#: so a stream has 104 misses and ``miss_p90_ms`` has ten beyond it.
POOL_PROGRAMS = 26
#: Seconds to wait for the server to start, answer or exit.
SERVER_TIMEOUT_S = 60.0


@dataclass
class Stream:
    uniques: list[dict]
    order: list[int]  # indices into ``uniques``


def build_stream(seed: int, rec) -> Stream:
    with rec.span("workloads.generate"):
        pool = build_corpus(POOL_PROGRAMS, dup_ratio=0.0, seed=0)
    rng = random.Random(f"serve:{seed}")
    uniques = []
    for doc in pool:
        allocators = list(ALLOCATORS)
        rng.shuffle(allocators)
        uniques.extend(dict(doc, allocator=name) for name in allocators)
    repeats = round(len(uniques) * DUP_SHARE / (1.0 - DUP_SHARE))
    order = list(range(len(uniques)))
    order.extend(rng.randrange(len(uniques)) for _ in range(repeats))
    rng.shuffle(order)
    return Stream(uniques, order)


class Server:
    """One ``repro serve`` process on a fresh store under ``OUT``."""

    def __init__(self, store: Path, spans_out: Path | None = None):
        if spans_out is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, str(Path(__file__).with_name(
                "serve_traced.py")), str(spans_out)]
        argv += ["serve", "--jobs", "1", "--host", HOST, "--port", "0",
                 "--store", str(store)]
        self.proc = subprocess.Popen(argv, env=child_env(), cwd=OUT,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        try:
            line = self.proc.stderr.readline()
            if "serving on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[2].rsplit(":", 1)[1])
            with ServeClient(HOST, self.port,
                             timeout=SERVER_TIMEOUT_S) as client:
                client.ping()
        except BaseException:
            self.kill()
            raise

    def shutdown(self) -> None:
        with ServeClient(HOST, self.port, timeout=SERVER_TIMEOUT_S) as client:
            client.shutdown()
        self.proc.communicate(timeout=SERVER_TIMEOUT_S)

    def kill(self) -> None:
        """Stop the process if it is still running (cleanup path)."""
        if self.proc.returncode is not None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate(timeout=SERVER_TIMEOUT_S)


@dataclass
class StreamResult:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: The stream's time in host-normalized seconds, and as measured.
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    hit_ms: list[float] = field(default_factory=list)
    #: Each distinct request's miss: (index into ``uniques``, response,
    #: round-trip seconds, host factor); the seconds are normalized.
    misses: list[tuple] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def fail(self, why: str) -> bool:
        """Count a failed request; returns False (the request is not
        ok)."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)
        return False


def run_stream(server: Server, stream: Stream, rec, clock) -> StreamResult:
    """Send the stream serially; check every answer; then read the
    server's stats and peak memory (the server keeps running).

    ``clock`` probes the host between segments of requests, each
    segment starting at a miss (``probe.py``); every request is scaled
    to host-normalized seconds, and the probes are left out of the
    stream's time."""
    result = StreamResult()
    first_code: dict[int, str] = {}

    def scaled(elapsed, miss=None):
        def apply(factor):
            result.wall_s += elapsed * factor
            if miss is not None:
                result.misses.append((*miss, elapsed * factor, factor))
        return apply

    with ServeClient(HOST, server.port, timeout=SERVER_TIMEOUT_S) as client:
        clock.mark()
        for n, index in enumerate(stream.order):
            if index not in first_code and clock.due():
                clock.close()
            rid = f"r{n}"
            rec.cell = rid
            result.attempted += 1
            t1 = time.perf_counter()
            try:
                with rec.span("serve.request"):
                    response = client.request(dict(stream.uniques[index],
                                                   id=rid))
            except ServeError as exc:
                elapsed = time.perf_counter() - t1
                result.raw_wall_s += elapsed
                clock.add(elapsed, scaled(elapsed))
                result.fail(f"{rid}: {exc.code}: {exc}")
                continue
            elapsed = time.perf_counter() - t1
            result.raw_wall_s += elapsed
            cached = bool(response.get("cached"))
            ok, miss = True, None
            if index in first_code:
                if response.get("code") != first_code[index]:
                    ok = result.fail(f"{rid}: code differs from the first "
                                     "answer")
            elif cached:
                ok = result.fail(f"{rid}: first request answered from a "
                                 "fresh store's cache")
            else:
                first_code[index] = response.get("code")
                miss = (index, response)
            clock.add(elapsed, scaled(elapsed, miss))
            if ok and cached:
                result.hit_ms.append(elapsed * 1e3)
        clock.close()
        rec.cell = None
        result.stats = client.stats()
    result.peak_rss_mb = vm_hwm_mb(server.proc.pid)
    return result


def cells(result: StreamResult) -> list[Cell]:
    """Each miss as a cell: the program is the pool entry the request
    came from, with the artifact's counts, profile and simulation."""
    out = []
    for index, artifact, elapsed, factor in sorted(result.misses,
                                                   key=lambda m: m[0]):
        out.append(Cell(
            program=f"pool-{index // len(ALLOCATORS)}",
            allocator=artifact["allocator"], key=artifact["key"],
            latencies=[elapsed],
            cores=[artifact["alloc_seconds"] * factor],
            cycles=artifact["cycles"],
            dyn_instr=artifact["dynamic_instructions"],
            spill_dyn=artifact["total_spill"],
            counts=run_counts(artifact["metrics"]),
            phases={name: stat["self_s"] for name, stat
                    in artifact["profile"]["phases"].items()}))
    return out


def metrics(results: list[StreamResult], served: list[Cell]) -> dict:
    """End-to-end metrics of streams sent to fresh servers, but
    ``setup_s``: the wall time, rate and peak memory are the median
    stream's, and ``served`` holds every miss with one sample per
    stream."""
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    out = {"wall_s": median(r.wall_s for r in results),
           "peak_rss_mb": median(r.peak_rss_mb for r in results),
           "ok_frac": (attempted - failed) / attempted,
           "rps": median(r.attempted / r.wall_s for r in results)}
    out.update(end_to_end(served))
    return out


def layers(result: StreamResult, served: list[Cell], server_spans: list,
           worker_spans: list) -> dict[str, float]:
    """Per-layer numbers of one traced stream, from the server's spans
    and stats and the worker's spans (beyond the shared fold of
    :func:`layers.per_layer`)."""
    server = self_seconds(server_spans)
    worker = self_seconds(worker_spans)
    stats = result.stats.get("metrics", {})
    out = {
        "serve.decode_s": server.get("serve.decode", 0.0),
        "serve.key_s": server.get("serve.key", 0.0),
        "serve.lookup_s": server.get("serve.lookup", 0.0),
        "serve.encode_s": server.get("serve.encode", 0.0),
        "serve.compute_s": sum(end - start for _, _, name, start, end, _ in
                               worker_spans if name == "serve.compute") / 1e9,
        "serve.commit_s": stats.get("serve.latency.commit_s", 0.0),
        "serve.hits": stats.get("serve.cache.hits", 0),
        "serve.misses": stats.get("serve.cache.misses", 0),
        "serve.hit_p50_ms": median(result.hit_ms),
        "pm.setup_s": worker.get("pm.setup", 0.0),
        "sim.ref_s": worker.get("sim.ref", 0.0),
        "sim.run_s": worker.get("sim.run", 0.0),
    }
    answered = out["serve.hits"] + out["serve.misses"]
    out["serve.hit_ratio"] = out["serve.hits"] / answered if answered else 0.0
    for metric, span in SETUP_LAYERS.items():
        out[metric] = worker.get(span, 0.0)
    # The worker sets up inside session.run: its overhead is pm.run less
    # the allocator core and less the pm.setup calls made directly by it.
    run_ns: dict[str, int] = defaultdict(int)
    run_cell = {sid: cell for sid, _, name, _, _, cell in worker_spans
                if name == "pm.run"}
    for sid, parent, name, start, end, cell in worker_spans:
        if name == "pm.run":
            run_ns[cell] += end - start
        elif name == "pm.setup" and parent in run_cell:
            run_ns[run_cell[parent]] -= end - start
    # Spans are raw seconds, so the core is too.
    core = {artifact["key"]: artifact["alloc_seconds"]
            for _, artifact, _, _ in result.misses}
    for allocator in ALLOCATORS:
        out[f"pm.overhead_s.{allocator}"] = sum(
            run_ns[c.key] / 1e9 - core[c.key] for c in served
            if c.ok and c.allocator == allocator)
    return out


def store_bytes(store: Path) -> int:
    return sum(path.stat().st_size for path in store.rglob("*")
               if path.is_file())
