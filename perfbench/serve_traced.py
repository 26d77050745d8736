"""Run ``python -m repro serve`` with spans around the server's request
path and around the allocation worker's calls, and write the spans out.

Usage: ``python serve_traced.py SPANS.jsonl serve --jobs 1 --store DIR``

The server process records ``serve.decode`` / ``.key`` / ``.lookup`` /
``.encode``; it handles one connection's requests in order, so each span
carries the id of the request in flight.  Its spans are written to
``SPANS.jsonl`` when it exits.  The pool worker (forked from the server
after the wrappers are in place) records ``serve.compute`` around
``allocation_artifact`` and, under it, the setup analyses and both
simulations, stamped with the response's ``key``; it appends them to
``SPANS.worker-<pid>.jsonl`` after every miss, because pool workers exit
without running exit handlers.  Commit time comes from the server's own
``serve.latency.commit_s``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_repro  # noqa: E402
from spans import SpanRecorder, instrument  # noqa: E402

SERVER = SpanRecorder()
WORKER = SpanRecorder()
#: Where the server writes its spans; set before the pool forks.
OUT: Path | None = None
_written = 0


def traced_artifact(payload: dict) -> dict:
    """``allocation_artifact`` with spans; runs in the pool worker."""
    global _written
    from repro.pm import batch
    from repro.serve.cache import artifact_cache_key

    WORKER.cell = artifact_cache_key(payload)[1][:16]
    with WORKER.span("serve.compute"):
        artifact = batch.allocation_artifact(payload)
    WORKER.cell = None
    WORKER.write(Path(f"{OUT}.worker-{os.getpid()}.jsonl"), start=_written)
    _written = len(WORKER.spans)
    return artifact


def main(argv: list[str]) -> int:
    global OUT
    import_repro()
    from repro.__main__ import main as repro_main
    from repro.pm import batch
    from repro.serve import cache, server

    OUT, repro_args = Path(argv[0]), argv[1:]

    def decode(line):
        with SERVER.span("serve.decode"):
            request = decode_request(line)
        SERVER.spans[-1][5] = SERVER.cell = request.get("id")
        return request

    def lookup(self, key, sha):
        with SERVER.span("serve.lookup"):
            return cache_get(self, key, sha)

    def simulate(*args, **kwargs):
        # allocation_artifact simulates the virtual code first, then the
        # allocated module with its metrics registry.
        name = "sim.run" if kwargs.get("metrics") is not None else "sim.ref"
        with WORKER.span(name):
            return batch_simulate(*args, **kwargs)

    decode_request = server.decode_request
    cache_get = cache.AllocationCache.get
    batch_simulate = batch.simulate
    server.decode_request = decode
    server.artifact_cache_key = SERVER.wrap("serve.key",
                                            server.artifact_cache_key)
    server.encode = SERVER.wrap("serve.encode", server.encode)
    cache.AllocationCache.get = lookup
    server.allocation_artifact = traced_artifact
    batch.simulate = simulate
    with instrument(WORKER):
        try:
            return repro_main(repro_args)
        finally:
            SERVER.write(OUT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
