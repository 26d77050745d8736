"""In-memory spans around calls into the program's public functions.

A span is ``(id, parent, name, start_ns, end_ns, cell)``; ``cell`` names
the unit of work (one allocator on one program, one served request) so
every span of a cell can be collected.  Spans stay in memory and are
written out when the run ends (a served run's pool worker appends its
spans after each call instead, since pool workers exit without running
exit handlers).  A layer's self time is its span's duration minus the
durations of its child spans.

Untraced runs use :data:`NULL` (no spans at all).  Calls the program
makes internally, which the benchmark cannot bracket at a call site, are
reached by swapping the public function for a span-recording wrapper for
the duration of :func:`instrument` and restoring it afterwards; nothing
under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    """Collects spans; ``cell`` is stamped on every span opened under it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cell: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  name, time.perf_counter_ns(), 0, self.cell]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return traced

    def write(self, path: Path, start: int = 0) -> None:
        """Write the spans from index ``start`` on (appending when
        ``start`` is past the beginning)."""
        write(path, self.spans[start:], append=start > 0)


def write(path: Path, rows, append: bool = False) -> None:
    """Write recorder rows as JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a" if append else "w") as out:
        for sid, parent, name, start, end, cell in rows:
            out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                  "start_ns": start, "end_ns": end,
                                  "cell": cell}) + "\n")


def read(path: Path) -> list[list]:
    """Rows written by :func:`write`."""
    rows = []
    with open(path) as lines:
        for line in lines:
            s = json.loads(line)
            rows.append([s["id"], s["parent"], s["name"], s["start_ns"],
                         s["end_ns"], s["cell"]])
    return rows


class _NullRecorder:
    """Stand-in for untraced runs: spans cost one no-op context."""

    cell = None
    spans = ()

    def span(self, name: str):
        return contextlib.nullcontext()


NULL = _NullRecorder()


def self_seconds(spans) -> dict[str, float]:
    """Self seconds per name; ``spans`` are recorder rows (any subset that
    holds every child of each span it holds)."""
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _name, start, end, _cell in spans:
        if parent is not None:
            child_ns[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end, _cell in spans:
        totals[name] += (end - start - child_ns.get(sid, 0)) / 1e9
    return dict(totals)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Record spans around the calls a compilation session makes
    internally: the four setup analyses, ``CompilationSession.prepared``
    and ``.shared`` (``pm.setup``) and ``.run`` (``pm.run``).  The
    originals are restored on exit."""
    from repro.cfg.cfg import CFG
    from repro.cfg.loops import LoopInfo
    from repro.pm import analysis
    from repro.pm.session import CompilationSession

    patches = [(CFG, "build", "cfg.build"),
               (LoopInfo, "build", "cfg.loops"),
               (analysis, "compute_liveness", "dataflow.liveness"),
               (analysis, "compute_lifetimes", "lifetimes.compute"),
               (CompilationSession, "prepared", "pm.setup"),
               (CompilationSession, "shared", "pm.setup"),
               (CompilationSession, "run", "pm.run")]
    saved = []
    for owner, attr, name in patches:
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(recorder.wrap(name, original.__func__))
        else:
            wrapped = recorder.wrap(name, original)
        setattr(owner, attr, wrapped)
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
