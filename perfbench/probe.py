"""Host speed probe: a fixed piece of work timed next to each measured
unit, so that timings can be reported in host-normalized seconds.

The benchmark's host moves its speed by up to 2x in states that last
from a fraction of a second to minutes, and a state can cover whole runs
(see NOTES.md, "Host normalization").  The probe is a register allocator
in miniature -- liveness to a fixed point over a control-flow graph of
objects, an interference graph of sets, and greedy coloring -- so it
slows with the host much as the program does.  It is the benchmark's own
code and does not import ``repro``: a change to the program never moves
it.  It runs with the collector off, so the program's heap does not move
it either.

Measured units are grouped into segments of at least ``SEGMENT_S``
seconds, with a probe between segments.  A unit is scaled by
``REFERENCE_S`` over the geometric mean of the two probe times around its
segment: its seconds at the host speed at which the probe takes
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import Callable

#: Probe seconds that a normalized second refers to: about the probe's
#: time on the host where the benchmark was written, in its fast state.
REFERENCE_S = 0.025
#: A segment closes (and the host is probed) once its units took at
#: least this many seconds.
SEGMENT_S = 0.25
#: Size of the probe's graph (blocks, variables, variables used per
#: block).
BLOCKS, VARIABLES, USES = 400, 96, 3


class _Block:
    __slots__ = ("succ", "uses", "defs", "live_in", "live_out")


def _graph() -> list[_Block]:
    rng = random.Random("perfbench-probe")
    blocks = []
    for i in range(BLOCKS):
        block = _Block()
        block.succ = [j for j in (i + 1, rng.randrange(BLOCKS))
                      if j < BLOCKS]
        block.uses = frozenset(rng.randrange(VARIABLES)
                               for _ in range(USES))
        block.defs = frozenset((rng.randrange(VARIABLES),))
        blocks.append(block)
    return blocks


def _work(blocks: list[_Block]) -> int:
    for block in blocks:
        block.live_in, block.live_out = set(), set()
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            out = set()
            for j in block.succ:
                out |= blocks[j].live_in
            live_in = block.uses | (out - block.defs)
            if live_in != block.live_in or out != block.live_out:
                block.live_in, block.live_out = live_in, out
                changed = True
    adjacent: dict[int, set[int]] = {}
    for block in blocks:
        for d in block.defs:
            for other in block.live_out:
                if other != d:
                    adjacent.setdefault(d, set()).add(other)
                    adjacent.setdefault(other, set()).add(d)
    color: dict[int, int] = {}
    for v in sorted(adjacent, key=lambda v: (-len(adjacent[v]), v)):
        used = {color[u] for u in adjacent[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return max(color.values(), default=0)


class HostClock:
    """Probes the host between measured units and scales each unit.

    ``mark()`` probes before a segment starts.  ``add()`` counts a unit
    measured since the last probe, and ``close()`` probes and hands each
    unit of the segment its factor; ``due()`` says whether the segment is
    long enough to close.  ``scale()`` probes and returns the factor for
    a single unit timed since the last probe.  The first probe runs on
    construction.  Every probe time is kept in ``probes``.
    """

    def __init__(self) -> None:
        self._blocks = _graph()
        self._colors = _work(self._blocks)
        self.probes: list[float] = []
        self._segment_s = 0.0
        self._pending: list[Callable[[float], None]] = []
        self._last = self.probe()

    def probe(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            colors = _work(self._blocks)
            took = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if colors != self._colors:
            raise RuntimeError("the host probe's result changed")
        self.probes.append(took)
        return took

    def mark(self) -> None:
        self._last = self.probe()

    def add(self, seconds: float, apply: Callable[[float], None]) -> None:
        self._segment_s += seconds
        self._pending.append(apply)

    def due(self) -> bool:
        return self._segment_s >= SEGMENT_S

    def close(self) -> None:
        if not self._pending:
            return
        factor = self.scale()
        for apply in self._pending:
            apply(factor)
        self._segment_s, self._pending = 0.0, []

    def scale(self) -> float:
        now = self.probe()
        factor = REFERENCE_S / math.sqrt(self._last * now)
        self._last = now
        return factor
