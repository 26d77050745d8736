"""Metric names, the per-cell record every workload produces, and the
folds from cells to metrics.

A cell is one allocator on one program: an in-process cell of
``quality`` or ``scaling``, or one distinct request (a cache miss) of
``serve``.  Both kinds are turned into the same :class:`Cell`, so one
fold computes the allocator and simulator metrics for every workload.

``BENCHMARK.json`` declares every metric; each run prints all of them
(a layer a workload never runs reads 0 there; ``NOTES.md`` maps each
layer to the end-to-end metric it should move, on which workload).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from common import ALLOCATORS, ROOT, geomean, median, quantile

#: Profiler phases (self time) reported as allocator/pipeline layers.
PHASES = {
    "alloc.scan_s": "allocate.scan",
    "alloc.resolve.dataflow_s": "allocate.resolve.dataflow",
    "alloc.resolve.patch_s": "allocate.resolve.patch",
    "frame.callee_saved_s": "frame.callee_saved",
    "pipeline.peephole_s": "pipeline.peephole",
    "pipeline.verify_s": "pipeline.verify",
}

#: Setup analyses: layer metric -> span name.
SETUP_LAYERS = {
    "cfg.build_s": "cfg.build",
    "cfg.loops_s": "cfg.loops",
    "dataflow.liveness_s": "dataflow.liveness",
    "lifetimes.compute_s": "lifetimes.compute",
}

#: Counts that must repeat exactly run to run (the determinism check).
EXACT = ("cycles", "dyn_instr", "spill_dyn", "spilled_temps",
         "spill_static", "restarts", "rounds", "edges", "resolve_iterations",
         "candidates")


def declared() -> tuple[dict[str, str], dict[str, str]]:
    """The end-to-end and per-layer metrics ``BENCHMARK.json`` declares,
    each as ``{name: unit}`` in declaration order."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in doc[kind]}
                 for kind in ("end_to_end", "per_layer"))


def run_counts(metrics: dict) -> dict[str, int]:
    """Allocator counts from one run's metrics snapshot (an in-process
    run's registry, or a served artifact's ``metrics``)."""
    return {
        "candidates": metrics.get("alloc.candidates", 0),
        "spilled_temps": metrics.get("alloc.spilled_temps", 0),
        "spill_static": sum(value for name, value in metrics.items()
                            if name.startswith("alloc.spill.")),
        "restarts": metrics.get("linearscan.restarts", 0),
        "rounds": metrics.get("coloring.rounds", 0),
        "edges": metrics.get("coloring.interference_edges", 0),
        "resolve_iterations": metrics.get(
            "binpack.resolution.dataflow_iterations", 0),
    }


@dataclass
class Cell:
    """One allocator on one program.

    The sample lists hold one entry per time the cell ran: ``latencies``
    is the whole unit of work (allocation plus simulation in process;
    the socket round trip of the miss when served), ``cores`` the
    allocator core (``AllocationStats.alloc_seconds``), and, in process
    only, ``runs`` the ``session.run`` call and ``sims`` the simulation
    of the allocated module.  The counts and phase times are the first
    run's; :func:`merge` checks that later runs repeat the counts.
    ``simulated`` is false for an in-process allocation that was not
    simulated (it has no simulation counts).  ``key`` is the served
    request's cache key (serve only).
    """

    program: str
    allocator: str
    ok: bool = True
    simulated: bool = True
    error: str = ""
    key: str = ""
    latencies: list[float] = field(default_factory=list)
    cores: list[float] = field(default_factory=list)
    runs: list[float] = field(default_factory=list)
    sims: list[float] = field(default_factory=list)
    cycles: int = 0
    dyn_instr: int = 0
    spill_dyn: int = 0
    counts: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)

    def rescale(self, factor: float) -> None:
        """Scale every sample by ``factor`` (to host-normalized
        seconds)."""
        for name in ("latencies", "cores", "runs", "sims"):
            setattr(self, name, [v * factor for v in getattr(self, name)])

    def exact(self) -> dict:
        own = ({"cycles": self.cycles, "dyn_instr": self.dyn_instr,
                "spill_dyn": self.spill_dyn} if self.simulated else {})
        return {k: v for k, v in {**own, **self.counts}.items()
                if k in EXACT}


def merge(cells: list[Cell], again: list[Cell]) -> list[str]:
    """Add the samples of a later run of the same cells to ``cells``.

    Returns one message per cell whose exact counts (those both runs
    have) differ between the runs, or that only one of the runs
    produced.  Failed cells are skipped here; they are counted where
    they failed.
    """
    by = {(c.program, c.allocator): c for c in again}
    errors = []
    for cell in cells:
        other = by.pop((cell.program, cell.allocator), None)
        if other is None:
            errors.append(f"{cell.program}/{cell.allocator}: missing from "
                          "a later run")
        elif cell.ok and other.ok:
            mine, theirs = cell.exact(), other.exact()
            if any(mine[k] != theirs[k] for k in mine.keys() & theirs):
                errors.append(f"{cell.program}/{cell.allocator}: counts "
                              "differ between runs")
            for name in ("latencies", "cores", "runs", "sims"):
                getattr(cell, name).extend(getattr(other, name))
    errors.extend(f"{program}/{allocator}: only in a later run"
                  for program, allocator in by)
    return errors


def end_to_end(cells: list[Cell]) -> dict[str, float]:
    """The end-to-end metrics a set of cells gives: per-allocator core
    seconds (each cell at its median sample), cycles geomeans, and the
    miss latency percentiles over the cells' median latencies.  Samples
    are in host-normalized seconds; see NOTES.md.
    """
    ok = [c for c in cells if c.ok]
    latency_ms = [1e3 * median(c.latencies) for c in ok]
    out = {"miss_p50_ms": quantile(latency_ms, 0.50),
           "miss_p90_ms": quantile(latency_ms, 0.90)}
    for allocator in ALLOCATORS:
        mine = [c for c in ok if c.allocator == allocator]
        out[f"alloc_s.{allocator}"] = sum(median(c.cores) for c in mine)
        out[f"cycles.{allocator}"] = geomean(c.cycles for c in mine)
    return out


def per_layer(cells: list[Cell]) -> dict[str, float]:
    """The allocator and simulator layer numbers a set of cells gives:
    profiler self times, candidates (once per program), spill, restart,
    round, edge and resolution counts, and dynamic instructions."""
    ok = [c for c in cells if c.ok]
    out: dict[str, float] = dict.fromkeys(PHASES, 0.0)
    for cell in ok:
        for metric, phase in PHASES.items():
            out[metric] += cell.phases.get(phase, 0.0)
    programs = {c.program: c.counts["candidates"] for c in ok}
    out["alloc.candidates"] = sum(programs.values())
    for allocator in ALLOCATORS:
        mine = [c for c in ok if c.allocator == allocator]
        out[f"alloc.spilled_temps.{allocator}"] = sum(
            c.counts["spilled_temps"] for c in mine)
        out[f"alloc.spill_static.{allocator}"] = sum(
            c.counts["spill_static"] for c in mine)
        out[f"sim.spill_dyn.{allocator}"] = sum(c.spill_dyn for c in mine)
    for metric, count in (("alloc.poletto.restarts", "restarts"),
                          ("alloc.coloring.rounds", "rounds"),
                          ("alloc.coloring.edges", "edges"),
                          ("alloc.resolve.iterations",
                           "resolve_iterations")):
        out[metric] = sum(c.counts[count] for c in ok)
    out["sim.dyn_instr"] = sum(c.dyn_instr for c in ok)
    return out
