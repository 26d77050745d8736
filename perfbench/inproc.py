"""The in-process workloads: ``quality`` and ``scaling``.

Each builds a list of programs (set-up: compile or generate, then
simulate the virtual code for the reference output).  A pass runs every
(program, allocator) cell: one ``CompilationSession`` per program
computes the setup analyses, then per allocator ``session.run``
allocates and ``simulate`` runs the allocated module, whose output must
equal the reference.  A measured phase repeats passes and
allocation-only rounds.  A host probe runs between segments of cells,
and each timing is the median of its samples in host-normalized seconds
(``probe.py``).
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass

from repro.allocators import make_allocator
from repro.lang import compile_minic
from repro.obs.metrics import MetricsRegistry
from repro.pm import CompilationSession
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.target import alpha
from repro.workloads.programs import (PROGRAM_NAMES, fpppp_scaled_source,
                                      program_source)
from repro.workloads.synthetic import scaled_module

from common import ALLOCATORS, geomean, median, own_peak_rss_mb
from layers import SETUP_LAYERS, Cell, end_to_end, merge, run_counts
from spans import self_seconds

#: ``scaling``: the Table-3 ladder (candidates per rung), run through
#: the paper's pair of allocators.
LADDER = (245, 740, 2240)
LADDER_ALLOCATORS = ("second-chance", "coloring")
#: ``scaling``: an over-pressure module, its groups of live values wider
#: than alpha's register file, run through all four allocators; Poletto
#: restarts about 30 times on it.
PRESSURE_CANDIDATES, PRESSURE_GROUP = 160, 60


@dataclass
class Program:
    name: str
    module: object
    machine: object
    reference: object
    allocators: tuple[str, ...]


@dataclass
class Measured:
    """A measured phase: every cell with the samples of every round, each
    pass's wall time, each program's wall time in each pass, the peak
    memory after the first pass, the cell runs attempted and failed, and
    the failures and count mismatches."""

    cells: list[Cell]
    pass_s: list[float]
    program_s: dict[str, list[float]]
    peak_rss_mb: float
    attempted: int
    failed: int
    errors: list[str]
    deterministic: bool


def build_quality(seed: int, rec) -> list[Program]:
    """The eleven analogs on alpha; the seed shuffles the analog order
    and each analog's allocator order (every cell still runs)."""
    rng = random.Random(f"quality:{seed}")
    names = list(PROGRAM_NAMES)
    rng.shuffle(names)
    machine = alpha()
    programs = []
    for name in names:
        with rec.span("workloads.generate"):
            source = (fpppp_scaled_source() if name == "fpppp"
                      else program_source(name))
        with rec.span("lang.compile"):
            module = compile_minic(source, machine)
        with rec.span("sim.ref"):
            reference = simulate(module, machine)
        order = list(ALLOCATORS)
        rng.shuffle(order)
        programs.append(Program(name, module, machine, reference,
                                tuple(order)))
    return programs


def build_scaling(seed: int, rec) -> list[Program]:
    """The ladder and the over-pressure module, each generated with
    generator seed 0; the seed shuffles the module order and each
    module's allocator order (every cell still runs)."""
    rng = random.Random(f"scaling:{seed}")
    machine = alpha()
    specs = [(f"ladder-{n}", n, None, LADDER_ALLOCATORS) for n in LADDER]
    specs.append((f"pressure-{PRESSURE_CANDIDATES}", PRESSURE_CANDIDATES,
                  PRESSURE_GROUP, ALLOCATORS))
    rng.shuffle(specs)
    programs = []
    for name, candidates, group, allocators in specs:
        with rec.span("workloads.generate"):
            module = scaled_module(candidates, seed=0, group=group)
        with rec.span("sim.ref"):
            reference = simulate(module, machine)
        order = list(allocators)
        rng.shuffle(order)
        programs.append(Program(name, module, machine, reference,
                                tuple(order)))
    return programs


BUILDERS = {"quality": build_quality, "scaling": build_scaling}
#: Passes in a measured phase of each workload, while they fit in its
#: time (None: as many as fit).  Allocation rounds fill the rest, and
#: give the allocation of ``quality``, where simulation does most of a
#: pass's work, more samples.
PASSES = {"quality": 2, "scaling": None}


def measure(programs: list[Program], seconds: float, rec, clock,
            passes: int | None = None) -> Measured:
    """Run rounds over every cell until none fits in ``seconds``.

    A pass allocates, simulates and checks every cell and is timed end
    to end; an allocation round only allocates.  The first round is a
    pass; after it, a pass runs while there have been fewer than
    ``passes`` and one should still end within ``seconds``, and
    allocation rounds fill the time that is left when no pass would (the
    first of them may end past ``seconds``).  Later rounds must repeat
    the first pass's counts.  ``clock`` scales every sample to
    host-normalized seconds.
    """
    start = time.perf_counter()
    clock.mark()
    cells: list[Cell] = []
    took: dict[bool, list[float]] = {True: [], False: []}
    program_s: dict[str, list[float]] = {p.name: [] for p in programs}
    peak_rss_mb = 0.0
    attempted = failed = 0
    errors: list[str] = []
    mismatches: list[str] = []
    while True:
        simulate = True
        if cells:
            left = seconds - (time.perf_counter() - start)
            simulate = ((passes is None or len(took[True]) < passes)
                        and median(took[True]) <= left)
            if not simulate and median(took[False] or [0.0]) > left:
                break
        t0 = time.perf_counter()
        done, unit_s = run_pass(programs, rec, clock, simulate)
        took[simulate].append(time.perf_counter() - t0)
        if simulate:
            for name, seconds_taken in unit_s.items():
                program_s[name].append(seconds_taken)
        attempted += len(done)
        failed += sum(not c.ok for c in done)
        errors += [f"{c.program}/{c.allocator}: {c.error}"
                   for c in done if not c.ok]
        if not cells:
            cells = done
            peak_rss_mb = own_peak_rss_mb()
        else:
            mismatches += merge(cells, done)
    return Measured(cells, took[True], program_s, peak_rss_mb, attempted,
                    failed, errors + mismatches, not mismatches)


def run_pass(programs: list[Program], rec, clock, simulate: bool = True
             ) -> tuple[list[Cell], dict[str, float]]:
    """One round over every cell, simulating each allocated module if
    ``simulate``; returns the cells and each program's wall time, both in
    host-normalized seconds.  The host is probed between segments of
    cells, and the probes are left out of the program's time.  Each
    program's session computes the setup analyses before its first
    allocator runs, so ``session.run`` times only the allocator and the
    pipeline around it."""
    cells = []
    unit_s = dict.fromkeys((p.name for p in programs), 0.0)

    def scaled(cell, name, took):
        def apply(factor):
            cell.rescale(factor)
            unit_s[name] += took * factor
        return apply

    for program in programs:
        t0 = time.perf_counter()
        rec.cell = f"{program.name}/setup"
        session = CompilationSession(program.module, program.machine)
        base, _removed = session.prepared()
        for fn in base.functions.values():
            session.shared(fn)
        for allocator in program.allocators:
            rec.cell = f"{program.name}/{allocator}"
            cell = _run_cell(session, program, allocator, rec, simulate)
            took = time.perf_counter() - t0
            clock.add(took, scaled(cell, program.name, took))
            cells.append(cell)
            if clock.due():
                rec.cell = None
                clock.close()
            t0 = time.perf_counter()
    rec.cell = None
    clock.close()
    return cells, unit_s


def _run_cell(session, program, allocator, rec, simulated: bool) -> Cell:
    # Start every allocation from an empty young generation, so the
    # collector runs at the same points whatever ran before it.
    gc.collect()
    cell = Cell(program.name, allocator, simulated=simulated)
    try:
        with rec.span("cell"):
            metrics = MetricsRegistry()
            t0 = time.perf_counter()
            result = session.run(make_allocator(allocator), metrics=metrics)
            t1 = time.perf_counter()
            if simulated:
                with rec.span("sim.run"):
                    outcome = simulate(result.module, program.machine)
                t2 = time.perf_counter()
    except Exception as exc:  # a failed cell is counted, not fatal
        cell.ok, cell.error = False, f"{type(exc).__name__}: {exc}"
        return cell
    cell.runs.append(t1 - t0)
    cell.cores.append(result.stats.alloc_seconds)
    cell.counts = run_counts(metrics.snapshot())
    cell.phases = {name: stat.self_seconds
                   for name, stat in result.stats.profiler.phases.items()}
    if not simulated:
        return cell
    if not outputs_equal(outcome.output, program.reference.output):
        cell.ok, cell.error = False, "output differs from the reference"
        return cell
    cell.sims.append(t2 - t1)
    cell.latencies.append(t2 - t0)
    cell.cycles = outcome.cycles
    cell.dyn_instr = outcome.dynamic_instructions
    cell.spill_dyn = outcome.spill_instructions
    return cell


# ----------------------------------------------------------------------
# Metrics of a measured phase.
# ----------------------------------------------------------------------
def metrics(measured: Measured) -> dict[str, float]:
    """The end-to-end metrics of a measured phase, but ``setup_s``.  The
    wall time is the sum over programs of the program's median wall time
    in a pass (its session, setup analyses, and every allocation,
    collection, simulation and check)."""
    wall = sum(median(seconds) for seconds in measured.program_s.values())
    out = {"wall_s": wall,
           "peak_rss_mb": measured.peak_rss_mb,
           "ok_frac": (measured.attempted - measured.failed)
           / measured.attempted,
           "rps": len(measured.cells) / wall}
    out.update(end_to_end(measured.cells))
    return out


def layers(cells: list[Cell]) -> dict[str, float]:
    """Per-layer numbers of the in-process cells that need no spans
    (beyond the shared fold of :func:`layers.per_layer`)."""
    ok = [c for c in cells if c.ok]
    out: dict[str, float] = {}
    for allocator in ALLOCATORS:
        out[f"pm.overhead_s.{allocator}"] = sum(
            median(c.runs) - median(c.cores) for c in ok
            if c.allocator == allocator)
    out["sim.run_s"] = sum(median(c.sims) for c in ok)
    return out


def span_layers(spans) -> dict[str, float]:
    """Per-layer seconds derived from one traced pass's spans."""
    selfs = self_seconds(spans)
    out = {metric: selfs.get(span, 0.0)
           for metric, span in SETUP_LAYERS.items()}
    out["pm.setup_s"] = selfs.get("pm.setup", 0.0)
    return out


def rows(cells: list[Cell]) -> dict:
    """One row per program (analog or rung) and allocator, and each
    allocator's geomean ratio to coloring with its base, for the traced
    report.  ``core_s`` is the median core time, host-normalized."""
    ok = [c for c in cells if c.ok]
    table = {(c.program, c.allocator): {
        "program": c.program, "allocator": c.allocator,
        "candidates": c.counts["candidates"], "cycles": c.cycles,
        "dyn_instr": c.dyn_instr, "spill_dyn": c.spill_dyn,
        "spilled_temps": c.counts["spilled_temps"],
        "core_s": round(median(c.cores), 6)} for c in ok}
    programs = list(dict.fromkeys(c.program for c in cells))
    report = {"rows": list(table.values())}
    for key in ("cycles", "dyn_instr", "core_s"):
        ratios = report[f"{key}_vs_coloring"] = {}
        for allocator in ALLOCATORS:
            pairs = [(table[(p, allocator)][key], table[(p, "coloring")][key])
                     for p in programs
                     if (p, allocator) in table and (p, "coloring") in table]
            if pairs:
                ratios[allocator] = {
                    "geomean_ratio": geomean(a / b for a, b in pairs),
                    "base": f"coloring {key}, geomean "
                            f"{geomean(b for _, b in pairs):.6g} over "
                            f"{len(pairs)} program(s)"}
    return report


def growth(cells: list[Cell]) -> dict[str, float]:
    """``alloc.growth_exp.<alloc>`` for each ladder allocator: the
    least-squares slope of log median core seconds on log candidates
    over the ladder rungs (0 on a workload without a ladder)."""
    out = {}
    for allocator in LADDER_ALLOCATORS:
        points = [(math.log(c.counts["candidates"]),
                   math.log(median(c.cores)))
                  for c in cells if c.ok and c.allocator == allocator
                  and c.program.startswith("ladder-")]
        slope = 0.0
        if len(points) > 1:
            mx = sum(x for x, _ in points) / len(points)
            my = sum(y for _, y in points) / len(points)
            slope = (sum((x - mx) * (y - my) for x, y in points)
                     / sum((x - mx) ** 2 for x, _ in points))
        out[f"alloc.growth_exp.{allocator}"] = slope
    return out
