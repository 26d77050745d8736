"""The cell engine and batch compilation over a process pool.

:func:`run_cell` is the one allocate → simulate → check → record path:
the allocation service (:func:`allocation_artifact`), the suite's
quality cells and ``repro compare``/``bench``
(:func:`compare_allocators`) are thin adapters over it, so they share
one payload shape.

Two execution strategies, chosen by ``jobs``:

* **serial** (``jobs <= 1``): every run shares one
  :class:`~repro.pm.session.CompilationSession`, so the setup analyses
  are computed once per function and transferred to each run's clone —
  the cheapest total work.
* **parallel** (``jobs > 1``): runs are dispatched to worker processes
  via :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker
  opens its own session (analysis caches are per-process), trading
  repeated setup for wall-clock speedup on multi-function batches.

Both strategies produce *byte-identical* allocated modules: the
allocators are deterministic, sessions only change where analyses are
computed (never their values — the transfer contract), and
``Executor.map`` preserves submission order.  CI enforces this with
``tools/check_batch_determinism.py``.

Workers are top-level functions and payloads are plain picklable data
(modules, machine descriptions, allocator *names* — never allocator
objects or tracers), so the pool works under any start method; tracing
callers must stay serial, and :func:`compare_allocators` enforces that.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.allocators import (ALLOCATOR_FACTORIES, RegisterAllocator,
                              make_allocator)
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import Tracer
from repro.pm.session import CompilationSession
from repro.results.store import content_hash
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.spill import AllocationContext
from repro.stats.spill import (FIGURE3_CATEGORIES, REMAT_CATEGORIES,
                               spill_breakdown)
from repro.target.machine import MachineDescription


def run_batch(worker: Callable[[Any], Any], payloads: Sequence[Any], *,
              jobs: int = 1) -> list[Any]:
    """Apply ``worker`` to every payload; results in payload order.

    ``jobs <= 1`` (or a single payload) runs inline — no pool, no
    pickling, exceptions propagate directly.  Otherwise up to ``jobs``
    worker processes run concurrently; ``worker`` must be a module-level
    function and the payloads picklable.  A worker exception propagates
    to the caller (raised by ``Executor.map``), cancelling the batch.
    """
    payloads = list(payloads)
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(payload) for payload in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(worker, payloads))


class OracleMismatch(RuntimeError):
    """An allocated module's output differs from the unallocated
    module's — the allocator changed observable behaviour."""


def _phase_summary(profiler: PhaseProfiler) -> dict:
    """The three-way split every payload embeds (plus the raw table)."""
    phases = {name: {"calls": stat.calls,
                     "total_s": round(stat.total_seconds, 6),
                     "self_s": round(stat.self_seconds, 6)}
              for name, stat in profiler.phases.items()}
    def total(prefix: str) -> float:
        return round(sum(stat.total_seconds
                         for name, stat in profiler.phases.items()
                         if name == prefix
                         or name.startswith(prefix + ".")), 6)
    return {"phases": phases,
            "setup_s": total("setup"),
            "allocate_s": total("allocate"),
            "resolve_s": total("allocate.resolve"),
            "pipeline_s": total("pipeline")}


def run_cell(session: CompilationSession, allocator: RegisterAllocator, *,
             context: AllocationContext | None, spill_cleanup: bool,
             reference: list | None,
             profiler: PhaseProfiler | None = None,
             metrics: MetricsRegistry | None = None,
             trace: Tracer | None = None) -> dict:
    """One allocator run over ``session``'s module → one plain payload.

    Runs :meth:`CompilationSession.run`, simulates the allocated module
    (publishing the simulator's ``sim.*`` counters into the run's metrics
    registry) and checks its output against ``reference`` — the
    unallocated module's output — raising :class:`OracleMismatch` when
    they differ.  ``reference`` is ``None`` only for a module without
    ``main``, which cannot run: the payload then carries the allocation
    alone, with no dynamic fields.

    The payload: ``code`` (the allocated module text) and its
    ``allocated_sha``; ``dynamic_instructions``, ``cycles``, ``output``,
    ``result``, the Figure-3 ``spill_categories`` and ``total_spill``;
    ``alloc_seconds`` (Table 3's timed core) and the static ``alloc``
    block; the ``metrics`` snapshot and the ``profile`` phase summary.
    Plain data — it pickles back from pool workers and serializes as is.
    """
    profiler = PhaseProfiler() if profiler is None else profiler
    metrics = MetricsRegistry() if metrics is None else metrics
    result = session.run(allocator, spill_cleanup=spill_cleanup,
                         trace=trace, profiler=profiler, metrics=metrics,
                         context=context)
    stats = result.stats
    code = print_module(result.module)
    payload: dict = {"code": code, "allocated_sha": content_hash(code)}
    if reference is not None:
        outcome = simulate(result.module, session.machine, metrics=metrics)
        if not outputs_equal(outcome.output, reference):
            raise OracleMismatch(
                f"{allocator.name}: allocation changed observable behaviour "
                f"(output {outcome.output!r} != reference {reference!r})")
        breakdown = spill_breakdown(outcome)
        payload.update({
            "dynamic_instructions": outcome.dynamic_instructions,
            "cycles": outcome.cycles,
            "output": list(outcome.output),
            "result": outcome.result,
            "spill_categories": {
                f"{phase.value}.{kind.value}": breakdown.category(phase, kind)
                for phase, kind in FIGURE3_CATEGORIES + REMAT_CATEGORIES},
            "total_spill": breakdown.total_spill,
        })
    payload.update({
        "alloc_seconds": round(stats.alloc_seconds, 6),
        "alloc": {
            "candidates": stats.total_candidates(),
            "spilled_temps": sum(stats.spilled_temps.values()),
            "moves_eliminated": stats.moves_eliminated,
            "interference_edges": sum(stats.interference_edges.values()),
            "coloring_rounds": sum(stats.coloring_iterations.values()),
            "dataflow_iterations": sum(stats.dataflow_iterations.values()),
            "dce_removed": result.dce_removed,
            "moves_removed": result.moves_removed,
        },
        "metrics": metrics.snapshot(),
        "profile": _phase_summary(profiler),
    })
    return payload


def allocation_artifact(payload: dict) -> dict:
    """Process-pool worker: one allocation-service request → one plain
    artifact dict (the unit the serving cache persists).

    ``payload`` is JSON-shaped data — exactly what crossed the wire —
    with ``ir`` (printed IR text) *or* ``minic`` (source), plus
    ``machine`` (spec string), ``allocator``, ``context`` (canonical
    :meth:`~repro.spill.AllocationContext.describe` form), and
    ``spill_cleanup``.  The artifact is the :func:`run_cell` payload plus
    those request fields echoed back.

    Failures are *returned*, not raised (``{"error": {"code",
    "message"}}``), so a bad request cannot poison the worker process
    or cancel a batch; the pool stays healthy for the next request.
    Pure: no store access, no global state — safe under any pool start
    method, and byte-deterministic for identical payloads.
    """
    from repro.ir.parser import parse_module
    from repro.lang import compile_minic
    from repro.target import machine_from_spec

    def failure(code: str, exc: BaseException) -> dict:
        return {"error": {"code": code,
                          "message": f"{type(exc).__name__}: {exc}"}}

    name = payload.get("allocator", "second-chance")
    spill_cleanup = bool(payload.get("spill_cleanup"))
    try:
        machine = machine_from_spec(payload.get("machine", "alpha"))
        context = AllocationContext.parse(payload.get("context", ""))
        allocator = make_allocator(name)
    except Exception as exc:
        return failure("bad-request", exc)
    try:
        if payload.get("ir"):
            module = parse_module(payload["ir"])
        else:
            module = compile_minic(payload.get("minic", ""), machine)
    except Exception as exc:
        return failure("parse-error", exc)
    try:
        reference = (simulate(module, machine).output
                     if "main" in module.functions else None)
        cell = run_cell(CompilationSession(module, machine), allocator,
                        context=context, spill_cleanup=spill_cleanup,
                        reference=reference)
    except Exception as exc:
        return failure("alloc-error", exc)
    return {"allocator": name, "machine": payload.get("machine", "alpha"),
            "context": context.describe(), "spill_cleanup": spill_cleanup,
            **cell}


def _run_cell_worker(payload) -> dict:
    """Process-pool entry: :func:`run_cell` on a private session."""
    module, machine, name, spill_cleanup, context, reference = payload
    return run_cell(CompilationSession(module, machine), make_allocator(name),
                    context=context, spill_cleanup=spill_cleanup,
                    reference=reference)


def compare_allocators(module: Module, machine: MachineDescription, *,
                       names: Sequence[str] | None = None,
                       spill_cleanup: bool = False, jobs: int = 1,
                       trace: Tracer | None = None,
                       context: AllocationContext | None = None,
                       ) -> list[dict]:
    """Run every named allocator over ``module``; one payload each.

    The workhorse behind ``repro compare`` / ``repro bench``: the
    reference output is simulated once, here, and every allocator's
    :func:`run_cell` is checked against it (:class:`OracleMismatch` on a
    difference).  Each payload also carries its ``allocator`` name.  With
    ``jobs > 1`` and no tracer, allocators run in parallel worker
    processes; otherwise they share one serial session (a tracer pins the
    run serial — sinks hold open streams that cannot cross processes).
    Payloads come back in ``names`` order under either strategy.
    """
    names = list(names if names is not None else ALLOCATOR_FACTORIES)
    reference = simulate(module, machine).output
    if jobs > 1 and trace is None and len(names) > 1:
        cells = run_batch(_run_cell_worker,
                          [(module, machine, name, spill_cleanup, context,
                            reference) for name in names], jobs=jobs)
    else:
        session = CompilationSession(module, machine)
        cells = [run_cell(session, make_allocator(name), context=context,
                          spill_cleanup=spill_cleanup, reference=reference,
                          trace=trace)
                 for name in names]
    return [{"allocator": name, **cell} for name, cell in zip(names, cells)]
