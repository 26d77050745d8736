"""Observability for the allocation pipeline: tracing, profiling, metrics.

Three independent layers, all cheap enough to leave compiled in:

* :mod:`repro.obs.trace` — typed per-decision allocation events
  (``assign``, ``evict``, ``second_chance_reload`` ...) with pluggable
  sinks.  The default :data:`~repro.obs.trace.NULL_TRACER` is disabled
  and adds one attribute read per instrumented site.
* :mod:`repro.obs.profile` — nestable wall-clock phase timers
  (``perf_counter_ns``) covering every pipeline phase; the allocator
  core's ``alloc_seconds`` is measured through this profiler.
* :mod:`repro.obs.metrics` — a flat counters registry every allocator,
  the pipeline, and the simulator publish into, with ``snapshot()`` /
  ``diff()`` for before/after comparisons, and the one
  :func:`~repro.obs.metrics.quantile` every latency summary uses.

See ``docs/OBSERVABILITY.md`` for the event taxonomy and examples.
"""

from repro.obs.metrics import MetricsRegistry, quantile
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import (
    NULL_TRACER,
    EventKind,
    JsonlSink,
    RingBufferSink,
    TextSink,
    TraceEvent,
    Tracer,
    read_jsonl_trace,
)

__all__ = [
    "EventKind",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_TRACER",
    "PhaseProfiler",
    "RingBufferSink",
    "TextSink",
    "TraceEvent",
    "Tracer",
    "quantile",
    "read_jsonl_trace",
]
