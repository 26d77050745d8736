#!/usr/bin/env python3
"""Check that parallel batch compilation is byte-identical to serial.

Two modes, one property: fanning work across the process pool must not
change any result.

The default mode runs the four-allocator comparison over one or more
benchmark analogs twice — once serially (``jobs=1``, one shared
compilation session) and once through the process pool (``jobs=2``) —
and diffs every cell payload (:func:`repro.pm.batch.run_cell`): allocated
module text (byte-for-byte) and its hash, simulated output and result,
dynamic instruction and cycle counts, and the spill categories.  The
first analog is additionally re-checked under seeded stress contexts
(``STRESS_CONTEXTS``), so the pool path is exercised with a pickled
non-default :class:`repro.spill.AllocationContext` too.

``--suite`` runs the declarative suite runner instead: the same cell
specs are executed into two throwaway result stores, serially and with
``jobs=2``, and every stored record is compared field-by-field.  This
covers the whole observability path — workers, metrics snapshots, store
commits — not just the allocator cells.

Timing fields (``alloc_seconds``, the phase-profile seconds, the
``timing`` cells' measured medians) are deliberately ignored; everything
else must match exactly, or the batch driver has a nondeterminism bug.

CI runs both modes on small workloads after the batch smoke test.

Usage::

    PYTHONPATH=src python tools/check_batch_determinism.py [ANALOG ...]
    PYTHONPATH=src python tools/check_batch_determinism.py --suite

Defaults to the ``wc`` and ``compress`` analogs.  Exit status 0 on
identical results, 1 with a field-by-field report otherwise.
"""

from __future__ import annotations

import sys
import tempfile

from repro.pm.batch import compare_allocators
from repro.spill import AllocationContext
from repro.target import tiny
from repro.workloads.programs import PROGRAM_NAMES, build_program

#: Seeded stress contexts the analog mode re-checks: forced evictions and
#: randomized selection order exercise the pool's context pickling and the
#: emitters' per-function RNG re-derivation, which a default-context run
#: never touches.
STRESS_CONTEXTS = (AllocationContext(stress="shuffle", seed=7),
                   AllocationContext(stress="forced-evict", seed=7))

#: Payload fields that must agree between serial and parallel cells
#: (everything deterministic; the metrics snapshot is left out because the
#: serial path's shared session serves analyses by transfer, which the
#: per-worker sessions compute instead).
CHECKED_FIELDS = ("allocator", "code", "allocated_sha", "output", "result",
                  "dynamic_instructions", "cycles", "spill_categories",
                  "total_spill", "alloc")

#: Top-level record-data keys that hold wall-clock measurements — the
#: only fields allowed to differ between a serial and a parallel run.
TIMING_KEYS = {"profile", "alloc_seconds", "core_seconds", "setup_seconds",
               "shared_setup_seconds"}


def check_analog(name: str,
                 context: AllocationContext | None = None) -> list[str]:
    machine = tiny(8, 8)
    module = build_program(name, machine)
    serial = compare_allocators(module, machine, jobs=1, context=context)
    parallel = compare_allocators(module, machine, jobs=2, context=context)
    tag = name if context is None else f"{name}[{context.describe()}]"
    errors = []
    if len(serial) != len(parallel):
        return [f"{tag}: {len(serial)} serial cells vs "
                f"{len(parallel)} parallel"]
    for s, p in zip(serial, parallel):
        for field in CHECKED_FIELDS:
            sv, pv = s[field], p[field]
            if sv != pv:
                shown = (f"{sv!r} != {pv!r}" if field != "code"
                         else "allocated module text differs")
                errors.append(f"{tag}/{s['allocator']}: {field}: {shown}")
    return errors


def _scrub(data: dict) -> dict:
    """Record data with every wall-clock field removed."""
    clean = {k: v for k, v in data.items() if k not in TIMING_KEYS}
    if isinstance(clean.get("metrics"), dict):
        clean["metrics"] = {k: v for k, v in clean["metrics"].items()
                            if not k.endswith(".seconds")}
    return clean


def check_suite() -> list[str]:
    """Serial vs parallel suite runs into two throwaway stores."""
    from repro.results.store import ResultStore
    from repro.results.suite import (dedup_specs, quality_specs,
                                     run_suite, twopass_specs)

    specs = dedup_specs(quality_specs(["wc", "compress"])
                        + twopass_specs())
    stores = []
    for jobs in (1, 2):
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp)
            run_suite(specs, store, jobs=jobs,
                      label=f"determinism-jobs{jobs}")
            stores.append({r.ident: (r.code_hash, _scrub(r.data))
                           for r in store.iter_latest()})
    serial, parallel = stores
    errors = []
    if serial.keys() != parallel.keys():
        errors.append(f"cell sets differ: {sorted(serial)} vs "
                      f"{sorted(parallel)}")
    for ident in sorted(serial.keys() & parallel.keys()):
        s_hash, s_data = serial[ident]
        p_hash, p_data = parallel[ident]
        if s_hash != p_hash:
            errors.append(f"{ident}: code hash {s_hash[:12]} != "
                          f"{p_hash[:12]}")
        for field in sorted(s_data.keys() | p_data.keys()):
            if s_data.get(field) != p_data.get(field):
                errors.append(f"{ident}: {field}: "
                              f"{s_data.get(field)!r} != "
                              f"{p_data.get(field)!r}")
    return errors


def main(argv: list[str]) -> int:
    if "--suite" in argv:
        errors = check_suite()
        status = "ok" if not errors else f"{len(errors)} mismatch(es)"
        print(f"suite: serial vs parallel store contents: {status}")
        for line in errors:
            print(f"  {line}", file=sys.stderr)
        return 1 if errors else 0
    analogs = argv or ["wc", "compress"]
    unknown = [a for a in analogs if a not in PROGRAM_NAMES]
    if unknown:
        print(f"unknown analog(s): {', '.join(unknown)}; choose from "
              f"{', '.join(PROGRAM_NAMES)}", file=sys.stderr)
        return 2
    failures = []
    for name in analogs:
        errors = check_analog(name)
        failures.extend(errors)
        status = "ok" if not errors else f"{len(errors)} mismatch(es)"
        print(f"{name}: serial vs parallel: {status}")
    for context in STRESS_CONTEXTS:
        errors = check_analog(analogs[0], context)
        failures.extend(errors)
        status = "ok" if not errors else f"{len(errors)} mismatch(es)"
        print(f"{analogs[0]}[{context.describe()}]: "
              f"serial vs parallel: {status}")
    for line in failures:
        print(f"  {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
