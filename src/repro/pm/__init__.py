"""Pass-manager layer: cached analyses, sessions, passes, batch driver.

* :mod:`repro.pm.analysis` — typed per-function analyses behind a
  memoizing :class:`~repro.pm.analysis.AnalysisManager` with explicit
  invalidation and clone transfer.
* :mod:`repro.pm.session` — :class:`~repro.pm.session.CompilationSession`,
  the shared state for repeated allocator runs over one module.
* :mod:`repro.pm.passes` — :class:`~repro.pm.passes.PassManager` and the
  repo's passes wrapped with preserved-analyses declarations.
* :mod:`repro.pm.batch` — the cell engine (:func:`~repro.pm.batch.run_cell`,
  one allocate → simulate → check → record path) and process-pool batch
  compilation for the comparison driver, suite, service and fuzz harness.

See docs/ARCHITECTURE.md for the layer diagram and the invalidation
contract.
"""

from repro.pm.analysis import (ALL_ANALYSES, PRESERVE_ALL, AnalysisKind,
                               AnalysisManager)
from repro.pm.passes import (DCE_PASS, PEEPHOLE_PASS, SPILL_CLEANUP_PASS,
                             FunctionPass, PassManager)
from repro.pm.session import CompilationSession, PipelineResult

__all__ = [
    "ALL_ANALYSES",
    "PRESERVE_ALL",
    "AnalysisKind",
    "AnalysisManager",
    "CompilationSession",
    "DCE_PASS",
    "FunctionPass",
    "PEEPHOLE_PASS",
    "PassManager",
    "PipelineResult",
    "SPILL_CLEANUP_PASS",
]
