"""Register allocators.

Four allocators share one interface (:class:`RegisterAllocator`):

* :class:`~repro.allocators.binpack.SecondChanceBinpacking` — the paper's
  contribution (Section 2).
* :class:`~repro.allocators.binpack.TwoPassBinpacking` — the whole-lifetime
  binpacking baseline of Section 3.1's ablation.
* :class:`~repro.allocators.coloring.GraphColoring` — George & Appel's
  iterated register coalescing, the paper's comparison allocator.
* :class:`~repro.allocators.linearscan.PolettoLinearScan` — the simple
  sorted-interval linear scan of Section 4's related work.

All of them consume the same precomputed CFG/liveness/loop analyses and
the same spill-slot and callee-save machinery, mirroring the paper's
"identical in every respect except the central register assignment
algorithms" methodology (Section 3).
"""

from repro.allocators.base import (
    AllocationStats,
    RegisterAllocator,
    SharedAnalyses,
    allocate_module,
)
from repro.allocators.binpack import SecondChanceBinpacking, TwoPassBinpacking
from repro.allocators.binpack.allocator import BinpackOptions
from repro.allocators.coloring import GraphColoring
from repro.allocators.linearscan import PolettoLinearScan

#: Allocator constructors by CLI name.  Batch-compilation workers build
#: allocators from these names (a name pickles; a configured allocator
#: object need not), so the registry lives here, importable everywhere.
ALLOCATOR_FACTORIES: dict[str, type[RegisterAllocator]] = {
    "second-chance": SecondChanceBinpacking,
    "two-pass": TwoPassBinpacking,
    "coloring": GraphColoring,
    "poletto": PolettoLinearScan,
}


def make_allocator(name: str, options: tuple[tuple[str, bool], ...] = ()
                   ) -> RegisterAllocator:
    """Construct a fresh allocator from its registry name.

    ``options`` are :class:`~repro.allocators.binpack.BinpackOptions`
    deviations as ``(field, value)`` pairs — the picklable form the suite
    cells and the fuzz grid carry — and apply only to second-chance
    binpacking.
    """
    try:
        factory = ALLOCATOR_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown allocator {name!r} "
            f"(choose from {', '.join(sorted(ALLOCATOR_FACTORIES))})"
        ) from None
    if not options:
        return factory()
    if factory is not SecondChanceBinpacking:
        raise ValueError(f"BinpackOptions apply only to the second-chance "
                         f"allocator, not {name!r}")
    return SecondChanceBinpacking(BinpackOptions(**dict(options)))


__all__ = [
    "ALLOCATOR_FACTORIES",
    "make_allocator",
    "AllocationStats",
    "GraphColoring",
    "PolettoLinearScan",
    "RegisterAllocator",
    "SecondChanceBinpacking",
    "SharedAnalyses",
    "TwoPassBinpacking",
    "allocate_module",
]
