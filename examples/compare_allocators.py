"""Compare all four allocators on a benchmark analog.

Usage::

    python examples/compare_allocators.py [benchmark] [--machine tiny|alpha]

e.g. ``python examples/compare_allocators.py doduc``.  Runs second-chance
binpacking, two-pass binpacking, George–Appel coloring, and Poletto
linear scan on one of the paper's benchmark analogs and prints a Table-1
style comparison: dynamic instructions, simulated cycles, spill
percentage, and core allocation time.
"""

import sys

from repro.allocators import make_allocator
from repro.pm.batch import compare_allocators
from repro.sim import simulate
from repro.stats.report import format_table
from repro.target import alpha, tiny
from repro.workloads.programs import PROGRAM_NAMES, build_program


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    name = args[0] if args else "doduc"
    machine = tiny(8, 8) if "--machine=tiny" in sys.argv else alpha()
    if name not in PROGRAM_NAMES:
        raise SystemExit(f"unknown benchmark {name!r}; choose from "
                         f"{', '.join(PROGRAM_NAMES)}")

    module = build_program(name, machine)
    reference = simulate(module, machine)
    print(f"benchmark: {name} on {machine}")
    print(f"reference run: {reference.dynamic_instructions:,} dynamic "
          f"instructions, output {reference.output[:4]}...")

    # One cell payload per allocator, each already checked against the
    # unallocated module's output (a mismatch raises OracleMismatch).
    cells = compare_allocators(module, machine)
    baseline_cycles = next(cell["cycles"] for cell in cells
                           if cell["allocator"] == "coloring")
    rows = []
    for cell in cells:
        spill = cell["total_spill"] / cell["dynamic_instructions"]
        rows.append([make_allocator(cell["allocator"]).name,
                     cell["dynamic_instructions"],
                     cell["cycles"],
                     f"{100 * spill:.2f}%",
                     f"{cell['alloc_seconds'] * 1000:.1f} ms",
                     cell["cycles"] / baseline_cycles])

    print()
    print(format_table(
        ["allocator", "dyn instrs", "cycles", "spill%", "alloc time",
         "cycles vs GC"],
        rows))


if __name__ == "__main__":
    main()
