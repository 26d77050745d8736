"""Allocation output must not depend on Python's hash randomization.

The binpack register-selection loops (``_find_register`` /
``_find_empty_register``) iterate over set-like structures; without a
stable tie-break on register index, two runs of the same compilation
could pick different (equally valid) registers depending on
``PYTHONHASHSEED``.  That breaks reproducible builds, trace diffing, and
the fuzzer's shrink predicate.  This test compiles the same programs in
subprocesses under different hash seeds and compares the printed
allocated modules byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

_PROGRAM = """
import copy
from repro.allocators.base import allocate_module
from repro.allocators import (GraphColoring, PolettoLinearScan,
                              SecondChanceBinpacking, TwoPassBinpacking)
from repro.ir.printer import print_module
from repro.passes.dce import eliminate_dead_code_module
from repro.pm import CompilationSession
from repro.target import tiny
from repro.workloads.synthetic import random_module

from repro.spill import AllocationContext

machine = tiny(5, 5)
contexts = (AllocationContext(),
            AllocationContext(remat=True),
            AllocationContext(stress="shuffle", seed=7),
            AllocationContext(stress="reduced-regs", seed=7),
            AllocationContext(stress="forced-evict", seed=7))
for name, make in (("second-chance", SecondChanceBinpacking),
                   ("two-pass", TwoPassBinpacking),
                   ("coloring", GraphColoring),
                   ("poletto", PolettoLinearScan)):
    for seed in (0, 3):
        for context in contexts:
            module = random_module(seed, machine, size=35)
            eliminate_dead_code_module(module)
            allocate_module(module, make(), machine, context=context,
                            session=CompilationSession(module, machine))
            print(f"=== {name} seed={seed} ctx={context.describe()} ===")
            print(print_module(module))
"""


def _compile_under_hash_seed(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = "src"
    proc = subprocess.run([sys.executable, "-c", _PROGRAM],
                          capture_output=True, text=True, env=env,
                          cwd=os.path.dirname(os.path.dirname(__file__)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("other_seed", ["1", "424242"])
def test_allocation_is_hash_seed_independent(other_seed):
    baseline = _compile_under_hash_seed("0")
    assert "===" in baseline
    # The subprocess program covers every allocator under the default,
    # remat, and all three seeded stress contexts, so this asserts that
    # the stress RNG derivation is hash-seed independent too.
    assert "ctx=stress=shuffle" in baseline
    assert _compile_under_hash_seed(other_seed) == baseline


def _allocated_text(allocator_name, context):
    from repro.allocators import ALLOCATOR_FACTORIES
    from repro.allocators.base import allocate_module
    from repro.ir.printer import print_module
    from repro.passes.dce import eliminate_dead_code_module
    from repro.pm import CompilationSession
    from repro.target import tiny
    from repro.workloads.synthetic import random_module

    machine = tiny(5, 5)
    module = random_module(11, machine, size=40)
    eliminate_dead_code_module(module)
    allocate_module(module, ALLOCATOR_FACTORIES[allocator_name](),
                    machine, context=context,
                    session=CompilationSession(module, machine))
    return print_module(module)


@pytest.mark.parametrize("allocator", ["second-chance", "two-pass",
                                       "coloring", "poletto"])
@pytest.mark.parametrize("mode", ["reduced-regs", "forced-evict", "shuffle"])
def test_stress_same_seed_is_byte_identical(allocator, mode):
    """Stress modes are functions of (module, context) — re-running with
    the same seed must reproduce the allocation byte for byte."""
    from repro.spill import AllocationContext

    context = AllocationContext(stress=mode, seed=99)
    assert _allocated_text(allocator, context) == \
        _allocated_text(allocator, context)


def test_stress_seed_changes_allocation():
    """Different seeds must actually change *something*, else the knob is
    dead.  Checked across modes so one insensitive mode can't hide."""
    from repro.spill import AllocationContext

    differs = False
    for mode in ("reduced-regs", "forced-evict", "shuffle"):
        texts = {_allocated_text("second-chance",
                                 AllocationContext(stress=mode, seed=s))
                 for s in range(4)}
        differs = differs or len(texts) > 1
    assert differs
