"""The batch-compilation driver: ordering, determinism, fuzz fan-out.

Process pools are where nondeterminism sneaks in, so the contract is
strict: ``run_batch`` returns results in payload order regardless of
completion order, and a parallel ``compare_allocators`` is byte-identical
to the serial shared-session path (which is also what
``tools/check_batch_determinism.py`` enforces in CI on bigger inputs).
"""

import pytest

from repro.allocators import ALLOCATOR_FACTORIES
from repro.fuzz.harness import fuzz
from repro.pm.batch import compare_allocators, run_batch
from repro.target import tiny
from repro.workloads.programs import build_program

CHECKED_FIELDS = ("allocator", "dynamic_instructions", "cycles",
                  "total_spill", "spill_categories", "output", "result",
                  "code", "allocated_sha")


def _square(payload):
    # Top-level so it pickles into pool workers.
    return payload * payload


class TestRunBatch:
    def test_serial_inline(self):
        assert run_batch(_square, [3, 1, 4, 1, 5], jobs=1) == [9, 1, 16, 1, 25]

    def test_single_payload_runs_inline_even_with_jobs(self):
        assert run_batch(_square, [7], jobs=4) == [49]

    def test_parallel_preserves_payload_order(self):
        payloads = list(range(12))
        assert run_batch(_square, payloads, jobs=3) == [p * p for p in payloads]

    def test_empty_batch(self):
        assert run_batch(_square, [], jobs=2) == []


class TestCompareAllocators:
    def test_serial_covers_every_allocator_in_registry_order(self):
        machine = tiny(8, 8)
        module = build_program("wc", machine)
        cells = compare_allocators(module, machine, jobs=1)
        assert [c["allocator"] for c in cells] == list(ALLOCATOR_FACTORIES)
        reference = cells[0]
        for cell in cells:
            assert cell["output"] == reference["output"]
            assert cell["code"]  # allocated text captured per cell

    def test_parallel_matches_serial_byte_for_byte(self):
        machine = tiny(8, 8)
        module = build_program("wc", machine)
        serial = compare_allocators(module, machine, jobs=1)
        parallel = compare_allocators(module, machine, jobs=2)
        assert len(serial) == len(parallel)
        for s, p in zip(serial, parallel):
            for field in CHECKED_FIELDS:
                assert s[field] == p[field], field

    def test_name_subset_and_spill_cleanup(self):
        machine = tiny(8, 8)
        module = build_program("wc", machine)
        cells = compare_allocators(module, machine,
                                   names=["coloring", "second-chance"],
                                   spill_cleanup=True, jobs=2)
        assert [c["allocator"] for c in cells] == ["coloring",
                                                   "second-chance"]

    def test_unknown_allocator_name_rejected(self):
        machine = tiny(8, 8)
        module = build_program("wc", machine)
        with pytest.raises(ValueError, match="unknown allocator"):
            compare_allocators(module, machine, names=["chaitin"])


class TestFuzzJobs:
    def test_parallel_fuzz_matches_serial_counts(self):
        seeds = range(1000, 1004)
        serial = fuzz(seeds, shrink=False)
        parallel = fuzz(seeds, shrink=False, jobs=2)
        assert serial.ok and parallel.ok
        assert parallel.seeds == serial.seeds == len(seeds)
        assert parallel.checks == serial.checks
        assert parallel.skips == serial.skips
        assert parallel.invalid_seeds == serial.invalid_seeds
