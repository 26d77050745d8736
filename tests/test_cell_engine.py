"""The cell engine: one allocate → simulate → check → record path.

``repro.pm.batch.run_cell`` is what the allocation service, the suite's
quality cells and ``repro compare`` all run, so their records share one
shape.  These tests pin that sharing (a served artifact and a suite
record of the same cell agree on every shared field), the engine's
oracle check, and the small helpers that moved with it: the one
``quantile``, ``make_allocator``'s options, and ``machine_from_spec``.
"""

from __future__ import annotations

import json
import random
import statistics

import pytest

from repro.allocators import make_allocator
from repro.allocators.binpack.allocator import SecondChanceBinpacking
from repro.ir.printer import print_module
from repro.lang import compile_minic
from repro.obs import quantile
from repro.pm import CompilationSession
from repro.pm.batch import OracleMismatch, allocation_artifact, run_cell
from repro.results.store import CellKey, content_hash
from repro.results.suite import (build_workload, execute_cell,
                                 machine_signature)
from repro.serve import AllocationServer, ProtocolError, decode_request
from repro.serve.load import LoadReport
from repro.sim import simulate
from repro.target import machine_from_spec, tiny
from repro.workloads.programs import build_program

ALLOCATORS = ("second-chance", "two-pass", "coloring", "poletto")

MINIC = "func int main() { int a = 6; print a * 7; return a; }"


# ----------------------------------------------------------------------
# One record shape: served artifact == suite record on shared fields.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("allocator", ALLOCATORS)
def test_artifact_and_suite_record_agree(allocator):
    machine = machine_from_spec("alpha")
    ir = print_module(build_program("wc", machine))
    artifact = allocation_artifact({"ir": ir, "machine": "alpha",
                                    "allocator": allocator, "context": "",
                                    "spill_cleanup": False})
    assert "error" not in artifact, artifact
    key = CellKey(workload="analog:wc", allocator=allocator)
    record = execute_cell((key.to_json(), ""))
    for field in ("cycles", "dynamic_instructions", "result",
                  "spill_categories", "total_spill", "allocated_sha"):
        assert artifact[field] == record[field], field
    assert content_hash(artifact["code"]) == record["allocated_sha"]
    assert "code" not in record


def test_run_cell_payload_and_oracle_check():
    machine = tiny(4, 4)
    module = compile_minic(MINIC, machine)
    session = CompilationSession(module, machine)
    reference = simulate(module, machine).output
    cell = run_cell(session, make_allocator("coloring"), context=None,
                    spill_cleanup=False, reference=reference)
    assert cell["output"] == reference == [42]
    assert cell["result"] == 6
    assert cell["metrics"]["sim.dynamic.instructions"] == \
        cell["dynamic_instructions"]
    assert "allocate" in cell["profile"]["phases"]
    with pytest.raises(OracleMismatch, match="observable behaviour"):
        run_cell(session, make_allocator("coloring"), context=None,
                 spill_cleanup=False, reference=[41])


def test_run_cell_without_reference_skips_simulation():
    machine = tiny(4, 4)
    module = compile_minic(MINIC, machine)
    cell = run_cell(CompilationSession(module, machine),
                    make_allocator("poletto"), context=None,
                    spill_cleanup=False, reference=None)
    assert cell["code"] and "cycles" not in cell and "output" not in cell
    assert not any(name.startswith("sim.") for name in cell["metrics"])


# ----------------------------------------------------------------------
# make_allocator: the one place BinpackOptions are applied.
# ----------------------------------------------------------------------
def test_make_allocator_applies_binpack_options():
    allocator = make_allocator("second-chance", (("use_holes", False),))
    assert isinstance(allocator, SecondChanceBinpacking)
    assert allocator.options.use_holes is False
    with pytest.raises(ValueError, match="only to the second-chance"):
        make_allocator("coloring", (("use_holes", False),))


# ----------------------------------------------------------------------
# quantile: linear interpolation, median == statistics.median.
# ----------------------------------------------------------------------
def test_quantile_even_count_median_and_p90():
    assert quantile([1, 3], 0.5) == 2.0
    assert quantile(range(1, 11), 0.9) == pytest.approx(9.1)
    assert quantile([5], 0.99) == 5
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_quantile_half_is_statistics_median():
    rng = random.Random(0)
    for n in range(1, 30):
        samples = [rng.random() for _ in range(n)]
        assert quantile(samples, 0.5) == pytest.approx(
            statistics.median(samples))


def test_stats_and_soak_report_share_the_median(tmp_path):
    server = AllocationServer(str(tmp_path), jobs=0)
    server._latencies = [1.0, 3.0]
    latency = server._stats_response(None)["latency"]
    assert latency["count"] == 2
    assert latency["median_s"] == 2.0
    assert latency["max_s"] == 3.0
    report = LoadReport()
    for seconds in (1.0, 3.0):
        report.record(seconds, cached=False)
    assert report.median_s == latency["median_s"]
    report = LoadReport()
    for seconds in range(1, 11):
        report.record(float(seconds), cached=True)
    assert report.p90_s == pytest.approx(9.1)


# ----------------------------------------------------------------------
# machine_from_spec: one spec language, one error, every entry point.
# ----------------------------------------------------------------------
def test_tiny_alias_names_the_eight_register_machine():
    alias, full = machine_from_spec("tiny"), machine_from_spec("tiny:8x8")
    assert machine_signature(alias) == machine_signature(full)
    assert machine_from_spec("tiny:4x5").n_fpr == 5


def test_unknown_machine_spec_same_error_everywhere():
    from repro.__main__ import _machine

    with pytest.raises(ValueError) as direct:
        machine_from_spec("vax")
    message = str(direct.value)
    assert "unknown machine spec 'vax'" in message
    # suite
    with pytest.raises(ValueError) as suite:
        build_workload("analog:wc", "vax", "layout")
    assert str(suite.value) == message
    # serve: the protocol check and the worker
    with pytest.raises(ProtocolError) as serve:
        decode_request(json.dumps({"minic": MINIC, "machine": "vax"}))
    assert serve.value.code == "bad-request"
    assert serve.value.message == message
    artifact = allocation_artifact({"minic": MINIC, "machine": "vax"})
    assert artifact["error"] == {"code": "bad-request",
                                 "message": f"ValueError: {message}"}
    # CLI
    with pytest.raises(SystemExit) as cli:
        _machine("vax")
    assert str(cli.value) == message
