"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload {quality,scaling,serve} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds every per-layer
metric, and the spans, per-program rows and layer numbers are also
written under ``.perfbench/`` in the checkout.  Run from the root of a
checkout; everything the run writes stays inside it.  See ``NOTES.md``
for the workloads, the metrics and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, SetupError, import_repro, median  # noqa: E402
from probe import REFERENCE_S, HostClock  # noqa: E402

WORKLOADS = ("quality", "scaling", "serve")
#: ``serve`` sends its stream to at least this many fresh servers, one
#: after another, and to more while they fit in ``--seconds``.
MIN_SERVERS = 3
#: Set-ups per run: at least SETUP_MIN, and more, up to SETUP_MAX, while
#: they are cheap; ``setup_s`` is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 3.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_repro()
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    from layers import declared

    end_to_end, per_layer = declared()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")
    # The load is serial: keep it, and the server it starts, on one
    # processor, so that the host probe runs where the work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    clock = HostClock()
    if args.workload == "serve":
        outcome = run_serve(args, clock)
    else:
        outcome = run_inproc(args, clock)
    names = per_layer if args.trace else end_to_end
    values = outcome["metrics"]
    unknown = set(values) - set(names)
    # A per-layer metric whose layer this workload does not run reads 0.
    missing = set() if args.trace else set(names) - set(values)
    if unknown or missing:
        raise RuntimeError(f"metrics not declared: {sorted(unknown)}; "
                           f"not measured: {sorted(missing)}")
    doc = {"correct": outcome["failed"] == 0 and outcome["deterministic"],
           "attempted": outcome["attempted"],
           "failed": outcome["failed"],
           "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                       for name, unit in names.items()}}
    for error in outcome.get("errors", []):
        print(f"failure: {error}", file=sys.stderr)
    probes = clock.probes
    print(f"host probe: {len(probes)} runs, median "
          f"{1e3 * median(probes):.2f} ms (reference "
          f"{1e3 * REFERENCE_S:.0f} ms)")
    print(json.dumps(doc))
    return 0


def _trace_paths(args) -> tuple[Path, Path]:
    stem = OUT / f"{args.workload}-seed{args.seed}"
    return Path(f"{stem}-spans.jsonl"), Path(f"{stem}-trace.json")


def _write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"trace report: {path.relative_to(OUT.parent)}")


def set_up(build, recorder, clock) -> tuple:
    """Run ``build`` at least ``SETUP_MIN`` times, and up to ``SETUP_MAX``
    while the set-ups so far took under ``SETUP_BUDGET_S``; returns the
    last result, each set-up's host-normalized seconds and each
    set-up's spans' self seconds."""
    from spans import self_seconds

    seconds, selfs, built, raw = [], [], None, 0.0
    while len(seconds) < SETUP_MIN or (len(seconds) < SETUP_MAX
                                       and raw < SETUP_BUDGET_S):
        recorder.cell = f"setup{len(seconds)}"
        first = len(recorder.spans)
        built = None  # one set of inputs in memory at a time
        gc.collect()
        clock.mark()
        t0 = time.perf_counter()
        built = build()
        took = time.perf_counter() - t0
        raw += took
        seconds.append(took * clock.scale())
        selfs.append(self_seconds(recorder.spans[first:]))
    recorder.cell = None
    return built, seconds, selfs


# ----------------------------------------------------------------------
# quality and scaling
# ----------------------------------------------------------------------
def run_inproc(args, clock) -> dict:
    import inproc
    from layers import merge, per_layer
    from spans import NULL, SpanRecorder, instrument

    recorder = SpanRecorder() if args.trace else NULL
    build = inproc.BUILDERS[args.workload]
    programs, setups, setup_selfs = set_up(
        lambda: build(args.seed, recorder), recorder, clock)
    # The inputs live for the whole run: keep them out of the
    # collector's full passes, whose cost would otherwise grow with them.
    gc.collect()
    gc.freeze()
    if not args.trace:
        measured = inproc.measure(programs, args.seconds, NULL, clock,
                                  inproc.PASSES[args.workload])
        print(f"{args.workload}: {len(measured.pass_s)} pass(es), "
              f"{measured.attempted // len(measured.cells)} round(s), "
              f"{len(setups)} set-up(s)")
        metrics = inproc.metrics(measured)
        metrics["setup_s"] = median(setups)
        return {"metrics": metrics, "attempted": measured.attempted,
                "failed": measured.failed, "errors": measured.errors,
                "deterministic": measured.deterministic}

    # A traced run measures one untraced and one traced pass.
    measured = inproc.measure(programs, 0, NULL, clock)
    with instrument(recorder):
        traced = inproc.measure(programs, 0, recorder, clock)
    mismatches = merge(measured.cells, traced.cells)
    runs = (measured, traced)
    outcome = {"attempted": sum(m.attempted for m in runs),
               "failed": sum(m.failed for m in runs),
               "deterministic": not mismatches,
               "errors": [e for m in runs for e in m.errors] + mismatches}

    metrics = per_layer(traced.cells)
    metrics.update(inproc.layers(traced.cells))
    metrics.update(inproc.span_layers(recorder.spans))
    metrics.update(inproc.growth(traced.cells))
    for metric, span in (("lang.compile_s", "lang.compile"),
                         ("workloads.generate_s", "workloads.generate"),
                         ("sim.ref_s", "sim.ref")):
        metrics[metric] = median(s.get(span, 0.0) for s in setup_selfs)
    metrics["sim.instr_per_s"] = metrics["sim.dyn_instr"] / metrics[
        "sim.run_s"]
    pass_s = [sum(t[0] for t in m.program_s.values()) for m in runs]
    metrics["trace.overhead_s"] = pass_s[1] - pass_s[0]

    spans_path, report_path = _trace_paths(args)
    recorder.write(spans_path)
    rows = inproc.rows(traced.cells)
    _print_rows(rows)
    _write_report(report_path, {
        "workload": args.workload, "seed": args.seed,
        "spans": spans_path.name,
        "untraced_pass_s": pass_s[0], "traced_pass_s": pass_s[1],
        "untraced_raw_pass_s": measured.pass_s[0],
        "traced_raw_pass_s": traced.pass_s[0],
        "probe_median_ms": 1e3 * median(clock.probes),
        "per_layer": metrics, **rows})
    return {"metrics": metrics, **outcome}


def _print_rows(rows: dict) -> None:
    for row in rows["rows"]:
        print("  ".join(f"{k}={v}" for k, v in row.items()))
    for key, ratios in rows.items():
        if key.endswith("_vs_coloring"):
            for allocator, ratio in ratios.items():
                print(f"{key} {allocator}: {ratio['geomean_ratio']:.4f} "
                      f"(base: {ratio['base']})")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def run_serve(args, clock) -> dict:
    import serveload
    import spans
    from layers import merge, per_layer
    from spans import NULL, SpanRecorder

    recorder = SpanRecorder() if args.trace else NULL
    root = OUT / f"serve-seed{args.seed}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    servers = []

    def build():
        if servers and servers[-1].proc.returncode is None:
            servers[-1].shutdown()  # an earlier set-up's, never used
        stream = serveload.build_stream(args.seed, recorder)
        servers.append(serveload.Server(root / f"store{len(servers)}"))
        return stream

    def send(server, stream, rec):
        result = serveload.run_stream(server, stream, rec, clock)
        server.shutdown()
        results.append(result)
        return serveload.cells(result)

    def outcome(metrics, mismatches):
        return {"metrics": metrics,
                "attempted": sum(r.attempted for r in results),
                "failed": sum(r.failed for r in results),
                "deterministic": not mismatches,
                "errors": [e for r in results for e in r.errors]
                + mismatches}

    results = []
    try:
        if not args.trace:
            # Fresh servers, each set up anew, while the next should end
            # within --seconds; every miss is served once by each, and
            # must repeat its counts.
            start = time.perf_counter()
            setups, took, served, mismatches = [], [], [], []
            while len(took) < MIN_SERVERS or (
                    time.perf_counter() - start + median(took)
                    <= args.seconds):
                clock.mark()
                t0 = time.perf_counter()
                stream = build()
                setups.append((time.perf_counter() - t0) * clock.scale())
                cells = send(servers[-1], stream, NULL)
                took.append(time.perf_counter() - t0)
                if served:
                    mismatches += merge(served, cells)
                else:
                    served = cells
            print(f"serve: {len(took)} server(s)")
            metrics = serveload.metrics(results, served)
            metrics["setup_s"] = median(setups)
            return outcome(metrics, mismatches)

        stream, _setups, setup_selfs = set_up(build, recorder, clock)
        served = send(servers[-1], stream, NULL)

        spans_path, report_path = _trace_paths(args)
        server_spans_path = root / "server-spans.jsonl"
        store = root / "store-traced"
        servers.append(serveload.Server(store, server_spans_path))
        traced = send(servers[-1], stream, recorder)
        mismatches = merge(served, traced)
        server_spans = spans.read(server_spans_path)
        worker_spans = [row for path in sorted(root.glob(
                            f"{server_spans_path.name}.worker-*.jsonl"))
                        for row in spans.read(path)]
        metrics = per_layer(traced)
        metrics.update(serveload.layers(results[-1], traced, server_spans,
                                        worker_spans))
        metrics["sim.instr_per_s"] = metrics["sim.dyn_instr"] / metrics[
            "sim.run_s"]
        metrics["store.bytes"] = serveload.store_bytes(store)
        metrics["workloads.generate_s"] = median(
            s.get("workloads.generate", 0.0) for s in setup_selfs)
        metrics["trace.overhead_s"] = results[1].wall_s - results[0].wall_s
        recorder.write(spans_path)
        for side, rows in (("server", server_spans),
                           ("worker", worker_spans)):
            spans.write(
                spans_path.with_name(f"{spans_path.stem}-{side}.jsonl"), rows)
        _write_report(report_path, {
            "workload": "serve", "seed": args.seed,
            "spans": spans_path.name, "untraced_wall_s": results[0].wall_s,
            "traced_wall_s": results[1].wall_s,
            "untraced_raw_wall_s": results[0].raw_wall_s,
            "traced_raw_wall_s": results[1].raw_wall_s,
            "probe_median_ms": 1e3 * median(clock.probes),
            "per_layer": metrics,
            "requests": results[1].attempted,
            "hits": len(results[1].hit_ms), "misses": len(traced)})
        return outcome(metrics, mismatches)
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
