"""Determinism self-check: the benchmark's exact counts must repeat.

    python3 perfbench/determinism.py [--seed N] [--workload W ...]

Runs one pass of each workload three times in fresh interpreters, two
with ``PYTHONHASHSEED=0`` and one with ``PYTHONHASHSEED=1``, and checks
that every cell's cycles, dynamic instructions, dynamic spill
instructions, spilled temporaries, static spill instructions, candidates,
Poletto restarts, coloring rounds and edges and resolution iterations are
identical across the three.  For ``serve`` the cells are the misses,
keyed by the server's request key.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, ROOT, child_env, import_repro  # noqa: E402

HASH_SEEDS = ("0", "0", "1")


def counts(workload: str, seed: int) -> dict:
    """Every cell's exact counts from one pass, in this process."""
    import_repro()
    from probe import HostClock
    from spans import NULL

    if workload == "serve":
        import shutil

        import serveload

        root = OUT / f"determinism-seed{seed}"
        shutil.rmtree(root, ignore_errors=True)
        stream = serveload.build_stream(seed, NULL)
        server = serveload.Server(root / "store")
        try:
            result = serveload.run_stream(server, stream, NULL,
                                          HostClock())
            server.shutdown()
        finally:
            server.kill()
            shutil.rmtree(root, ignore_errors=True)
        return {f"{c.program}/{c.allocator}": c.exact()
                for c in serveload.cells(result)}
    import inproc

    programs = inproc.BUILDERS[workload](seed, NULL)
    measured = inproc.measure(programs, 0, NULL, HostClock())
    return {f"{c.program}/{c.allocator}": c.exact() for c in measured.cells}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=("quality", "scaling", "serve"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(counts(args.child, args.seed),
                         sort_keys=True))
        return 0
    status = 0
    for workload in args.workload or ("quality", "scaling", "serve"):
        seen = []
        for hash_seed in HASH_SEEDS:
            env = dict(child_env(), PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, __file__, "--child", workload,
                 "--seed", str(args.seed)],
                env=env, cwd=ROOT, capture_output=True, text=True,
                check=True)
            seen.append(json.loads(out.stdout.splitlines()[-1]))
        differing = sorted(cell for cell in seen[0]
                           if any(run.get(cell) != seen[0][cell]
                                  for run in seen[1:]))
        differing += sorted(set().union(*seen[1:]) - set(seen[0]))
        cells = len(seen[0])
        if differing:
            status = 1
            print(f"{workload}: {len(differing)} of {cells} cells differ: "
                  f"{differing[:5]}")
        else:
            print(f"{workload}: {cells} cells identical across "
                  f"{len(HASH_SEEDS)} runs (PYTHONHASHSEED "
                  f"{', '.join(HASH_SEEDS)})")
    return status


if __name__ == "__main__":
    sys.exit(main())
