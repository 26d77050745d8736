"""Shared constants and small statistics helpers for the benchmark.

The benchmark lives outside the package it measures: it imports
``repro`` from the checkout's ``src/`` directory and never edits it.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this folder).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (server stores, span dumps, temp files) goes
#: here, inside the checkout.
OUT = ROOT / ".perfbench"

#: The four allocators, in the paper's Table 1 column order.
ALLOCATORS = ("second-chance", "two-pass", "coloring", "poletto")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources to measure)."""


def import_repro() -> None:
    """Put the checkout's ``src`` on the import path, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for processes the benchmark starts: the checkout's
    sources on the path and temp files inside the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp)
    return env


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values, q: float) -> float:
    """The ``q`` quantile, interpolated linearly between the two nearest
    ranks (position ``q * (n - 1)`` in sorted order)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def own_peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")

