"""Target machine descriptions (see :mod:`repro.target.machine`).

Two factories cover every configuration the reproduction uses, and
:func:`machine_from_spec` names them by string for the CLI, the suite
and the allocation service:

* :func:`alpha` — the paper's 32+32-register Alpha-like machine;
* :func:`tiny` — scaled-down machines (the same convention shape on
  4–8 registers) so tests can create register pressure with small
  programs, as the paper's figures do with two-register examples.
"""

from __future__ import annotations

from repro.target.alpha import alpha
from repro.target.machine import CYCLE_COSTS, MachineDescription, cycle_cost

__all__ = ["CYCLE_COSTS", "MachineDescription", "alpha", "cycle_cost",
           "machine_from_spec", "tiny"]

#: The smallest legal tiny file: return register, two parameter
#: registers, and at least one callee-saved register.
_MIN_FILE = 4


def tiny(n_gpr: int = 8, n_fpr: int = 8) -> MachineDescription:
    """A scaled-down machine with ``n_gpr``/``n_fpr`` registers per file.

    Layout per file: register 0 returns the result, registers 1–2 pass
    parameters, register 3 is a caller-saved temporary, and registers 4
    and up are callee-saved.  Each file needs at least four registers to
    fit that convention (at the four-register minimum, register 3 is the
    single callee-saved register instead).
    """
    if n_gpr < _MIN_FILE or n_fpr < _MIN_FILE:
        raise ValueError(
            f"tiny machines need at least {_MIN_FILE} registers per file "
            f"(got {n_gpr} GPRs, {n_fpr} FPRs)")
    return MachineDescription(
        f"tiny{n_gpr}x{n_fpr}", n_gpr, n_fpr,
        gpr_params=(1, 2), fpr_params=(1, 2),
        gpr_callee_saved=tuple(range(min(4, n_gpr - 1), n_gpr)),
        fpr_callee_saved=tuple(range(min(4, n_fpr - 1), n_fpr)),
        gpr_ret=0, fpr_ret=0)


def machine_from_spec(spec: str) -> MachineDescription:
    """The machine a spec string names: ``alpha``, ``tiny:<G>x<F>``, or
    ``tiny`` (an alias for ``tiny:8x8``).  Raises :class:`ValueError` on
    anything else — the one error every entry point reports."""
    if spec == "alpha":
        return alpha()
    if spec == "tiny":
        return tiny(8, 8)
    if isinstance(spec, str) and spec.startswith("tiny:"):
        gpr, _, fpr = spec[len("tiny:"):].partition("x")
        return tiny(int(gpr), int(fpr))
    raise ValueError(f"unknown machine spec {spec!r} "
                     "(alpha, tiny, or tiny:<G>x<F>)")
