"""``kernel-dispatch``: raw segment reductions outside the kernel engine.

The kernel engine (:mod:`repro.nn.backend` behind :mod:`repro.nn.ops`)
is the single dispatch point for segment reductions: it keeps every
consumer on the CSR/plan kernels, lets ``use_backend`` instrument every
kernel call, and keeps kernel parity testable in one place.  Code that
calls ``np.bincount``, ``np.<ufunc>.reduceat`` or ``np.<ufunc>.at``
directly silently opts out of all three — it stays on the slow composite
path, and neither instrumentation nor the parity tests see it.

Only the kernel engine itself — ``nn/plan.py`` (the CSR schedules),
``nn/ops.py`` (the dispatching entry points and their legacy fallback)
and the kernel implementation ``nn/backend.py`` — may use the raw numpy
primitives.  Everything else goes through ``repro.nn.ops`` (or a
:class:`~repro.nn.plan.SegmentPlan`), or carries a
``# staticcheck: ignore[kernel-dispatch]`` pragma with a reason.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.staticcheck.engine import ModuleContext, Rule, dotted_name
from repro.staticcheck.findings import Finding

#: The kernel engine: the only modules allowed to touch the primitives.
ALLOWED_MODULES = (
    "nn/plan.py",
    "nn/ops.py",
    "nn/backend.py",
)

_NUMPY_ROOTS = ("np", "numpy")


def _is_raw_reduction(name: str) -> str | None:
    """The offending primitive when *name* is one, else None."""
    parts = name.split(".")
    if parts[0] not in _NUMPY_ROOTS:
        return None
    if len(parts) == 2 and parts[1] == "bincount":
        return "bincount"
    if len(parts) == 3 and parts[2] in ("reduceat", "at"):
        return parts[2]
    return None


class KernelDispatchRule(Rule):
    name = "kernel-dispatch"
    description = (
        "raw np.bincount / np.*.reduceat / np.*.at segment reduction "
        "outside the kernel engine (repro/nn/{plan,ops,backend}.py); "
        "dispatch through repro.nn.ops or a SegmentPlan"
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.is_any(*ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            primitive = _is_raw_reduction(dotted_name(node.func))
            if primitive is None:
                continue
            yield self.finding(
                ctx,
                node,
                f"raw numpy {primitive} reduction bypasses the kernel "
                "engine (repro.nn.backend); use repro.nn.ops / "
                "SegmentPlan so kernel instrumentation applies",
            )
