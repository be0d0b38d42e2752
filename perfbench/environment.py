"""The machine a run measured on, printed ahead of every result."""

from __future__ import annotations

import os
import platform


def cpu_ticks() -> list[int]:
    """Aggregate CPU time counters from /proc/stat (empty if unreadable)."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):  # pragma: no cover - non-Linux
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor took from this machine in between:
    runs with a large share measured a slower machine."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else None


def describe() -> dict:
    import numpy
    import scipy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
