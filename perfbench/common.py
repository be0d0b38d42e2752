"""Shared helpers: statistics, the result line, run hygiene.

Every workload returns a :class:`Outcome`; :func:`emit` turns it into the
one-line JSON result the benchmark prints last.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Shared-memory segment prefix of the serving pool's published weights.
SHM_PREFIX = "repro-weights-"
SHM_DIR = "/dev/shm"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an output mismatch)."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    #: metrics this run cannot measure (their hook left the program)
    absent: set[str] = field(default_factory=set)
    #: metrics of layers this workload never runs, reported as 0
    idle: set[str] = field(default_factory=set)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def set(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(outcome: Outcome, values, q: float) -> float:
    """The *q* percentile, with its sample count stated in the notes.

    Each workload fixes *q* so that a normal run leaves at least ten
    samples beyond it; a run that falls short says so.
    """
    beyond = len(values) * (1.0 - q)
    outcome.notes["tail"] = {"quantile": q, "samples": len(values), "beyond": beyond}
    if beyond < 10:
        outcome.notes["tail_warning"] = f"only {beyond:.1f} samples beyond p{q * 100:g}"
    return percentile(values, q)


def median(values) -> float:
    return float(statistics.median(values))


def ms(seconds: float) -> float:
    return seconds * 1e3


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_rss_mb(pid: int) -> float:
    """Current VmRSS of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmRSS for pid {pid}")


def shm_segments() -> set[str]:
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return set()
    return {name for name in names if name.startswith(SHM_PREFIX)}


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def check_hygiene(outcome: Outcome, pids, segments_before: set[str]) -> None:
    """Fail the run if a worker survived or a weight segment leaked."""
    deadline = time.monotonic() + 5.0
    alive = [pid for pid in pids if pid_alive(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if pid_alive(pid)]
    if alive:
        outcome.fail(1, f"worker pids survived pool.stop(): {alive}")
    leaked = sorted(shm_segments() - segments_before)
    if leaked:
        outcome.fail(1, f"shared-memory segments leaked: {leaked}")


def emit(outcome: Outcome, wanted: list[dict]) -> str:
    """The result line: the *wanted* metrics (``BENCHMARK.json`` entries),
    in order; idle layers read 0 and absent ones are left out."""
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name in outcome.metrics:
            value, unit = outcome.metrics[name]
        elif name in outcome.idle:
            value, unit = 0.0, spec["unit"]
        elif name in outcome.absent:
            continue
        else:
            raise BenchError(f"workload did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": max(1, outcome.attempted),
            "failed": outcome.failed,
            "metrics": metrics,
        }
    )
