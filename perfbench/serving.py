"""serve_hot and serve_cold: a one-worker ServerPool driven over HTTP.

Both workloads serve the 13-target per-target ParaGraph suite that
:func:`train_fixture` trains from the seed.  Every response is checked
against a float64 in-process engine on the same artifact.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from perfbench import inputs
from perfbench.common import (
    BenchError,
    Outcome,
    check_hygiene,
    median,
    ms,
    percentile,
    shm_segments,
    tail,
    vm_rss_mb,
)
from perfbench.loadgen import Connection, Sample, closed_loop, open_loop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: The pool runs one worker; the load generator keeps the second core.
POOL_WORKERS = 1
CONNECTIONS_HOT = 2
CONNECTIONS_COLD = 1
#: serve_hot phase 1 offered rate, req/s: about half of the one-worker
#: capacity on a slowed machine (25-30 req/s), so a slowdown of the machine
#: does not push the open loop into queueing.  A constant, so a parent and
#: a change always see the same load.
HOT_RATE = 12.0
#: tail percentiles: each leaves >= 10 samples beyond it in a normal run
HOT_TAIL = 0.90
COLD_TAIL = 0.65
#: share of the run given to phase 1 (open loop); phase 2 gets the rest
HOT_OPEN_SHARE = 0.5
#: phase-1 requests due in this first stretch are warm-up, not measured
WARMUP_S = 1.5
COLD_ITEMS = inputs.COLD_ITEMS
#: serve_cold graph-cache capacity: well below the circuits a run sends
COLD_CACHE_ENTRIES = 64
#: pool start-ups per run; setup_s is their median
SETUPS = 3
FIXTURE_EPOCHS = 1
#: float32 serving vs the float64 reference, after inverse target scaling:
#: relative, plus a floor for values near zero (ReLU-clamped outputs) at
#: this share of the target's largest value on the circuit
RTOL = 1e-3
FLOOR = 1e-5


# ----------------------------------------------------------------------
# Fixture and reference
# ----------------------------------------------------------------------
def train_fixture(data, work: str) -> str:
    """Train the 13-target suite on the seed's bundle; return a model root."""
    from repro.flows import TrainPlan, train
    from repro.models.trainer import TrainConfig

    result = train(data, TrainPlan(config=TrainConfig(epochs=FIXTURE_EPOCHS)))
    root = os.path.join(work, "models")
    result.model.save_dir(os.path.join(root, "suite"))
    return root


def request_item(netlist: inputs.Netlist, name: str, targets) -> dict:
    return {"netlist": netlist.text, "name": name, "targets": list(targets)}


def reference(models_root: str, netlists, targets) -> dict[str, dict]:
    """``{netlist name: {target: (names, float64 values)}}``."""
    from repro.api import create_engine
    from repro.api.types import PredictionRequest

    with create_engine(models_root, dtype="float64") as engine:
        results = engine.predict_batch(
            [
                PredictionRequest(
                    netlist_text=item.text, name=item.name, targets=tuple(targets)
                )
                for item in netlists
            ]
        )
    return {
        item.name: {
            target: result.arrays(target) for target in targets
        }
        for item, result in zip(netlists, results)
    }


def item_problem(item: dict, expected: dict) -> str | None:
    """Why one response item disagrees with its reference (None if it agrees)."""
    got_targets = item.get("targets") or {}
    for target, (names, values) in expected.items():
        got = (got_targets.get(target) or {}).get("values")
        if got is None:
            return f"target {target} missing"
        if len(got) != len(names) or set(got) != set(names):
            return f"target {target}: node names differ"
        served = np.array([got[name] for name in names], dtype=np.float64)
        floor = FLOOR * float(np.max(np.abs(values), initial=0.0))
        error = np.abs(served - values)
        if np.any(error > RTOL * np.abs(values) + floor):
            worst = float(np.max(error / np.maximum(np.abs(values), 1e-300)))
            return f"target {target}: relative error {worst:.2e} > {RTOL:g}"
    return None


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
@dataclass
class PoolHandle:
    """A pool running in its own host process."""

    host: str
    port: int
    pids: list[int]


@contextlib.contextmanager
def running_pool(models_root: str, work: str, outcome: Outcome, **knobs):
    """A started one-worker pool in a host process.

    The host is told to stop in ``finally``; afterwards the run fails if
    any of its processes or a weight segment outlived it.
    """
    config = dict(
        workers=POOL_WORKERS,
        port=0,
        metrics_dir=os.path.join(work, "metrics"),
        **knobs,
    )
    before = shm_segments()
    env = dict(os.environ, TMPDIR=work)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    host = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "pool_host.py"), models_root,
         json.dumps(config)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    pids = [host.pid]
    try:
        line = host.stdout.readline()
        if not line:
            raise BenchError("pool host exited before its pool was ready")
        info = json.loads(line)
        pids += info["pids"]
        yield PoolHandle(info["host"], info["port"], info["pids"])
    finally:
        host.stdin.close()
        try:
            host.wait(timeout=60)
        except subprocess.TimeoutExpired:
            host.kill()
            host.wait()
            outcome.fail(1, "pool host did not stop within 60 s")
        host.stdout.close()
        check_hygiene(outcome, pids, before)


@contextlib.contextmanager
def started(models_root, work, outcome, warm, connections: int, count: int = SETUPS,
            **knobs):
    """Start a pool and warm it *count* times; yield the last one.

    Yields ``(pool, connections, setup seconds)``: each set-up is timed
    from launching the pool host to the end of *warm*.  Earlier pools are
    stopped (and hygiene-checked) at once.
    """
    setups = []
    for attempt in range(count):
        with contextlib.ExitStack() as stack:
            tick = time.perf_counter()
            pool = stack.enter_context(
                running_pool(models_root, work, outcome, **knobs)
            )
            conns = [Connection(pool.host, pool.port) for _ in range(connections)]
            for conn in conns:
                stack.callback(conn.close)
            warm(conns)
            setups.append(time.perf_counter() - tick)
            if attempt == count - 1:
                yield pool, conns, setups


def check_samples(outcome: Outcome, samples, expected_of) -> None:
    """Count and check every response: status, names and values."""
    for sample in samples:
        expected = expected_of(sample.index)
        outcome.attempted += len(expected)
        if sample.status != 200:
            outcome.fail(len(expected), f"HTTP {sample.status}: {sample.body[:200]!r}")
            continue
        payload = json.loads(sample.body)
        items = payload["results"] if "results" in payload else [payload]
        if len(items) != len(expected):
            outcome.fail(len(expected), "wrong number of results")
            continue
        for item, want in zip(items, expected):
            problem = item_problem(item, want)
            if problem is not None:
                outcome.fail(1, problem)


# ----------------------------------------------------------------------
# serve_hot
# ----------------------------------------------------------------------
def hot_plan(seed: int, work: str):
    """(models_root, working set, reference, request bodies) for a seed."""
    data = inputs.bundle(seed)
    working = inputs.hot_working_set(seed)
    models_root = train_fixture(data, work)
    ref = reference(models_root, working, ("CAP",))
    bodies = [
        json.dumps(request_item(item, item.name, ("CAP",))).encode()
        for item in working
    ]
    return models_root, working, ref, bodies


def hot_picks(seed: int, size: int, seconds: float) -> np.ndarray:
    """Working-set index of every request: rounds that each visit all
    circuits once in a seeded order, so each seed sends the same mix."""
    rng = np.random.default_rng([seed, 3])
    rounds = int(seconds * 100 / size) + 1  # more than any run can send
    return np.concatenate([rng.permutation(size) for _ in range(rounds)])


def after_warmup(samples):
    """Open-loop samples due after the warm-up stretch."""
    return [s for s in samples if s.index >= WARMUP_S * HOT_RATE]


def hot_warm(bodies, samples: list):
    """Set-up traffic: every working-set circuit once on each connection,
    so every timed lookup hits the cache.  Responses land in *samples*."""

    def warm(conns):
        for index, body in enumerate(bodies):
            for conn in conns:
                status, payload = conn.post(body)
                samples.append(_sample(index, status, payload))

    return warm


def hot_traffic(outcome, conns, bodies, picks, expected, open_s, closed_s):
    """Phase 1 (open loop at ``HOT_RATE``) then phase 2 (closed loop) on
    the same connections; every response is checked.  Returns the open-loop
    samples, the closed-loop samples and the closed loop's elapsed time.

    The phases do not alternate: after back-to-back traffic the next
    open-loop requests wait out the Nagle stall (see NOTES.md) for a
    while, which only the warm-up at the start of phase 1 discards."""
    open_samples = open_loop(conns, lambda i: bodies[picks[i]], HOT_RATE, open_s)
    closed_samples, elapsed = closed_loop(
        conns, lambda i: bodies[picks[i % len(picks)]], closed_s
    )
    check_samples(outcome, open_samples, lambda i: [expected[i]])
    check_samples(
        outcome, closed_samples, lambda i: [expected[i % len(expected)]]
    )
    return open_samples, closed_samples, elapsed


def run_hot(seed: int, seconds: float, work: str) -> Outcome:
    outcome = Outcome()
    models_root, working, ref, bodies = hot_plan(seed, work)
    picks = hot_picks(seed, len(working), seconds)
    expected = [ref[working[pick].name] for pick in picks]
    warm_samples = []
    with started(
        models_root, work, outcome, hot_warm(bodies, warm_samples), CONNECTIONS_HOT
    ) as (pool, conns, setups):
        open_samples, closed_samples, elapsed = hot_traffic(
            outcome, conns, bodies, picks, expected,
            seconds * HOT_OPEN_SHARE, seconds * (1.0 - HOT_OPEN_SHARE),
        )
        rss = vm_rss_mb(pool.pids[0])

    check_samples(outcome, warm_samples, lambda i: [ref[working[i].name]])
    # The latency metrics come from phase 2.  On a shared 2-vCPU machine
    # phase 1's latency (kept in the notes) followed the hypervisor's steal
    # share, 15-29 ms across ten seeds, beyond any bound a metric may have;
    # see NOTES.md.
    latencies = [s.latency for s in closed_samples]
    timed = after_warmup(open_samples)
    light = [s.latency for s in timed]
    outcome.set("setup_s", median(setups), "s")
    outcome.set("latency_p50_ms", ms(median(latencies)), "ms")
    outcome.set("latency_tail_ms", ms(tail(outcome, latencies, HOT_TAIL)), "ms")
    outcome.set("throughput_per_s", len(closed_samples) / elapsed, "1/s")
    outcome.set("rss_mb", rss, "MB")
    outcome.notes.update(
        phase1_samples=len(light),
        phase1_p50_ms=ms(median(light)),
        phase1_p90_ms=ms(percentile(light, 0.90)),
        phase2_samples=len(closed_samples),
        offered_rps=HOT_RATE,
        gen_late_p90_ms=ms(percentile([s.late for s in timed], 0.90)),
        setups_s=setups,
    )
    return outcome


def _sample(index: int, status: int, body: bytes) -> Sample:
    now = time.perf_counter()
    return Sample(index, now, now, now, status, body)


# ----------------------------------------------------------------------
# serve_cold
# ----------------------------------------------------------------------
def cold_plan(seed: int, work: str):
    data = inputs.bundle(seed)
    strata = inputs.cold_pool(seed)
    models_root = train_fixture(data, work)
    ref = reference(
        models_root, [item for stratum in strata for item in stratum],
        inputs.TARGET_NAMES,
    )
    return models_root, strata, ref


def cold_circuits(strata, index: int):
    """The 8 pool circuits of request *index*: one from each size stratum."""
    return [stratum[index % len(stratum)] for stratum in strata]


def cold_body(strata, seed: int, index: int, tag: str = "cold") -> bytes:
    """Request *index*, each circuit under a never-used name."""
    items = [
        request_item(
            base, f"{tag}-{seed}-{index}-{k}-{base.name}", inputs.TARGET_NAMES
        )
        for k, base in enumerate(cold_circuits(strata, index))
    ]
    return json.dumps({"items": items}).encode()


def cold_expected(strata, ref, index: int) -> list[dict]:
    return [ref[base.name] for base in cold_circuits(strata, index)]


def cold_warm(strata, seed: int, samples: list):
    """Set-up traffic: one batch under a name set of its own per start-up,
    so nothing the timed loop sends is in the cache.  Responses land in
    *samples*."""
    rounds = [0]

    def warm(conns):
        tag = f"warm{rounds[0]}"
        rounds[0] += 1
        status, payload = conns[0].post(cold_body(strata, seed, 0, tag))
        samples.append(_sample(0, status, payload))

    return warm


def cold_traffic(outcome, conns, strata, ref, seed: int, seconds: float):
    """Closed loop of never-sent 8-circuit batches; every response is
    checked.  Returns the samples and the loop's elapsed time."""
    samples, elapsed = closed_loop(
        conns, lambda i: cold_body(strata, seed, i), seconds
    )
    check_samples(outcome, samples, lambda i: cold_expected(strata, ref, i))
    return samples, elapsed


def cold_started(
    models_root, work, outcome, strata, seed, warm_samples, count=SETUPS
):
    """The serve_cold pool: one connection, a cache below the circuits sent."""
    return started(
        models_root, work, outcome, cold_warm(strata, seed, warm_samples),
        CONNECTIONS_COLD, count=count, cache_size=COLD_CACHE_ENTRIES,
    )


def run_cold(seed: int, seconds: float, work: str) -> Outcome:
    outcome = Outcome()
    models_root, strata, ref = cold_plan(seed, work)
    warm_samples = []
    with cold_started(models_root, work, outcome, strata, seed, warm_samples) as (
        pool, conns, setups
    ):
        samples, elapsed = cold_traffic(outcome, conns, strata, ref, seed, seconds)
        rss = vm_rss_mb(pool.pids[0])

    check_samples(outcome, warm_samples, lambda i: cold_expected(strata, ref, i))
    latencies = [s.latency for s in samples]
    outcome.set("setup_s", median(setups), "s")
    outcome.set("latency_p50_ms", ms(median(latencies)), "ms")
    outcome.set("latency_tail_ms", ms(tail(outcome, latencies, COLD_TAIL)), "ms")
    outcome.set("throughput_per_s", len(samples) * COLD_ITEMS / elapsed, "1/s")
    outcome.set("rss_mb", rss, "MB")
    sent = len(samples) * COLD_ITEMS
    if sent <= COLD_CACHE_ENTRIES:
        outcome.notes["cache_warning"] = (
            f"sent {sent} circuits, no more than the {COLD_CACHE_ENTRIES}-entry cache"
        )
    outcome.notes.update(requests=len(samples), circuits=sent, setups_s=setups)
    return outcome
