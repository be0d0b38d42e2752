"""train_suite: per-target, mega-batched training of all 13 targets.

A run builds the seed's bundle (set-up; timed again before each later
call), then calls
``repro.flows.train(bundle, TrainPlan(config=TrainConfig(epochs=EPOCHS)))``
back to back until ``--seconds`` have passed.  Steps are the per-epoch
times in ``TrainResult.histories``.  Every call must reproduce the first
call's final losses bit for bit, and a fixed reference training must
match the losses recorded in ``reference.json``.
"""

from __future__ import annotations

import json
import os
import time

from perfbench import inputs
from perfbench.common import (
    Outcome,
    median,
    ms,
    peak_rss_mb,
    tail,
)

HERE = os.path.dirname(os.path.abspath(__file__))
#: epochs per train() call; every call trains all 13 targets
EPOCHS = 2
#: least bundle builds per run; setup_s is their median
SETUPS = 5
#: step percentile of latency_tail_ms: CAP's steps, about 1.4x the others,
#: are the slowest 1/13, so p90 sat on their edge and jumped between seeds
TAIL = 0.85
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: relative bound on the reference losses: float64 training of the same
#: math may reassociate sums (one batched layer, another BLAS) but must not
#: drift further than this after the reference epochs
REFERENCE_RTOL = 1e-6


def plan(epochs: int = EPOCHS, runtime=None):
    from repro.flows import TrainPlan
    from repro.models.trainer import TrainConfig

    return TrainPlan(config=TrainConfig(epochs=epochs), runtime=runtime)


def final_losses(result) -> dict[str, float]:
    return {name: history.final_loss for name, history in result.histories.items()}


class RepeatCheck:
    """Every ``train()`` call of a run must reproduce the first call's
    per-target final losses bit for bit; each target counts as an attempt."""

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self.first: dict[str, float] | None = None

    def __call__(self, result) -> None:
        losses = final_losses(result)
        self.outcome.attempted += len(losses)
        if self.first is None:
            self.first = losses
        for target, loss in losses.items():
            if loss.hex() != self.first[target].hex():
                self.outcome.fail(
                    1, f"{target}: loss {loss!r} != first call {self.first[target]!r}"
                )


def epoch_steps(result) -> list[float]:
    """Per-epoch seconds of every target in a ``TrainResult``."""
    return [s for h in result.histories.values() for s in h.epoch_seconds]


def reference_losses(epochs: int, seed: int) -> dict[str, float]:
    from repro.flows import train

    return final_losses(train(inputs.bundle(seed), plan(epochs)))


def check_reference(outcome: Outcome) -> None:
    """Train the recorded reference configuration and compare its losses."""
    with open(REFERENCE_PATH) as handle:
        recorded = json.load(handle)
    got = reference_losses(recorded["epochs"], recorded["seed"])
    outcome.attempted += len(recorded["final_losses"])
    exact = 0
    for target, text in recorded["final_losses"].items():
        want = float.fromhex(text)
        have = got.get(target)
        if have is None or abs(have - want) > REFERENCE_RTOL * abs(want):
            outcome.fail(1, f"reference loss {target}: {have!r} != {want!r}")
        exact += have == want
    outcome.notes["reference_bitwise"] = f"{exact}/{len(recorded['final_losses'])}"


def run_suite(seed: int, seconds: float, work: str) -> Outcome:
    from repro.data.dataset import build_bundle
    from repro.flows import train

    outcome = Outcome()
    setups = []
    chosen = inputs.bundle_seed(seed)

    def setup():
        tick = time.perf_counter()
        bundle = build_bundle(seed=chosen, scale=inputs.BUNDLE_SCALE)
        setups.append(time.perf_counter() - tick)
        return bundle

    # one timed set-up before every train() call, so the set-up samples
    # spread over the run like the steps do; training uses the first bundle
    data = setup()
    calls, steps, check = [], [], RepeatCheck(outcome)
    start = time.perf_counter()
    while len(calls) < 2 or time.perf_counter() - start < seconds:
        if calls:
            setup()
        tick = time.perf_counter()
        result = train(data, plan())
        calls.append(time.perf_counter() - tick)
        steps += epoch_steps(result)
        check(result)
    while len(setups) < SETUPS:
        setup()
    check_reference(outcome)

    outcome.set("setup_s", median(setups), "s")
    outcome.set("latency_p50_ms", ms(median(steps)), "ms")
    outcome.set("latency_tail_ms", ms(tail(outcome, steps, TAIL)), "ms")
    outcome.set("throughput_per_s", len(steps) / sum(calls), "1/s")
    outcome.set("rss_mb", peak_rss_mb(), "MB")
    outcome.notes.update(
        train_calls=len(calls),
        train_s=calls, setups_s=setups,
    )
    return outcome
