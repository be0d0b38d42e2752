"""Repository benchmark: HTTP serving (hot and cold) and suite training.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Everything the program receives is generated from
``--seed``.  See ``perfbench/NOTES.md`` for what each metric means on
each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("serve_hot", "serve_cold", "train_suite")


def _metrics(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)[kind]


def _terminate(signum, frame):
    # turn SIGTERM into an exception so every ``finally`` (pool.stop)
    # runs before the process exits
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    signal.signal(signal.SIGTERM, _terminate)
    # One BLAS thread everywhere, set before numpy loads (the pool host
    # inherits it): serving's one worker keeps to one core and leaves the
    # other to the load generator, and training's small matmuls gain
    # nothing from a second thread but wait for it whenever the other core
    # is busy, which doubled the spread of step times between runs.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

    from perfbench import environment, serving, tracing, training
    from perfbench.common import emit

    runs = os.path.join(ROOT, ".bench_work")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=runs)
    tempfile.tempdir = work  # keep the program's temporary files in the checkout
    try:
        print(json.dumps({"environment": environment.describe()}))
        ticks = environment.cpu_ticks()
        if args.trace:
            outcome = tracing.run(args.workload, args.seed, args.seconds, work)
            wanted = _metrics("per_layer")
        else:
            runner = {
                "serve_hot": serving.run_hot,
                "serve_cold": serving.run_cold,
                "train_suite": training.run_suite,
            }[args.workload]
            outcome = runner(args.seed, args.seconds, work)
            wanted = _metrics("end_to_end")
        outcome.notes["steal_share"] = environment.steal_share(
            ticks, environment.cpu_ticks()
        )
        if outcome.problems:
            print(json.dumps({"problems": outcome.problems}))
        print(json.dumps({"notes": outcome.notes}, default=str))
        print(emit(outcome, wanted))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:  # another run's directory is still in it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
