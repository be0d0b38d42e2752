"""Host process for the benchmark's ServerPool.

Usage: ``python3 pool_host.py MODELS_ROOT KNOBS_JSON``.  Starts a
:class:`repro.serve.pool.ServerPool` over the saved models with the
:class:`PoolConfig` fields in *KNOBS_JSON*, prints one JSON line
``{"host", "port", "pids"}`` once the workers are ready, then serves until
its standard input reaches end of file (or SIGTERM arrives) and stops the
pool.  Running the pool here, not in the benchmark process, keeps the
load generator's memory out of the forked workers.
"""

from __future__ import annotations

import json
import signal
import sys


def main() -> int:
    models_root, knobs = sys.argv[1], json.loads(sys.argv[2])
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    from repro.serve.pool import PoolConfig, ServerPool

    pool = ServerPool(models_root, config=PoolConfig(**knobs))
    try:
        pool.start()
        print(
            json.dumps({"host": pool.host, "port": pool.port, "pids": pool.pids()}),
            flush=True,
        )
        sys.stdin.read()  # returns at end of file: the benchmark is done
    finally:
        pool.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
