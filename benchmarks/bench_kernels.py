"""Isolated kernel micro-benchmarks: the kernel engine vs legacy.

Times the three hot kernel entry points of :mod:`repro.nn.ops` —
``segment_softmax``, ``gather_rows`` and ``scatter_rows`` — forward *and*
backward (all tensors require grad, so the legacy baseline pays its
``np.add.at`` backward scatters) on a synthetic workload sized like a
large mega-batch.  Each kernel runs at float64 and float32 through the
plan-based :class:`repro.nn.backend.KernelBackend`; the baseline is the
legacy composite path (``use_legacy_kernels``) at the same precision, so
``speedup = legacy_seconds / seconds``.

The record lands in ``benchmarks/results/kernels.json``.

``REPRO_BENCH_MIN_SPEEDUP`` sets the minimum acceptable speedup on
``segment_softmax`` and ``gather_rows`` (default 2.0; the CI perf-smoke
job relaxes it to 1.0 because shared runners amortise nothing).
"""

import os
import time

import numpy as np

from benchmarks._util import emit_json
from repro.nn import Tensor, ops
from repro.nn import precision
from repro.nn.plan import SegmentPlan

MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))

#: Synthetic workload: a mega-batch-sized graph reduction.
NUM_NODES = 20_000
NUM_EDGES = 200_000
DIM = 32

#: The two kernels the plan-based engine must beat legacy by
#: ``MIN_SPEEDUP`` on (scatter_rows is recorded but not gated: its CSR
#: temporary keeps float64 wins below 2x on small caches).
GATED_KERNELS = ("segment_softmax", "gather_rows")


def _time_call(fn, repeats: int = 5, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn()``, in seconds."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tick)
    return best


def _kernel_cases(ids: np.ndarray, plan: SegmentPlan, rng):
    """fwd+bwd closures per kernel; ``plan=None`` selects the legacy path."""
    dtype = precision.get_compute_dtype()
    scores = Tensor(rng.standard_normal((NUM_EDGES, 1)), requires_grad=True)
    nodes = Tensor(rng.standard_normal((NUM_NODES, DIM)), requires_grad=True)
    piece = Tensor(rng.standard_normal((NUM_EDGES, DIM)), requires_grad=True)
    grad_scores = np.ones((NUM_EDGES, 1), dtype=dtype)
    grad_edges = np.ones((NUM_EDGES, DIM), dtype=dtype)
    grad_nodes = np.ones((NUM_NODES, DIM), dtype=dtype)

    def softmax(plan):
        out = ops.segment_softmax(scores, ids, NUM_NODES, plan=plan)
        out.backward(grad_scores)

    def gather(plan):
        out = ops.gather_rows(nodes, ids, plan=plan)
        out.backward(grad_edges)

    def scatter(plan):
        out = ops.scatter_rows(
            [piece], [ids], NUM_NODES,
            plans=None if plan is None else [plan],
        )
        out.backward(grad_nodes)

    return {
        "segment_softmax": softmax,
        "gather_rows": gather,
        "scatter_rows": scatter,
    }


def test_kernel_speedups(benchmark):
    rng = np.random.default_rng(0)
    ids = rng.integers(0, NUM_NODES, size=NUM_EDGES).astype(np.int64)
    plan = SegmentPlan.build(ids, NUM_NODES)

    results: dict[str, dict] = {}
    for dtype in ("float64", "float32"):
        with precision.compute_dtype(dtype):
            cases = _kernel_cases(ids, plan, rng)
            per_kernel = {}
            for kernel, fn in cases.items():
                with ops.use_legacy_kernels():
                    legacy = _time_call(lambda: fn(None))
                seconds = _time_call(lambda: fn(plan))
                per_kernel[kernel] = {
                    "legacy_seconds": legacy,
                    "seconds": seconds,
                    "speedup": legacy / seconds,
                }
            results[dtype] = per_kernel

    # pytest-benchmark statistics for the float32 softmax steady state.
    with precision.compute_dtype("float32"):
        cases = _kernel_cases(ids, plan, rng)
        benchmark(lambda: cases["segment_softmax"](plan))

    emit_json(
        "kernels", benchmark,
        params={"num_nodes": NUM_NODES, "num_edges": NUM_EDGES, "dim": DIM},
        metrics={
            "min_speedup_required": MIN_SPEEDUP,
            "gated_kernels": list(GATED_KERNELS),
            "kernels": results,
        },
    )
    for dtype, per_kernel in results.items():
        for kernel, record in per_kernel.items():
            print(
                f"{dtype} {kernel}: legacy="
                f"{record['legacy_seconds'] * 1e3:.2f}ms "
                f"plan={record['seconds'] * 1e3:.2f}ms "
                f"({record['speedup']:.2f}x)",
                flush=True,
            )

    for dtype, per_kernel in results.items():
        for kernel in GATED_KERNELS:
            speedup = per_kernel[kernel]["speedup"]
            assert speedup >= MIN_SPEEDUP, (
                f"{kernel} speedup {speedup:.2f}x at {dtype} below "
                f"required {MIN_SPEEDUP}x"
            )
