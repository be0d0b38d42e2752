"""Serving compute policy: the kernel-instrumentation seam and precision.

``EngineConfig(backend=instance)`` injects a
:class:`~repro.nn.backend.KernelBackend` subclass for every forward the
engine runs, on whichever thread runs it: the caller's thread for
:meth:`Engine.predict`, the micro-batching executor's workers for
:meth:`Engine.predict_batch`.  Across precisions the float32 fast path
tracks float64 to ~1e-4 relative (inverse target transforms amplify the
1e-7 compute error), for single-model engines and for the shared-trunk
:class:`MultiTaskAdapter`, including graphs with empty node-type
segments.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Engine, EngineConfig, create_engine
from repro.api.adapters import GraphWork, MultiTaskAdapter
from repro.api.types import PredictionRequest
from repro.nn.backend import get_backend
from repro.nn.precision import compute_dtype

#: float32 serving vs float64 serving, after inverse target transforms
CROSS_PRECISION_RTOL = 1e-3


@pytest.fixture(scope="module")
def multitask_predictor(tiny_bundle):
    from repro.models import MultiTaskPredictor, TrainConfig

    return MultiTaskPredictor(
        "paragraph",
        targets=["CAP", "SA"],
        config=TrainConfig(epochs=2, embed_dim=8, num_layers=2, run_seed=0),
    )._fit_quiet(tiny_bundle)


def _engine_values(predictor, circuits, *, dtype):
    """{target: [values per circuit]} from a fresh engine."""
    requests = [PredictionRequest(circuit=c) for c in circuits]
    with create_engine(predictor, dtype=dtype, workers=1) as engine:
        results = engine.predict_batch(requests)
    return [
        {t: r.targets[t].values for t in sorted(r.targets)} for r in results
    ]


@pytest.fixture(scope="module")
def circuits(tiny_bundle):
    return [r.circuit for r in tiny_bundle.records("test")[:3]]


class TestInjectedBackend:
    def test_engine_kernel_calls_reach_injected_instance(
        self, api_cap_predictor, circuits, counting_backend
    ):
        backend = counting_backend()
        config = EngineConfig(workers=2, backend=backend)
        requests = [PredictionRequest(circuit=c) for c in circuits]
        with Engine(api_cap_predictor, config=config) as engine:
            # predict on request-handler threads, predict_batch on the
            # engine's own executor workers
            with ThreadPoolExecutor(2, thread_name_prefix="handler") as pool:
                singles = list(pool.map(engine.predict, requests))
            batched = engine.predict_batch(requests)
        with create_engine(api_cap_predictor, workers=1) as plain_engine:
            plain = plain_engine.predict_batch(requests)

        threads = {thread for _, thread in backend.counts}
        assert any(name.startswith("handler") for name in threads)
        assert any("-worker-" in name for name in threads)
        assert threading.current_thread().name not in threads
        assert get_backend() is not backend
        for results in (singles, batched):
            for got, ref in zip(results, plain):
                np.testing.assert_array_equal(
                    got.targets["CAP"].values, ref.targets["CAP"].values
                )


class TestEnginePredictBatchParity:
    def test_float32_tracks_float64(self, api_cap_predictor, circuits):
        doubles = _engine_values(api_cap_predictor, circuits, dtype="float64")
        singles = _engine_values(api_cap_predictor, circuits, dtype="float32")
        for ref, got in zip(doubles, singles):
            for target in ref:
                np.testing.assert_allclose(
                    got[target], ref[target],
                    rtol=CROSS_PRECISION_RTOL, atol=1e-20,
                    err_msg=f"{target} float32 vs float64",
                )


class TestMultiTaskAdapterParity:
    @pytest.fixture(scope="class")
    def works(self, tiny_bundle):
        return [
            GraphWork.local(record.graph)
            for record in tiny_bundle.records("test")[:3]
        ]

    def _values(self, adapter, works, *, dtype):
        with compute_dtype(dtype):
            per_work = adapter.predict_works(works, adapter.targets)
        return [
            {t: values for t, (_, values) in slot.items()} for slot in per_work
        ]

    def test_float32_tracks_float64(self, multitask_predictor, works):
        adapter = MultiTaskAdapter(multitask_predictor)
        for batch in (works, works[:1]):  # merged and single-graph routes
            doubles = self._values(adapter, batch, dtype="float64")
            singles = self._values(adapter, batch, dtype="float32")
            for ref, got in zip(doubles, singles):
                for target in ref:
                    np.testing.assert_allclose(
                        got[target], ref[target],
                        rtol=CROSS_PRECISION_RTOL, atol=1e-20,
                        err_msg=f"{target} float32 vs float64",
                    )

    def test_empty_node_type_segments_covered(self, tiny_bundle, works):
        # serving graphs routinely lack whole device kinds; the
        # scatter/gather plans then carry empty segments — the parity
        # above must include that shape, not just dense graphs
        from repro.circuits.devices import NODE_TYPES
        from repro.models.inputs import GraphInputs

        record = tiny_bundle.records("test")[0]
        inputs = GraphInputs.from_record(record, tiny_bundle.scaler)
        present = {t for t, nodes in inputs.nodes_of_type.items() if len(nodes)}
        assert present < set(NODE_TYPES)
