"""The kernel implementation and its instrumentation seam.

:class:`~repro.nn.backend.KernelBackend` is the one implementation behind
every :mod:`repro.nn.ops` kernel.  A subclass instance scoped with
``use_backend`` (thread-local) receives every kernel call of the
current thread — forward and backward — which is how per-kernel
instrumentation attaches.  Edge cases (empty segments, a single node,
empty inputs) and the float32 policy are pinned here; bitwise parity
with the legacy ``np.add.at`` kernels lives in ``tests/nn/test_plan.py``.
"""

import threading

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, ops, use_backend
from repro.nn.backend import KernelBackend, get_backend
from repro.nn.plan import SegmentPlan
from repro.nn.precision import compute_dtype

NUM_ITEMS, NUM_SEGMENTS, DIM = 40, 11, 5

def _workload(dtype, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, NUM_SEGMENTS, size=NUM_ITEMS).astype(np.int64)
    plan = SegmentPlan.build(ids, NUM_SEGMENTS)
    values = rng.standard_normal((NUM_ITEMS, DIM)).astype(dtype)
    scores = rng.standard_normal((NUM_ITEMS, 1)).astype(dtype)
    nodes = rng.standard_normal((NUM_SEGMENTS, DIM)).astype(dtype)
    return ids, plan, values, scores, nodes


def _kernel_cases(dtype):
    """{name: (input array, op)} covering every ops kernel entry point."""
    ids, plan, values, scores, nodes = _workload(dtype)
    return {
        "segment_sum": (
            values, lambda x: ops.segment_sum(x, ids, NUM_SEGMENTS, plan=plan)
        ),
        "segment_mean": (
            values, lambda x: ops.segment_mean(x, ids, NUM_SEGMENTS, plan=plan)
        ),
        "segment_softmax": (
            scores, lambda x: ops.segment_softmax(x, ids, NUM_SEGMENTS, plan=plan)
        ),
        "gather_rows": (nodes, lambda x: ops.gather_rows(x, ids, plan=plan)),
        "scatter_rows": (
            values, lambda x: ops.scatter_rows([x], [ids], NUM_SEGMENTS, plans=[plan])
        ),
        "relu": (values, ops.relu),
        "leaky_relu": (values, ops.leaky_relu),
        "sigmoid": (values, ops.sigmoid),
        "tanh": (values, ops.tanh),
        "l2_normalize_rows": (values, ops.l2_normalize_rows),
    }


class TestFloat32Parity:
    def test_outputs_are_float32(self):
        with compute_dtype("float32"):
            for name, (data, op) in _kernel_cases("float32").items():
                x = Tensor(data, requires_grad=True)
                out = op(x)
                out.backward(np.ones_like(out.data))
                assert out.data.dtype == np.float32, name
                assert x.grad.dtype == np.float32, name


#: the instances the edge cases run on: the process default, and a fresh
#: scoped instance (the fused kernels reached through ``use_backend``)
EDGE_BACKENDS = {"default": lambda: None, "fused": KernelBackend}


def _scoped(name):
    """Scope the edge-case instance *name* for this thread."""
    return use_backend(EDGE_BACKENDS[name]())


class TestEdgeCases:
    @pytest.mark.parametrize("name", list(EDGE_BACKENDS))
    def test_empty_segments_match_default(self, name):
        # half the segments receive no items: softmax denominators guard,
        # means divide by max(count, 1), sums stay zero
        ids = np.array([0, 0, 2, 2, 2], dtype=np.int64)
        plan = SegmentPlan.build(ids, 6)
        values = np.linspace(-1.0, 1.0, 5 * DIM).reshape(5, DIM)
        scores = values[:, :1]
        ref_sum = ops.segment_sum(Tensor(values), ids, 6, plan=plan).data
        ref_soft = ops.segment_softmax(Tensor(scores), ids, 6, plan=plan).data
        with ops.use_legacy_kernels():
            legacy = ops.segment_sum(Tensor(values), ids, 6).data
        np.testing.assert_array_equal(ref_sum, legacy)
        np.testing.assert_array_equal(ref_sum[[1, 3, 4, 5]], 0.0)
        expected = np.empty_like(scores)
        for segment in (0, 2):
            rows = ids == segment
            exp = np.exp(scores[rows] - scores[rows].max())
            expected[rows] = exp / exp.sum()
        np.testing.assert_allclose(ref_soft, expected, rtol=1e-15)

        with _scoped(name):
            np.testing.assert_array_equal(
                ops.segment_sum(Tensor(values), ids, 6, plan=plan).data,
                ref_sum,
            )
            np.testing.assert_array_equal(
                ops.segment_softmax(Tensor(scores), ids, 6, plan=plan).data,
                ref_soft,
            )
            mean = ops.segment_mean(Tensor(values), ids, 6, plan=plan).data
            np.testing.assert_array_equal(mean[[1, 3, 4, 5]], 0.0)

    @pytest.mark.parametrize("name", list(EDGE_BACKENDS))
    def test_single_node_graph(self, name):
        ids = np.zeros(1, dtype=np.int64)
        plan = SegmentPlan.build(ids, 1)
        values = np.array([[2.0, -3.0]])
        with _scoped(name):
            out = ops.segment_softmax(Tensor(values), ids, 1, plan=plan)
            np.testing.assert_array_equal(out.data, np.ones_like(values))
            gathered = ops.gather_rows(Tensor(values), ids, plan=plan)
            np.testing.assert_array_equal(gathered.data, values)

    @pytest.mark.parametrize("name", list(EDGE_BACKENDS))
    def test_empty_items(self, name):
        ids = np.empty(0, dtype=np.int64)
        plan = SegmentPlan.build(ids, 4)
        values = np.empty((0, DIM))
        with _scoped(name):
            out = ops.segment_sum(Tensor(values), ids, 4, plan=plan)
            np.testing.assert_array_equal(out.data, np.zeros((4, DIM)))


class TestSelection:
    def test_default_is_default(self):
        assert type(get_backend()) is KernelBackend
        assert get_backend() is get_backend()

    def test_use_backend_restores(self):
        outer, inner = KernelBackend(), KernelBackend()
        default = get_backend()
        with use_backend(outer):
            assert get_backend() is outer
            with use_backend(inner):
                assert get_backend() is inner
            assert get_backend() is outer
        assert get_backend() is default

    def test_use_backend_is_thread_local(self):
        seen = {}

        def probe():
            seen["worker"] = get_backend()

        scoped = KernelBackend()
        with use_backend(scoped):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["worker"] is not scoped
        assert type(seen["worker"]) is KernelBackend

    def test_resolve_instance_passthrough(self):
        # the injected instance itself answers; nothing copies it
        backend = KernelBackend()
        with use_backend(backend) as active:
            assert active is backend

    def test_resolve_none_is_thread_policy(self):
        # None means "no change": the thread keeps its current instance
        scoped = KernelBackend()
        with use_backend(scoped):
            with use_backend(None) as active:
                assert active is scoped
            assert get_backend() is scoped

    def test_unknown_backend_rejected(self):
        # kernels are chosen by injecting an instance, never by name
        with pytest.raises(TypeError, match="KernelBackend instance"):
            with use_backend("fused"):
                pass

    def test_nn_exports(self):
        assert nn.get_backend is get_backend
        assert nn.use_backend is use_backend
        assert nn.KernelBackend is KernelBackend


class TestInstrumentationSeam:
    #: op -> (kernel its forward calls, kernel its backward calls)
    ROUTES = {
        "segment_sum": ("scatter_add", "gather_rows"),
        "segment_mean": ("scatter_add", "gather_rows"),
        "segment_softmax": ("segment_softmax", "segment_softmax_backward"),
        "gather_rows": ("gather_rows", "scatter_add"),
        "scatter_rows": ("scatter_add", "gather_rows"),
        "relu": ("relu", None),
        "leaky_relu": ("leaky_relu", None),
        "sigmoid": ("sigmoid", None),
        "tanh": ("tanh", None),
    }

    def test_scoped_subclass_sees_every_kernel_call(self, counting_backend):
        here = threading.current_thread().name
        for name, (data, op) in _kernel_cases("float64").items():
            if name not in self.ROUTES:
                continue
            forward, backward = self.ROUTES[name]
            backend = counting_backend()
            with use_backend(backend):
                x = Tensor(data, requires_grad=True)
                out = op(x)
                assert backend.counts[forward, here] > 0, name
                out.backward(np.ones_like(out.data))
            if backward is not None:
                assert backend.counts[backward, here] > 0, name

    def test_train_step_kernel_calls_reach_scoped_subclass(
        self, tiny_bundle, counting_backend
    ):
        # the repo benchmark's traced training run relies on this seam:
        # a subclass scoped around repro.flows.train sees the forward and
        # the backward kernels, and instrumenting changes no number
        from repro.flows import TrainPlan, train
        from repro.models import TrainConfig

        plan = TrainPlan(
            targets=("CAP",),
            config=TrainConfig(epochs=1, embed_dim=8, num_layers=2, run_seed=0),
        )
        plain = train(tiny_bundle, plan)
        backend = counting_backend()
        with use_backend(backend):
            traced = train(tiny_bundle, plan)

        here = threading.current_thread().name
        for kernel in ("gather_rows", "scatter_add", "segment_softmax",
                       "segment_softmax_backward"):
            assert backend.counts[kernel, here] > 0, kernel
        assert traced.histories["CAP"].losses == plain.histories["CAP"].losses
        assert get_backend() is not backend
