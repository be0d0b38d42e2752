"""The fused relational layer (``repro.nn.relational_aggregate``).

ParaGraph and RGCN aggregate every edge type and head in one autodiff
node with a closed-form backward.  The per-edge-type × per-head loop it
replaced survives under ``use_legacy_kernels()`` as the oracle these
tests hold it to:

* float64: forward within 1e-12 of the largest output entry, gradients
  within 1e-12 of the layer's largest gradient entry (one bound for the
  whole layer: a single-edge segment's attention gradient is exactly 0
  in one summation order and ~1e-16 in the other, so no per-parameter
  relative bound can hold);
* float32: both within ``FLOAT32_ULPS`` ulp of the largest entry.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.graph.builder import all_edge_type_names
from repro.graph.hetero import merge_graphs
from repro.models import GraphInputs
from repro.models.convs import ParaGraphConv, RGCNConv
from repro.nn import Tensor, ops, precision
from repro.nn.plan import SegmentPlan

#: float32 parity bound, in ulp of the largest output / gradient entry
FLOAT32_ULPS = 16
DIM = 16

#: name -> layer factory over (edge types, rng)
LAYERS = {
    "paragraph": lambda types, rng: ParaGraphConv(DIM, types, rng),
    "no_attention": lambda types, rng: ParaGraphConv(
        DIM, types, rng, use_attention=False
    ),
    "shared_types": lambda types, rng: ParaGraphConv(
        DIM, types, rng, group_edge_types=False
    ),
    "no_concat_skip": lambda types, rng: ParaGraphConv(
        DIM, types, rng, concat_skip=False
    ),
    "two_heads": lambda types, rng: ParaGraphConv(DIM, types, rng, num_heads=2),
    "rgcn": lambda types, rng: RGCNConv(DIM, types, rng),
}


def _inputs(num_nodes, edges):
    """GraphInputs over explicit per-type COO edges (type-major merge)."""
    edges = {
        t: (np.asarray(s, dtype=np.int64), np.asarray(d, dtype=np.int64))
        for t, (s, d) in edges.items()
    }
    order = sorted(edges)
    empty = np.empty(0, dtype=np.int64)
    return GraphInputs(
        num_nodes=num_nodes,
        features={},
        nodes_of_type={},
        edges=edges,
        merged_src=np.concatenate([edges[t][0] for t in order]) if order else empty,
        merged_dst=np.concatenate([edges[t][1] for t in order]) if order else empty,
    )


def _run(layer, inputs, h0, legacy):
    """(output, [grad h, grad of every parameter]) of one forward/backward."""
    for param in layer.parameters():
        param.grad = None
    h = Tensor(h0, requires_grad=True)
    seed = np.cos(np.arange(h0.shape[0] * DIM)).reshape(h0.shape[0], DIM)
    if legacy:
        with ops.use_legacy_kernels():
            out = layer(h, inputs)
            out.backward(seed.astype(out.data.dtype))
    else:
        out = layer(h, inputs)
        out.backward(seed.astype(out.data.dtype))
    return out.data, [h.grad] + [param.grad for param in layer.parameters()]


def _assert_parity(layer, inputs, dtype):
    h0 = np.random.default_rng(1).standard_normal((inputs.num_nodes, DIM))
    h0 = h0.astype(dtype)
    fused_out, fused_grads = _run(layer, inputs, h0, legacy=False)
    legacy_out, legacy_grads = _run(layer, inputs, h0, legacy=True)
    assert fused_out.dtype == legacy_out.dtype == np.dtype(dtype)
    bound = 1e-12 if dtype == "float64" else FLOAT32_ULPS * np.finfo(dtype).eps
    scale = max(np.abs(legacy_out).max(), np.finfo(dtype).tiny)
    assert np.abs(fused_out - legacy_out).max() <= bound * scale
    # a parameter the loop never touched gets no gradient here either
    assert [g is None for g in fused_grads] == [g is None for g in legacy_grads]
    present = [(f, g) for f, g in zip(fused_grads, legacy_grads) if g is not None]
    scale = max([np.abs(g).max() for _, g in present] + [np.finfo(dtype).tiny])
    for fused, legacy in present:
        assert fused.dtype == np.dtype(dtype)
        assert np.abs(fused - legacy).max() <= bound * scale


@pytest.fixture(scope="module")
def batch(tiny_bundle):
    records = tiny_bundle.records("test")[:4]
    return GraphInputs.merge(
        [GraphInputs.from_record(r, tiny_bundle.scaler) for r in records]
    )[0]


class TestLegacyParity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_forward_and_backward(self, batch, name, dtype):
        with precision.compute_dtype(dtype):
            layer = LAYERS[name](all_edge_type_names(), np.random.default_rng(0))
            _assert_parity(layer, batch, dtype)

    def test_attention_matches_loop_formula(self, batch):
        layer = ParaGraphConv(DIM, all_edge_type_names(), np.random.default_rng(0))
        h0 = np.random.default_rng(2).standard_normal((batch.num_nodes, DIM))
        got = layer.attention_weights(Tensor(h0), batch)
        assert set(got) == {t for t, (s, _) in batch.edges.items() if len(s)}
        for edge_type, alpha in got.items():
            src, dst = batch.edges[edge_type]
            wh = h0 @ layer.type_weights[f"{edge_type}#0"].data
            logits = (
                wh[dst] @ layer.attn_dst[f"{edge_type}#0"].data
                + wh[src] @ layer.attn_src[f"{edge_type}#0"].data
            ).ravel()
            logits = np.where(logits > 0, logits, 0.2 * logits)
            expected = np.empty_like(logits)
            for node in np.unique(dst):
                mask = dst == node
                exp = np.exp(logits[mask] - logits[mask].max())
                expected[mask] = exp / exp.sum()
            np.testing.assert_allclose(alpha, expected, rtol=0, atol=1e-12)


class TestDegenerateGraphs:
    TYPES = ["a", "b", "c"]

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_no_edges(self, name):
        layer = LAYERS[name](self.TYPES, np.random.default_rng(0))
        for inputs in (_inputs(5, {}), _inputs(5, {"a": ([], [])})):
            _assert_parity(layer, inputs, "float64")

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_isolated_nodes_and_single_edge_segments(self, name):
        # node 4 has no edges at all; every (type, dst) segment of "b"
        # holds one edge (softmax weight exactly 1)
        inputs = _inputs(
            6,
            {
                "a": ([0, 1, 2, 3], [1, 1, 0, 5]),
                "b": ([1, 2], [3, 0]),
                "c": ([5], [5]),
            },
        )
        layer = LAYERS[name](self.TYPES, np.random.default_rng(0))
        _assert_parity(layer, inputs, "float64")

    def test_single_edge_segments_weigh_one(self):
        inputs = _inputs(4, {"b": ([1, 2, 3], [0, 1, 2])})
        layer = ParaGraphConv(DIM, self.TYPES, np.random.default_rng(0))
        h = Tensor(np.random.default_rng(3).standard_normal((4, DIM)))
        np.testing.assert_array_equal(
            layer.attention_weights(h, inputs)["b"], np.ones(3)
        )

    def test_unknown_edge_type_raises(self):
        inputs = _inputs(3, {"a": ([0], [1]), "zzz": ([1], [2])})
        layer = ParaGraphConv(DIM, self.TYPES, np.random.default_rng(0))
        h = Tensor(np.zeros((3, DIM)))
        with pytest.raises(ModelError, match="zzz"):
            layer(h, inputs)
        with ops.use_legacy_kernels(), pytest.raises(ModelError, match="zzz"):
            layer(h, inputs)

    def test_rgcn_ignores_types_it_has_no_weight_for(self):
        # RGCN aggregates only its own relations, fused and legacy alike
        inputs = _inputs(3, {"a": ([0, 2], [1, 1]), "zzz": ([1], [2])})
        _assert_parity(
            RGCNConv(DIM, self.TYPES, np.random.default_rng(0)), inputs, "float64"
        )


class TestLayout:
    def test_merge_graphs_layout_matches_graph_level_merge(self, tiny_bundle):
        records = tiny_bundle.records("train")
        scaler = tiny_bundle.scaler
        stitched = GraphInputs.merge_graphs(
            [GraphInputs.from_record(r, scaler) for r in records]
        ).inputs.relational_layout()
        built = GraphInputs.from_graph(
            merge_graphs([r.graph for r in records]), scaler
        ).relational_layout()
        assert stitched.types == built.types
        assert stitched.blocks == built.blocks
        for field in ("bounds", "src", "dst"):
            np.testing.assert_array_equal(
                getattr(stitched, field), getattr(built, field)
            )
        for plan_field in ("segments", "src_plan", "dst_plan"):
            mine, theirs = getattr(stitched, plan_field), getattr(built, plan_field)
            assert mine.num_segments == theirs.num_segments
            for array in ("segment_ids", "order", "starts", "present", "counts"):
                np.testing.assert_array_equal(
                    getattr(mine, array), getattr(theirs, array)
                )

    def test_segments_are_type_major_dst(self, batch):
        layout = batch.relational_layout()
        block = np.repeat(np.arange(len(layout.types)), np.diff(layout.bounds))
        expected = SegmentPlan.build(
            block * batch.num_nodes + layout.dst,
            len(layout.types) * batch.num_nodes,
        )
        np.testing.assert_array_equal(layout.segments.order, expected.order)
        np.testing.assert_array_equal(
            layout.segments.segment_ids, expected.segment_ids
        )
        np.testing.assert_array_equal(layout.segments.counts, expected.counts)

    def test_layout_is_cached(self, batch):
        assert batch.relational_layout() is batch.relational_layout()


class TestKernelSeam:
    def test_one_forward_and_one_backward_kernel_call(
        self, batch, counting_backend
    ):
        from repro.nn.backend import use_backend

        layer = ParaGraphConv(DIM, all_edge_type_names(), np.random.default_rng(0))
        backend = counting_backend()
        h = Tensor(
            np.random.default_rng(1).standard_normal((batch.num_nodes, DIM)),
            requires_grad=True,
        )
        with use_backend(backend):
            out = layer(h, batch)
            out.backward(np.ones_like(out.data))
        calls = {kernel: n for (kernel, _), n in backend.counts.items()}
        assert calls["relational_aggregate"] == 1
        assert calls["relational_aggregate_backward"] == 1
