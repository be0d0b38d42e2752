"""Graph convolution layers: GCN, GraphSage, RGCN, GAT and ParaGraph.

Each layer implements one row of paper Table III (or Algorithm 1 for
ParaGraph) on the flat node-embedding matrix, using the segment operations
from :mod:`repro.nn.ops`.  All layers share the signature
``forward(h, inputs) -> h_next`` with ``h`` of shape ``(num_nodes, F)``.

Conventions:

* GCN and GAT add self-loops (their aggregation would otherwise zero out
  isolated nodes; this follows the reference implementations).
* GraphSage keeps its concat-skip and row L2-normalisation.
* RGCN has the self-weight ``W_0``; ParaGraph has the GraphSage-style
  concat skip, so neither needs self-loops.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.models.inputs import GraphInputs
from repro.nn import (
    Linear,
    Module,
    Parameter,
    Tensor,
    concat,
    gather_rows,
    l2_normalize_rows,
    leaky_relu,
    no_grad,
    relu,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn import init as nn_init
from repro.nn import ops


class GCNConv(Module):
    """Kipf-Welling graph convolution with symmetric degree normalisation."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.linear = Linear(dim, dim, rng)

    def forward(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        src, dst = inputs.with_self_loops()
        src_plan, dst_plan = inputs.loop_plans()
        inv_sqrt = Tensor(inputs.gcn_inv_sqrt_degree(h.data.dtype))
        scaled = h * inv_sqrt  # 1/sqrt(d_j) on the source side
        messages = gather_rows(scaled, src, plan=src_plan)
        agg = segment_sum(messages, dst, inputs.num_nodes, plan=dst_plan) * inv_sqrt
        return relu(self.linear(agg))


class SageConv(Module):
    """GraphSage with mean aggregator, concat skip and L2 normalisation."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.linear = Linear(2 * dim, dim, rng)
        self.neigh_bias = Parameter(nn_init.zeros((dim,)))

    def forward(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        src_plan, dst_plan = inputs.merged_plans()
        messages = gather_rows(h, inputs.merged_src, plan=src_plan)
        h_neigh = segment_mean(
            messages, inputs.merged_dst, inputs.num_nodes, plan=dst_plan
        )
        combined = concat([h, h_neigh + self.neigh_bias], axis=1)
        out = relu(self.linear(combined))
        return l2_normalize_rows(out)


class RGCNConv(Module):
    """Relational GCN: one weight matrix per edge type plus a self weight."""

    def __init__(self, dim: int, edge_types: list[str], rng: np.random.Generator):
        super().__init__()
        self.edge_types = list(edge_types)
        self.relation_weights = {
            et: Parameter(nn_init.xavier_uniform((dim, dim), rng))
            for et in self.edge_types
        }
        self.self_weight = Parameter(nn_init.xavier_uniform((dim, dim), rng))

    def forward(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        if ops.plans_enabled():
            layout = inputs.relational_layout()
            agg = ops.relational_aggregate(
                h,
                layout,
                [
                    [self.relation_weights[edge_type]]
                    if edge_type in self.relation_weights and hi > lo
                    else None
                    for edge_type, lo, hi in layout.blocks
                ],
            )
        else:
            agg = self._legacy_aggregate(h, inputs)
        self_term = h @ self.self_weight
        if agg is None:
            return relu(self_term)
        return relu(agg + self_term)

    def _legacy_aggregate(self, h: Tensor, inputs: GraphInputs) -> "Tensor | None":
        """The per-type loop on the legacy kernels: the parity oracle of
        the fused layer under :func:`repro.nn.use_legacy_kernels`."""
        agg = None
        for edge_type in self.edge_types:
            if edge_type not in inputs.edges:
                continue
            src, dst = inputs.edges[edge_type]
            if len(src) == 0:
                continue
            src_plan, dst_plan = inputs.edge_plans(edge_type)
            messages = gather_rows(
                h @ self.relation_weights[edge_type], src, plan=src_plan
            )
            summed = segment_sum(messages, dst, inputs.num_nodes, plan=dst_plan)
            inv = Tensor(inputs.edge_inv_counts(edge_type, h.data.dtype))
            contribution = summed * inv
            agg = contribution if agg is None else agg + contribution
        return agg


class GATConv(Module):
    """Graph attention layer (single head, as the paper is memory-bound to)."""

    def __init__(self, dim: int, rng: np.random.Generator, negative_slope: float = 0.2):
        super().__init__()
        self.weight = Parameter(nn_init.xavier_uniform((dim, dim), rng))
        # attention vector a, split into destination and source halves
        self.attn_dst = Parameter(nn_init.xavier_uniform((dim, 1), rng))
        self.attn_src = Parameter(nn_init.xavier_uniform((dim, 1), rng))
        self.negative_slope = negative_slope

    def forward(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        src, dst = inputs.with_self_loops()
        src_plan, dst_plan = inputs.loop_plans()
        wh = h @ self.weight
        score_dst = wh @ self.attn_dst
        score_src = wh @ self.attn_src
        logits = leaky_relu(
            gather_rows(score_dst, dst, plan=dst_plan)
            + gather_rows(score_src, src, plan=src_plan),
            self.negative_slope,
        )
        alpha = segment_softmax(logits, dst, inputs.num_nodes, plan=dst_plan)
        messages = gather_rows(wh, src, plan=src_plan) * alpha
        return relu(segment_sum(messages, dst, inputs.num_nodes, plan=dst_plan))


class ParaGraphConv(Module):
    """One ParaGraph embedding layer (paper Algorithm 1, lines 4-10).

    Combines RGCN's per-edge-type grouping, GAT's per-group self-attention,
    and GraphSage's concat-skip update.  The ablation flags disable one
    ingredient at a time:

    * ``use_attention=False`` — replace attention with a mean aggregator,
    * ``group_edge_types=False`` — share one weight/attention across all
      edge types (homogeneous treatment),
    * ``concat_skip=False`` — drop the previous-layer concatenation.
    """

    def __init__(
        self,
        dim: int,
        edge_types: list[str],
        rng: np.random.Generator,
        use_attention: bool = True,
        group_edge_types: bool = True,
        concat_skip: bool = True,
        negative_slope: float = 0.2,
        num_heads: int = 1,
    ):
        super().__init__()
        if not edge_types:
            raise ModelError("ParaGraphConv needs at least one edge type")
        if num_heads < 1 or dim % num_heads != 0:
            raise ModelError(
                f"num_heads={num_heads} must divide the embedding dim {dim}"
            )
        self.use_attention = use_attention
        self.group_edge_types = group_edge_types
        self.concat_skip = concat_skip
        self.negative_slope = negative_slope
        self.num_heads = num_heads
        head_dim = dim // num_heads
        self.edge_types = list(edge_types) if group_edge_types else ["__shared__"]
        # One (dim x head_dim) weight and attention pair per edge type per
        # head; heads are concatenated back to `dim` after aggregation.
        self.type_weights = {
            f"{et}#{head}": Parameter(nn_init.xavier_uniform((dim, head_dim), rng))
            for et in self.edge_types
            for head in range(num_heads)
        }
        self.attn_dst = {
            f"{et}#{head}": Parameter(nn_init.xavier_uniform((head_dim, 1), rng))
            for et in self.edge_types
            for head in range(num_heads)
        }
        self.attn_src = {
            f"{et}#{head}": Parameter(nn_init.xavier_uniform((head_dim, 1), rng))
            for et in self.edge_types
            for head in range(num_heads)
        }
        in_dim = 2 * dim if concat_skip else dim
        self.update = Linear(in_dim, dim, rng)
        self.agg_bias = Parameter(nn_init.zeros((dim,)))

    def _group_key(self, edge_type: str) -> str:
        return edge_type if self.group_edge_types else "__shared__"

    def _head_keys(self, edge_type: str) -> list[str]:
        group_key = self._group_key(edge_type)
        if f"{group_key}#0" not in self.type_weights:
            raise ModelError(f"no weights for edge type {edge_type!r}")
        return [f"{group_key}#{head}" for head in range(self.num_heads)]

    def _aggregate(
        self, h: Tensor, inputs: GraphInputs, return_alpha: bool = False
    ):
        """Lines 5-8 of Algorithm 1 for every edge type and head at once."""
        layout = inputs.relational_layout()
        keys = [
            self._head_keys(edge_type) if hi > lo else None
            for edge_type, lo, hi in layout.blocks
        ]

        def params(table):
            return [None if k is None else [table[key] for key in k] for k in keys]

        attention = self.use_attention
        return ops.relational_aggregate(
            h,
            layout,
            params(self.type_weights),
            params(self.attn_dst) if attention else None,
            params(self.attn_src) if attention else None,
            self.negative_slope,
            return_alpha=return_alpha,
        )

    def attention_weights(
        self, h: Tensor, inputs: GraphInputs
    ) -> dict[str, np.ndarray]:
        """Per-edge attention coefficients (head 0), for interpretability.

        Returns ``{edge_type: alpha}`` with ``alpha[k]`` the weight the
        destination of edge k assigns to its source within that edge type
        (paper §III: attention weights aid model interpretability).
        """
        if not self.use_attention:
            raise ModelError("attention is disabled on this layer")
        with no_grad():
            _, alpha = self._aggregate(h, inputs, return_alpha=True)
        return {
            edge_type: alpha[lo:hi, 0].copy()
            for edge_type, lo, hi in inputs.relational_layout().blocks
            if hi > lo
        }

    def _legacy_aggregate(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        """The per-type × per-head loop on the legacy kernels: the parity
        oracle of the fused layer under :func:`repro.nn.use_legacy_kernels`."""
        agg = None
        wh_cache: dict[str, Tensor] = {}
        for edge_type in sorted(inputs.edges):
            src, dst = inputs.edges[edge_type]
            if len(src) == 0:
                continue
            src_plan, dst_plan = inputs.edge_plans(edge_type)
            heads = []
            for key in self._head_keys(edge_type):
                if key not in wh_cache:
                    wh_cache[key] = h @ self.type_weights[key]
                wh = wh_cache[key]
                messages = gather_rows(wh, src, plan=src_plan)
                if self.use_attention:
                    logits = leaky_relu(
                        gather_rows(wh @ self.attn_dst[key], dst, plan=dst_plan)
                        + gather_rows(wh @ self.attn_src[key], src, plan=src_plan),
                        self.negative_slope,
                    )
                    alpha = segment_softmax(
                        logits, dst, inputs.num_nodes, plan=dst_plan
                    )
                    heads.append(segment_sum(
                        messages * alpha, dst, inputs.num_nodes, plan=dst_plan
                    ))
                else:
                    heads.append(segment_mean(
                        messages, dst, inputs.num_nodes, plan=dst_plan
                    ))
            group = heads[0] if len(heads) == 1 else concat(heads, axis=1)
            agg = group if agg is None else agg + group
        if agg is None:
            agg = h * Tensor(0.0)  # no edges at all: zero neighbourhood
        return agg

    def forward(self, h: Tensor, inputs: GraphInputs) -> Tensor:
        if ops.plans_enabled():
            agg = self._aggregate(h, inputs)
        else:
            agg = self._legacy_aggregate(h, inputs)
        if self.concat_skip:
            combined = concat([h, agg + self.agg_bias], axis=1)
        else:
            combined = agg + self.agg_bias
        return relu(self.update(combined))


def make_conv(
    name: str,
    dim: int,
    edge_types: list[str],
    rng: np.random.Generator,
    **kwargs,
) -> Module:
    """Construct a convolution layer by model name.

    Raises
    ------
    ModelError
        For unknown names; the message lists the registry.
    """
    registry = {
        "gcn": lambda: GCNConv(dim, rng),
        "sage": lambda: SageConv(dim, rng),
        "rgcn": lambda: RGCNConv(dim, edge_types, rng),
        "gat": lambda: GATConv(dim, rng),
        "paragraph": lambda: ParaGraphConv(dim, edge_types, rng, **kwargs),
    }
    try:
        return registry[name]()
    except KeyError:
        raise ModelError(
            f"unknown conv {name!r}; choose from {sorted(registry)}"
        ) from None


#: Names accepted by :func:`make_conv`, in paper Figure 6 order.
GNN_MODEL_NAMES = ("gcn", "sage", "rgcn", "gat", "paragraph")
