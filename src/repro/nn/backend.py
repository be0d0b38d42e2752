"""The kernel implementation behind :mod:`repro.nn.ops`.

The ~10 kernel entry points of :mod:`repro.nn.ops` (row gathers, segment
reductions, the fused segment softmax and the activations) all funnel
through one :class:`KernelBackend`.  It works on plain arrays and
removes dispatch overhead without changing the math: contiguous
gathers use :func:`np.take`, the softmax shift/exp/div chain reuses
one scratch buffer, and the relu gradient mask is built only when a
backward asks for it.  Reductions run through the plan's CSR scatter, so every
sum accumulates in the same element order as the reference ``np.add.at``
kernels.

:func:`use_backend` scopes a :class:`KernelBackend` instance (for
example a subclass that counts or times kernel calls) for the current
thread only::

    from repro.nn import backend

    with backend.use_backend(CountingBackend()):
        model(inputs)                   # this thread only

Gradients of an op always run on the instance that computed its forward
(the op captures it at forward time), so a scope that ends between a
forward and its backward cannot split one tape node.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.nn.plan import RelationalLayout, SegmentPlan

#: (out, vjp) pair an activation kernel returns; vjp maps grad -> grad_x.
ActivationResult = "tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]"
#: per block of a relational layout: one array per head, or None
BlockArrays = "Sequence[Sequence[np.ndarray] | None]"


@dataclass
class RelationalTape:
    """What a relational aggregation keeps for its backward."""

    layout: RelationalLayout
    h: np.ndarray  #: (N, F) node features
    active: list  #: indices of the blocks that took part
    weights: list  #: per active block: (F, H*hd) head weights side by side
    heads: int
    edges_src: np.ndarray  #: (E, F) ``h[src]``
    alpha: np.ndarray  #: (E, H) attention, or (E, 1) mean weights
    #: attention only: (E, H*hd) unweighted messages, (E, H) leaky-relu
    #: derivative of the logits, the stacked (B*H, F, hd) head weights,
    #: (B*H, hd, 2) attention vectors and (F, 2*T*H) folded scorer
    messages: "np.ndarray | None" = None
    slope: "np.ndarray | None" = None
    stacked: "np.ndarray | None" = None
    vectors: "np.ndarray | None" = None
    scorer: "np.ndarray | None" = None


class KernelBackend:
    """Plan-based numpy/scipy kernels on plain ``np.ndarray``.

    Tape wrapping stays in :mod:`repro.nn.ops`.  Subclasses may override
    single kernels (to instrument them, say); the rest run as here.
    """

    # -- structural kernels --------------------------------------------
    def gather_rows(self, data: np.ndarray, index: np.ndarray) -> np.ndarray:
        """``out[k] = data[index[k]]`` along axis 0."""
        # Identical bytes either way; each path wins where it is used.
        # Measured summed gather_rows time (2-vCPU Xeon, numpy 2.4):
        # serving's contiguous float32 rows take 760 ms with np.take vs
        # 990 ms with fancy indexing; training's strided column slices
        # take 1210 ms with np.take (it copies them first) vs 380 ms.
        if data.flags.c_contiguous:
            return np.take(data, index, axis=0)
        return data[index]

    def scatter_add(self, values: np.ndarray, plan: SegmentPlan) -> np.ndarray:
        """Sum rows of *values* into ``plan.num_segments`` buckets."""
        return plan.scatter_add(values)

    def segment_max(self, values: np.ndarray, plan: SegmentPlan) -> np.ndarray:
        """Per-segment maximum; empty/non-finite maxima become 0."""
        return plan.segment_max(values)

    def segment_softmax(
        self,
        scores: np.ndarray,
        segment_ids: np.ndarray,
        plan: SegmentPlan,
    ) -> np.ndarray:
        """Shift-stabilised softmax within each segment (the fused forward)."""
        max_per_segment = self.segment_max(scores, plan)
        # One scratch buffer carries shift -> exp -> div.
        scratch = np.take(max_per_segment, segment_ids, axis=0)
        np.subtract(scores, scratch, out=scratch)
        np.exp(scratch, out=scratch)
        denom = self.scatter_add(scratch, plan)
        np.maximum(denom, np.finfo(scores.dtype).tiny, out=denom)
        out = np.take(denom, segment_ids, axis=0)
        np.divide(scratch, out, out=out)
        return out

    def segment_softmax_backward(
        self,
        alpha: np.ndarray,
        grad: np.ndarray,
        segment_ids: np.ndarray,
        plan: SegmentPlan,
    ) -> np.ndarray:
        """Closed-form softmax gradient ``alpha * (grad - segsum(alpha*grad))``."""
        weighted = self.scatter_add(alpha * grad, plan)
        out = np.take(weighted, segment_ids, axis=0)
        np.subtract(grad, out, out=out)
        np.multiply(alpha, out, out=out)
        return out

    # -- fused relational aggregation ----------------------------------
    def relational_aggregate(
        self,
        h: np.ndarray,
        layout: RelationalLayout,
        weights: BlockArrays,
        attn_dst: "BlockArrays | None" = None,
        attn_src: "BlockArrays | None" = None,
        negative_slope: float = 0.2,
        save: bool = False,
    ) -> "tuple[np.ndarray, np.ndarray, RelationalTape | None]":
        """Per-edge-type aggregation of paper Algorithm 1 (lines 5-8).

        Block ``t`` of *layout* transforms its source rows with its own
        head weights ``weights[t]`` (each ``(F, hd)``; ``None`` for a
        block that contributes nothing).  With attention vectors, edge
        ``k`` of block ``t`` gets, per head ``j``, the logit
        ``leaky_relu(h[dst] @ (W a_dst) + h[src] @ (W a_src))``,
        softmax-normalised over its ``(type, dst)`` segment; without them
        every edge weighs ``1 / |segment|`` (a per-type mean).  The
        weighted messages are summed into their destinations, heads side
        by side.

        ``h[src]`` is gathered once and each block runs one matmul into a
        shared ``(E, H*hd)`` buffer.  The attention vectors are folded
        through the weights (``W a``), so every logit of every block is a
        gather from one ``(N, 2*T*H)`` product of ``h``.  Returns
        ``(agg, alpha, tape)``; *tape* (only when *save*) feeds
        :meth:`relational_aggregate_backward`.
        """
        num_edges = layout.num_edges
        active = [
            t for t, (_, lo, hi) in enumerate(layout.blocks)
            if weights[t] is not None and hi > lo
        ]
        first = weights[active[0]] if active else None
        heads = len(first) if first is not None else 1
        cols = sum(w.shape[1] for w in first) if first is not None else h.shape[1]
        dtype = np.result_type(h, *(first or ()))
        edges_src = self.gather_rows(h, layout.src)
        covered = sum(layout.blocks[t][2] - layout.blocks[t][1] for t in active)
        fill = np.empty if covered == num_edges else np.zeros
        messages = fill((num_edges, cols), dtype=dtype)
        block_weights = []
        for t in active:
            _, lo, hi = layout.blocks[t]
            weight = (
                weights[t][0] if heads == 1
                else np.concatenate(weights[t], axis=1)
            )
            np.matmul(edges_src[lo:hi], weight, out=messages[lo:hi])
            block_weights.append(weight)
        stacked = vectors = scorer = slope = None
        if attn_dst is not None and attn_src is not None and active:
            stacked = np.stack([w for t in active for w in weights[t]])
            vectors = np.stack([
                np.concatenate([a_dst, a_src], axis=1)
                for t in active
                for a_dst, a_src in zip(attn_dst[t], attn_src[t])
            ])
            # (B*H, F, 2) folded vectors -> the (F, 2*T*H) scorer whose
            # column (side, block, head) is W a_side of that block's head
            folded = (stacked @ vectors).reshape(len(active), heads, -1, 2)
            table = np.zeros(
                (h.shape[1], 2, len(layout.types), heads), dtype=dtype
            )
            table[:, :, active, :] = folded.transpose(2, 3, 0, 1)
            scorer = table.reshape(h.shape[1], -1)
            scores = (h @ scorer).ravel()
            dst_index, src_index, _ = layout.score_index(heads)
            logits = np.take(scores, dst_index)
            logits += np.take(scores, src_index)
            slope = np.full_like(logits, negative_slope)
            slope[logits > 0] = 1
            logits *= slope
            segments = layout.segments
            alpha = self.segment_softmax(logits, segments.segment_ids, segments)
        else:
            alpha = layout.inverse_sizes(dtype)
        keep = save and scorer is not None
        weighted = np.empty_like(messages) if keep else messages
        width = cols // heads
        np.multiply(
            messages.reshape(num_edges, heads, width),
            alpha[:, :, None],
            out=weighted.reshape(num_edges, heads, width),
        )
        agg = self.scatter_add(weighted, layout.dst_plan)
        if not save:
            return agg, alpha, None
        return agg, alpha, RelationalTape(
            layout=layout, h=h, active=active, weights=block_weights,
            heads=heads, edges_src=edges_src, alpha=alpha,
            messages=messages if keep else None, slope=slope,
            stacked=stacked, vectors=vectors, scorer=scorer,
        )

    def relational_aggregate_backward(
        self, grad: np.ndarray, tape: RelationalTape
    ) -> "tuple[np.ndarray, dict, dict, dict]":
        """Closed-form gradient of :meth:`relational_aggregate`.

        Returns ``(grad_h, grad_weights, grad_attn_dst, grad_attn_src)``;
        the last three map each block that took part to its per-head
        gradients (the attention maps are empty without attention).
        """
        layout, heads, h = tape.layout, tape.heads, tape.h
        num_edges = layout.num_edges
        g_edges = self.gather_rows(np.ascontiguousarray(grad), layout.dst)
        width = g_edges.shape[1] // heads
        g_messages = (
            g_edges.reshape(num_edges, heads, width) * tape.alpha[:, :, None]
        ).reshape(g_edges.shape)
        g_weights: dict = {}
        g_attn_dst: dict = {}
        g_attn_src: dict = {}
        g_folded = None
        if tape.scorer is not None:
            np.multiply(g_edges, tape.messages, out=g_edges)
            g_alpha = g_edges.reshape(num_edges, heads, width).sum(axis=2)
            segments = layout.segments
            g_logits = self.segment_softmax_backward(
                tape.alpha, g_alpha, segments.segment_ids, segments
            )
            g_logits *= tape.slope
            # each logit read one dst-side and one src-side score column
            _, _, put_index = layout.score_index(heads)
            per_edge = np.zeros(
                (num_edges, len(layout.types) * heads), dtype=g_logits.dtype
            )
            per_edge.ravel()[put_index] = g_logits
            g_scores = np.concatenate(
                [
                    self.scatter_add(per_edge, layout.dst_plan),
                    self.scatter_add(per_edge, layout.src_plan),
                ],
                axis=1,
            )
            g_h_scores = g_scores @ tape.scorer.T
            g_scorer = (h.T @ g_scores).reshape(
                h.shape[1], 2, len(layout.types), heads
            )
            g_folded = np.ascontiguousarray(
                g_scorer[:, :, tape.active, :].transpose(2, 3, 0, 1)
            ).reshape(-1, h.shape[1], 2)
            g_vectors = tape.stacked.transpose(0, 2, 1) @ g_folded
            g_folded = g_folded @ tape.vectors.transpose(0, 2, 1)
        g_src = np.zeros(tape.edges_src.shape, dtype=g_messages.dtype)
        for b, (t, weight) in enumerate(zip(tape.active, tape.weights)):
            _, lo, hi = layout.blocks[t]
            g_block = g_messages[lo:hi]
            g_weight = tape.edges_src[lo:hi].T @ g_block
            np.matmul(g_block, weight.T, out=g_src[lo:hi])
            per_head = []
            for j in range(heads):
                g_head = g_weight[:, j * width:(j + 1) * width]
                if g_folded is not None:
                    g_head = g_head + g_folded[b * heads + j]
                    g_attn_dst.setdefault(t, []).append(
                        g_vectors[b * heads + j][:, :1]
                    )
                    g_attn_src.setdefault(t, []).append(
                        g_vectors[b * heads + j][:, 1:]
                    )
                per_head.append(np.ascontiguousarray(g_head))
            g_weights[t] = per_head
        g_h = self.scatter_add(g_src, layout.src_plan)
        if g_folded is not None:
            g_h += g_h_scores
        return g_h, g_weights, g_attn_dst, g_attn_src

    # -- activations -----------------------------------------------------
    def relu(self, data: np.ndarray) -> ActivationResult:
        # Single-pass clamp; the mask only exists if a gradient is
        # actually requested.
        return np.maximum(data, 0.0), lambda grad: grad * (data > 0)

    def leaky_relu(self, data: np.ndarray, negative_slope: float) -> ActivationResult:
        scale = np.where(data > 0, 1.0, negative_slope).astype(data.dtype, copy=False)
        return data * scale, lambda grad: grad * scale

    def sigmoid(self, data: np.ndarray) -> ActivationResult:
        out = 1.0 / (1.0 + np.exp(-data))
        return out, lambda grad: grad * out * (1.0 - out)

    def tanh(self, data: np.ndarray) -> ActivationResult:
        out = np.tanh(data)
        return out, lambda grad: grad * (1.0 - out**2)


_DEFAULT = KernelBackend()
_state = threading.local()


def get_backend() -> KernelBackend:
    """The instance the kernel entry points dispatch to (this thread)."""
    backend = getattr(_state, "backend", None)
    return backend if backend is not None else _DEFAULT


@contextlib.contextmanager
def use_backend(backend: KernelBackend | None) -> Iterator[KernelBackend]:
    """Scope *backend* for this thread (``None`` keeps the current one)."""
    if backend is not None and not isinstance(backend, KernelBackend):
        raise TypeError(
            f"use_backend() takes a KernelBackend instance or None, "
            f"not {type(backend).__name__}"
        )
    previous = getattr(_state, "backend", None)
    if backend is not None:
        _state.backend = backend
    try:
        yield get_backend()
    finally:
        _state.backend = previous
