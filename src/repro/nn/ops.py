"""Functional operations on :class:`~repro.nn.tensor.Tensor`.

Beyond standard activations, this module provides the three structural
operations every message-passing layer in the library is built from:

* :func:`gather_rows` — ``h[src]`` for edge-wise source features,
* :func:`segment_sum` — scatter-add of edge messages into destination nodes,
* :func:`segment_softmax` — softmax over the incoming edges of each node
  (the attention normaliser of GAT and ParaGraph).

The scatter-style kernels (forward of the segment ops *and* the
scatter-add backward of :func:`gather_rows`) run through
:class:`~repro.nn.plan.SegmentPlan` — a sorted-CSR reduction schedule
whose scatter-add is bit-identical to the historical unbuffered
``np.add.at`` but an order of magnitude faster.  :func:`segment_softmax`
additionally fuses its shift/exp/sum/div chain into a single autodiff
node when plans are enabled (same math, matching the composite form to
roundoff).  Callers that own graph-shaped index arrays (the convolution
layers) pass cached plans from :class:`repro.models.inputs.GraphInputs`;
ad-hoc calls build a plan on the fly.  :func:`use_legacy_kernels`
switches back to the unbuffered composite kernels for benchmarking and
parity testing.

Every op captures the :class:`~repro.nn.backend.KernelBackend` of the
current thread at forward time and runs both its forward and its
backward through it, so a caller that scopes an instrumented subclass
with :func:`repro.nn.backend.use_backend` sees the kernel calls of
every GCN/GraphSAGE/RGCN/GAT and ParaGraph layer.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.backend import get_backend
from repro.nn.plan import RelationalLayout, SegmentPlan
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled

# ----------------------------------------------------------------------
# Kernel-mode switch (plan-based vs legacy np.add.at)
# ----------------------------------------------------------------------
_kernel_state = threading.local()


def plans_enabled() -> bool:
    """True when the scatter kernels use sorted-CSR plans (this thread)."""
    return getattr(_kernel_state, "plans", True)


@contextlib.contextmanager
def use_legacy_kernels() -> Iterator[None]:
    """Run the scatter kernels through unbuffered ``np.add.at``.

    Exists for before/after benchmarking (``bench_train_step``) and for
    parity tests asserting the plan-based kernels are bit-compatible.
    Thread-local, like :func:`repro.nn.no_grad`.
    """
    previous = plans_enabled()
    _kernel_state.plans = False
    try:
        yield
    finally:
        _kernel_state.plans = previous


def _scatter_add(
    index: np.ndarray,
    values: np.ndarray,
    num_rows: int,
    plan: SegmentPlan | None = None,
    backend=None,
) -> np.ndarray:
    """Sum rows of *values* into *num_rows* buckets selected by *index*."""
    if not plans_enabled():
        out = np.zeros((num_rows, *values.shape[1:]), dtype=values.dtype)
        # staticcheck: ignore[autodiff-bypass] -- the legacy (plans
        # disabled) scatter kernel; forward-only, wrapped by the op tape
        np.add.at(out, index, values)
        return out
    if plan is None:
        plan = SegmentPlan.build(index, num_rows)
    else:
        plan.check(index, num_rows)
    return (backend or get_backend()).scatter_add(values, plan)


def _activation(x: Tensor, kernel) -> Tensor:
    """Wrap a backend activation kernel (out, vjp) into one tape node."""
    x = as_tensor(x)
    out_data, vjp = kernel(x.data)

    def backward(grad: np.ndarray):
        return (vjp(grad),)

    return Tensor._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return _activation(x, get_backend().relu)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU with the GAT-default slope of 0.2."""
    backend = get_backend()
    return _activation(x, lambda data: backend.leaky_relu(data, negative_slope))


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return _activation(x, get_backend().sigmoid)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return _activation(x, get_backend().tanh)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along *axis* (GraphSage-style skip connection)."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat() requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0, *sizes])

    def backward(grad: np.ndarray):
        slicer = [slice(None)] * grad.ndim
        pieces = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return Tensor._make(out_data, tuple(tensors), backward)


def gather_rows(
    x: Tensor, index: np.ndarray, plan: SegmentPlan | None = None
) -> Tensor:
    """Select rows of a 2-D (or 1-D) tensor: ``out[k] = x[index[k]]``.

    *plan* (optional) is a :class:`SegmentPlan` over ``(index,
    x.shape[0])`` used to turn the scatter-add backward into a sorted
    reduction; graph layers pass the cached plans of their
    :class:`~repro.models.inputs.GraphInputs`.
    """
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    backend = get_backend()
    out_data = backend.gather_rows(x.data, index)
    num_rows = x.data.shape[0]

    def backward(grad: np.ndarray):
        return (_scatter_add(index, grad, num_rows, plan, backend),)

    return Tensor._make(out_data, (x,), backward)


def segment_sum(
    x: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """Sum rows of *x* into ``num_segments`` buckets.

    ``out[s] = sum_{k : segment_ids[k] == s} x[k]``.  Rows of *x* are edge
    messages; *segment_ids* are destination-node ids.  *plan* may carry the
    precomputed reduction schedule for ``(segment_ids, num_segments)``.
    """
    x = as_tensor(x)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if len(segment_ids) != x.data.shape[0]:
        raise ShapeError(
            f"segment_ids length {len(segment_ids)} does not match "
            f"leading dimension {x.data.shape[0]}"
        )
    backend = get_backend()
    out_data = _scatter_add(segment_ids, x.data, num_segments, plan, backend)

    def backward(grad: np.ndarray):
        return (backend.gather_rows(grad, segment_ids),)

    return Tensor._make(out_data, (x,), backward)


def segment_mean(
    x: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """Mean of rows per segment; empty segments yield zero rows."""
    x = as_tensor(x)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    dtype = x.data.dtype
    if plan is not None:
        inv_counts = plan.inverse_counts(dtype).ravel()
    else:
        counts = np.bincount(segment_ids, minlength=num_segments).astype(dtype)
        inv_counts = 1.0 / np.maximum(counts, 1.0)
    summed = segment_sum(x, segment_ids, num_segments, plan)
    shape = (num_segments, *([1] * (summed.ndim - 1)))
    return summed * Tensor(inv_counts.reshape(shape))


def _segment_max_data(
    data: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> np.ndarray:
    if plans_enabled():
        if plan is None:
            plan = SegmentPlan.build(segment_ids, num_segments)
        return get_backend().segment_max(data, plan)
    out = np.full((num_segments, *data.shape[1:]), -np.inf, dtype=data.dtype)
    # staticcheck: ignore[autodiff-bypass] -- legacy segment-max kernel
    np.maximum.at(out, segment_ids, data)
    out[~np.isfinite(out)] = 0.0  # empty segments
    return out


def segment_softmax(
    scores: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """Softmax of *scores* within each segment.

    Used for attention: scores are per-edge logits and segments group the
    incoming edges of each destination node.  Numerically stabilised by
    subtracting the (detached) per-segment maximum, which does not change
    either the value or the gradient of softmax.  The denominator guard is
    ``finfo(dtype).tiny`` — a fixed ``1e-300`` would flush to zero under a
    float32 compute policy.

    With plans enabled this is a *fused* kernel: one autodiff node whose
    backward is the closed-form softmax gradient
    ``alpha * (grad - segsum(alpha * grad))``, instead of the historical
    chain of shift/exp/sum/clip/div nodes.  Values and gradients match the
    composite form to roundoff (same math, reassociated).
    """
    scores = as_tensor(scores)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if plan is not None:
        plan.check(segment_ids, num_segments)
    if plans_enabled():
        if plan is None:
            plan = SegmentPlan.build(segment_ids, num_segments)
        fused_plan = plan
        backend = get_backend()
        alpha = backend.segment_softmax(scores.data, segment_ids, fused_plan)

        def backward(grad: np.ndarray):
            return (
                backend.segment_softmax_backward(
                    alpha, grad, segment_ids, fused_plan
                ),
            )

        return Tensor._make(alpha, (scores,), backward)
    # Legacy composite path (the pre-plan-engine computation order).
    max_per_segment = _segment_max_data(
        scores.data, segment_ids, num_segments, plan
    )
    shifted = scores - Tensor(max_per_segment[segment_ids])
    exp_scores = shifted.exp()
    denom = segment_sum(exp_scores, segment_ids, num_segments, plan)
    denom = denom.clip_min(float(np.finfo(scores.data.dtype).tiny))
    return exp_scores / gather_rows(denom, segment_ids, plan)


def relational_aggregate(
    h: Tensor,
    layout: RelationalLayout,
    weights: "Sequence[Sequence[Tensor] | None]",
    attn_dst: "Sequence[Sequence[Tensor] | None] | None" = None,
    attn_src: "Sequence[Sequence[Tensor] | None] | None" = None,
    negative_slope: float = 0.2,
    return_alpha: bool = False,
) -> "Tensor | tuple[Tensor, np.ndarray]":
    """Fused relational aggregation: per-edge-type attention or mean.

    One autodiff node over
    :meth:`~repro.nn.backend.KernelBackend.relational_aggregate`: block
    ``t`` of *layout* uses head weights ``weights[t]`` (and attention
    vectors ``attn_dst[t]``/``attn_src[t]``; without them each type is
    mean-aggregated), ``None`` marking a block that contributes nothing.
    The backward is the kernel's closed form, so neither inference nor
    training records a per-edge-type chain of tape nodes.  A parameter
    shared by several blocks receives the sum of their gradients.  With
    *return_alpha* the ``(E, H)`` edge weights come back as well.
    """
    h = as_tensor(h)
    attention: list = []  # [attn_dst, attn_src] per block, or nothing
    if attn_dst is not None or attn_src is not None:
        if attn_dst is None or attn_src is None:
            raise ShapeError("attention needs both attn_dst and attn_src")
        attention = [attn_dst, attn_src]
    active = [
        t for t, head_weights in enumerate(weights) if head_weights is not None
    ]
    tables: list = [weights, *attention]
    parents: list = [h]
    for t in active:
        for table in tables:
            parents.extend(table[t])
    save = is_grad_enabled() and any(p.requires_grad for p in parents)

    def arrays(per_block):
        return [
            None if tensors is None else [t.data for t in tensors]
            for tensors in per_block
        ]

    backend = get_backend()
    out_data, alpha, tape = backend.relational_aggregate(
        h.data,
        layout,
        arrays(weights),
        *[arrays(per_block) for per_block in attention],
        negative_slope=negative_slope,
        save=save,
    )

    def backward(grad: np.ndarray):
        g_h, *per_table = backend.relational_aggregate_backward(grad, tape)
        grads: list = [g_h]
        for t in active:
            for table, g_table in zip(tables, per_table):
                grads.extend(g_table.get(t, [None] * len(table[t])))
        return tuple(grads)

    out = Tensor._make(out_data, parents, backward)
    return (out, alpha) if return_alpha else out


def scatter_rows(
    pieces: Sequence[Tensor],
    indices: Sequence[np.ndarray],
    num_rows: int,
    plans: Sequence[SegmentPlan | None] | None = None,
) -> Tensor:
    """Assemble a ``(num_rows, F)`` matrix from row blocks at given indices.

    ``out[indices[k][i]] = pieces[k][i]``.  Used to place per-node-type
    embeddings into the global node matrix (Algorithm 1, lines 1-2).  Index
    sets must be disjoint; overlapping rows are summed (and gradients flow
    to every contributor), which is never triggered by the graph builder.
    *plans* may carry one :class:`SegmentPlan` per piece (or ``None``
    entries) for the scatter schedule.
    """
    pieces = [as_tensor(p) for p in pieces]
    if not pieces:
        raise ShapeError("scatter_rows() requires at least one piece")
    if plans is None:
        plans = [None] * len(pieces)
    width = pieces[0].data.shape[1]
    dtype = pieces[0].data.dtype
    index_arrays = [np.asarray(ix, dtype=np.int64) for ix in indices]
    for piece, index in zip(pieces, index_arrays):
        if piece.data.shape[0] != len(index):
            raise ShapeError("scatter_rows piece/index length mismatch")
    backend = get_backend()
    if plans_enabled():
        out_data = np.zeros((num_rows, width), dtype=dtype)
        for piece, index, plan in zip(pieces, index_arrays, plans):
            if plan is not None:
                plan.check(index, num_rows)
            if plan is not None and plan.counts.max(initial=0) <= 1:
                # unique indices: buffered fancy-index add is safe and
                # avoids the (num_rows, F) temporary of the general path
                out_data[index] += piece.data
            else:
                out_data += _scatter_add(
                    index, piece.data, num_rows, plan, backend
                )
    else:
        out_data = np.zeros((num_rows, width), dtype=dtype)
        for piece, index in zip(pieces, index_arrays):
            # staticcheck: ignore[autodiff-bypass] -- legacy scatter path
            np.add.at(out_data, index, piece.data)

    def backward(grad: np.ndarray):
        return tuple(backend.gather_rows(grad, index) for index in index_arrays)

    return Tensor._make(out_data, tuple(pieces), backward)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalise each row to unit L2 norm (GraphSage's final projection)."""
    x = as_tensor(x)
    norms = (x * x).sum(axis=1, keepdims=True).clip_min(eps).sqrt()
    return x / norms


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout.  The paper trains without dropout; provided for ablations."""
    if not training or rate <= 0.0:
        return as_tensor(x)
    x = as_tensor(x)
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return x * Tensor(mask)
