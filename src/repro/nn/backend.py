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
from typing import Callable, Iterator

import numpy as np

from repro.nn.plan import SegmentPlan

#: (out, vjp) pair an activation kernel returns; vjp maps grad -> grad_x.
ActivationResult = "tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]"


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
