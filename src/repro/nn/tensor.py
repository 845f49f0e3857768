"""A small reverse-mode automatic-differentiation engine on top of numpy.

This module is the substrate that replaces PyTorch in this reproduction
(the execution environment is numpy-only).  It implements a tape-based
:class:`Tensor` supporting broadcasting arithmetic, matrix products,
reductions, indexing, concatenation, and the nonlinearities required by the
AdapTraj models.  Gradients are validated against numeric differentiation in
``tests/nn/test_autograd.py``.

Design notes
------------
* Arrays are ``float64`` by default so numeric grad checks stay exact;
  :func:`set_default_dtype` switches the whole stack to ``float32`` for
  throughput (parameters, activations, gradients and optimizer state all
  follow the dtype of the data they attach to).
* A graph node stores its parents and a closure that accumulates gradients
  into them; ``backward`` runs a topological sort from the output node.
  Gradient buffers are owned, writable arrays accumulated **in place**
  (``+=``), and non-leaf buffers are released as soon as their backward
  closure has consumed them, so graph memory stays bounded per step.
* ``no_grad`` switches graph recording off for the current thread (used for
  inference, Langevin sampling in LBEBM, and optimizer updates).  The flag
  is thread-local so serving worker threads can run inference while a
  training thread keeps recording.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager

import numpy as np

from repro.nn._tracer import _STATE as _TRACE_STATE
from repro.nn._tracer import IndexSlot as _IndexSlot
from repro.nn._tracer import trace as _trace

__all__ = [
    "Tensor",
    "as_tensor",
    "cat",
    "default_dtype",
    "enable_grad",
    "get_default_dtype",
    "grad_reverse",
    "is_grad_enabled",
    "no_grad",
    "select_rows",
    "set_default_dtype",
    "stack",
    "where",
]

class _GradState(threading.local):
    """Per-thread graph-recording flag.

    Thread-local (not a module global) so concurrent inference threads — the
    async serving front-end runs model forwards on a worker pool — can enter
    and leave :func:`no_grad` without racing each other's save/restore, and
    without ever switching graph recording off under a training thread.
    New threads start with recording enabled.
    """

    enabled = True


_GRAD_STATE = _GradState()
_DEFAULT_DTYPE = np.dtype(np.float64)
_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def get_default_dtype() -> np.dtype:
    """Return the dtype new tensors are created with."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Set the dtype for newly-created tensors (``float32`` or ``float64``).

    Gradients and optimizer state follow each array's own dtype, so the
    policy only has to be set once, before the model is built.  ``float64``
    (the default) keeps numeric grad checks exact; ``float32`` roughly
    doubles training throughput.
    """
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in _ALLOWED_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    _DEFAULT_DTYPE = dtype


@contextmanager
def default_dtype(dtype):
    """Temporarily switch the default tensor dtype."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def is_grad_enabled() -> bool:
    """Return whether operations record the autograd graph *in this thread*."""
    return _GRAD_STATE.enabled


@contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``).

    The flag is per-thread: disabling recording on a serving worker thread
    never affects a training loop running concurrently on another thread.
    """
    previous = _GRAD_STATE.enabled
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


@contextmanager
def enable_grad():
    """Force graph recording on, even inside ``no_grad`` (Langevin sampling)."""
    previous = _GRAD_STATE.enabled
    _GRAD_STATE.enabled = True
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcasted forward op."""
    if grad.shape == shape:
        return grad
    # Sum out the leading dimensions numpy added during broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _index_has_no_duplicates(index) -> bool:
    """True when ``index`` cannot address the same input element twice.

    Basic indexing (ints, slices, Ellipsis, newaxis) and a single boolean
    mask select each element at most once, so the gradient can be added
    directly into the parent buffer; integer fancy indexing may repeat
    elements and needs ``np.add.at``.
    """
    parts = index if isinstance(index, tuple) else (index,)
    for part in parts:
        if isinstance(part, (int, np.integer, slice)) or part is None or part is Ellipsis:
            continue
        if isinstance(part, np.ndarray) and part.dtype == bool and len(parts) == 1:
            continue
        return False
    return True


def _trace_getitem(out: np.ndarray, source: np.ndarray, index) -> None:
    """Record a ``__getitem__``; array-valued index parts become operands."""
    if _TRACE_STATE.tape is None:
        return
    parts = index if isinstance(index, tuple) else (index,)
    if any(isinstance(part, np.ndarray) for part in parts):
        operands = [source]
        template = []
        for part in parts:
            if isinstance(part, np.ndarray):
                template.append(_IndexSlot(len(operands)))
                operands.append(part)
            else:
                template.append(part)
        _trace("getitem", out, tuple(operands), index=tuple(template))
    else:
        _trace("getitem", out, (source,), index=parts)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple[Tensor, ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
        dtype: np.dtype | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        if self.data is not data and isinstance(data, np.ndarray):
            # A dtype cast on wrap breaks buffer identity for the tracer;
            # record it so casted inputs still bind instead of freezing.
            _trace("astype", self.data, (data,), dtype=self.data.dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_STATE.enabled
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple[Tensor, ...],
        backward: Callable[[np.ndarray], None],
    ) -> Tensor:
        requires = _GRAD_STATE.enabled and any(p.requires_grad for p in parents)
        # Op outputs keep the dtype numpy computed (which follows the
        # operands), rather than being recast to the global default — so a
        # float32 model stays float32 end to end.
        data = np.asarray(data)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Owned, writable buffer; later contributions add in place.
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def _grad_buffer(self) -> np.ndarray:
        """Return an owned gradient buffer, creating a zeroed one if needed.

        Used by ops whose backward can scatter directly into the parent's
        buffer (slicing, gathers) instead of allocating a full-size
        intermediate per call.
        """
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def detach(self) -> Tensor:
        """Return a view of the data cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this node.

        ``grad`` defaults to 1 and is only optional for scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    f"backward() without an explicit gradient requires a scalar output, "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Non-leaf buffers (every node with a backward closure) are
                # dead once consumed; release them so graph memory stays
                # bounded per training step.  Leaves keep accumulating.
                node.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> Tensor:
        other = as_tensor(other)
        data = self.data + other.data
        _trace("add", data, (self.data, other.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> Tensor:
        data = -self.data
        _trace("neg", data, (self.data,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other) -> Tensor:
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> Tensor:
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> Tensor:
        other = as_tensor(other)
        data = self.data * other.data
        _trace("mul", data, (self.data, other.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Tensor:
        other = as_tensor(other)
        data = self.data / other.data
        _trace("div", data, (self.data, other.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> Tensor:
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> Tensor:
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data**exponent
        _trace("pow", data, (self.data,), exponent=exponent)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> Tensor:
        other = as_tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError(
                f"matmul requires >=2-D operands, got {self.ndim}-D and {other.ndim}-D"
            )
        data = self.data @ other.data
        _trace("matmul", data, (self.data, other.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                grad_a = grad @ other.data.swapaxes(-1, -2)
                self._accumulate(_unbroadcast(grad_a, self.shape))
            if other.requires_grad:
                if other.ndim == 2 and self.ndim > 2:
                    # Window-level projection [..., k] @ [k, n]: collapse the
                    # leading axes into one GEMM instead of a batched matmul
                    # followed by a full-size reduction in _unbroadcast.
                    k, n = other.shape
                    grad_b = self.data.reshape(-1, k).T @ grad.reshape(-1, n)
                    other._accumulate(grad_b)
                else:
                    grad_b = self.data.swapaxes(-1, -2) @ grad
                    other._accumulate(_unbroadcast(grad_b, other.shape))

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> Tensor:
        data = np.exp(self.data)
        _trace("exp", data, (self.data,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> Tensor:
        data = np.log(self.data)
        _trace("log", data, (self.data,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> Tensor:
        data = np.sqrt(self.data)
        _trace("sqrt", data, (self.data,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / data)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> Tensor:
        data = np.abs(self.data)
        _trace("abs", data, (self.data,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> Tensor:
        data = np.tanh(self.data)
        _trace("tanh", data, (self.data,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data**2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> Tensor:
        data = 1.0 / (1.0 + np.exp(-self.data))
        _trace("sigmoid", data, (self.data,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> Tensor:
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)
        _trace("relu", data, (self.data,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> Tensor:
        mask = self.data > 0
        data = np.where(mask, self.data, negative_slope * self.data)
        _trace("leaky_relu", data, (self.data,), slope=negative_slope)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, negative_slope))

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> Tensor:
        """Clamp values; gradient is passed through only inside the range."""
        mask = (self.data >= low) & (self.data <= high)
        data = np.clip(self.data, low, high)
        _trace("clip", data, (self.data,), low=low, high=high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
        data = self.data.sum(axis=axis, keepdims=keepdims)
        _trace("sum", data, (self.data,), axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                g = np.expand_dims(g, axis=tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int, keepdims: bool = False) -> Tensor:
        data = self.data.max(axis=axis, keepdims=keepdims)
        _trace("max", data, (self.data,), axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = data if keepdims else np.expand_dims(data, axis=axis)
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            mask = self.data == expanded
            # Split gradient evenly among ties for a well-defined subgradient.
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(np.where(mask, g / counts, 0.0))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> Tensor:
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape
        _trace("reshape", data, (self.data,), shape=data.shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, axis1: int = -2, axis2: int = -1) -> Tensor:
        data = self.data.swapaxes(axis1, axis2)
        _trace("transpose", data, (self.data,), axis1=axis1, axis2=axis2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.swapaxes(axis1, axis2))

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index) -> Tensor:
        data = self.data[index]
        _trace_getitem(data, self.data, index)
        direct = _index_has_no_duplicates(index)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            buffer = self._grad_buffer()
            if direct:
                # Basic (slice/int) and boolean indices address each input
                # element at most once, so an in-place add into the owned
                # buffer replaces the full-size np.add.at scatter.
                buffer[index] += grad
            else:
                np.add.at(buffer, index, grad)

        return Tensor._make(data, (self,), backward)

    def cumsum(self, axis: int) -> Tensor:
        """Cumulative sum along ``axis`` (differentiable).

        Replaces Python-level running-sum loops (e.g. turning per-step
        displacements into positions) with one vectorized op; the gradient
        is the reversed cumulative sum of the incoming gradient.
        """
        data = np.cumsum(self.data, axis=axis)
        _trace("cumsum", data, (self.data,), axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                flipped = np.flip(grad, axis=axis)
                self._accumulate(np.flip(np.cumsum(flipped, axis=axis), axis=axis))

        return Tensor._make(data, (self,), backward)

    def squeeze(self, axis: int) -> Tensor:
        data = self.data.squeeze(axis=axis)
        _trace("squeeze", data, (self.data,), axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.expand_dims(grad, axis=axis))

        return Tensor._make(data, (self,), backward)

    def unsqueeze(self, axis: int) -> Tensor:
        data = np.expand_dims(self.data, axis=axis)
        _trace("unsqueeze", data, (self.data,), axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.squeeze(axis=axis))

        return Tensor._make(data, (self,), backward)

    def broadcast_to(self, shape: tuple[int, ...]) -> Tensor:
        data = np.array(np.broadcast_to(self.data, shape))
        original = self.shape
        _trace("broadcast_to", data, (self.data,), shape=tuple(shape))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, original))

        return Tensor._make(data, (self,), backward)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` (Tensor, ndarray, scalar, nested list) to a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def cat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("cat() needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    _trace("cat", data, tuple(t.data for t in tensors), axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0, *sizes])

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                piece = np.moveaxis(moved[start:stop], 0, axis)
                tensor._accumulate(piece)

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("stack() needs at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)
    _trace("stack", data, tuple(t.data for t in tensors), axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for i, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(moved[i])

    return Tensor._make(data, tuple(tensors), backward)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Differentiable selection; ``condition`` is a plain boolean array."""
    condition = np.asarray(condition, dtype=bool)
    a = as_tensor(a)
    b = as_tensor(b)
    data = np.where(condition, a.data, b.data)
    _trace("where", data, (condition, a.data, b.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.where(condition, grad, 0.0), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.where(condition, 0.0, grad), b.shape))

    return Tensor._make(data, (a, b), backward)


def select_rows(tensor: Tensor, indices: np.ndarray) -> Tensor:
    """Per-column gather along the first axis: ``out[b] = tensor[indices[b], b]``.

    Used to pick each sample's own-domain expert output from a stacked
    ``[num_experts, batch, ...]`` tensor.  Because every ``(indices[b], b)``
    pair is unique, the backward pass writes the gradient straight into the
    parent's buffer instead of going through ``np.add.at``.
    """
    indices = np.asarray(indices)
    if indices.ndim != 1 or tensor.ndim < 2 or indices.shape[0] != tensor.shape[1]:
        raise ValueError(
            f"select_rows expects 1-D indices matching the batch axis "
            f"(axis 1); got indices {indices.shape} for tensor {tensor.shape}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= tensor.shape[0]):
        raise ValueError("select_rows index out of range of the first axis")
    columns = np.arange(indices.shape[0])
    data = tensor.data[indices, columns]
    _trace("select_rows", data, (tensor.data, indices))

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor._grad_buffer()[indices, columns] += grad

    return Tensor._make(data, (tensor,), backward)


def grad_reverse(tensor: Tensor, scale: float = 1.0) -> Tensor:
    """Gradient-reversal layer (Ganin & Lempitsky).

    Identity on the forward pass; multiplies the gradient by ``-scale`` on the
    backward pass.  Used by the domain-adversarial similarity loss so the
    invariant extractor learns domain-*indistinguishable* features while the
    domain classifier itself still learns to classify.
    """
    data = np.array(tensor.data, copy=True)
    _trace("copy", data, (tensor.data,))

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor._accumulate(-scale * grad)

    return Tensor._make(data, (tensor,), backward)
