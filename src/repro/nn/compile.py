"""Graph capture → planned execution for the inference fast path.

:func:`capture` runs one ``inference_mode`` forward with a tape active
(:mod:`repro.nn._tracer`), then :class:`Plan` turns the recorded op graph
into a flat schedule of kernel calls executed straight through a reusable
buffer arena:

* **Dead-code elimination** — only ops the output transitively depends on
  are scheduled.  RNG draws are kept even when dead, so the plan consumes
  the caller's random stream exactly like the eager forward (the serving
  replay invariant depends on this).
* **Constant folding** — ops whose operands are all constants (weight
  layout transforms, zero contexts, casts) are evaluated once at plan build
  and their results cached.
* **Buffer arena** — every scheduled op owns one preallocated output buffer
  reused across calls (``out=``-style numpy kernels), so a replay performs
  no per-op allocation for the dominant elementwise/matmul/reduction work.
* **Recorded order is the schedule** — the tape order of a successful
  forward is already a valid topological order, and replaying RNG draws in
  recorded program order is what keeps the stream bit-identical.

``Plan.run`` is locked (buffers are shared state) and returns a fresh copy
of the output, never a view into the arena.

The kernels here mirror the eager ops in :mod:`repro.nn.tensor` expression
by expression, so a planned replay is bit-identical to the eager forward
wherever no fused kernel reorders a reduction (the fused LSTM/Langevin/
rollout kernels are themselves written to preserve the eager arithmetic —
see their golden tests).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Mapping

import numpy as np

from repro.nn._tracer import (
    KERNEL_BUILDERS,
    UNBUFFERED_KERNELS,
    CompileError,
    IndexSlot,
    RecordingGenerator,
    Tape,
    TapeNode,
    _STATE,
    register_kernel,
)

__all__ = ["CompileError", "Plan", "capture"]


# ----------------------------------------------------------------------
# Builtin kernels (mirror repro.nn.tensor op sites, expression for
# expression — bit-identity with the eager path is load-bearing)
# ----------------------------------------------------------------------
def _ufunc_kernel(name: str, ufunc) -> None:
    @register_kernel(name)
    def build(params, out, _ufunc=ufunc):
        if out is None:
            return _ufunc
        return lambda *arrays: _ufunc(*arrays, out=out)


for _name, _ufunc in [
    ("add", np.add),
    ("mul", np.multiply),
    ("div", np.divide),
    ("neg", np.negative),
    ("matmul", np.matmul),
    ("exp", np.exp),
    ("log", np.log),
    ("sqrt", np.sqrt),
    ("abs", np.abs),
    ("tanh", np.tanh),
]:
    _ufunc_kernel(_name, _ufunc)


@register_kernel("pow")
def _build_pow(params, out):
    exponent = params["exponent"]
    if out is None:
        return lambda a: np.power(a, exponent)
    return lambda a: np.power(a, exponent, out=out)


@register_kernel("sigmoid")
def _build_sigmoid(params, out):
    # Same arithmetic as Tensor.sigmoid: 1 / (1 + exp(-x)).
    def fn(a):
        buf = np.negative(a) if out is None else np.negative(a, out=out)
        np.exp(buf, out=buf)
        buf += 1.0
        np.reciprocal(buf, out=buf)
        return buf

    return fn


@register_kernel("relu")
def _build_relu(params, out):
    if out is None:
        return lambda a: np.maximum(a, 0.0)
    return lambda a: np.maximum(a, 0.0, out=out)


@register_kernel("leaky_relu")
def _build_leaky_relu(params, out):
    slope = params["slope"]

    def fn(a):
        buf = np.multiply(a, slope) if out is None else np.multiply(a, slope, out=out)
        np.copyto(buf, a, where=a > 0)
        return buf

    return fn


@register_kernel("clip")
def _build_clip(params, out):
    low, high = params["low"], params["high"]
    if out is None:
        return lambda a: np.clip(a, low, high)
    return lambda a: np.clip(a, low, high, out=out)


@register_kernel("sum")
def _build_sum(params, out):
    axis, keepdims = params["axis"], params["keepdims"]
    if out is None:
        return lambda a: np.sum(a, axis=axis, keepdims=keepdims)
    return lambda a: np.sum(a, axis=axis, keepdims=keepdims, out=out)


@register_kernel("max")
def _build_max(params, out):
    axis, keepdims = params["axis"], params["keepdims"]
    if out is None:
        return lambda a: np.max(a, axis=axis, keepdims=keepdims)
    return lambda a: np.max(a, axis=axis, keepdims=keepdims, out=out)


@register_kernel("any")
def _build_any(params, out):
    axis, keepdims = params["axis"], params["keepdims"]
    if out is None:
        return lambda a: np.any(a, axis=axis, keepdims=keepdims)
    return lambda a: np.any(a, axis=axis, keepdims=keepdims, out=out)


@register_kernel("maximum_scalar")
def _build_maximum_scalar(params, out):
    value = params["value"]
    if out is None:
        return lambda a: np.maximum(a, value)
    return lambda a: np.maximum(a, value, out=out)


@register_kernel("cumsum")
def _build_cumsum(params, out):
    axis = params["axis"]
    if out is None:
        return lambda a: np.cumsum(a, axis=axis)
    return lambda a: np.cumsum(a, axis=axis, out=out)


@register_kernel("where")
def _build_where(params, out):
    if out is None:
        return lambda cond, a, b: np.where(cond, a, b)

    def fn(cond, a, b):
        np.copyto(out, b)
        np.copyto(out, a, where=cond)
        return out

    return fn


@register_kernel("cat")
def _build_cat(params, out):
    axis = params["axis"]
    if out is None:
        return lambda *parts: np.concatenate(parts, axis=axis)
    return lambda *parts: np.concatenate(parts, axis=axis, out=out)


@register_kernel("stack")
def _build_stack(params, out):
    axis = params["axis"]
    if out is None:
        return lambda *parts: np.stack(parts, axis=axis)
    return lambda *parts: np.stack(parts, axis=axis, out=out)


@register_kernel("broadcast_to")
def _build_broadcast_to(params, out):
    shape = params["shape"]
    if out is None:
        return lambda a: np.array(np.broadcast_to(a, shape))

    def fn(a):
        np.copyto(out, a)
        return out

    return fn


@register_kernel("copy")
def _build_copy(params, out):
    if out is None:
        return lambda a: np.array(a, copy=True)

    def fn(a):
        np.copyto(out, a)
        return out

    return fn


@register_kernel("astype")
def _build_astype(params, out):
    if out is None:
        dtype = params["dtype"]
        return lambda a: a.astype(dtype)

    def fn(a):
        np.copyto(out, a, casting="unsafe")
        return out

    return fn


@register_kernel("reshape", buffered=False)
def _build_reshape(params, out):
    shape = params["shape"]
    return lambda a: a.reshape(shape)


@register_kernel("transpose", buffered=False)
def _build_transpose(params, out):
    axis1, axis2 = params["axis1"], params["axis2"]
    return lambda a: a.swapaxes(axis1, axis2)


@register_kernel("squeeze", buffered=False)
def _build_squeeze(params, out):
    axis = params["axis"]
    return lambda a: a.squeeze(axis=axis)


@register_kernel("unsqueeze", buffered=False)
def _build_unsqueeze(params, out):
    axis = params["axis"]
    return lambda a: np.expand_dims(a, axis=axis)


@register_kernel("getitem", buffered=False)
def _build_getitem(params, out):
    template = params["index"]
    if not any(isinstance(part, IndexSlot) for part in template):
        index = tuple(template)
        return lambda a: a[index]

    def fn(*arrays):
        index = tuple(
            arrays[part.pos] if isinstance(part, IndexSlot) else part
            for part in template
        )
        return arrays[0][index]

    return fn


@register_kernel("select_rows", buffered=False)
def _build_select_rows(params, out):
    def fn(a, indices):
        return a[indices, np.arange(indices.shape[0])]

    return fn


# ----------------------------------------------------------------------
# Linear-chain (MLP) fusion helpers
# ----------------------------------------------------------------------
# A "chain spec" flattens an eval-mode MLP into
#   ("linear", W, b_or_None) | ("act", name, slope)
# entries.  The forward/input-gradient walkers below reproduce the eager
# Tensor ops expression for expression, so fused kernels built on them
# (LBEBM Langevin, the recurrent-decoder rollout) stay bit-identical to the
# autograd path they replace.

_LEAKY_SLOPE = 0.2  # repro.nn.tensor.Tensor.leaky_relu default


def linear_chain(mlp) -> list | None:
    """Flatten ``mlp`` (a :class:`repro.nn.layers.MLP`) into a chain spec.

    Returns ``None`` when the MLP is not fusable (unknown layer kinds, or
    active training-time dropout — stochastic layers cannot be folded into
    a deterministic kernel).
    """
    from repro.nn.layers import Activation, Dropout, Linear

    spec: list = []
    for item in mlp.net._items:
        if isinstance(item, Linear):
            bias = None if item.bias is None else item.bias.data
            spec.append(("linear", item.weight.data, bias))
        elif isinstance(item, Activation):
            if item.name == "identity":
                continue
            if item.name not in ("relu", "tanh", "sigmoid", "leaky_relu"):
                return None
            spec.append(("act", item.name, _LEAKY_SLOPE))
        elif isinstance(item, Dropout):
            if item.p > 0.0 and item.training:
                return None
        else:
            return None
    return spec


def chain_layout(spec) -> tuple:
    """Hashable structure of a chain spec (arrays stripped) for kernel params."""
    layout = []
    for entry in spec:
        if entry[0] == "linear":
            layout.append(("linear", entry[2] is not None))
        else:
            layout.append(entry)
    return tuple(layout)


def chain_arrays(spec) -> list[np.ndarray]:
    """The chain's parameter arrays in layout order (kernel operands)."""
    arrays = []
    for entry in spec:
        if entry[0] == "linear":
            arrays.append(entry[1])
            if entry[2] is not None:
                arrays.append(entry[2])
    return arrays


def chain_from(layout: tuple, arrays) -> list:
    """Rebuild a chain spec from :func:`chain_layout` + operand arrays."""
    arrays = list(arrays)
    spec = []
    for entry in layout:
        if entry[0] == "linear":
            weight = arrays.pop(0)
            bias = arrays.pop(0) if entry[1] else None
            spec.append(("linear", weight, bias))
        else:
            spec.append(entry)
    return spec


def chain_forward_np(
    x: np.ndarray, spec, stash: list | None = None, inputs: list | None = None
) -> np.ndarray:
    """Forward through the chain; mirrors eager Linear/Activation exactly.

    ``stash`` (when given) collects ``(pre, out)`` per activation for the
    input-gradient walk; ``inputs`` collects each linear layer's input, in
    layer order, for weight gradients.
    """
    cur = x
    for entry in spec:
        if entry[0] == "linear":
            if inputs is not None:
                inputs.append(cur)
            cur = cur @ entry[1]
            if entry[2] is not None:
                cur = cur + entry[2]
        else:
            pre = cur
            name = entry[1]
            if name == "relu":
                cur = np.maximum(pre, 0.0)
            elif name == "tanh":
                cur = np.tanh(pre)
            elif name == "sigmoid":
                cur = 1.0 / (1.0 + np.exp(-pre))
            else:  # leaky_relu
                cur = np.where(pre > 0, pre, entry[2] * pre)
            if stash is not None:
                stash.append((pre, cur))
    return cur


def chain_input_grad_np(
    grad: np.ndarray, spec, stash: list, linear_grads: list | None = None
) -> np.ndarray:
    """Gradient of the chain output w.r.t. its input, eager-identical.

    ``grad`` is the upstream gradient at the chain output; ``stash`` is the
    activation record from :func:`chain_forward_np`.  Performs the same
    numpy expressions as the autograd closures in ``repro.nn.tensor``.
    ``linear_grads`` (when given) collects the gradient at each linear
    layer's output, last layer first.
    """
    act_index = len(stash)
    for entry in reversed(spec):
        if entry[0] == "linear":
            if linear_grads is not None:
                linear_grads.append(grad)
            grad = grad @ entry[1].swapaxes(-1, -2)
        else:
            act_index -= 1
            pre, out = stash[act_index]
            name = entry[1]
            if name == "relu":
                grad = grad * (pre > 0)
            elif name == "tanh":
                grad = grad * (1.0 - out**2)
            elif name == "sigmoid":
                grad = grad * out * (1.0 - out)
            else:  # leaky_relu
                grad = grad * np.where(pre > 0, 1.0, entry[2])
    return grad


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def capture(
    fn: Callable[[np.random.Generator], np.ndarray],
    inputs: Mapping[str, np.ndarray],
    rng: np.random.Generator,
) -> "Plan":
    """Trace ``fn(recording_rng)`` once and plan it for replay.

    ``fn`` must return the numpy array produced by its final traced op (not
    a post-processed copy), and must consume randomness only through the
    generator it is handed.  ``inputs`` maps replay-time slot names to the
    exact arrays ``fn`` closes over — operand identity (``id()``) is how the
    tape tells inputs apart from constants, so the arrays passed here must
    be the ones the forward actually reads.
    """
    if _STATE.tape is not None:
        raise CompileError("capture() does not nest")
    tape = Tape()
    for name, array in inputs.items():
        tape.register_input(name, np.asarray(array))
    recording = RecordingGenerator(tape, rng)
    _STATE.tape = tape
    try:
        out = fn(recording)
    finally:
        _STATE.tape = None
    out = np.asarray(out)
    node = tape.lookup(out)
    if node is None:
        raise CompileError(
            "captured output was not produced by traced ops — the forward "
            "post-processes tensors with raw numpy (not compilable)"
        )
    if node.kind == "constant":
        raise CompileError("captured output is a constant — nothing to plan")
    return Plan(tape, node)


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
class Plan:
    """A flat, replayable schedule compiled from one traced forward."""

    def __init__(self, tape: Tape, output: TapeNode) -> None:
        self._lock = threading.Lock()
        nodes = tape.nodes

        # -- liveness: everything the output depends on, plus every RNG
        # draw (dead draws still consume the stream in the eager path).
        stack = [output]
        output.live = True
        while stack:
            for parent in stack.pop().operands:
                if not parent.live:
                    parent.live = True
                    stack.append(parent)
        for node in nodes:
            if node.kind == "rng":
                node.live = True

        # -- constant folding: ops with all-constant operands run once now.
        for node in nodes:
            if (
                node.kind == "op"
                and node.live
                and all(op.kind == "constant" for op in node.operands)
            ):
                builder = KERNEL_BUILDERS.get(node.kernel)
                if builder is None:
                    raise CompileError(f"no kernel registered for {node.kernel!r}")
                folded = builder(node.params, None)(*[op.array for op in node.operands])
                node.kind = "constant"
                node.array = np.asarray(folded)

        # -- slot assignment + steps in recorded (program) order.
        self._values: list = []
        self._steps: list[Callable] = []
        self._step_names: list[str] = []
        self._input_binds: list[tuple[str, int, tuple, np.dtype]] = []
        self._arena_buffers = 0
        self._arena_bytes = 0
        for node in nodes:
            if not node.live:
                continue
            node.slot = len(self._values)
            if node.kind == "constant":
                self._values.append(node.array)
                continue
            self._values.append(None)
            if node.kind == "input":
                self._input_binds.append(
                    (node.name, node.slot, node.array.shape, node.array.dtype)
                )
                continue
            self._steps.append(self._make_step(node))
        if not self._input_binds:
            raise CompileError(
                "no registered input reaches the captured output — the whole "
                "forward folded to a constant (batch arrays were copied by "
                "untraced numpy code before the first traced op)"
            )
        self._out_slot = output.slot
        self.num_steps = len(self._steps)
        self.output_shape = output.array.shape
        self.runs = 0
        self._profile: dict[str, list] | None = None
        # Dynamic nodes' captured arrays are dead weight once buffers exist.
        for node in nodes:
            if node.live and node.kind in ("op", "rng"):
                node.array = None
        self._tape = tape  # keeps constant/operand ids alive

    # ------------------------------------------------------------------
    def _make_step(self, node: TapeNode) -> Callable:
        slot = node.slot
        values = self._values
        if node.kind == "rng":
            method = node.rng_method
            args = node.rng_args
            kwargs = node.rng_kwargs
            self._step_names.append(f"rng:{method}")

            def rng_step(rng, _s=slot, _m=method, _a=args, _k=kwargs):
                values[_s] = getattr(rng, _m)(*_a, **_k)

            return rng_step

        builder = KERNEL_BUILDERS.get(node.kernel)
        if builder is None:
            raise CompileError(f"no kernel registered for {node.kernel!r}")
        buffer = None
        if node.kernel not in UNBUFFERED_KERNELS:
            buffer = np.empty(node.array.shape, dtype=node.array.dtype)
            self._arena_buffers += 1
            self._arena_bytes += buffer.nbytes
        self._step_names.append(node.kernel)
        fn = builder(node.params, buffer)
        in_slots = tuple(op.slot for op in node.operands)
        if len(in_slots) == 1:
            i0 = in_slots[0]

            def step1(rng, _s=slot, _i=i0, _fn=fn):
                values[_s] = _fn(values[_i])

            return step1
        if len(in_slots) == 2:
            i0, i1 = in_slots

            def step2(rng, _s=slot, _a=i0, _b=i1, _fn=fn):
                values[_s] = _fn(values[_a], values[_b])

            return step2
        if len(in_slots) == 3:
            i0, i1, i2 = in_slots

            def step3(rng, _s=slot, _a=i0, _b=i1, _c=i2, _fn=fn):
                values[_s] = _fn(values[_a], values[_b], values[_c])

            return step3

        def stepn(rng, _s=slot, _in=in_slots, _fn=fn):
            values[_s] = _fn(*[values[i] for i in _in])

        return stepn

    # ------------------------------------------------------------------
    def run(self, inputs: Mapping[str, np.ndarray], rng: np.random.Generator) -> np.ndarray:
        """Replay the schedule on new input arrays and a fresh RNG.

        Shapes and dtypes must match the captured batch exactly (the plan
        cache in :class:`repro.serve.predictor.Predictor` buckets by padded
        batch shape, so this is an internal-error guard, not a dispatch
        mechanism).  Returns a fresh array — never a view into the arena.
        """
        with self._lock:
            values = self._values
            for name, slot, shape, dtype in self._input_binds:
                array = np.asarray(inputs[name])
                if array.shape != shape or array.dtype != dtype:
                    raise CompileError(
                        f"input {name!r} is {array.shape}/{array.dtype}, "
                        f"plan was captured for {shape}/{dtype}"
                    )
                values[slot] = array
            self.runs += 1
            profile = self._profile
            if profile is None:
                for step in self._steps:
                    step(rng)
            else:
                clock = time.perf_counter
                for name, step in zip(self._step_names, self._steps):
                    started = clock()
                    step(rng)
                    elapsed = clock() - started
                    cell = profile.get(name)
                    if cell is None:
                        profile[name] = [1, elapsed]
                    else:
                        cell[0] += 1
                        cell[1] += elapsed
            return np.array(values[self._out_slot], copy=True)

    # ------------------------------------------------------------------
    def set_profile(self, enabled: bool) -> None:
        """Toggle per-kernel wall-time aggregation on :meth:`run`.

        Off by default: the unprofiled path keeps the bare step loop so
        profiling costs nothing when disabled.  Enabling resets any
        previously collected profile.
        """
        with self._lock:
            self._profile = {} if enabled else None

    def stats(self) -> dict:
        """JSON-ready plan telemetry: schedule, arena, runs, kernel profile.

        ``kernels`` maps kernel name (``rng:<method>`` for RNG draws) to
        cumulative call count and wall seconds; it is empty unless
        :meth:`set_profile` enabled profiling.
        """
        with self._lock:
            profile = (
                {}
                if self._profile is None
                else {name: list(cell) for name, cell in self._profile.items()}
            )
            runs = self.runs
        return {
            "num_steps": self.num_steps,
            "output_shape": list(self.output_shape),
            "runs": runs,
            "arena": {"buffers": self._arena_buffers, "bytes": self._arena_bytes},
            "profile_enabled": self._profile is not None,
            "kernels": {
                name: {"calls": calls, "total_s": round(total, 6)}
                for name, (calls, total) in sorted(profile.items())
            },
        }
