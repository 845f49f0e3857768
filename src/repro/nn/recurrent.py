"""Recurrent cells and sequence encoders.

The paper's individual-mobility encoder ``phi`` (Eq. 2) "can be implemented
using any sequential model, such as LSTM"; LBEBM's mobility encoder here uses
:class:`LSTM`, while PECNet flattens the observed window through an MLP.

Performance architecture
------------------------
Sequence encoding is the training hot path (AdapTraj multiplies it across
per-domain batch streams), so :class:`LSTM` builds no per-timestep autograd
graph:

* the input projection ``inputs @ weight_x + bias`` is computed for the whole
  ``[batch, time, 4 * hidden]`` window in **one** batched matmul outside the
  time loop;
* the recurrence runs as a single fused graph node (:func:`_lstm_fused`):
  the forward loop is plain numpy with the per-step activations stashed, and
  the backward closure replays BPTT in numpy, producing the window-level
  gradients in one pass instead of ~20 graph closures per timestep.

:class:`LSTMCell` is one plain Tensor step; the decoder's rollout reads its
weights directly.  The per-timestep cell loop the fused path replaced lives
in ``tests/nn/oracles.py``; the fused path is validated against it (values
and gradients) in ``tests/nn/test_recurrent_fused.py`` and timed against it
in ``benchmarks/bench_autograd_ops.py``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn._tracer import register_kernel, trace as _trace
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, get_default_dtype, is_grad_enabled
from repro.utils.seeding import new_rng

__all__ = ["LSTM", "LSTMCell"]


class LSTMCell(Module):
    """Standard LSTM cell with fused gate projection.

    Gate layout along the last axis of the fused projection is
    ``[input, forget, cell, output]``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_x = Parameter(np.empty((input_size, 4 * hidden_size), dtype=get_default_dtype()))
        self.weight_h = Parameter(np.empty((hidden_size, 4 * hidden_size), dtype=get_default_dtype()))
        self.bias = Parameter(np.zeros(4 * hidden_size))
        init.xavier_uniform_(self.weight_x, rng)
        for g in range(4):
            block = self.weight_h.data[:, g * hidden_size : (g + 1) * hidden_size]
            block[...] = init.orthogonal_(
                Parameter(np.empty((hidden_size, hidden_size), dtype=get_default_dtype())), rng
            ).data
        # Forget-gate bias of 1 stabilizes early training.
        self.bias.data[hidden_size : 2 * hidden_size] = 1.0

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, Tensor]:
        """One step."""
        batch = x.shape[0]
        if state is None:
            h = Tensor(np.zeros((batch, self.hidden_size)))
            c = Tensor(np.zeros((batch, self.hidden_size)))
        else:
            h, c = state
        gates = x @ self.weight_x + self.bias + h @ self.weight_h
        hs = self.hidden_size
        i = gates[:, 0 * hs : 1 * hs].sigmoid()
        f = gates[:, 1 * hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs : 4 * hs].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next


def _lstm_forward_np(
    gx_data: np.ndarray,
    w_h: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
    hs: int,
    out: np.ndarray,
    acts: np.ndarray | None = None,
    tanh_cs: np.ndarray | None = None,
) -> np.ndarray:
    """Forward recurrence shared by the autograd node and the compile kernel.

    Writes ``[h_t || c_t]`` into ``out`` (``[batch, steps, 2 * hs]``).  When
    ``acts``/``tanh_cs`` are given, the per-step gate activations and
    ``tanh(c_t)`` are stashed there for BPTT; otherwise a single scratch
    buffer is recycled.  One function so the eager fused path and the
    planned replay are bit-identical by construction.
    """
    batch, steps, _ = gx_data.shape
    scratch = None if acts is not None else np.empty((batch, 4 * hs), dtype=out.dtype)
    for t in range(steps):
        gates = acts[t] if acts is not None else scratch
        np.matmul(h, w_h, out=gates)
        gates += gx_data[:, t, :]
        # Sigmoid on the contiguous [i, f] and [o] blocks in place (two
        # transcendental calls per step instead of three), tanh on [g].
        for block in (gates[:, : 2 * hs], gates[:, 3 * hs :]):
            np.negative(block, out=block)
            np.exp(block, out=block)
            block += 1.0
            np.reciprocal(block, out=block)
        g_blk = gates[:, 2 * hs : 3 * hs]
        np.tanh(g_blk, out=g_blk)
        c_next = out[:, t, hs:]
        np.multiply(gates[:, hs : 2 * hs], c, out=c_next)  # f * c_prev
        c_next += gates[:, 0:hs] * g_blk  # + i * g
        tanh_c = tanh_cs[t] if tanh_cs is not None else np.empty_like(c_next)
        np.tanh(c_next, out=tanh_c)
        np.multiply(gates[:, 3 * hs :], tanh_c, out=out[:, t, :hs])  # o * tanh(c)
        h = out[:, t, :hs]
        c = c_next
    return out


@register_kernel("lstm_fused")
def _build_lstm_kernel(params, out):
    hidden = params["hidden"]

    def fn(gx, w_h, h0, c0):
        buffer = out
        if buffer is None:
            batch, steps, _ = gx.shape
            buffer = np.empty((batch, steps, 2 * hidden), dtype=gx.dtype)
        return _lstm_forward_np(
            gx,
            w_h,
            h0.astype(gx.dtype, copy=False),
            c0.astype(gx.dtype, copy=False),
            hidden,
            buffer,
        )

    return fn


def _lstm_fused(
    gx: Tensor, weight_h: Tensor, h0: Tensor, c0: Tensor, hidden: int
) -> Tensor:
    """Run the whole LSTM recurrence as one autograd node.

    ``gx`` is the precomputed input projection ``[batch, time, 4 * hidden]``.
    Returns ``[batch, time, 2 * hidden]`` — the hidden and cell states
    concatenated along the last axis, so callers can slice out ``h``/``c``
    trajectories with a cheap contiguous-slice backward.

    The backward closure replays the standard BPTT recurrence in plain
    numpy, writing the window-level gradient ``d_gx`` into one preallocated
    buffer (no per-timestep scatter), and accumulates ``d_weight_h`` and the
    initial-state gradients in the same pass.
    """
    hs = hidden
    batch, steps, _ = gx.shape
    dtype = gx.data.dtype
    w_h = weight_h.data
    gx_data = gx.data

    need_grad = is_grad_enabled() and any(
        t.requires_grad for t in (gx, weight_h, h0, c0)
    )

    out = np.empty((batch, steps, 2 * hs), dtype=dtype)
    # Activation stash for BPTT (allocated only while recording).  h_prev /
    # c_prev are not stashed: they are ``out[:, t-1]`` slices (or h0/c0).
    acts = np.empty((steps, batch, 4 * hs), dtype=dtype) if need_grad else None
    tanh_cs = np.empty((steps, batch, hs), dtype=dtype) if need_grad else None
    _lstm_forward_np(
        gx_data,
        w_h,
        h0.data.astype(dtype, copy=False),
        c0.data.astype(dtype, copy=False),
        hs,
        out,
        acts=acts,
        tanh_cs=tanh_cs,
    )
    _trace("lstm_fused", out, (gx_data, w_h, h0.data, c0.data), hidden=hs)

    def backward(grad: np.ndarray) -> None:
        d_gx = np.empty((steps, batch, 4 * hs), dtype=dtype)
        dh = np.zeros((batch, hs), dtype=dtype)
        dc = np.zeros((batch, hs), dtype=dtype)
        w_h_t = w_h.T
        for t in range(steps - 1, -1, -1):
            act = acts[t]
            i = act[:, 0:hs]
            f = act[:, hs : 2 * hs]
            g = act[:, 2 * hs : 3 * hs]
            o = act[:, 3 * hs :]
            tanh_c = tanh_cs[t]
            if t == 0:
                h_prev, c_prev = h0.data, c0.data
            else:
                h_prev = out[:, t - 1, :hs]
                c_prev = out[:, t - 1, hs:]
            dh += grad[:, t, :hs]
            dc += grad[:, t, hs:]
            dc += dh * o * (1.0 - tanh_c**2)
            dgates = d_gx[t]
            np.multiply(dc * g, i * (1.0 - i), out=dgates[:, 0:hs])
            np.multiply(dc * c_prev, f * (1.0 - f), out=dgates[:, hs : 2 * hs])
            np.multiply(dc * i, 1.0 - g**2, out=dgates[:, 2 * hs : 3 * hs])
            np.multiply(dh * tanh_c, o * (1.0 - o), out=dgates[:, 3 * hs :])
            dh = dgates @ w_h_t
            dc *= f
        if gx.requires_grad:
            gx._accumulate(d_gx.transpose(1, 0, 2))
        if weight_h.requires_grad:
            # One GEMM over the whole window instead of one rank-update per
            # step: d_Wh = sum_t h_prev[t].T @ dgates[t].
            h_prevs = np.empty((steps, batch, hs), dtype=dtype)
            h_prevs[0] = h0.data
            if steps > 1:
                h_prevs[1:] = out[:, :-1, :hs].transpose(1, 0, 2)
            d_wh = h_prevs.reshape(-1, hs).T @ d_gx.reshape(-1, 4 * hs)
            weight_h._accumulate(d_wh)
        if h0.requires_grad:
            h0._accumulate(dh)
        if c0.requires_grad:
            c0._accumulate(dc)

    return Tensor._make(out, (gx, weight_h, h0, c0), backward)


class LSTM(Module):
    """Run an :class:`LSTMCell` over a ``[batch, time, features]`` tensor.

    Returns the per-step hidden states stacked along time plus the final
    ``(h, c)`` state — the paper's ``h^{t,l_e}_{e_i}`` is the final hidden
    state.  The input projection is fused across the window and the
    recurrence runs as a single graph node.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.input_size = input_size
        self.hidden_size = hidden_size

    def _check_inputs(self, inputs: Tensor) -> None:
        if inputs.ndim != 3:
            raise ValueError(f"LSTM expects [batch, time, features], got {inputs.shape}")

    def forward(
        self, inputs: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        self._check_inputs(inputs)
        batch = inputs.shape[0]
        hs = self.hidden_size
        if state is None:
            h0 = Tensor(np.zeros((batch, hs)))
            c0 = Tensor(np.zeros((batch, hs)))
        else:
            h0, c0 = state
        # One batched matmul for the whole window's input projection.
        gx = inputs @ self.cell.weight_x + self.cell.bias
        fused = _lstm_fused(gx, self.cell.weight_h, h0, c0, hs)
        outputs = fused[:, :, :hs]
        h_final = fused[:, -1, :hs]
        c_final = fused[:, -1, hs:]
        return outputs, (h_final, c_final)
