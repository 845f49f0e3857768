"""Future-trajectory generators (paper Eq. 4–7).

Two decoder styles matching the two backbones:

* :class:`MLPTrajectoryDecoder` — one-shot MLP emitting all future offsets
  (PECNet-style, endpoint-conditioned).
* :class:`RecurrentTrajectoryDecoder` — an LSTM-cell rollout of ``l_d``
  iterations (Eq. 6), one step per predicted frame (LBEBM-style).

Both emit *displacements* that are cumulatively summed from the origin (the
focal agent's last observed position is the origin after normalization),
which makes small-weight initialization predict "stand still" — a sane prior.

The recurrent rollout has one forward, :func:`_rollout_forward_np`: a plain
numpy loop over the ``pred_len`` frames (LSTM cell, head MLP, running sum)
that training, eager inference and plan capture all run.  While autograd
records, the whole rollout is **one** graph node (:func:`_rollout`) whose
backward replays BPTT in closed form through the cell, the head and the
running sum — including the autoregressive feedback, where frame ``t``'s
offset is the cell input at frame ``t + 1`` — instead of ~21 graph nodes
per frame.  Under a :mod:`repro.nn.compile` tape the same loop records as
one ``decoder_rollout`` kernel.  The loop reproduces the per-frame Tensor
arithmetic expression for expression (same gate formulas as
:class:`repro.nn.LSTMCell`, same head chain), so its output is
bit-identical to that loop, which ``tests/models/oracles.py`` keeps as the
equivalence oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.nn import MLP, LSTMCell, Module, Tensor
from repro.nn._tracer import register_kernel, trace as _trace
from repro.nn.compile import (
    chain_arrays,
    chain_forward_np,
    chain_from,
    chain_input_grad_np,
    chain_layout,
    linear_chain,
)
from repro.nn.tensor import is_grad_enabled
from repro.utils.seeding import new_rng

__all__ = ["MLPTrajectoryDecoder", "RecurrentTrajectoryDecoder", "cumulative_positions"]


def cumulative_positions(offsets: Tensor) -> Tensor:
    """Turn per-step displacements ``[B, T, 2]`` into absolute positions.

    Positions are relative to the normalized origin (0, 0).  One vectorized
    cumulative sum instead of a per-step slice/add/stack graph.
    """
    return offsets.cumsum(axis=1)


class MLPTrajectoryDecoder(Module):
    """One-shot decoder: conditioning vector -> all future offsets."""

    def __init__(
        self,
        in_features: int,
        pred_len: int,
        hidden: int = 64,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        self.pred_len = pred_len
        self.net = MLP([in_features, hidden, hidden, pred_len * 2], rng=new_rng(rng))

    def forward(self, conditioning: Tensor) -> Tensor:
        offsets = self.net(conditioning).reshape(-1, self.pred_len, 2)
        return cumulative_positions(offsets)


class _Frame(NamedTuple):
    """One frame's forward values that the rollout's backward reads."""

    x: np.ndarray  # cell input: the previous frame's offset (zeros at frame 0)
    h_prev: np.ndarray
    c_prev: np.ndarray
    sig: np.ndarray  # the gate array after the sigmoid: i, f and o blocks
    g: np.ndarray
    tanh_c: np.ndarray
    head_acts: list  # chain_forward_np activation record
    head_inputs: list  # each head linear layer's input


def _rollout_forward_np(
    h: np.ndarray,
    c: np.ndarray,
    weight_x: np.ndarray,
    weight_h: np.ndarray,
    bias: np.ndarray,
    head_spec: list,
    pred_len: int,
    hidden: int,
    out: np.ndarray | None = None,
    stash: list | None = None,
) -> np.ndarray:
    """Whole decoder rollout as one numpy loop, eager-arithmetic-identical.

    Each step performs exactly the eager cell/head expressions:
    ``gates = (offset @ Wx + b) + h @ Wh``; per-gate sigmoid/tanh;
    ``c = f * c + i * g``; ``h = o * tanh(c)``; ``offset = head(h)``;
    running-sum positions written into ``out[:, t]``.

    The sigmoid runs in place over the whole contiguous gate array (the
    ``g`` block's tanh is taken first, into its own array): elementwise ops
    on the strided per-gate blocks cost about three times as much at
    training batch sizes, and the values are the same.

    When ``stash`` is given, one :class:`_Frame` per frame is appended to
    it for BPTT.  The records hold the loop's own arrays, so stashing
    copies nothing.
    """
    batch = h.shape[0]
    hs = hidden
    if out is None:
        out = np.empty((batch, pred_len, 2), dtype=h.dtype)
    offset = np.zeros((batch, 2), dtype=h.dtype)
    total = None
    for t in range(pred_len):
        gates = offset @ weight_x
        gates += bias
        gates += h @ weight_h
        g = np.tanh(gates[:, 2 * hs : 3 * hs])
        np.negative(gates, out=gates)
        np.exp(gates, out=gates)
        gates += 1.0
        np.reciprocal(gates, out=gates)
        c_next = gates[:, hs : 2 * hs] * c + gates[:, 0:hs] * g
        tanh_c = np.tanh(c_next)
        h_next = gates[:, 3 * hs :] * tanh_c
        if stash is None:
            offset_next = chain_forward_np(h_next, head_spec)
        else:
            head_acts: list = []
            head_inputs: list = []
            offset_next = chain_forward_np(h_next, head_spec, head_acts, head_inputs)
            stash.append(_Frame(offset, h, c, gates, g, tanh_c, head_acts, head_inputs))
        h, c, offset = h_next, c_next, offset_next
        total = offset if total is None else total + offset
        out[:, t, :] = total
    return out


@register_kernel("decoder_rollout")
def _build_rollout_kernel(params, out):
    pred_len = params["pred_len"]
    hidden = params["hidden"]
    layout = params["layout"]

    def fn(h, c, weight_x, weight_h, bias, *head_arrays):
        head_spec = chain_from(layout, head_arrays)
        return _rollout_forward_np(
            h, c, weight_x, weight_h, bias, head_spec, pred_len, hidden, out=out
        )

    return fn


def _rollout(h0: Tensor, c0: Tensor, cell: LSTMCell, head: MLP, pred_len: int) -> Tensor:
    """Run the decoder rollout as one autograd node.

    Returns the ``[batch, pred_len, 2]`` positions.  The backward closure
    walks the frames in reverse: the running-sum gradient plus the next
    frame's cell-input gradient gives each offset's gradient, the head's
    closed-form input gradient (:func:`chain_input_grad_np`) adds to the
    hidden-state gradient, and the LSTM-cell BPTT step follows
    ``_lstm_fused``.  Every weight gradient is one GEMM over the stacked
    frames rather than one rank update per frame.
    """
    hs = cell.hidden_size
    head_spec = linear_chain(head)
    head_params = head.parameters()
    weights = (cell.weight_x, cell.weight_h, cell.bias)
    parents = (h0, c0, *weights, *head_params)
    need_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
    stash: list | None = [] if need_grad else None
    w_x, w_h, bias = (w.data for w in weights)
    out = _rollout_forward_np(
        h0.data, c0.data, w_x, w_h, bias, head_spec, pred_len, hs, stash=stash
    )
    _trace(
        "decoder_rollout",
        out,
        (h0.data, c0.data, w_x, w_h, bias, *chain_arrays(head_spec)),
        pred_len=pred_len,
        hidden=hs,
        layout=chain_layout(head_spec),
    )

    def backward(grad: np.ndarray) -> None:
        batch = grad.shape[0]
        dtype = out.dtype
        d_gates = np.empty((pred_len, batch, 4 * hs), dtype=dtype)
        head_grads: list = [None] * pred_len
        running = np.zeros((batch, 2), dtype=dtype)
        dh = np.zeros((batch, hs), dtype=dtype)
        dc = np.zeros((batch, hs), dtype=dtype)
        dx = None
        w_x_t, w_h_t = w_x.T, w_h.T
        for t in range(pred_len - 1, -1, -1):
            frame = stash[t]
            # Offset t reaches every later position through the running sum
            # and frame t + 1 through the cell input.
            running = running + grad[:, t, :]
            d_offset = running if dx is None else running + dx
            frame_grads: list = []
            dh += chain_input_grad_np(d_offset, head_spec, frame.head_acts, frame_grads)
            head_grads[t] = frame_grads[::-1]
            sig, g, tanh_c = frame.sig, frame.g, frame.tanh_c
            i = sig[:, 0:hs]
            f = sig[:, hs : 2 * hs]
            o = sig[:, 3 * hs :]
            d_sig = sig * (1.0 - sig)  # contiguous; its g block is unused
            dc += dh * o * (1.0 - tanh_c**2)
            da = d_gates[t]
            np.multiply(dc * g, d_sig[:, 0:hs], out=da[:, 0:hs])
            np.multiply(dc * frame.c_prev, d_sig[:, hs : 2 * hs], out=da[:, hs : 2 * hs])
            np.multiply(dc * i, 1.0 - g**2, out=da[:, 2 * hs : 3 * hs])
            np.multiply(dh * tanh_c, d_sig[:, 3 * hs :], out=da[:, 3 * hs :])
            dh = da @ w_h_t
            dc *= f
            dx = da @ w_x_t

        flat_gates = d_gates.reshape(-1, 4 * hs)
        for param, field in ((cell.weight_x, "x"), (cell.weight_h, "h_prev")):
            if param.requires_grad:
                inputs = np.stack([getattr(frame, field) for frame in stash])
                param._accumulate(inputs.reshape(-1, inputs.shape[-1]).T @ flat_gates)
        if cell.bias.requires_grad:
            cell.bias._accumulate(flat_gates.sum(axis=0))
        params = iter(head_params)
        for layer, entry in enumerate(e for e in head_spec if e[0] == "linear"):
            weight = next(params)
            bias_param = next(params) if entry[2] is not None else None
            d_out = np.stack([grads[layer] for grads in head_grads])
            d_out = d_out.reshape(-1, d_out.shape[-1])
            if weight.requires_grad:
                inputs = np.stack([frame.head_inputs[layer] for frame in stash])
                weight._accumulate(inputs.reshape(-1, inputs.shape[-1]).T @ d_out)
            if bias_param is not None and bias_param.requires_grad:
                bias_param._accumulate(d_out.sum(axis=0))
        if h0.requires_grad:
            h0._accumulate(dh)
        if c0.requires_grad:
            c0._accumulate(dc)

    return Tensor._make(out, parents, backward)


class RecurrentTrajectoryDecoder(Module):
    """LSTM rollout decoder: one cell iteration per predicted frame.

    The cell state is initialized from the conditioning vector via a linear
    map (paper Eq. 4–5: ``h^{t,0}_{d_i} = [gamma(P_i, h_ei), z]``); each
    iteration consumes the previous predicted offset and emits the next.
    """

    def __init__(
        self,
        in_features: int,
        pred_len: int,
        hidden: int = 48,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.pred_len = pred_len
        self.hidden = hidden
        self.init_h = MLP([in_features, hidden], rng=rng)
        self.init_c = MLP([in_features, hidden], rng=rng)
        self.cell = LSTMCell(2, hidden, rng=rng)
        self.head = MLP([hidden, 32, 2], rng=rng)
        if linear_chain(self.head) is None:
            raise ValueError("the decoder head must be a fusable MLP (no dropout)")

    def forward(self, conditioning: Tensor) -> Tensor:
        h = self.init_h(conditioning).tanh()
        c = self.init_c(conditioning).tanh()
        return _rollout(h, c, self.cell, self.head, self.pred_len)
