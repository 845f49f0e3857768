"""Reference oracle for the fused LSTM (test code only).

``LSTM.forward`` projects the whole window in one matmul and runs the
recurrence as one autograd node.  ``lstm_forward_reference`` is the
per-timestep cell loop it replaced; the fused path is checked against it in
``tests/nn/test_recurrent_fused.py`` and timed against it in
``benchmarks/bench_autograd_ops.py``.
"""

from __future__ import annotations

from repro.nn import LSTM, Tensor, stack


def lstm_forward_reference(
    lstm: LSTM, inputs: Tensor, state: tuple[Tensor, Tensor] | None = None
) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """Original per-timestep implementation (the fused path's oracle)."""
    lstm._check_inputs(inputs)
    steps = inputs.shape[1]
    outputs: list[Tensor] = []
    h_c = state
    for t in range(steps):
        h, c = lstm.cell(inputs[:, t, :], h_c)
        h_c = (h, c)
        outputs.append(h)
    return stack(outputs, axis=1), h_c
