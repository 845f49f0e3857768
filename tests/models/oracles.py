"""Reference oracles for the fused model loops (test code only).

Each function here is the original per-step implementation a fused or
batched path in ``repro.models`` replaced.  The fused paths are checked
against them in ``tests/models/test_compiled_paths.py`` and
``tests/models/test_batched_predict.py``.  The decoder oracle is also the
timing baseline of the decoder phase in ``benchmarks/bench_autograd_ops.py``,
and ``predict_reference`` (with the decoder oracle, for LBEBM) is the eager
side of ``benchmarks/bench_compile.py``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor, enable_grad, inference_mode, stack


def predict_reference(
    backbone,
    batch,
    context_fn=None,
    rng: np.random.Generator | None = None,
    num_samples: int = 1,
) -> np.ndarray:
    """``TrajectoryBackbone.predict`` as one single-sample decode per future.

    Same signature as the method, so a test can bind it over a backbone's
    ``predict`` and run any learning method on top of it.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    with inference_mode(backbone):
        encoding = backbone.encode(batch)
        context = context_fn(encoding) if context_fn is not None else None
        samples = [
            backbone.decode(encoding, batch, context, rng) for _ in range(num_samples)
        ]
        stacked = stack(samples, axis=0)
    return stacked.data


def rollout_reference(decoder, conditioning: Tensor) -> Tensor:
    """``RecurrentTrajectoryDecoder.forward`` as a per-frame Tensor loop.

    About 21 graph nodes per frame: the LSTM cell, the head MLP and the
    running sum, with each frame's offset fed back as the next cell input.
    """
    batch = conditioning.shape[0]
    h = decoder.init_h(conditioning).tanh()
    c = decoder.init_c(conditioning).tanh()
    offset = Tensor(np.zeros((batch, 2)))
    rows = []
    total = None
    for _ in range(decoder.pred_len):
        h, c = decoder.cell(offset, (h, c))
        offset = decoder.head(h)
        total = offset if total is None else total + offset
        rows.append(total)
    return stack(rows, axis=1)


def langevin_sample_reference(model, h_detached: Tensor, rng: np.random.Generator) -> Tensor:
    """``LBEBM.langevin_sample`` as the per-iteration autograd loop.

    The energy parameters are taken out of the graph for the duration of
    the loop, so each iteration differentiates only w.r.t. ``z``.  Noise is
    drawn per step, interleaved with the updates.
    """
    batch = h_detached.shape[0]
    step = model.langevin_step_size
    z = rng.standard_normal((batch, model.latent_dim))
    h = h_detached.detach()
    energy_params = model.energy.parameters()
    saved_flags = [p.requires_grad for p in energy_params]
    model.energy.requires_grad_(False)
    try:
        with enable_grad():  # needed even inside no_grad() inference
            for _ in range(model.langevin_steps):
                z_var = Tensor(z, requires_grad=True)
                energy = model._energy_of(z_var, h).sum()
                energy.backward()
                grad = z_var.grad if z_var.grad is not None else np.zeros_like(z)
                noise = rng.standard_normal(z.shape)
                z = z - 0.5 * step * grad + np.sqrt(step) * noise
    finally:
        for param, flag in zip(energy_params, saved_flags):
            param.requires_grad = flag
    return Tensor(z)
