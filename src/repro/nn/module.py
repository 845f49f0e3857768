"""Module/parameter containers mirroring the torch.nn.Module contract.

The AdapTraj trainer (Alg. 1 in the paper) needs to address *groups* of
parameters by component name — backbone, invariant extractor, specific
extractor, aggregator — in order to freeze some groups and scale the learning
rate of others between training phases.  ``named_parameters`` therefore
returns stable dotted paths that the optimizer's parameter groups key on.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager

import numpy as np

from repro.nn.tensor import Tensor, no_grad

__all__ = ["Module", "ModuleList", "Parameter", "inference_mode"]


class Parameter(Tensor):
    """A trainable tensor; modules discover these automatically."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network components."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute bookkeeping
    # ------------------------------------------------------------------
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, param in self._parameters.items():
            yield (f"{prefix}{key}", param)
        for key, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, Module]]:
        yield (prefix.rstrip("."), self)
        for key, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{key}.")

    def modules(self) -> Iterator[Module]:
        for _, module in self.named_modules():
            yield module

    def num_parameters(self) -> int:
        """Total number of scalar weights."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> Module:
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> Module:
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, flag: bool = True) -> Module:
        """Toggle graph recording for every parameter (in place).

        Disabling this around inner sampling loops (e.g. Langevin dynamics)
        keeps the loop's graphs small and avoids accumulating side-effect
        gradients that would otherwise need clearing.
        """
        for param in self.parameters():
            param.requires_grad = flag
        return self

    def astype(self, dtype) -> Module:
        """Cast every parameter to ``dtype`` in place.

        Converts an *existing* model after switching the global policy with
        :func:`repro.nn.set_default_dtype`; tensors created fresh each
        forward (initial states, data batches) follow the global default, so
        call both — ``astype`` alone leaves mixed-dtype ops that numpy
        promotes back to the wider dtype.
        """
        for param in self.parameters():
            param.data = param.data.astype(dtype)
            param.grad = None
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: expected {param.shape}, got {value.shape}"
                )
            param.data[...] = value

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


@contextmanager
def inference_mode(*modules: Module):
    """Serving-grade inference context: ``no_grad`` plus ``eval()`` semantics.

    Every module tree in ``modules`` is switched to evaluation mode (dropout
    off) and graph recording is disabled, so forward passes build no autograd
    graphs and allocate no gradient buffers.  On exit each sub-module's
    ``training`` flag is restored to exactly what it was — unlike a blanket
    ``train()`` call, a tree that was already (partially) in eval mode comes
    back unchanged.
    """
    snapshots = [
        [(m, m.training) for _, m in root.named_modules()] for root in modules
    ]
    for root in modules:
        root.eval()
    try:
        with no_grad():
            yield
    finally:
        for snapshot in snapshots:
            for module, flag in snapshot:
                object.__setattr__(module, "training", flag)


class ModuleList(Module):
    """An indexable list of sub-modules (used for per-domain expert banks)."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)
