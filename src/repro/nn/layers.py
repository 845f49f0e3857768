"""Feed-forward building blocks: Linear, MLP, Dropout, Sequential.

The paper's embedding function, fusion modules, extractors, decoders, and
classifiers are all MLPs with ReLU nonlinearities (Sec. II-C, III-B..D);
:class:`MLP` is the workhorse used throughout ``repro.models`` and
``repro.core``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.nn import init
from repro.nn.functional import dropout
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, get_default_dtype
from repro.utils.seeding import new_rng

__all__ = ["MLP", "Activation", "Dropout", "Linear", "Sequential"]

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": lambda x: x.relu(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "leaky_relu": lambda x: x.leaky_relu(),
    "identity": lambda x: x,
}


def get_activation(name: str) -> Callable[[Tensor], Tensor]:
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; available: {sorted(_ACTIVATIONS)}"
        ) from None


class Linear(Module):
    """Affine map ``y = x @ W + b`` with weight shape ``[in, out]``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((in_features, out_features), dtype=get_default_dtype()))
        init.xavier_uniform_(self.weight, rng)
        if bias:
            self.bias = Parameter(np.zeros(out_features))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        flat_batch = x.ndim == 1
        if flat_batch:
            x = x.reshape(1, -1)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        if flat_batch:
            out = out.reshape(-1)
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Activation(Module):
    """Wrap an activation function as a module (for use in Sequential)."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self._fn = get_activation(name)

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)

    def __repr__(self) -> str:
        return f"Activation({self.name!r})"


class Dropout(Module):
    """Inverted dropout layer with its own RNG stream."""

    def __init__(self, p: float, rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = new_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.p, self.rng, training=self.training)


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module

    def forward(self, x: Tensor) -> Tensor:
        for module in self._items:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class MLP(Module):
    """Multi-layer perceptron: the paper's ubiquitous ``MLP(.)`` block.

    ``sizes`` gives the full chain of layer widths, e.g. ``[16, 64, 32]``
    builds two Linear layers 16→64→32 with ``activation`` between them and
    ``out_activation`` applied to the final output.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        activation: str = "relu",
        out_activation: str = "identity",
        dropout_p: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError(f"MLP needs at least [in, out] sizes, got {list(sizes)}")
        # Validate both activation names eagerly: a hidden-layer activation is
        # unused when there is a single layer, but a typo should still fail.
        get_activation(activation)
        get_activation(out_activation)
        rng = new_rng(rng)
        self.sizes = list(sizes)
        self.net = Sequential()
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            self.net.append(Linear(fan_in, fan_out, rng=rng))
            last = i == len(sizes) - 2
            self.net.append(Activation(out_activation if last else activation))
            if dropout_p > 0.0 and not last:
                self.net.append(Dropout(dropout_p, rng=rng))

    @property
    def in_features(self) -> int:
        return self.sizes[0]

    @property
    def out_features(self) -> int:
        return self.sizes[-1]

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
