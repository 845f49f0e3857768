"""Optimizers with named parameter groups.

AdapTraj's three-step training procedure (Alg. 1) requires per-component
learning rates: in step 2 the aggregator trains at ``lr * f_high`` while every
other module trains at ``lr * f_low``, and the domain-specific extractor is
frozen.  The optimizers here expose named groups with an ``lr_scale`` and a
``frozen`` flag so the trainer can retarget rates between phases without
rebuilding optimizer state.

:class:`Adam` keeps each group's parameters as views into one contiguous
buffer and updates it with a few in-place ufunc calls per step, bit-identical
to the per-parameter formula (see :class:`_FlatGroup`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.nn.module import Parameter

__all__ = ["SGD", "Adam", "Optimizer", "ParamGroup", "clip_grad_norm"]


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping.
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    # One C-level reduction per parameter, one vectorized sum over the
    # per-parameter squares (no Python-float accumulation per step).
    squares = np.fromiter(
        (np.vdot(p.grad, p.grad) for p in params), dtype=np.float64, count=len(params)
    )
    total = float(np.sqrt(squares.sum()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params:
            if not p.grad.flags.writeable:
                # e.g. a broadcast view assigned directly to .grad
                p.grad = p.grad.copy()
            p.grad *= scale
    return total


@dataclass
class ParamGroup:
    """A named collection of parameters sharing learning-rate settings."""

    name: str
    params: list[Parameter]
    lr_scale: float = 1.0
    frozen: bool = False
    weight_decay: float = 0.0


class Optimizer:
    """Base optimizer over named parameter groups."""

    def __init__(
        self,
        params_or_groups: Sequence[Parameter] | dict[str, Sequence[Parameter]],
        lr: float,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.groups: list[ParamGroup] = []
        if isinstance(params_or_groups, dict):
            for name, params in params_or_groups.items():
                self.groups.append(
                    ParamGroup(name=name, params=list(params), weight_decay=weight_decay)
                )
        else:
            self.groups.append(
                ParamGroup(name="default", params=list(params_or_groups), weight_decay=weight_decay)
            )
        self._check_no_duplicates()

    def _check_no_duplicates(self) -> None:
        seen: set[int] = set()
        for group in self.groups:
            for p in group.params:
                if id(p) in seen:
                    raise ValueError(
                        f"parameter appears in multiple optimizer groups (group {group.name!r})"
                    )
                seen.add(id(p))

    # ------------------------------------------------------------------
    # Group control (used by the AdapTraj trainer between phases)
    # ------------------------------------------------------------------
    def group(self, name: str) -> ParamGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(f"no optimizer group named {name!r}; have {[g.name for g in self.groups]}")

    def set_lr_scale(self, name: str, scale: float) -> None:
        self.group(name).lr_scale = scale

    def set_frozen(self, name: str, frozen: bool) -> None:
        self.group(name).frozen = frozen

    def zero_grad(self) -> None:
        for group in self.groups:
            for p in group.params:
                p.zero_grad()

    def step(self) -> None:
        for group in self.groups:
            if group.frozen or group.lr_scale == 0.0:
                continue
            self._step_group(group, self.lr * group.lr_scale)

    def _step_group(self, group: ParamGroup, lr: float) -> None:
        """Update one active group: by default one ``_update`` per parameter
        that has a gradient."""
        for p in group.params:
            if p.grad is None:
                continue
            grad = p.grad
            if group.weight_decay:
                grad = grad + group.weight_decay * p.data
            self._update(p, grad, lr)

    def _update(self, param: Parameter, grad: np.ndarray, lr: float) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        params_or_groups,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params_or_groups, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity: dict[int, np.ndarray] = {}

    def _update(self, param: Parameter, grad: np.ndarray, lr: float) -> None:
        if self.momentum:
            v = self._velocity.get(id(param))
            if v is None:
                v = np.zeros_like(param.data)
            v = self.momentum * v + grad
            self._velocity[id(param)] = v
            grad = v
        param.data -= lr * grad


class _FlatGroup:
    """One group's parameters as views into a contiguous buffer, plus flat
    Adam moments, per-parameter step counts and preallocated scratch.

    Building one copies each parameter's values into the buffer and rebinds
    ``param.data`` to its view.  ``previous`` (the group's earlier
    :class:`_FlatGroup`) carries each surviving parameter's moments and
    step count over, cast to the new dtype.
    """

    def __init__(self, params: list[Parameter], previous: _FlatGroup | None = None) -> None:
        dtypes = sorted({str(p.data.dtype) for p in params})
        if len(dtypes) > 1:
            raise TypeError(
                f"Adam keeps each parameter group in one buffer; this group mixes dtypes {dtypes}"
            )
        dtype = np.dtype(dtypes[0]) if dtypes else np.float64
        self.params = list(params)
        self.sizes = [p.data.size for p in params]
        bounds = np.cumsum([0, *self.sizes]).tolist()
        self.slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        total = bounds[-1]
        self.data = np.empty(total, dtype=dtype)
        self.m = np.zeros(total, dtype=dtype)
        self.v = np.zeros(total, dtype=dtype)
        self.grad = np.empty(total, dtype=dtype)
        self.scratch = np.empty(total, dtype=dtype)
        self.steps = np.zeros(len(params), dtype=np.int64)
        old = {} if previous is None else {id(p): i for i, p in enumerate(previous.params)}
        self.views = []
        for i, (p, part) in enumerate(zip(self.params, self.slices)):
            view = self.data[part].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self.views.append(view)
            j = old.get(id(p))
            if j is not None and previous.sizes[j] == self.sizes[i]:
                self.m[part] = previous.m[previous.slices[j]]
                self.v[part] = previous.v[previous.slices[j]]
                self.steps[i] = previous.steps[j]

    def bound_to(self, params: list[Parameter]) -> bool:
        """Whether ``params`` are still exactly this buffer's views (no
        parameter added, removed, or rebound by ``Module.astype`` or direct
        assignment)."""
        return len(params) == len(self.params) and all(
            p is q and p.data is view for p, q, view in zip(params, self.params, self.views)
        )


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction.

    Each group's parameters live as views in one flat buffer
    (:class:`_FlatGroup`), and a step is a few in-place ufunc calls over
    the whole buffer instead of an allocating update per parameter.  Each
    call performs the same IEEE operation as the per-parameter formula
    ``p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)``, so
    results are bit-identical to it.  Semantics stay per parameter: one
    whose ``grad`` is ``None`` keeps its data, moments and step count.
    """

    def __init__(
        self,
        params_or_groups,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params_or_groups, lr, weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._flat = {id(g): _FlatGroup(g.params) for g in self.groups}

    def _step_group(self, group: ParamGroup, lr: float) -> None:
        flat = self._flat[id(group)]
        if not flat.bound_to(group.params):
            flat = self._flat[id(group)] = _FlatGroup(group.params, previous=flat)
        params = flat.params
        active = [p.grad is not None for p in params]
        if not any(active):
            return
        grad, scratch = flat.grad, flat.scratch
        # Two fast paths, each bit-identical to the general branch beside
        # it: one concatenate with unmasked ufuncs when every parameter has
        # a gradient, and scalar bias corrections when the step counts agree.
        # Timed on a 2-CPU host (median of 9 interleaved blocks), a step over
        # the vanilla-PECNet / AdapTraj-LBEBM parameter sets takes 304 / 775
        # us with both, 623 / 1322 us with only the first, 702 / 1648 us
        # with only the second and 1070 / 2209 us with neither.
        if all(active):
            np.concatenate([p.grad.reshape(-1) for p in params], out=grad)
            flat.steps += 1
            where = True
        else:
            for p, part, on in zip(params, flat.slices, active):
                if on:
                    grad[part] = p.grad.reshape(-1)
            flat.steps[np.flatnonzero(active)] += 1
            where = np.repeat(active, flat.sizes)
        steps = flat.steps
        if (steps == steps[0]).all():
            t = int(steps[0])
            bc1, bc2 = 1 - self.beta1**t, 1 - self.beta2**t
        else:
            # Per-element divisors in the buffer's dtype: the same value a
            # Python-float scalar divisor is cast to.
            dtype = flat.data.dtype
            bc1 = np.repeat(np.array([1 - self.beta1 ** int(t) for t in steps], dtype), flat.sizes)
            bc2 = np.repeat(np.array([1 - self.beta2 ** int(t) for t in steps], dtype), flat.sizes)
        data, m, v = flat.data, flat.m, flat.v
        if group.weight_decay:
            np.multiply(data, group.weight_decay, out=scratch, where=where)
            np.add(grad, scratch, out=grad, where=where)
        # m = b1 * m + (1 - b1) * grad
        np.multiply(m, self.beta1, out=m, where=where)
        np.multiply(grad, 1 - self.beta1, out=scratch, where=where)
        np.add(m, scratch, out=m, where=where)
        # v = b2 * v + (1 - b2) * grad**2
        np.multiply(v, self.beta2, out=v, where=where)
        np.square(grad, out=scratch, where=where)
        np.multiply(scratch, 1 - self.beta2, out=scratch, where=where)
        np.add(v, scratch, out=v, where=where)
        # data -= lr * (m / bc1) / (sqrt(v / bc2) + eps); grad is scratch now.
        np.divide(m, bc1, out=scratch, where=where)
        np.multiply(scratch, lr, out=scratch, where=where)
        np.divide(v, bc2, out=grad, where=where)
        np.sqrt(grad, out=grad, where=where)
        np.add(grad, self.eps, out=grad, where=where)
        np.divide(scratch, grad, out=scratch, where=where)
        np.subtract(data, scratch, out=data, where=where)
