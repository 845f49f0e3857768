"""Feature extractors of the AdapTraj framework (paper Sec. III-B/C).

Four feature families are produced from the backbone's intermediate
representations ``h_ei`` (individual mobility) and ``P_i`` (neighbour
interaction):

* ``H^i_i`` — invariant individual features, from the shared ``V_ind``;
* ``H^i_Ei`` — invariant neighbour features, from the shared ``V_nei``;
* ``H^s_i`` — specific individual features, from per-domain ``M^k_ind``;
* ``H^s_Ei`` — specific neighbour features, from per-domain ``M^k_nei``;

with fusions ``V_fuse`` / ``M_fuse`` producing the unified ``H^i`` and
``H^s`` the future-trajectory generator conditions on.  The auxiliary
:class:`ReconstructionDecoder` (Eq. 13) and :class:`DomainClassifier`
(Eq. 16) provide the training signals that force the split.
"""

from __future__ import annotations

import numpy as np

from repro.nn import MLP, Module, ModuleList, Tensor, cat, select_rows, stack
from repro.nn.layers import Activation, Linear
from repro.utils.seeding import new_rng

__all__ = [
    "DomainClassifier",
    "DomainInvariantExtractor",
    "DomainSpecificExtractor",
    "ReconstructionDecoder",
    "expert_bank_forward",
]


def _stackable_layers(experts: ModuleList) -> list:
    """Layer layout shared by every expert of the bank.

    Stacking requires every expert to be an :class:`MLP` with the same
    Linear/Activation layout (no dropout — per-expert dropout streams cannot
    be merged into one batched pass).  Raises :class:`ValueError` naming the
    mismatch otherwise; :class:`DomainSpecificExtractor` checks its banks at
    construction.
    """
    if len(experts) == 0:
        raise ValueError("an expert bank needs at least one expert")
    first = None
    for k, expert in enumerate(experts):
        if not isinstance(expert, MLP):
            raise ValueError(f"expert {k} is a {type(expert).__name__}, not an MLP")
        layout = []
        for block in expert.net._items:
            if isinstance(block, Linear):
                layout.append(("linear", block.in_features, block.out_features, block.bias is not None))
            elif isinstance(block, Activation):
                layout.append(("activation", block.name))
            else:
                raise ValueError(
                    f"expert {k} has a {type(block).__name__} layer; "
                    "only Linear/Activation experts can be stacked"
                )
        if first is None:
            first = layout
        elif layout != first:
            raise ValueError(f"expert {k} has layout {layout}, expert 0 has {first}")
    return first


def expert_bank_forward(experts: ModuleList, x: Tensor) -> Tensor:
    """Apply every expert MLP to ``x`` via stacked-weight batched matmuls.

    ``x`` is ``[batch, in]``; the result is ``[K, batch, out]`` — identical
    (to float round-off of the same GEMM kernel) to stacking ``K`` separate
    MLP forwards, but the model math runs as one batched matmul per layer
    instead of a Python loop over experts.  The per-layer ``stack`` of the
    expert weights is differentiable, so each expert's own :class:`Parameter`
    still receives its gradient slice.  A bank that cannot be stacked
    raises :class:`ValueError` (see :func:`_stackable_layers`).
    """
    out = x  # [B, in] -> [K, B, .] after the first stacked Linear
    for index, spec in enumerate(_stackable_layers(experts)):
        if spec[0] == "linear":
            weight = stack([e.net[index].weight for e in experts], axis=0)  # [K, in, out]
            out = out @ weight
            if spec[3]:
                bias = stack([e.net[index].bias for e in experts], axis=0)  # [K, out]
                out = out + bias.unsqueeze(1)
        else:
            out = experts[0].net[index](out)
    return out


class DomainInvariantExtractor(Module):
    """Shared-weight extractor of domain-invariant features (Eq. 9–11).

    Weight sharing across source domains is what makes the features
    invariant: every domain's samples flow through the same ``V_ind`` /
    ``V_nei``, and the adversarial similarity loss penalizes any residual
    domain signal.
    """

    def __init__(
        self,
        hidden_size: int,
        interaction_size: int,
        feature_dim: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.feature_dim = feature_dim
        self.v_ind = MLP([hidden_size, 2 * feature_dim, feature_dim], rng=rng)
        self.v_nei = MLP([interaction_size, 2 * feature_dim, feature_dim], rng=rng)
        # tanh-bounded fusion: the fused features condition the backbone's
        # generator, and a bounded context cannot derail decoding when the
        # aggregator extrapolates on an unseen target domain.
        self.v_fuse = MLP([2 * feature_dim, feature_dim], out_activation="tanh", rng=rng)

    def individual(self, h_ei: Tensor) -> Tensor:
        """``H^i_i = V_ind(h_ei)`` (Eq. 9)."""
        return self.v_ind(h_ei)

    def neighbour(self, p_i: Tensor) -> Tensor:
        """``H^i_Ei = V_nei(P_i)`` (Eq. 10)."""
        return self.v_nei(p_i)

    def fuse(self, individual: Tensor, neighbour: Tensor) -> Tensor:
        """``H^i = V_fuse(H^i_i, H^i_Ei)`` (Eq. 11)."""
        return self.v_fuse(cat([individual, neighbour], axis=-1))

    def forward(self, h_ei: Tensor, p_i: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        ind = self.individual(h_ei)
        nei = self.neighbour(p_i)
        return ind, nei, self.fuse(ind, nei)


class DomainSpecificExtractor(Module):
    """Per-domain expert banks for domain-specific features (Eq. 17–19).

    One ``M^k_ind`` / ``M^k_nei`` pair per source domain, trained only on
    that domain's samples (enforced by per-sample expert selection), plus a
    shared fusion ``M_fuse``.
    """

    def __init__(
        self,
        num_domains: int,
        hidden_size: int,
        interaction_size: int,
        feature_dim: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if num_domains < 1:
            raise ValueError(f"num_domains must be >= 1, got {num_domains}")
        rng = new_rng(rng)
        self.num_domains = num_domains
        self.feature_dim = feature_dim
        self.m_ind = ModuleList(
            [MLP([hidden_size, 2 * feature_dim, feature_dim], rng=rng) for _ in range(num_domains)]
        )
        self.m_nei = ModuleList(
            [
                MLP([interaction_size, 2 * feature_dim, feature_dim], rng=rng)
                for _ in range(num_domains)
            ]
        )
        _stackable_layers(self.m_ind)
        _stackable_layers(self.m_nei)
        # tanh-bounded for the same reason as the invariant fusion.
        self.m_fuse = MLP([2 * feature_dim, feature_dim], out_activation="tanh", rng=rng)

    def individual_all(self, h_ei: Tensor) -> Tensor:
        """All experts applied to the batch: ``[K, batch, f]``.

        Runs as stacked-weight batched matmuls (one GEMM per layer for the
        whole bank) rather than a Python loop over experts.
        """
        return expert_bank_forward(self.m_ind, h_ei)

    def neighbour_all(self, p_i: Tensor) -> Tensor:
        """All experts applied to the batch: ``[K, batch, f]``."""
        return expert_bank_forward(self.m_nei, p_i)

    @staticmethod
    def select(expert_outputs: Tensor, domain_ids: np.ndarray) -> Tensor:
        """Pick each sample's own-domain expert output.

        ``expert_outputs`` is ``[K, batch, f]``; returns ``[batch, f]`` where
        row ``b`` comes from expert ``domain_ids[b]``.
        """
        # select_rows validates shape and range; (domain, batch-column)
        # pairs are unique, so the gather's backward writes straight into
        # the parent buffer instead of np.add.at.
        return select_rows(expert_outputs, domain_ids)

    def fuse(self, individual: Tensor, neighbour: Tensor) -> Tensor:
        """``H^s = M_fuse(H^s_i, H^s_Ei)`` (Eq. 19)."""
        return self.m_fuse(cat([individual, neighbour], axis=-1))


class ReconstructionDecoder(Module):
    """``X_hat = D_recon(H^i_i, H^s_i)`` (Eq. 13).

    Reconstructs the (normalized, flattened) observed window from the
    invariant + specific individual features; trained with the SIMSE loss so
    the two features jointly preserve the input information.
    """

    def __init__(
        self,
        feature_dim: int,
        obs_len: int,
        hidden: int = 64,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        self.obs_len = obs_len
        self.net = MLP([2 * feature_dim, hidden, obs_len * 2], rng=new_rng(rng))

    def forward(self, invariant_individual: Tensor, specific_individual: Tensor) -> Tensor:
        return self.net(cat([invariant_individual, specific_individual], axis=-1))


class DomainClassifier(Module):
    """``d_hat = D_class(H^i_i, H^i_Ei, H^s_i, H^s_Ei)`` (Eq. 16)."""

    def __init__(
        self,
        feature_dim: int,
        num_domains: int,
        hidden: int = 32,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        self.num_domains = num_domains
        self.net = MLP([4 * feature_dim, hidden, num_domains], rng=new_rng(rng))

    def forward(self, features: Tensor) -> Tensor:
        return self.net(features)
