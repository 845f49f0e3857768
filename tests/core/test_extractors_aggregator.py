"""Tests for the AdapTraj extractors and the domain-specific aggregator."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import extractors
from repro.core.aggregator import DomainSpecificAggregator
from repro.core.extractors import (
    DomainClassifier,
    DomainInvariantExtractor,
    DomainSpecificExtractor,
    ReconstructionDecoder,
    expert_bank_forward,
)
from repro.nn import MLP, Linear, ModuleList, Tensor, stack


def expert_bank_forward_reference(experts: ModuleList, x: Tensor) -> Tensor:
    """Per-expert loop oracle; the stacked path is tested against this."""
    return stack([expert(x) for expert in experts], axis=0)


def _wider_hidden(k, sizes):
    """Expert ``k`` is one hidden unit wider than expert ``k - 1``."""
    return [sizes[0], sizes[1] + k, *sizes[2:]], {}


def _wider_output(k, sizes):
    """Expert ``k`` emits ``k`` more features than expert 0."""
    return [*sizes[:-1], sizes[-1] + k], {}


def _deeper(k, sizes):
    """Expert ``k`` has ``k`` extra output-width layers."""
    return [*sizes, *[sizes[-1]] * k], {}


def _other_activation(k, sizes):
    """Odd-numbered experts use tanh between layers instead of relu."""
    return list(sizes), {"activation": "tanh"} if k % 2 else {}


def _with_dropout(k, sizes):
    return list(sizes), {"dropout_p": 0.5}


@pytest.fixture
def dims():
    return {"hidden": 12, "interaction": 10, "feature": 6, "domains": 3, "batch": 5}


class TestDomainInvariantExtractor:
    def test_shapes(self, rng, dims):
        ext = DomainInvariantExtractor(dims["hidden"], dims["interaction"], dims["feature"], rng=rng)
        h = Tensor(rng.normal(size=(dims["batch"], dims["hidden"])))
        p = Tensor(rng.normal(size=(dims["batch"], dims["interaction"])))
        ind, nei, fused = ext(h, p)
        assert ind.shape == (dims["batch"], dims["feature"])
        assert nei.shape == (dims["batch"], dims["feature"])
        assert fused.shape == (dims["batch"], dims["feature"])

    def test_weights_shared_across_all_inputs(self, rng, dims):
        """Invariance comes from weight sharing: the same V_ind processes
        every domain's samples (there is exactly one set of weights)."""
        ext = DomainInvariantExtractor(dims["hidden"], dims["interaction"], dims["feature"], rng=rng)
        names = [n for n, _ in ext.named_parameters()]
        assert all(n.startswith(("v_ind", "v_nei", "v_fuse")) for n in names)


class TestDomainSpecificExtractor:
    def test_expert_bank_sizes(self, rng, dims):
        ext = DomainSpecificExtractor(
            dims["domains"], dims["hidden"], dims["interaction"], dims["feature"], rng=rng
        )
        assert len(ext.m_ind) == dims["domains"]
        assert len(ext.m_nei) == dims["domains"]

    def test_rejects_zero_domains(self, rng, dims):
        with pytest.raises(ValueError):
            DomainSpecificExtractor(0, dims["hidden"], dims["interaction"], dims["feature"], rng=rng)

    def test_individual_all_shape(self, rng, dims):
        ext = DomainSpecificExtractor(
            dims["domains"], dims["hidden"], dims["interaction"], dims["feature"], rng=rng
        )
        h = Tensor(rng.normal(size=(dims["batch"], dims["hidden"])))
        out = ext.individual_all(h)
        assert out.shape == (dims["domains"], dims["batch"], dims["feature"])

    def test_select_routes_per_sample(self, rng, dims):
        ext = DomainSpecificExtractor(
            dims["domains"], dims["hidden"], dims["interaction"], dims["feature"], rng=rng
        )
        h = Tensor(rng.normal(size=(dims["batch"], dims["hidden"])))
        all_out = ext.individual_all(h)
        ids = np.array([0, 1, 2, 1, 0])
        selected = DomainSpecificExtractor.select(all_out, ids)
        for row, k in enumerate(ids):
            np.testing.assert_allclose(selected.data[row], all_out.data[k, row])

    def test_select_validates_ids(self, rng, dims):
        ext = DomainSpecificExtractor(
            dims["domains"], dims["hidden"], dims["interaction"], dims["feature"], rng=rng
        )
        all_out = ext.individual_all(Tensor(rng.normal(size=(2, dims["hidden"]))))
        with pytest.raises(ValueError, match="out of range"):
            DomainSpecificExtractor.select(all_out, np.array([0, 5]))
        with pytest.raises(ValueError, match="batch"):
            DomainSpecificExtractor.select(all_out, np.array([0]))

    def test_experts_differ(self, rng, dims):
        ext = DomainSpecificExtractor(
            dims["domains"], dims["hidden"], dims["interaction"], dims["feature"], rng=rng
        )
        h = Tensor(rng.normal(size=(2, dims["hidden"])))
        out = ext.individual_all(h)
        assert not np.allclose(out.data[0], out.data[1])

    def test_select_gradient_reaches_only_chosen_expert(self, rng, dims):
        ext = DomainSpecificExtractor(
            dims["domains"], dims["hidden"], dims["interaction"], dims["feature"], rng=rng
        )
        h = Tensor(rng.normal(size=(3, dims["hidden"])))
        all_out = ext.individual_all(h)
        ids = np.zeros(3, dtype=np.int64)  # everyone from expert 0
        DomainSpecificExtractor.select(all_out, ids).sum().backward()
        grads_0 = [p.grad for p in ext.m_ind[0].parameters()]
        grads_1 = [p.grad for p in ext.m_ind[1].parameters()]
        assert any(g is not None and np.abs(g).max() > 0 for g in grads_0)
        assert all(g is None or np.abs(g).max() == 0 for g in grads_1)


class TestExpertBankVectorization:
    """The stacked-weight batched path must match the per-expert loop oracle."""

    def make_bank(self, rng, dims):
        return DomainSpecificExtractor(
            dims["domains"], dims["hidden"], dims["interaction"], dims["feature"], rng=rng
        )

    def test_forward_matches_reference(self, rng, dims):
        ext = self.make_bank(rng, dims)
        h = Tensor(rng.normal(size=(dims["batch"], dims["hidden"])))
        stacked = expert_bank_forward(ext.m_ind, h)
        reference = expert_bank_forward_reference(ext.m_ind, h)
        np.testing.assert_allclose(stacked.data, reference.data, atol=1e-12)

    def test_gradients_match_reference(self, rng, dims):
        ext = self.make_bank(rng, dims)
        x = rng.normal(size=(dims["batch"], dims["hidden"]))

        def grads_via(forward):
            ext.zero_grad()
            h = Tensor(x, requires_grad=True)
            forward(ext.m_ind, h).sum().backward()
            return [np.array(p.grad) for p in ext.m_ind.parameters()], np.array(h.grad)

        stacked, x_stacked = grads_via(expert_bank_forward)
        reference, x_reference = grads_via(expert_bank_forward_reference)
        np.testing.assert_allclose(x_stacked, x_reference, atol=1e-12)
        for a, b in zip(stacked, reference):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_select_gradient_isolation_under_stacked_path(self, rng, dims):
        """Routing still trains only each sample's own expert (zero grads
        elsewhere) with the batched forward."""
        ext = self.make_bank(rng, dims)
        h = Tensor(rng.normal(size=(3, dims["hidden"])))
        ids = np.zeros(3, dtype=np.int64)
        DomainSpecificExtractor.select(ext.individual_all(h), ids).sum().backward()
        assert any(np.abs(p.grad).max() > 0 for p in ext.m_ind[0].parameters())
        assert all(
            p.grad is None or np.abs(p.grad).max() == 0
            for p in ext.m_ind[1].parameters()
        )

    @pytest.mark.parametrize(
        "variant, message",
        [
            (_wider_hidden, "layout"),
            (_wider_output, "layout"),
            (_deeper, "layout"),
            (_other_activation, "layout"),
            (_with_dropout, "Dropout"),
        ],
        ids=["mismatched-width", "mismatched-output", "mismatched-depth",
             "mismatched-activation", "dropout"],
    )
    def test_unstackable_bank_raises(self, rng, dims, monkeypatch, variant, message):
        """A bank that cannot be stacked is an error, not a slower path: in
        ``expert_bank_forward`` and at extractor construction alike."""
        built = itertools.count()

        class VariantMLP(MLP):
            def __init__(self, sizes, **kwargs):
                sizes, extra = variant(next(built), sizes)
                super().__init__(sizes, **kwargs, **extra)

        bank = ModuleList([VariantMLP([4, 8, 2], rng=rng) for _ in range(2)])
        with pytest.raises(ValueError, match=message):
            expert_bank_forward(bank, Tensor(rng.normal(size=(3, 4))))

        monkeypatch.setattr(extractors, "MLP", VariantMLP)
        with pytest.raises(ValueError, match=message):
            self.make_bank(rng, dims)

    def test_non_mlp_expert_raises(self, rng):
        bank = ModuleList([MLP([4, 8, 2], rng=rng), Linear(4, 2, rng=rng)])
        with pytest.raises(ValueError, match="expert 1 is a Linear, not an MLP"):
            expert_bank_forward(bank, Tensor(rng.normal(size=(3, 4))))

    def test_empty_bank_raises(self, rng):
        with pytest.raises(ValueError, match="at least one expert"):
            expert_bank_forward(ModuleList(), Tensor(rng.normal(size=(3, 4))))


class TestAggregatorPooling:
    def make_outputs(self, rng, k=3, batch=4, f=6):
        return Tensor(rng.normal(size=(k, batch, f)))

    def test_pool_all_is_mean(self, rng):
        outputs = self.make_outputs(rng)
        pooled = DomainSpecificAggregator.pool(outputs)
        np.testing.assert_allclose(pooled.data, outputs.data.mean(axis=0))

    def test_pool_excludes_domain(self, rng):
        outputs = self.make_outputs(rng)
        pooled = DomainSpecificAggregator.pool(outputs, exclude_domain=1)
        expected = outputs.data[[0, 2]].mean(axis=0)
        np.testing.assert_allclose(pooled.data, expected)

    def test_pool_single_expert_masked_gives_zero(self, rng):
        outputs = self.make_outputs(rng, k=1)
        pooled = DomainSpecificAggregator.pool(outputs, exclude_domain=0)
        np.testing.assert_allclose(pooled.data, 0.0)

    def test_pool_validates_range(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            DomainSpecificAggregator.pool(self.make_outputs(rng), exclude_domain=3)

    def test_aggregator_shapes(self, rng):
        agg = DomainSpecificAggregator(feature_dim=6, rng=rng)
        pooled = Tensor(rng.normal(size=(4, 6)))
        assert agg.individual(pooled).shape == (4, 6)
        assert agg.neighbour(pooled).shape == (4, 6)


class TestAuxiliaryHeads:
    def test_reconstruction_shape(self, rng):
        dec = ReconstructionDecoder(feature_dim=6, obs_len=8, rng=rng)
        out = dec(Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(4, 6))))
        assert out.shape == (4, 16)

    def test_classifier_shape(self, rng):
        clf = DomainClassifier(feature_dim=6, num_domains=3, rng=rng)
        logits = clf(Tensor(rng.normal(size=(4, 24))))
        assert logits.shape == (4, 3)
