"""Tests for the Module/Parameter container machinery and serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Tensor,
    inference_mode,
    is_grad_enabled,
    load_checkpoint,
    load_module,
    save_checkpoint,
    save_module,
)


class Experts(Module):
    def __init__(self, rng):
        super().__init__()
        self.a = Linear(4, 4, rng=rng)


class Nested(Module):
    def __init__(self, rng):
        super().__init__()
        self.encoder = MLP([4, 8, 4], rng=rng)
        self.heads = ModuleList([Linear(4, 2, rng=rng) for _ in range(3)])
        self.experts = Experts(rng)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.heads[0](self.encoder(x)) * self.scale


class TestTraversal:
    def test_named_parameters_have_stable_dotted_paths(self, rng):
        model = Nested(rng)
        names = [n for n, _ in model.named_parameters()]
        assert "scale" in names
        assert "encoder.net.0.weight" in names
        assert "heads.0.weight" in names
        assert "experts.a.bias" in names
        assert len(names) == len(set(names)), "duplicate parameter paths"

    def test_parameter_count(self, rng):
        model = Nested(rng)
        expected = (4 * 8 + 8) + (8 * 4 + 4) + 3 * (4 * 2 + 2) + (4 * 4 + 4) + 1
        assert model.num_parameters() == expected

    def test_module_list_iteration(self, rng):
        model = Nested(rng)
        assert len(model.heads) == 3
        assert all(isinstance(m, Linear) for m in model.heads)

    def test_module_list_append_registers_parameters(self, rng):
        model = Nested(rng)
        head = Linear(4, 2, rng=rng)
        model.heads.append(head)
        params = dict(model.named_parameters())
        assert params["heads.3.weight"] is head.weight
        assert params["heads.3.bias"] is head.bias
        assert model.heads[3] is head
        assert list(model.heads)[-1] is head

    def test_named_modules_includes_nested(self, rng):
        model = Nested(rng)
        names = [n for n, _ in model.named_modules()]
        assert "encoder" in names
        assert "heads.0" in names


class TestTrainingState:
    def test_train_eval_propagates(self, rng):
        model = Nested(rng)
        model.eval()
        assert not model.training
        assert not model.encoder.training
        assert not model.heads[0].training
        model.train()
        assert model.heads[2].training

    def test_zero_grad_clears_all(self, rng):
        model = Nested(rng)
        out = model(Tensor(rng.normal(size=(2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


    def test_astype_casts_parameters_and_drops_grads(self, rng):
        model = Nested(rng)
        model(Tensor(rng.normal(size=(2, 4)))).sum().backward()
        model.astype(np.float32)
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_roundtrip_restores_values(self, rng):
        model = Nested(rng)
        state = model.state_dict()
        other = Nested(np.random.default_rng(999))
        other.load_state_dict(state)
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(model(x).data, other(x).data)

    def test_state_dict_values_are_copies(self, rng):
        model = Nested(rng)
        state = model.state_dict()
        state["scale"][...] = 123.0
        assert model.scale.data[0] == 1.0

    def test_strict_mismatch_raises(self, rng):
        model = Nested(rng)
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict(state)

    def test_strict_unexpected_key_raises(self, rng):
        model = Nested(rng)
        state = model.state_dict()
        state["experts.b.weight"] = np.zeros((4, 4))
        with pytest.raises(KeyError, match=r"unexpected=\['experts.b.weight'\]"):
            model.load_state_dict(state)

    def test_load_writes_into_existing_buffers(self, rng):
        """Loading keeps each parameter's dtype and buffer (an optimizer's
        flat buffer may view it) and only overwrites the values."""
        model = Nested(rng).astype(np.float32)
        buffers = {name: p.data for name, p in model.named_parameters()}
        state = Nested(np.random.default_rng(999)).state_dict()
        model.load_state_dict(state)
        for name, p in model.named_parameters():
            assert p.data is buffers[name]
            assert p.data.dtype == np.float32
            np.testing.assert_array_equal(p.data, state[name].astype(np.float32))

    def test_non_strict_allows_partial(self, rng):
        model = Nested(rng)
        state = {"scale": np.array([7.0])}
        model.load_state_dict(state, strict=False)
        assert model.scale.data[0] == 7.0

    def test_shape_mismatch_raises(self, rng):
        model = Nested(rng)
        state = model.state_dict()
        state["scale"] = np.zeros(5)
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)


class TestSerialization:
    def test_npz_roundtrip(self, rng, tmp_path):
        model = Nested(rng)
        path = tmp_path / "ckpt"
        save_module(path, model)
        restored = Nested(np.random.default_rng(4321))
        load_module(path, restored)
        x = Tensor(rng.normal(size=(2, 4)))
        np.testing.assert_allclose(model(x).data, restored(x).data)

    def test_checkpoint_dict_roundtrip(self, tmp_path):
        state = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1.5])}
        save_checkpoint(tmp_path / "state.npz", state)
        loaded = load_checkpoint(tmp_path / "state.npz")
        assert set(loaded) == {"a", "b"}
        np.testing.assert_allclose(loaded["a"], state["a"])


class TestInferenceMode:
    def test_disables_grad_and_dropout(self, rng):
        model = MLP([4, 8, 4], dropout_p=0.5, rng=rng)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with inference_mode(model):
            assert not is_grad_enabled()
            assert not model.training
            out = model(x)
            assert not out.requires_grad
            # Dropout off: the forward is deterministic.
            np.testing.assert_array_equal(out.data, model(x).data)
        assert is_grad_enabled()

    def test_restores_per_module_training_flags(self, rng):
        model = Nested(rng)
        # Heterogeneous starting state: one submodule already in eval.
        model.heads[1].eval()
        assert model.training and not model.heads[1].training
        with inference_mode(model):
            assert not model.training
            assert not model.heads[1].training
        assert model.training
        assert not model.heads[1].training  # came back exactly as it was

    def test_multiple_roots(self, rng):
        a, b = MLP([2, 2], rng=rng), MLP([2, 2], rng=rng)
        b.eval()
        with inference_mode(a, b):
            assert not a.training and not b.training
        assert a.training and not b.training

    def test_forward_allocates_no_grad_buffers(self, rng):
        model = MLP([4, 8, 4], rng=rng)
        with inference_mode(model):
            out = model(Tensor(rng.normal(size=(3, 4))))
        assert all(p.grad is None for p in model.parameters())
        assert out._parents == ()
