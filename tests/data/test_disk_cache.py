"""Tests for the persistent on-disk dataset cache in ``repro.data.registry``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import registry
from repro.data.registry import (
    DataConfig,
    cache_stats,
    clear_cache,
    load_domain_dataset,
    reset_cache_stats,
)
from repro.sim.domains import DOMAIN_NAMES

CFG = DataConfig(num_scenes=1, frames_per_scene=45, stride=8, max_neighbours=4)


@pytest.fixture
def private_cache(tmp_path):
    """A fresh disk cache directory with empty in-process state and stats."""
    previous = registry.get_cache_dir()
    registry.set_cache_dir(tmp_path)
    clear_cache()
    reset_cache_stats()
    yield tmp_path
    registry.set_cache_dir(previous)
    clear_cache()
    reset_cache_stats()


def assert_splits_equal(a, b) -> None:
    for split_a, split_b in ((a.train, b.train), (a.val, b.val), (a.test, b.test)):
        assert len(split_a) == len(split_b)
        assert split_a.domains == split_b.domains
        assert [split_a.domain_id(s.domain) for s in split_a.samples] == [
            split_b.domain_id(s.domain) for s in split_b.samples
        ]
        for sa, sb in zip(split_a.samples, split_b.samples):
            assert np.array_equal(sa.obs, sb.obs)
            assert np.array_equal(sa.future, sb.future)
            assert np.array_equal(sa.neighbours, sb.neighbours)
            assert (sa.domain, sa.scene_id, sa.frame) == (sb.domain, sb.scene_id, sb.frame)


class TestRoundTrip:
    def test_hit_after_simulated_process_restart(self, private_cache):
        generated = load_domain_dataset("lcas", CFG)
        assert cache_stats["misses"] == 1
        assert list(private_cache.glob("lcas-*.npz"))

        # A new process has an empty in-process layer but the same disk.
        clear_cache()
        loaded = load_domain_dataset("lcas", CFG)
        assert cache_stats["disk_hits"] == 1
        assert cache_stats["misses"] == 1  # no re-simulation
        assert loaded is not generated
        assert_splits_equal(loaded, generated)

    def test_disk_hit_performs_zero_simulation(self, private_cache, monkeypatch):
        load_domain_dataset("lcas", CFG)
        clear_cache()

        def explode(*args, **kwargs):
            raise AssertionError("disk hit must not re-simulate scenes")

        monkeypatch.setattr(registry, "generate_scenes", explode)
        load_domain_dataset("lcas", CFG)

    def test_empty_split_round_trips(self, private_cache):
        # A tiny recording can leave the val/test splits empty; the pack
        # format must survive that.
        tiny = DataConfig(num_scenes=1, frames_per_scene=25, stride=8)
        generated = load_domain_dataset("lcas", tiny)
        clear_cache()
        loaded = load_domain_dataset("lcas", tiny)
        assert_splits_equal(loaded, generated)

    def test_corrupt_entry_regenerates(self, private_cache):
        load_domain_dataset("lcas", CFG)
        path = next(private_cache.glob("lcas-*.npz"))
        path.write_bytes(b"not a zip archive")
        clear_cache()
        reset_cache_stats()
        loaded = load_domain_dataset("lcas", CFG)
        assert cache_stats["misses"] == 1  # regenerated, not crashed
        assert len(loaded.train) > 0


class TestKeying:
    @pytest.mark.parametrize(
        "other",
        [
            DataConfig(num_scenes=2, frames_per_scene=45, stride=8, max_neighbours=4),
            DataConfig(num_scenes=1, frames_per_scene=50, stride=8, max_neighbours=4),
            DataConfig(num_scenes=1, frames_per_scene=45, stride=4, max_neighbours=4),
            DataConfig(num_scenes=1, frames_per_scene=45, stride=8, max_neighbours=6),
            DataConfig(num_scenes=1, frames_per_scene=45, stride=8, max_neighbours=4, obs_len=6),
            DataConfig(num_scenes=1, frames_per_scene=45, stride=8, max_neighbours=4, pred_len=10),
            DataConfig(num_scenes=1, frames_per_scene=45, stride=8, max_neighbours=4, seed=8),
        ],
        ids=["num_scenes", "frames", "stride", "max_neighbours", "obs_len", "pred_len", "seed"],
    )
    def test_any_config_field_changes_the_key(self, other):
        assert registry._cache_key("lcas", ("lcas",), CFG) != registry._cache_key(
            "lcas", ("lcas",), other
        )

    def test_domain_and_domain_list_change_the_key(self):
        domains = tuple(["eth_ucy", "lcas"])
        assert registry._cache_key("lcas", domains, CFG) != registry._cache_key(
            "eth_ucy", domains, CFG
        )
        assert registry._cache_key("lcas", domains, CFG) != registry._cache_key(
            "lcas", ("lcas", "eth_ucy"), CFG
        )

    def test_different_config_misses_on_disk(self, private_cache):
        load_domain_dataset("lcas", CFG)
        clear_cache()
        reset_cache_stats()
        load_domain_dataset("lcas", DataConfig(num_scenes=1, frames_per_scene=45, seed=8))
        assert cache_stats["misses"] == 1
        assert cache_stats["disk_hits"] == 0


def table4_keys() -> list[tuple[str, list[str]]]:
    """``(domain, domains)`` of every dataset Table IV loads: 16 keys, each
    domain under the 4 leave-one-out orderings."""
    keys = []
    for target in DOMAIN_NAMES:
        domains = [d for d in DOMAIN_NAMES if d != target] + [target]
        keys.extend((domain, domains) for domain in domains)
    return keys


class TestBuildOnce:
    def test_table4_simulates_each_domain_once_per_cold_pass(
        self, private_cache, monkeypatch
    ):
        """A cold Table IV set-up: 16 misses from 4 simulations, the same
        again after ``clear_cache()``, and every dataset equal to the one
        built alone from an empty cache."""
        calls = []
        real_generate = registry.generate_scenes

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return real_generate(*args, **kwargs)

        monkeypatch.setattr(registry, "generate_scenes", counting)
        keys = table4_keys()
        passes = []
        for index in range(2):
            registry.set_cache_dir(private_cache / f"pass{index}")
            clear_cache()
            reset_cache_stats()
            calls.clear()
            passes.append([load_domain_dataset(d, CFG, domains=ds) for d, ds in keys])
            assert cache_stats["misses"] == 16
            assert cache_stats["simulated"] == 4
            assert sorted(calls) == sorted(DOMAIN_NAMES)
            assert len(list((private_cache / f"pass{index}").glob("*.npz"))) == 16

        registry.set_cache_dir(None)
        for (domain, domains), first, second in zip(keys, *passes):
            clear_cache()
            alone = load_domain_dataset(domain, CFG, domains=domains)
            assert_splits_equal(first, alone)
            assert_splits_equal(second, alone)

    def test_other_orderings_rewrap_a_disk_hit(self, private_cache, monkeypatch):
        first = load_domain_dataset("lcas", CFG, domains=["lcas", "sdd"])
        clear_cache()
        reset_cache_stats()
        monkeypatch.setattr(
            registry,
            "generate_scenes",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("a domain read from disk must not be simulated again")
            ),
        )
        assert_splits_equal(load_domain_dataset("lcas", CFG, domains=["lcas", "sdd"]), first)
        reordered = load_domain_dataset("lcas", CFG, domains=["sdd", "lcas"])
        assert cache_stats["disk_hits"] == 1
        assert cache_stats["misses"] == 1
        assert cache_stats["simulated"] == 0
        assert reordered.train.domains == ["sdd", "lcas"]
        assert {reordered.train.domain_id(s.domain) for s in reordered.train.samples} == {1}


class TestDisabledCache:
    def test_none_dir_disables_disk_layer(self, tmp_path):
        previous = registry.get_cache_dir()
        registry.set_cache_dir(None)
        clear_cache()
        reset_cache_stats()
        try:
            load_domain_dataset("lcas", CFG)
            clear_cache()
            load_domain_dataset("lcas", CFG)
            assert cache_stats["misses"] == 2  # simulated twice, no disk
        finally:
            registry.set_cache_dir(previous)
            clear_cache()

    def test_env_off_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_CACHE", "0")
        assert registry.default_cache_dir() is None
        monkeypatch.setenv("REPRO_DATA_CACHE", "off")
        assert registry.default_cache_dir() is None
        monkeypatch.setenv("REPRO_DATA_CACHE", "/some/dir")
        assert registry.default_cache_dir() == "/some/dir"


class TestTableLevelContract:
    def test_second_table_invocation_performs_zero_simulation(
        self, private_cache, monkeypatch
    ):
        """Acceptance gate: rerunning a table at the same scale never simulates."""
        from repro.experiments.runner import run_declared
        from repro.experiments.tables import TABLES
        from tests.experiments.test_harness_and_reporting import MICRO

        first = run_declared(TABLES["table2"](MICRO, 0))

        # Fresh process: in-memory gone, disk remains.
        clear_cache()
        monkeypatch.setattr(
            registry,
            "generate_scenes",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("second table invocation must not simulate")
            ),
        )
        second = run_declared(TABLES["table2"](MICRO, 0))
        assert first.rows == second.rows
