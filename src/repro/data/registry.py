"""Dataset construction and caching by domain name.

``load_domain_dataset`` is the single entry point the experiment harness
uses: it simulates scenes for a named domain, windows them into prediction
samples, and returns chronological splits.  Results are cached at two
levels, because the same domain data is reused across the many
method/backbone combinations of Tables II–VIII *and* across the worker
processes and repeated invocations of the experiment runner:

* **in-process** — a dict keyed by ``(domain, domains, DataConfig)``; hits
  return the same object.  Beneath it, each domain is built once per
  ``(domain, DataConfig)``: the domain list only names the domain ids, so a
  new ordering re-wraps the samples already built (same arrays, same split)
  instead of simulating again.
* **on-disk** — a content-keyed ``.npz`` per dataset under the cache
  directory (``REPRO_DATA_CACHE`` env var, default
  ``~/.cache/repro/datasets``; set to ``0``/``off`` to disable).  Keys hash
  the full :class:`DataConfig`, the domain, the domain-id universe, and a
  format version, so any parameter change regenerates.  Writes go to a
  temporary file in the same directory followed by an atomic ``os.replace``,
  making concurrent writers (parallel sweep workers) safe: last writer wins
  with identical bytes, readers never observe partial files.

So a domain is simulated once per process and data config, each ordering's
file is written once per machine, and a rerun at the same scale simulates
nothing.  ``tests/data/test_disk_cache.py`` holds the round-trip/keying
contract, the "second table invocation performs zero simulation" guarantee
and the build-once rule (Table IV's 16 datasets from 4 simulations).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import (
    OBS_LEN,
    PRED_LEN,
    TrajectoryDataset,
    TrajectorySample,
    extract_samples,
)
from repro.data.splits import DatasetSplits, chronological_split
from repro.obs.log import get_logger
from repro.sim.domains import DOMAIN_NAMES, get_domain
from repro.sim.generator import generate_scenes
from repro.utils.seeding import new_rng

__all__ = [
    "DataConfig",
    "cache_stats",
    "clear_cache",
    "default_cache_dir",
    "get_cache_dir",
    "load_domain_dataset",
    "load_multi_domain",
    "reset_cache_stats",
    "set_cache_dir",
]

#: Bump when the on-disk layout changes; old entries are then ignored.
_CACHE_FORMAT_VERSION = 1

_CACHE_ENV = "REPRO_DATA_CACHE"
_DISABLED_VALUES = {"0", "off", "none", ""}


@dataclass(frozen=True)
class DataConfig:
    """Size parameters for dataset generation."""

    num_scenes: int = 3
    frames_per_scene: int = 90
    stride: int = 4
    max_neighbours: int = 8
    obs_len: int = OBS_LEN
    pred_len: int = PRED_LEN
    seed: int = 7


_CACHE: dict[tuple, DatasetSplits] = {}
#: The splits each ``(domain, DataConfig)`` was first built (or read) as,
#: under whichever domain list asked first; other orderings re-wrap them.
_BUILT: dict[tuple[str, DataConfig], DatasetSplits] = {}

#: Counters for observing cache behaviour (tests and benchmarks reset+read
#: these): ``memory_hits`` / ``disk_hits`` / ``misses`` (the key was in
#: neither layer) / ``simulated`` (misses that ran the simulator; the rest
#: re-wrapped a domain already built) / ``dropped`` (corrupt or stale disk
#: entries unlinked and regenerated).
cache_stats: dict[str, int] = {
    "memory_hits": 0,
    "disk_hits": 0,
    "misses": 0,
    "simulated": 0,
    "dropped": 0,
}


def reset_cache_stats() -> None:
    for key in cache_stats:
        cache_stats[key] = 0


def default_cache_dir() -> str | None:
    """Cache directory from the environment (None when caching is disabled)."""
    value = os.environ.get(_CACHE_ENV)
    if value is not None and value.strip().lower() in _DISABLED_VALUES:
        return None
    if value:
        return value
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "datasets")


#: Sentinel distinguishing "not configured" from "explicitly disabled".
_UNSET = object()
_cache_dir: object = _UNSET


def get_cache_dir() -> str | None:
    """The active disk-cache directory, or None when disabled."""
    if _cache_dir is _UNSET:
        return default_cache_dir()
    return _cache_dir  # type: ignore[return-value]


def set_cache_dir(path: str | os.PathLike | None) -> None:
    """Override the disk-cache directory (``None`` disables the disk layer)."""
    global _cache_dir
    _cache_dir = os.fspath(path) if path is not None else None


def clear_cache(disk: bool = False) -> None:
    """Drop all in-process cached datasets (tests use this to force reload).

    The next miss of each domain simulates again.  With ``disk=True`` also
    delete the on-disk entries of the active cache directory.
    """
    _CACHE.clear()
    _BUILT.clear()
    if disk:
        directory = get_cache_dir()
        if directory and os.path.isdir(directory):
            for name in os.listdir(directory):
                if name.endswith(".npz"):
                    os.unlink(os.path.join(directory, name))


# ----------------------------------------------------------------------
# Disk layer
# ----------------------------------------------------------------------
def _cache_key(domain: str, domains: tuple[str, ...], config: DataConfig) -> str:
    payload = json.dumps(
        {
            "format": _CACHE_FORMAT_VERSION,
            "domain": domain,
            "domains": list(domains),
            "config": dataclasses.asdict(config),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _cache_path(directory: str, domain: str, key: str) -> str:
    return os.path.join(directory, f"{domain}-{key}.npz")


def _pack_dataset(prefix: str, dataset: TrajectoryDataset, out: dict) -> None:
    samples = dataset.samples
    # Zero-sample splits are stored flat; _unpack_dataset reshapes by config.
    out[f"{prefix}_obs"] = (
        np.stack([s.obs for s in samples]) if samples else np.zeros((0, 2))
    )
    out[f"{prefix}_future"] = (
        np.stack([s.future for s in samples]) if samples else np.zeros((0, 2))
    )
    counts = np.array([s.num_neighbours for s in samples], dtype=np.int64)
    out[f"{prefix}_neighbour_counts"] = counts
    if counts.sum():
        out[f"{prefix}_neighbours"] = np.concatenate(
            [s.neighbours for s in samples if s.num_neighbours]
        )
    else:
        out[f"{prefix}_neighbours"] = np.zeros((0, 2))
    out[f"{prefix}_domain_ids"] = np.array(
        [dataset.domain_id(s.domain) for s in samples], dtype=np.int64
    )
    out[f"{prefix}_scene_ids"] = np.array([s.scene_id for s in samples], dtype=np.int64)
    out[f"{prefix}_frames"] = np.array([s.frame for s in samples], dtype=np.int64)


def _unpack_dataset(
    prefix: str, payload, domains: list[str], obs_len: int, pred_len: int
) -> TrajectoryDataset:
    obs = payload[f"{prefix}_obs"].reshape(-1, obs_len, 2)
    future = payload[f"{prefix}_future"].reshape(-1, pred_len, 2)
    counts = payload[f"{prefix}_neighbour_counts"]
    neighbours = payload[f"{prefix}_neighbours"].reshape(-1, obs_len, 2)
    domain_ids = payload[f"{prefix}_domain_ids"]
    scene_ids = payload[f"{prefix}_scene_ids"]
    frames = payload[f"{prefix}_frames"]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    samples = [
        TrajectorySample(
            obs=obs[i],
            future=future[i],
            neighbours=neighbours[offsets[i] : offsets[i + 1]],
            domain=domains[int(domain_ids[i])],
            scene_id=int(scene_ids[i]),
            frame=int(frames[i]),
        )
        for i in range(obs.shape[0])
    ]
    return TrajectoryDataset(samples, domains=domains)


def _write_disk(
    directory: str, domain: str, key: str, domains: tuple[str, ...], splits: DatasetSplits
) -> None:
    os.makedirs(directory, exist_ok=True)
    arrays: dict[str, np.ndarray] = {
        "format_version": np.array([_CACHE_FORMAT_VERSION], dtype=np.int64),
        "domains": np.array(list(domains)),
    }
    for prefix, dataset in (("train", splits.train), ("val", splits.val), ("test", splits.test)):
        _pack_dataset(prefix, dataset, arrays)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{domain}-{key}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp_path, _cache_path(directory, domain, key))
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _read_disk(
    directory: str, domain: str, key: str, config: DataConfig
) -> DatasetSplits | None:
    path = _cache_path(directory, domain, key)
    try:
        with np.load(path, allow_pickle=False) as payload:
            if int(payload["format_version"][0]) != _CACHE_FORMAT_VERSION:
                return None
            domains = [str(name) for name in payload["domains"]]
            return DatasetSplits(
                train=_unpack_dataset("train", payload, domains, config.obs_len, config.pred_len),
                val=_unpack_dataset("val", payload, domains, config.obs_len, config.pred_len),
                test=_unpack_dataset("test", payload, domains, config.obs_len, config.pred_len),
            )
    except FileNotFoundError:
        return None
    except Exception as error:
        # Corrupt or stale entry (partial zip, schema drift): drop + regenerate.
        cache_stats["dropped"] += 1
        get_logger("repro.data.registry").warning(
            "cache_entry_dropped",
            path=path,
            domain=domain,
            error=f"{type(error).__name__}: {error}",
        )
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def _generate_splits(
    domain: str, domains: tuple[str, ...], config: DataConfig
) -> DatasetSplits:
    # zlib.crc32, not hash(): Python string hashing is randomized per process
    # (PYTHONHASHSEED), which would make dataset generation irreproducible.
    domain_code = zlib.crc32(domain.encode("utf-8"))
    rng = new_rng((config.seed * 1000003 + domain_code) % (2**32))
    scenes = generate_scenes(
        get_domain(domain),
        num_scenes=config.num_scenes,
        frames_per_scene=config.frames_per_scene,
        rng=rng,
    )
    samples = []
    for scene in scenes:
        samples.extend(
            extract_samples(
                scene,
                obs_len=config.obs_len,
                pred_len=config.pred_len,
                stride=config.stride,
                max_neighbours=config.max_neighbours,
            )
        )
    dataset = TrajectoryDataset(samples, domains=list(domains))
    return chronological_split(dataset)


def _rewrap(splits: DatasetSplits, domains: tuple[str, ...]) -> DatasetSplits:
    """``splits``' samples under another domain list.

    Only the domain ids change: a single-domain dataset holds the same
    samples under any ordering, and ``chronological_split`` splits each
    domain on its own.
    """
    return DatasetSplits(
        train=TrajectoryDataset(splits.train.samples, domains=list(domains)),
        val=TrajectoryDataset(splits.val.samples, domains=list(domains)),
        test=TrajectoryDataset(splits.test.samples, domains=list(domains)),
    )


def load_domain_dataset(
    domain: str,
    config: DataConfig | None = None,
    domains: list[str] | None = None,
) -> DatasetSplits:
    """Generate (or fetch cached) chronological splits for one domain.

    ``domains`` fixes the global domain-name list so that domain ids are
    consistent across datasets that will later be merged (defaults to the
    canonical four-domain list).
    """
    config = config or DataConfig()
    if domains is None:
        domains = list(DOMAIN_NAMES)
    if domain not in domains:
        raise ValueError(f"domain {domain!r} missing from domain list {domains}")
    domains_key = tuple(domains)
    key = (domain, domains_key, config)
    if key in _CACHE:
        cache_stats["memory_hits"] += 1
        return _CACHE[key]

    directory = get_cache_dir()
    if directory is not None:
        digest = _cache_key(domain, domains_key, config)
        splits = _read_disk(directory, domain, digest, config)
        if splits is not None:
            cache_stats["disk_hits"] += 1
            _BUILT.setdefault((domain, config), splits)
            _CACHE[key] = splits
            return splits

    cache_stats["misses"] += 1
    built = _BUILT.get((domain, config))
    if built is not None:
        splits = _rewrap(built, domains_key)
    else:
        cache_stats["simulated"] += 1
        splits = _BUILT[(domain, config)] = _generate_splits(domain, domains_key, config)
    if directory is not None:
        _write_disk(directory, domain, digest, domains_key, splits)
    _CACHE[key] = splits
    return splits


def load_multi_domain(
    source_domains: list[str],
    config: DataConfig | None = None,
    domains: list[str] | None = None,
) -> DatasetSplits:
    """Merged splits over several source domains (multi-source training set)."""
    if not source_domains:
        raise ValueError("need at least one source domain")
    if domains is None:
        domains = list(DOMAIN_NAMES)
    per_domain = [load_domain_dataset(d, config, domains) for d in source_domains]
    return DatasetSplits(
        train=TrajectoryDataset.merge([s.train for s in per_domain]),
        val=TrajectoryDataset.merge([s.val for s in per_domain]),
        test=TrajectoryDataset.merge([s.test for s in per_domain]),
    )
