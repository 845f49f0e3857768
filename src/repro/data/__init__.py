"""``repro.data`` — trajectory containers and the TrajNet++-style pipeline.

Scenes (simulated at 0.4 s frames) → sliding-window samples (8 obs + 12
pred) → chronological 6:2:2 splits → normalized padded batches.
"""

from repro.data.dataset import (
    OBS_LEN,
    PRED_LEN,
    Batch,
    TrajectoryDataset,
    TrajectorySample,
    extract_samples,
)
from repro.data.registry import (
    DataConfig,
    cache_stats,
    clear_cache,
    default_cache_dir,
    get_cache_dir,
    load_domain_dataset,
    load_multi_domain,
    reset_cache_stats,
    set_cache_dir,
)
from repro.data.splits import DatasetSplits, chronological_split
from repro.data.trajectory import AgentTrack, Scene

__all__ = [
    "AgentTrack",
    "Batch",
    "DataConfig",
    "DatasetSplits",
    "OBS_LEN",
    "PRED_LEN",
    "Scene",
    "TrajectoryDataset",
    "TrajectorySample",
    "cache_stats",
    "chronological_split",
    "clear_cache",
    "default_cache_dir",
    "extract_samples",
    "get_cache_dir",
    "load_domain_dataset",
    "load_multi_domain",
    "set_cache_dir",
]
