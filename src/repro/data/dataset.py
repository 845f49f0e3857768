"""Windowed prediction samples and batched dataset access.

Follows the paper's protocol (Sec. IV-A1/A4): every sample is a focal agent
observed for ``obs_len`` = 8 frames (3.2 s) with the task of predicting the
next ``pred_len`` = 12 frames (4.8 s); its neighbours are the other agents
present throughout the observation window.  Samples are normalized by
translating coordinates so the focal agent's last observed position is the
origin (standard practice in the trajectory-prediction literature and
required for cross-domain transfer — absolute scene coordinates are
meaningless across domains).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.trajectory import Scene
from repro.utils.seeding import new_rng

__all__ = [
    "Batch",
    "TrajectoryDataset",
    "TrajectorySample",
    "collate_windows",
    "extract_samples",
]

OBS_LEN = 8
PRED_LEN = 12


@dataclass
class TrajectorySample:
    """One focal-agent prediction instance.

    All coordinates are raw scene coordinates; normalization happens at
    batching time so samples stay inspectable.

    Attributes
    ----------
    obs : ``[obs_len, 2]`` focal agent's observed positions.
    future : ``[pred_len, 2]`` focal agent's ground-truth future.
    neighbours : ``[N, obs_len, 2]`` neighbours' observed positions (N >= 0).
    domain : domain name of the originating scene.
    scene_id / frame : provenance (frame = first observed frame index).
    """

    obs: np.ndarray
    future: np.ndarray
    neighbours: np.ndarray
    domain: str
    scene_id: int = 0
    frame: int = 0

    def __post_init__(self) -> None:
        self.obs = np.asarray(self.obs, dtype=np.float64)
        self.future = np.asarray(self.future, dtype=np.float64)
        self.neighbours = np.asarray(self.neighbours, dtype=np.float64)
        if self.neighbours.size == 0:
            self.neighbours = self.neighbours.reshape(0, self.obs.shape[0], 2)
        if self.obs.ndim != 2 or self.obs.shape[1] != 2:
            raise ValueError(f"obs must be [T, 2], got {self.obs.shape}")
        if self.future.ndim != 2 or self.future.shape[1] != 2:
            raise ValueError(f"future must be [T, 2], got {self.future.shape}")
        if self.neighbours.ndim != 3 or self.neighbours.shape[2] != 2:
            raise ValueError(f"neighbours must be [N, T, 2], got {self.neighbours.shape}")
        if self.neighbours.shape[1] != self.obs.shape[0]:
            raise ValueError(
                "neighbour window length "
                f"{self.neighbours.shape[1]} != obs length {self.obs.shape[0]}"
            )

    @property
    def num_neighbours(self) -> int:
        return self.neighbours.shape[0]


@dataclass
class Batch:
    """A padded mini-batch ready for model consumption.

    Coordinates are normalized: the focal agent's last observed position is
    the origin of every sample (``origins`` stores the subtracted offsets so
    predictions can be mapped back to scene coordinates).

    Attributes
    ----------
    obs : ``[B, obs_len, 2]``.
    future : ``[B, pred_len, 2]``.
    neighbours : ``[B, K, obs_len, 2]`` padded with zeros.
    neighbour_mask : ``[B, K]`` bool, True for real neighbours.
    domain_ids : ``[B]`` int, index into the dataset's domain list.
    origins : ``[B, 2]`` subtracted offsets.
    """

    obs: np.ndarray
    future: np.ndarray
    neighbours: np.ndarray
    neighbour_mask: np.ndarray
    domain_ids: np.ndarray
    origins: np.ndarray

    @property
    def size(self) -> int:
        return self.obs.shape[0]

    def denormalize(self, trajectories: np.ndarray) -> np.ndarray:
        """Map model-frame trajectories ``[B, T, 2]`` back to scene coordinates."""
        return trajectories + self.origins[:, None, :]


def collate_windows(
    obs_windows: list[np.ndarray],
    neighbour_windows: list[np.ndarray],
    domain_ids: list[int],
    futures: list[np.ndarray] | None = None,
    pred_len: int | None = None,
    max_neighbours: int | None = None,
) -> Batch:
    """Normalize + pad raw observation windows into a :class:`Batch`.

    The single collate core shared by offline training/evaluation
    (:meth:`TrajectoryDataset.collate`) and online serving
    (:func:`repro.serve.batcher.collate_requests`) — both paths must stay
    numerically identical, so the origin translation, nearest-first
    neighbour truncation, and padding/masking live here exactly once.

    ``futures`` is ``None`` for serving (no ground truth); then ``pred_len``
    sizes the zero-filled future array.
    """
    if not obs_windows:
        raise ValueError("cannot collate an empty batch")
    obs_len = obs_windows[0].shape[0]
    for window in obs_windows:
        if window.shape[0] != obs_len:
            raise ValueError(
                f"mixed window lengths in one batch: {window.shape[0]} != {obs_len}"
            )
    if futures is not None:
        pred_len = futures[0].shape[0]
    elif pred_len is None:
        raise ValueError("pred_len is required when futures are absent")
    if max_neighbours is None:
        max_neighbours = max((n.shape[0] for n in neighbour_windows), default=0)
    k = max(max_neighbours, 1)  # keep at least one (masked) slot
    batch_size = len(obs_windows)

    obs = np.zeros((batch_size, obs_len, 2))
    future = np.zeros((batch_size, pred_len, 2))
    neighbours = np.zeros((batch_size, k, obs_len, 2))
    mask = np.zeros((batch_size, k), dtype=bool)
    ids = np.zeros(batch_size, dtype=np.int64)
    origins = np.zeros((batch_size, 2))

    for row, window in enumerate(obs_windows):
        origin = window[-1]
        origins[row] = origin
        obs[row] = window - origin
        if futures is not None:
            future[row] = futures[row] - origin
        nbr = neighbour_windows[row]
        n = min(nbr.shape[0], k)
        if n:
            if nbr.shape[0] > k:
                dist = np.linalg.norm(nbr[:, -1, :] - origin[None, :], axis=1)
                nbr = nbr[np.argsort(dist)[:k]]
            neighbours[row, :n] = nbr[:n] - origin
            mask[row, :n] = True
        ids[row] = domain_ids[row]

    return Batch(
        obs=obs,
        future=future,
        neighbours=neighbours,
        neighbour_mask=mask,
        domain_ids=ids,
        origins=origins,
    )


def extract_samples(
    scene: Scene,
    obs_len: int = OBS_LEN,
    pred_len: int = PRED_LEN,
    stride: int = 1,
    max_neighbours: int | None = None,
) -> list[TrajectorySample]:
    """Slide a window over ``scene`` and emit one sample per focal agent.

    A track becomes a focal sample at window start ``s`` when it covers all
    ``obs_len + pred_len`` frames; its neighbours are the *other* tracks
    covering at least the observation part.  When ``max_neighbours`` is set,
    the nearest neighbours (by distance at the last observed frame) are kept.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    window = obs_len + pred_len
    samples: list[TrajectorySample] = []
    for start in range(0, max(scene.num_frames - window + 1, 0), stride):
        mid = start + obs_len
        focal_candidates = scene.tracks_covering(start, start + window)
        observers = scene.tracks_covering(start, mid)
        for focal in focal_candidates:
            positions = focal.slice_frames(start, start + window)
            obs = positions[:obs_len]
            future = positions[obs_len:]
            nbr_windows = [
                t.slice_frames(start, mid) for t in observers if t.agent_id != focal.agent_id
            ]
            if nbr_windows:
                neighbours = np.stack(nbr_windows)
                if max_neighbours is not None and neighbours.shape[0] > max_neighbours:
                    dist = np.linalg.norm(
                        neighbours[:, -1, :] - obs[-1][None, :], axis=1
                    )
                    keep = np.argsort(dist)[:max_neighbours]
                    neighbours = neighbours[keep]
            else:
                neighbours = np.zeros((0, obs_len, 2))
            samples.append(
                TrajectorySample(
                    obs=obs,
                    future=future,
                    neighbours=neighbours,
                    domain=scene.domain,
                    scene_id=scene.scene_id,
                    frame=start,
                )
            )
    return samples


class TrajectoryDataset:
    """A collection of samples spanning one or more domains.

    The dataset owns the domain-name -> integer-id mapping used by the
    AdapTraj domain classifier and per-domain experts.  Domain ids follow the
    order of ``domains`` as passed in (or first-appearance order).
    """

    def __init__(
        self,
        samples: list[TrajectorySample],
        domains: list[str] | None = None,
    ) -> None:
        if domains is None:
            seen: list[str] = []
            for s in samples:
                if s.domain not in seen:
                    seen.append(s.domain)
            domains = seen
        unknown = {s.domain for s in samples} - set(domains)
        if unknown:
            raise ValueError(f"samples reference domains not listed: {sorted(unknown)}")
        self.samples = list(samples)
        self.domains = list(domains)
        self._domain_to_id = {name: i for i, name in enumerate(self.domains)}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> TrajectorySample:
        return self.samples[index]

    def domain_id(self, name: str) -> int:
        return self._domain_to_id[name]

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    def subset(self, indices) -> TrajectoryDataset:
        """Dataset restricted to ``indices``, preserving the domain mapping."""
        return TrajectoryDataset([self.samples[i] for i in indices], domains=self.domains)

    def by_domain(self, name: str) -> TrajectoryDataset:
        """Dataset with only the samples from domain ``name``."""
        subset = [s for s in self.samples if s.domain == name]
        return TrajectoryDataset(subset, domains=self.domains)

    def domain_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(self.domains, 0)
        for s in self.samples:
            counts[s.domain] += 1
        return counts

    @staticmethod
    def merge(datasets: list[TrajectoryDataset]) -> TrajectoryDataset:
        """Concatenate datasets; the union of domain lists keeps first-seen order."""
        domains: list[str] = []
        for ds in datasets:
            for name in ds.domains:
                if name not in domains:
                    domains.append(name)
        samples = [s for ds in datasets for s in ds.samples]
        return TrajectoryDataset(samples, domains=domains)

    # ------------------------------------------------------------------
    def collate(self, indices, max_neighbours: int | None = None) -> Batch:
        """Build a normalized, padded :class:`Batch` from sample ``indices``."""
        chosen = [self.samples[i] for i in indices]
        return collate_windows(
            obs_windows=[s.obs for s in chosen],
            neighbour_windows=[s.neighbours for s in chosen],
            domain_ids=[self._domain_to_id[s.domain] for s in chosen],
            futures=[s.future for s in chosen],
            max_neighbours=max_neighbours,
        )

    def batches(
        self,
        batch_size: int,
        rng: np.random.Generator | int | None = None,
        shuffle: bool = True,
        max_neighbours: int | None = None,
        drop_last: bool = False,
    ):
        """Yield :class:`Batch` objects covering the dataset once."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        order = np.arange(len(self.samples))
        if shuffle:
            new_rng(rng).shuffle(order)
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            if drop_last and len(idx) < batch_size:
                break
            yield self.collate(idx, max_neighbours=max_neighbours)
