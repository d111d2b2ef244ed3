"""Dual-path network assembly.

One weight-shared feature extractor serves both temporal paths: the current
frame is extracted once per step.  Fusion runs independently per pyramid
level, and only on the levels the detection head reads; the head gets the
current frame's unfused map at the others.  The history path is fed from a
ring buffer that holds, per fused level, each past frame's map already
passed through the history projection (fusion.project_history), so no frame
goes through the extractor or that projection twice.

Pyramid levels are built when first read.  The extractor checks a frame's
pixels when it is called and keeps its own copy of them; a level is pooled
from that copy the first time anything reads it, and kept.  step() reads
only the levels it fuses and hands the head a pyramid with those replaced
by their fused maps and the others still unbuilt, so BlobHead, which reads
level 0, costs one pooled level per frame.

Each fused level keeps two kinds of frame-size array across steps, both
allocated at its first step.  A ring of capacity + 1 slots holds the
projected history: each frame's projection is written into the slot of the
frame buffered capacity + 1 steps before it, which the buffer has already
evicted, and the buffer holds views of the slots.  A concat workspace holds
the branches' concatenation, for a level whose plan has an output
projection.  EfAvg, and a zero-width long branch, project history by the
identity and have no ring.  The fused map handed to the head is a fresh
array every step, so a head may keep its pyramids; fusion never writes
into a pyramid's level or into a slot the buffer holds.

Feature maps are plain (C, H, W) float64 arrays.  Values are checked for
finiteness once, where they enter: the extractor rejects a frame with a
non-finite pixel, and fusion.fuse() checks the maps handed to it; nothing
on the extractor-to-head path copies or scans a map to check it again.

The desk-scale extractor here is a deterministic box-filter pyramid and the
desk-scale head scores thresholded blobs; together they exercise every
architectural contract without any training.  The head labels its blobs
with scipy.ndimage, which it imports when it is built, not when this module
is: a run without the pyramid detector never loads it, and a pyramid run
loads it before its first frame.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional, Protocol

import numpy as np

from .boxes import DetectionTable
from .fusion import (
    FusionSettings,
    LsfmConfig,
    fuse_projected,
    history_is_identity,
    init_weights,
    plan_channels,
    project_history,
)

PYRAMID_RATES = (8, 16, 32)

# Fusion input widths per pyramid level for the three model sizes.
MODEL_CHANNELS = {
    "S": (128, 256, 512),
    "M": (192, 384, 768),
    "L": (256, 512, 1024),
}


class NonMonotonicIndex(ValueError):
    """Buffer pushes must use strictly increasing frame indices."""


@dataclass(frozen=True)
class Frame:
    """One stream sample.  pixels is an opaque payload: a 2-d grayscale
    array, an object exposing rasterize() -> 2-d array, or None when only
    the geometry matters."""

    index: int
    timestamp_ms: float
    pixels: Any = None


class PyramidLevels(Sequence):
    """A pyramid's levels, read like a tuple of (C, H, W) arrays.  A level
    given as a zero-argument callable is built the first time it is read and
    kept from then on."""

    def __init__(self, sources):
        self._sources = list(sources)

    def __len__(self) -> int:
        return len(self._sources)

    def __getitem__(self, i: int) -> np.ndarray:
        level = self._sources[i]
        if callable(level):
            level = self._sources[i] = level()
        return level


class FeaturePyramid:
    """Per-frame (C, H, W) feature maps at down-sampling rates /8, /16, /32,
    each an array or a callable that builds it when first read."""

    def __init__(self, levels):
        if len(levels) != len(PYRAMID_RATES):
            raise ValueError(f"expected {len(PYRAMID_RATES)} levels, got {len(levels)}")
        self.levels = PyramidLevels(levels)

    def replace(self, maps: dict[int, np.ndarray]) -> "FeaturePyramid":
        """This pyramid with the given levels replaced; the others stay this
        pyramid's own, unbuilt until read."""
        return FeaturePyramid(
            [maps[i] if i in maps else partial(self.levels.__getitem__, i) for i in range(len(self.levels))]
        )


class FeatureExtractor(Protocol):
    model_size: str

    def extract(self, frame: Frame) -> FeaturePyramid: ...


class DetectionHead(Protocol):
    """Turns a pyramid into detections.  A head may declare `levels_used`, a
    tuple of the level indices predict() reads; the network then fuses only
    those levels.  A head without it gets every level fused."""

    def predict(self, pyramid: FeaturePyramid) -> DetectionTable: ...


def _block_reduce_mean(img: np.ndarray, rate: int) -> np.ndarray:
    """Mean-pool with ceil-sized output; edge blocks cover fewer pixels."""
    h, w = img.shape
    row_starts = np.arange(0, h, rate)
    col_starts = np.arange(0, w, rate)
    sums = np.add.reduceat(np.add.reduceat(img, row_starts, axis=0), col_starts, axis=1)
    row_counts = np.minimum(row_starts + rate, h) - row_starts
    col_counts = np.minimum(col_starts + rate, w) - col_starts
    return sums / np.outer(row_counts, col_counts)


class BoxFilterExtractor:
    """Deterministic toy extractor: box-filter downsampling to /8, /16, /32
    plus a fixed per-channel positive scaling to lift each level to its
    model-size channel width.  A single instance is shared by both temporal
    paths; `calls` counts invocations."""

    def __init__(self, model_size: str = "S", seed: int = 0):
        if model_size not in MODEL_CHANNELS:
            raise ValueError(f"model_size must be one of {sorted(MODEL_CHANNELS)}")
        self.model_size = model_size
        rng = np.random.default_rng(seed)
        self._lifts = [rng.uniform(0.5, 1.5, size=c) for c in MODEL_CHANNELS[model_size]]
        self.calls = 0

    def extract(self, frame: Frame) -> FeaturePyramid:
        """Check the frame's pixels now and return its pyramid, whose levels
        are pooled from a private copy of them when first read."""
        self.calls += 1
        img = frame.pixels
        if img is None:
            raise ValueError(f"frame {frame.index} carries no image payload")
        # a caller's array is copied, so that a later change to it cannot
        # reach a level built from it; a fresh raster is not
        if isinstance(img, np.ndarray):
            img = np.array(img, dtype=np.float64)
        else:
            img = np.asarray(img.rasterize(), dtype=np.float64)
        if not np.isfinite(img).all():
            raise ValueError(f"frame {frame.index} has non-finite pixels")
        return FeaturePyramid([partial(self._level, img, k) for k in range(len(PYRAMID_RATES))])

    def _level(self, img: np.ndarray, k: int) -> np.ndarray:
        pooled = _block_reduce_mean(img, PYRAMID_RATES[k])
        return pooled[None, :, :] * self._lifts[k][:, None, None]


class BlobHead:
    """Pass-through scorer: thresholds the channel-mean of the finest fused
    level and reports each connected blob as a detection, scored by its mean
    activation (clamped to [0, 1]).  scipy.ndimage, which labels the blobs,
    is imported when the head is built, so a run without this head never
    loads it."""

    levels_used = (0,)

    def __init__(self, threshold: float = 0.3, category: int = 0):
        from scipy import ndimage

        self._ndimage = ndimage
        self.threshold = threshold
        self.category = category

    def predict(self, pyramid: FeaturePyramid) -> DetectionTable:
        saliency = pyramid.levels[0].mean(axis=0)
        labels, _ = self._ndimage.label(saliency > self.threshold)
        blobs = self._ndimage.find_objects(labels)  # blob i + 1's bounding (rows, cols) slices
        corners = [(cols.start, rows.start, cols.stop, rows.stop) for rows, cols in blobs]
        scores = [min(1.0, max(0.0, saliency[b][labels[b] == i].mean())) for i, b in enumerate(blobs, 1)]
        return DetectionTable(
            np.array(corners, dtype=np.float64).reshape(-1, 4) * PYRAMID_RATES[0],
            np.full(len(blobs), self.category, dtype=np.int64),
            np.array(scores, dtype=np.float64),
        )


ProjectedMaps = tuple[np.ndarray, ...]


class FeatureBuffer:
    """Index-keyed cache of the most recent frames' projected maps (one
    tuple per frame, one map per fused level), capacity n_history *
    delta_t.  Gathering strides backwards through it; indices that fall off
    the front of the stream (or were never stored) get the caller's pad."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.slots: dict[int, ProjectedMaps] = {}

    def push(self, index: int, maps: ProjectedMaps) -> None:
        if self.slots and index <= max(self.slots):
            raise NonMonotonicIndex(f"index {index} not greater than stored {max(self.slots)}")
        self.slots[index] = maps
        while len(self.slots) > self.capacity:
            del self.slots[min(self.slots)]

    def gather(self, t: int, n: int, delta_t: int, pad: ProjectedMaps) -> list[ProjectedMaps]:
        """Entries for t - delta_t, t - 2*delta_t, ..., t - n*delta_t,
        most-recent-first, with pad in place of every missing one."""
        out = []
        for i in range(1, n + 1):
            idx = t - i * delta_t
            out.append(self.slots.get(idx, pad) if idx >= 0 else pad)
        return out


class _FusedLevel:
    """One fused pyramid level: its fusion config and weights, and the
    frame-size arrays its steps reuse, allocated at its first step (and
    again if the frame size changes): a ring of `slots` projected-history
    maps, unless history is projected by the identity, and a concat
    workspace, if the plan has an output projection."""

    def __init__(self, cfg: LsfmConfig, weight_seed: int, slots: int):
        self.cfg = cfg
        self.plan = plan_channels(cfg)
        self.weights = init_weights(cfg, self.plan, weight_seed)
        self.slots = slots
        self.sites: Optional[tuple[int, ...]] = None
        self.ring: Optional[np.ndarray] = None
        self.workspace: Optional[np.ndarray] = None

    def project(self, fmap: np.ndarray, slot: int) -> np.ndarray:
        """fmap's history projection, written into the ring's `slot`."""
        sites = fmap.shape[1:]
        if sites != self.sites:
            self.sites = sites
            if not history_is_identity(self.cfg):
                self.ring = np.empty((self.slots, self.plan.long_out, *sites))
            if self.plan.needs_output_projection and self.plan.pre_projection_total > 0:
                self.workspace = np.empty((self.plan.pre_projection_total, *sites))
        return project_history(self.cfg, self.weights, fmap, None if self.ring is None else self.ring[slot])


@dataclass
class DualPathNetwork:
    """The full assembly: extractor, per-level fusion, head, feature buffer.

    With fusion.n_history == 0 the history path is disabled and the current
    pyramid passes straight to the head.  Otherwise fusion configs and
    weights exist only for the levels the head reads, and the buffer holds
    one tuple of projected maps per frame, one map per fused level, each a
    view of a slot in that level's ring.
    """

    extractor: FeatureExtractor
    head: DetectionHead
    fusion: FusionSettings = field(default_factory=FusionSettings)
    weight_seed: int = 0
    buffer: Optional[FeatureBuffer] = field(init=False, default=None)

    def __post_init__(self):
        if self.fusion.n_history > 0:
            channels = MODEL_CHANNELS[self.extractor.model_size]
            used = getattr(self.head, "levels_used", range(len(PYRAMID_RATES)))
            self.buffer = FeatureBuffer(capacity=self.fusion.n_history * self.fusion.delta_t)
            self._levels = {
                level: _FusedLevel(self.fusion.config_for(channels[level]), self.weight_seed, self.buffer.capacity + 1)
                for level in used
            }
            self._pushes = 0

    def step(self, frame: Frame) -> DetectionTable:
        """Process one frame: a single extractor call, one history
        projection per fused level, buffered history, fusion, then the
        head.  The projected maps are buffered after use, and they are
        also the pad for history missing from the buffer."""
        current = self.extractor.extract(frame)
        if self.fusion.n_history == 0:
            return self.head.predict(current)
        maps = [current.levels[level] for level in self._levels]
        slot = self._pushes % (self.buffer.capacity + 1)  # its last frame left the buffer at the last push
        projected = tuple(lv.project(fmap, slot) for lv, fmap in zip(self._levels.values(), maps))
        history = self.buffer.gather(frame.index, self.fusion.n_history, self.fusion.delta_t, projected)
        fused = {
            level: fuse_projected(lv.cfg, lv.weights, fmap, projected[k], [h[k] for h in history], lv.workspace)
            for k, ((level, lv), fmap) in enumerate(zip(self._levels.items(), maps))
        }
        dets = self.head.predict(current.replace(fused))
        self.buffer.push(frame.index, projected)
        self._pushes += 1
        return dets
