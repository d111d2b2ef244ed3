"""Dual-path network assembly.

One weight-shared feature extractor serves both temporal paths: the current
frame is extracted once per step.  Fusion runs independently per pyramid
level, and only on the levels the detection head reads; the head gets the
current frame's unfused map at the others.  The history path is fed from a
ring buffer that holds, per fused level, each past frame's map already
passed through the history projection (fusion.project_history), so no frame
goes through the extractor or that projection twice.

Feature maps are plain (C, H, W) float64 arrays.  Values are checked for
finiteness once, where they enter: the extractor rejects a frame with a
non-finite pixel, and fusion.fuse() checks the maps handed to it; nothing
on the extractor-to-head path copies or scans a map to check it again.

The desk-scale extractor here is a deterministic box-filter pyramid and the
desk-scale head scores thresholded blobs; together they exercise every
architectural contract without any training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Protocol

import numpy as np
from scipy import ndimage

from .boxes import BBox, Detection
from .fusion import FusionSettings, fuse_projected, init_weights, plan_channels, project_history

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


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-frame (C, H, W) feature maps at down-sampling rates /8, /16, /32."""

    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.levels) != len(PYRAMID_RATES):
            raise ValueError(f"expected {len(PYRAMID_RATES)} levels, got {len(self.levels)}")


class FeatureExtractor(Protocol):
    model_size: str

    def extract(self, frame: Frame) -> FeaturePyramid: ...


class DetectionHead(Protocol):
    """Turns a pyramid into detections.  A head may declare `levels_used`, a
    tuple of the level indices predict() reads; the network then fuses only
    those levels.  A head without it gets every level fused."""

    def predict(self, pyramid: FeaturePyramid) -> list[Detection]: ...


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
        self.calls += 1
        img = frame.pixels
        if img is None:
            raise ValueError(f"frame {frame.index} carries no image payload")
        if not isinstance(img, np.ndarray):
            img = img.rasterize()
        img = np.asarray(img, dtype=np.float64)
        if not np.isfinite(img).all():
            raise ValueError(f"frame {frame.index} has non-finite pixels")
        levels = []
        for rate, lift in zip(PYRAMID_RATES, self._lifts):
            pooled = _block_reduce_mean(img, rate)
            levels.append(pooled[None, :, :] * lift[:, None, None])
        return FeaturePyramid(tuple(levels))


class BlobHead:
    """Pass-through scorer: thresholds the channel-mean of the finest fused
    level and reports each connected blob as a detection, scored by its mean
    activation (clamped to [0, 1])."""

    levels_used = (0,)

    def __init__(self, threshold: float = 0.3, category: int = 0):
        self.threshold = threshold
        self.category = category

    def predict(self, pyramid: FeaturePyramid) -> list[Detection]:
        rate = PYRAMID_RATES[0]
        saliency = pyramid.levels[0].mean(axis=0)
        labels, count = ndimage.label(saliency > self.threshold)
        dets = []
        for lab in range(1, count + 1):
            rows, cols = np.nonzero(labels == lab)
            box = BBox(
                x_min=float(cols.min() * rate),
                y_min=float(rows.min() * rate),
                x_max=float((cols.max() + 1) * rate),
                y_max=float((rows.max() + 1) * rate),
            )
            score = float(min(1.0, max(0.0, saliency[rows, cols].mean())))
            dets.append(Detection(bbox=box, category=self.category, score=score))
        return dets


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


@dataclass
class DualPathNetwork:
    """The full assembly: extractor, per-level fusion, head, feature buffer.

    With fusion.n_history == 0 the history path is disabled and the current
    pyramid passes straight to the head.  Otherwise fusion configs and
    weights exist only for the levels the head reads, and the buffer holds
    one tuple of projected maps per frame, one map per fused level.
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
            self._levels = {}
            for level in used:
                cfg = self.fusion.config_for(channels[level])
                self._levels[level] = (cfg, init_weights(cfg, plan_channels(cfg), self.weight_seed))
            self.buffer = FeatureBuffer(capacity=self.fusion.n_history * self.fusion.delta_t)

    def step(self, frame: Frame) -> list[Detection]:
        """Process one frame: a single extractor call, one history
        projection per fused level, buffered history, fusion, then the
        head.  The projected maps are buffered after use, and they are
        also the pad for history missing from the buffer."""
        current = self.extractor.extract(frame)
        if self.fusion.n_history == 0:
            return self.head.predict(current)
        projected = tuple(
            project_history(cfg, w, current.levels[level]) for level, (cfg, w) in self._levels.items()
        )
        history = self.buffer.gather(frame.index, self.fusion.n_history, self.fusion.delta_t, projected)
        levels = list(current.levels)
        for k, (level, (cfg, w)) in enumerate(self._levels.items()):
            levels[level] = fuse_projected(cfg, w, current.levels[level], projected[k], [h[k] for h in history])
        dets = self.head.predict(FeaturePyramid(tuple(levels)))
        self.buffer.push(frame.index, projected)
        return dets
