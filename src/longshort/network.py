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
projection.  Both follow the level's fusion.ChannelPlan: without history
projection (EfAvg, a zero-width history path) the extractor's maps are
buffered as they are and there is no ring.  The fused map handed to the
head is a fresh array every step, so a head may keep its pyramids; fusion
never writes into a pyramid's level or into a slot the buffer holds.

Feature maps are plain (C, H, W) float64 arrays.  Values are checked for
finiteness once, where they enter: the extractor rejects a frame with a
non-finite pixel, and fusion.fuse() checks the maps handed to it; nothing
on the extractor-to-head path copies or scans a map to check it again.

The desk-scale extractor here is a deterministic box-filter pyramid and the
desk-scale head scores thresholded blobs; together they exercise every
architectural contract without any training.  The head labels its blobs
with label_blobs, a numpy labeller over row runs that gives what
scipy.ndimage.label and find_objects give, so the program needs numpy
alone.
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


def label_blobs(mask: np.ndarray) -> tuple[np.ndarray, list[tuple[slice, slice]]]:
    """The 4-connected components of a 2-d boolean mask, as scipy.ndimage's
    label and find_objects give them: an int32 label image, 0 off the mask
    and each blob numbered from 1 in the raster order of its first pixel,
    and each blob's bounding (rows, cols) slices, in label order.

    Components are found over row runs.  np.diff of the mask padded with a
    zero column on each side gives each row's run starts and ends;
    np.searchsorted pairs each run with the runs of the row above that
    share a column with it; and a union-find loop over those pairs, never
    over pixels, joins each run to the first run of its component."""
    height, width = mask.shape
    padded = np.zeros((height, width + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = np.diff(padded, axis=1)
    rows, starts = np.nonzero(edges == 1)  # raster order, as are the ends
    ends = np.nonzero(edges == -1)[1]
    # each run as a [start, end) span of the rows laid end to end, `stride`
    # apart: the runs of the row above that share a column with run i are
    # those that end after its start and begin before its end, one stride
    # back, runs first[i] to first[i] + count[i] - 1
    stride = width + 1
    start_at, end_at = rows * stride + starts, rows * stride + ends
    first = np.searchsorted(end_at, start_at - stride, side="right")
    count = np.maximum(np.searchsorted(start_at, end_at - stride) - first, 0)
    below = np.repeat(np.arange(len(starts)), count)
    above = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - first, count)
    parent = list(range(len(starts)))
    for a, b in zip(above.tolist(), below.tolist()):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        parent[max(a, b)] = min(a, b)
    for run, up in enumerate(parent):  # up <= run, so parent[up] is already a root
        parent[run] = parent[up]
    root = np.array(parent, dtype=np.intp)
    is_first = root == np.arange(len(root))
    label = np.cumsum(is_first)[root]  # a component's first run is its first raster pixel's
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[mask] = np.repeat(label, ends - starts)
    n = int(is_first.sum())
    last_row, first_col, end_col = np.zeros(n, np.intp), np.full(n, width), np.zeros(n, np.intp)
    np.maximum.at(last_row, label - 1, rows)
    np.minimum.at(first_col, label - 1, starts)
    np.maximum.at(end_col, label - 1, ends)
    bounds = zip(rows[is_first].tolist(), last_row.tolist(), first_col.tolist(), end_col.tolist())
    return labels, [(slice(r0, r1 + 1), slice(c0, c1)) for r0, r1, c0, c1 in bounds]


class BlobHead:
    """Pass-through scorer: thresholds the channel-mean of the finest fused
    level and reports each 4-connected blob (label_blobs) as a detection,
    in label order, boxed by its bounding pixels and scored by the mean of
    its activations in raster order, clamped to [0, 1]."""

    levels_used = (0,)

    def __init__(self, threshold: float = 0.3, category: int = 0):
        self.threshold = threshold
        self.category = category

    def predict(self, pyramid: FeaturePyramid) -> DetectionTable:
        saliency = pyramid.levels[0].mean(axis=0)
        labels, blobs = label_blobs(saliency > self.threshold)
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
    maps, if the plan projects history, and a concat workspace, if it has
    an output projection."""

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
            if self.plan.projects_history:
                self.ring = np.empty((self.slots, self.plan.long_out, *sites))
            if self.plan.needs_output_projection:
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
