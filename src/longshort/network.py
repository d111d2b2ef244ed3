"""Dual-path network assembly.

One weight-shared feature extractor serves both temporal paths: the current
frame is extracted once per step.  Fusion runs independently per pyramid
level, and only on the levels the detection head reads; the head gets the
current frame's unfused map at the others.  Each fused level holds each
recent frame's history-path map, already passed through the history
projection (fusion.project_history), so no frame goes through the extractor
or that projection twice.

Pyramid levels are built when first read.  The extractor checks a frame's
pixels when it is called and keeps its own copy of them; a level is pooled
from that copy the first time anything reads it, and kept.  step() reads
only the levels it fuses and hands the head a pyramid with those replaced
by their fused maps and the others still unbuilt, so BlobHead, which reads
level 0, costs one pooled level per frame.  That pyramid's base is the
current frame's own, so a head can also read the maps fusion started from.

History lives in n_history * delta_t + 1 slots.  The network records the
frame index each slot holds, and each step looks its history up by frame
index there, then takes the oldest frame's slot, which no step reads.  Each
fused level keeps two kinds of frame-size array across steps, both
allocated at its first step and again when the frame size changes, which
also drops the level's history.  A ring holds the projected history, one
row block per slot, and the level's held maps are views of it.  A concat
workspace holds the branches' concatenation, for a level whose plan has an
output projection.  Both follow the level's fusion.ChannelPlan: without
history projection (EfAvg, a zero-width history path) the level holds the
extractor's maps as they are and there is no ring.  The fused map handed to
the head is a fresh array every step, so a head may keep its pyramids;
fusion never writes into a pyramid's level or into a held map.

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
    """A network's steps must take strictly increasing frame indices."""


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
    each an array or a callable that builds it when first read.  `base` is
    the pyramid that replace() made this one from, else None."""

    def __init__(self, levels):
        if len(levels) != len(PYRAMID_RATES):
            raise ValueError(f"expected {len(PYRAMID_RATES)} levels, got {len(levels)}")
        self.levels = PyramidLevels(levels)
        self.base: Optional[FeaturePyramid] = None

    def replace(self, maps: dict[int, np.ndarray]) -> "FeaturePyramid":
        """This pyramid with the given levels replaced, and this one as its
        base; the others stay this pyramid's own, unbuilt until read."""
        pyramid = FeaturePyramid(
            [maps[i] if i in maps else partial(self.levels.__getitem__, i) for i in range(len(self.levels))]
        )
        pyramid.base = self
        return pyramid


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


class _FusedLevel:
    """One fused pyramid level: the network's fusion settings at the
    level's width (FusionSettings.config_for) and their weights, the
    history-path map of the frame in each of the network's slots, and the
    frame-size arrays its steps reuse.  held[slot] is a view of the ring's
    row block `slot` if the plan projects history, else the extractor's own
    map, and None while the slot holds nothing.  The ring, and a concat
    workspace if the plan has an output projection, are allocated at the
    first step and again when the frame size changes, which drops every
    held map: history of another size is never read."""

    def __init__(self, cfg: FusionSettings, weight_seed: int, slots: int):
        self.cfg = cfg
        self.plan = plan_channels(cfg)
        self.weights = init_weights(cfg, self.plan, weight_seed)
        self.held: list[Optional[np.ndarray]] = [None] * slots
        self.sites: Optional[tuple[int, ...]] = None
        self.ring: Optional[np.ndarray] = None
        self.workspace: Optional[np.ndarray] = None

    def hold(self, fmap: np.ndarray, slot: int) -> np.ndarray:
        """fmap's history-path map (fusion.project_history), held at `slot`."""
        sites = fmap.shape[1:]
        if sites != self.sites:
            self.sites = sites
            self.held = [None] * len(self.held)
            if self.plan.projects_history:
                self.ring = np.empty((len(self.held), self.plan.long_out, *sites))
            if self.plan.needs_output_projection:
                self.workspace = np.empty((self.plan.pre_projection_total, *sites))
        self.held[slot] = project_history(self.cfg, self.weights, fmap, None if self.ring is None else self.ring[slot])
        return self.held[slot]


@dataclass
class DualPathNetwork:
    """The full assembly: extractor, per-level fusion and head.

    With fusion.n_history == 0 the history path is disabled and the current
    pyramid passes straight to the head.  Otherwise only the levels the head
    reads are fused, each with fusion.config_for(its width) and its own
    weights, and history has n_history * delta_t + 1 slots.  The network
    records which frame index each slot holds, and each fused level holds
    that frame's history-path map in the same slot.  A step takes the slot
    of the oldest frame, which is further back than any step reads.
    """

    extractor: FeatureExtractor
    head: DetectionHead
    fusion: FusionSettings = field(default_factory=FusionSettings)
    weight_seed: int = 0

    def __post_init__(self):
        if self.fusion.n_history > 0:
            channels = MODEL_CHANNELS[self.extractor.model_size]
            used = getattr(self.head, "levels_used", range(len(PYRAMID_RATES)))
            slots = self.fusion.n_history * self.fusion.delta_t + 1
            self._levels = {
                level: _FusedLevel(self.fusion.config_for(channels[level]), self.weight_seed, slots) for level in used
            }
            self._frames: list[Optional[int]] = [None] * slots  # the frame index each slot holds
            self._steps = 0

    def step(self, frame: Frame) -> DetectionTable:
        """Process one frame: a single extractor call, one history-path map
        per fused level, fusion with the history looked up by frame index,
        then the head.  The current frame's history-path map is also the pad
        for history no slot holds: before the stream start, a frame the
        stream skipped, or one before the level's last change of frame size.
        A frame index not above the last step's is refused before any work."""
        if self.fusion.n_history == 0:
            return self.head.predict(self.extractor.extract(frame))
        slot = self._steps % len(self._frames)
        last = self._frames[slot - 1]  # slot - 1 is -1, the last slot, when the steps wrap
        if last is not None and frame.index <= last:
            raise NonMonotonicIndex(f"frame index {frame.index} not greater than the last step's {last}")
        current = self.extractor.extract(frame)
        at = {index: s for s, index in enumerate(self._frames)}
        wanted = (frame.index - i * self.fusion.delta_t for i in range(1, self.fusion.n_history + 1))
        found = [at.get(index) if index >= 0 else None for index in wanted]
        fused = {}
        for level, lv in self._levels.items():
            fmap = current.levels[level]
            projected = lv.hold(fmap, slot)
            history = [projected if s is None or lv.held[s] is None else lv.held[s] for s in found]
            fused[level] = fuse_projected(lv.cfg, lv.weights, fmap, projected, history, lv.workspace)
        dets = self.head.predict(current.replace(fused))
        self._frames[slot] = frame.index
        self._steps += 1
        return dets
