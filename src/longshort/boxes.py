"""Axis-aligned box types shared by the scenario generator, the detectors,
and the evaluator.

Ground truth and detections travel between the stages as column tables
(GroundTruthTable, DetectionTable): one (n, 4) float64 corner array and one
array per attribute, the layout COCO's evaluator keeps per image.  BBox,
GroundTruthBox and Detection are the boundary types of the library API:
indexing or iterating a table builds them on demand, and ground_truth_table
and detection_table build a table from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Sequence, Union

import numpy as np


@dataclass(frozen=True)
class BBox:
    """Pixel-space corner box, x_min <= x_max and y_min <= y_max."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"degenerate box: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def shifted(self, dx: float, dy: float) -> "BBox":
        return BBox(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)

    def clipped(self, width: float, height: float) -> "BBox | None":
        """Clip to [0, width] x [0, height]; None when nothing remains."""
        x0 = max(self.x_min, 0.0)
        y0 = max(self.y_min, 0.0)
        x1 = min(self.x_max, float(width))
        y1 = min(self.y_max, float(height))
        if x0 >= x1 or y0 >= y1:
            return None
        return BBox(x0, y0, x1, y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True)
class GroundTruthBox:
    """Annotated box: category, track identity, and the frame it belongs to."""

    bbox: BBox
    category: int
    track_id: int
    frame_index: int
    area: float = field(default=-1.0)

    def __post_init__(self):
        if self.area < 0:
            object.__setattr__(self, "area", self.bbox.area)


@dataclass(frozen=True)
class Detection:
    """Detector output: box, class id, confidence in [0, 1]."""

    bbox: BBox
    category: int
    score: float

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


class _Table:
    """Equal-length columns, one row per box; the rows of a table are
    compared, indexed and iterated as its boundary type.  An instance holds
    nothing but its columns, so vars() lists them in field order."""

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, i: int):
        return next(iter(self.rows([i])))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    __hash__ = None

    def rows(self, index):
        """The table of the rows that `index` (a slice, mask or index array)
        selects."""
        return type(self)(*(column[index] for column in vars(self).values()))

    def split(self, lengths: Iterable[int]) -> tuple:
        """Consecutive tables of the given lengths, as views of this one."""
        starts = list(accumulate(lengths, initial=0))
        return tuple(self.rows(slice(lo, hi)) for lo, hi in zip(starts, starts[1:]))


@dataclass(frozen=True, eq=False)
class GroundTruthTable(_Table):
    """Ground-truth boxes as columns: corners (n, 4) float64; category,
    track_id and frame index (n,) int64; area (n,) float64."""

    boxes: np.ndarray
    category: np.ndarray
    track_id: np.ndarray
    frame: np.ndarray
    area: np.ndarray

    def __iter__(self) -> Iterator[GroundTruthBox]:
        columns = (self.boxes, self.category, self.track_id, self.frame, self.area)
        for box, category, track_id, frame, area in zip(*(c.tolist() for c in columns)):
            yield GroundTruthBox(BBox(*box), category, track_id, frame, area)


@dataclass(frozen=True, eq=False)
class DetectionTable(_Table):
    """Detections as columns: corners (n, 4) float64, category (n,) int64,
    score (n,) float64."""

    boxes: np.ndarray
    category: np.ndarray
    score: np.ndarray

    def __iter__(self) -> Iterator[Detection]:
        for box, category, score in zip(self.boxes.tolist(), self.category.tolist(), self.score.tolist()):
            yield Detection(BBox(*box), category, score)


# One frame's ground truth per item, as a table or as its boxes.
GroundTruthFrames = Sequence[Union[GroundTruthTable, Iterable[GroundTruthBox]]]


def _corner_array(boxes: Iterable[BBox]) -> np.ndarray:
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def ground_truth_table(gts: Union[GroundTruthTable, Iterable[GroundTruthBox]]) -> GroundTruthTable:
    """`gts` if it is a table already, else the table of its boxes."""
    if isinstance(gts, GroundTruthTable):
        return gts
    gts = list(gts)
    return GroundTruthTable(
        _corner_array(g.bbox for g in gts),
        np.array([g.category for g in gts], dtype=np.int64),
        np.array([g.track_id for g in gts], dtype=np.int64),
        np.array([g.frame_index for g in gts], dtype=np.int64),
        np.array([g.area for g in gts], dtype=np.float64),
    )


def ground_truth_frames(frames: GroundTruthFrames) -> tuple[GroundTruthTable, ...]:
    """One table per frame; frames given as boxes are converted in one go."""
    frames = [f if isinstance(f, GroundTruthTable) else list(f) for f in frames]
    if all(isinstance(f, GroundTruthTable) for f in frames):
        return tuple(frames)
    return ground_truth_table(g for f in frames for g in f).split(map(len, frames))


def detection_table(dets: Union[DetectionTable, Iterable[Detection]]) -> DetectionTable:
    """`dets` if it is a table already, else the table of its detections."""
    if isinstance(dets, DetectionTable):
        return dets
    dets = list(dets)
    return DetectionTable(
        _corner_array(d.bbox for d in dets),
        np.array([d.category for d in dets], dtype=np.int64),
        np.array([d.score for d in dets], dtype=np.float64),
    )


def concat_tables(tables: Sequence[_Table]):
    """One table of the rows of `tables` (at least one, all of one type), in order."""
    columns = [vars(t).values() for t in tables]
    return type(tables[0])(*map(np.concatenate, zip(*columns)))
