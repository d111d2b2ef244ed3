"""Synthetic motion scenes.

Each scene is a handful of box trajectories over a fixed-rate frame sequence:
uniform and accelerating straight-line motion, turning (the displacement
vector rotates about the starting point), occlusion windows during which a
track vanishes from the ground truth, and persistently small objects.
Generation is closed-form in the frame index, so tests can predict every box
exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Callable, Optional

import numpy as np

from .boxes import _FINITE, _STRIDE, GroundTruthTable, InvalidConfig, _checked, _given, _parse_fields, _whole
from .metrics import AREA_SMALL
from .network import Frame
from .streaming import DEFAULT_FRAME_INTERVAL_MS


class TrajectoryKind(Enum):
    UNIFORM = "uniform"
    ACCELERATING = "accelerating"
    TURNING = "turning"
    OCCLUDED = "occluded"
    SMALL_OBJECT = "small_object"


def _list_of(n: int, parse: Callable) -> Callable:
    """A parser of a list or tuple of n values, each cast by parse, to a tuple."""
    def parse_all(value) -> tuple:
        if not isinstance(value, (list, tuple)) or len(value) != n:
            raise TypeError(f"must be a list of {n} numbers")
        return tuple(map(parse, value))
    return parse_all


def _start_box(box) -> tuple[float, float, float, float]:
    """box as 4 finite floats whose corners do not cross."""
    box = _list_of(4, _FINITE)(box)
    if box[0] > box[2] or box[1] > box[3]:
        raise ValueError(f"degenerate box, corners {list(box)} cross")
    return box


def _optional(parse: Callable) -> Callable:
    """parse, passing None (the field's default) through."""
    return lambda value: None if value is None else parse(value)


_TRAJECTORY_PARSERS = {
    "kind": TrajectoryKind, "initial_bbox": _start_box, "velocity": _list_of(2, _FINITE),
    "acceleration": _list_of(2, _FINITE), "turn_rate": _FINITE,
    "occlusion_window": _optional(_list_of(2, _whole)), "category": _whole, "track_id": _optional(_whole),
}


@dataclass(frozen=True)
class TrajectorySpec:
    """One track's motion: starting box (x_min, y_min, x_max, y_max),
    velocity (px/frame), acceleration (px/frame^2), turn rate (rad/frame),
    and an optional inclusive frame window during which the track is absent
    from the ground truth.  Built in code, it meets the config's rules and
    wording, since each field is parsed as the trajectory key of its name:
    the box is kept as a 4-tuple of floats, a pair as a tuple, a count as
    an int.  A refused value, or a kind's rule broken, is an InvalidConfig
    "key value: rule" (scene_from_dict adds the place)."""

    kind: TrajectoryKind
    initial_bbox: tuple[float, float, float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    acceleration: tuple[float, float] = (0.0, 0.0)
    turn_rate: float = 0.0
    occlusion_window: Optional[tuple[int, int]] = None
    category: int = 0
    track_id: Optional[int] = None

    def __post_init__(self):
        _parse_fields(self, _TRAJECTORY_PARSERS)
        x_min, y_min, x_max, y_max = self.initial_bbox
        area = (x_max - x_min) * (y_max - y_min)
        ok, rule = {
            TrajectoryKind.ACCELERATING: (self.acceleration != (0.0, 0.0), "needs a nonzero acceleration"),
            TrajectoryKind.TURNING: (self.turn_rate != 0.0, "needs a nonzero turn_rate"),
            TrajectoryKind.OCCLUDED: (self.occlusion_window is not None, "needs an occlusion_window"),
            TrajectoryKind.SMALL_OBJECT: (area < AREA_SMALL[1], f"box area {area} is not below {AREA_SMALL[1]}"),
        }.get(self.kind, (True, None))
        if not ok:
            raise InvalidConfig(f"kind {self.kind.value!r}: {rule}")

    def corners(self, n_frames: int) -> np.ndarray:
        """(n_frames, 4) unclipped corners at frames 0, 1, ..., occlusion
        not applied: the start box displaced by v*k + a*k^2/2, rotated by
        turn_rate*k about the start.  A frame whose angle overflows reads
        NaN."""
        k = np.arange(n_frames, dtype=np.float64)
        (vx, vy), (ax, ay) = self.velocity, self.acceleration
        with np.errstate(over="ignore", invalid="ignore"):  # the scene rejects what overflows
            dx = vx * k + 0.5 * ax * k * k
            dy = vy * k + 0.5 * ay * k * k
            if self.turn_rate != 0.0:
                # math.cos/sin per frame: numpy's SIMD versions may differ in the last bit
                theta = [t if math.isfinite(t) else math.nan for t in (self.turn_rate * k).tolist()]
                c, s = np.array([math.cos(t) for t in theta]), np.array([math.sin(t) for t in theta])
                dx, dy = c * dx - s * dy, s * dx + c * dy
            return np.array(self.initial_bbox, dtype=np.float64) + np.stack([dx, dy, dx, dy], axis=1)


def _trajectories(value) -> tuple:
    if not isinstance(value, (list, tuple)) or not all(isinstance(t, TrajectorySpec) for t in value):
        raise TypeError("must be a list of trajectories")
    return tuple(value)


_SCENE_PARSERS = {"n_frames": _checked(_whole, lambda n: n >= 2, "must be >= 2"), "frame_interval_ms": _FINITE,
                  "width": _STRIDE, "height": _STRIDE, "trajectories": _trajectories}


@dataclass(frozen=True)
class SyntheticScene:
    """A scene and, in `ground_truth`, every frame's visible boxes: one
    GroundTruthTable per frame, computed once when the scene is built.
    Built in code, it meets the config's rules and wording, since each field
    is parsed as the scene key of its name ("scene n_frames 2.5: must be a
    whole number").  A trajectory whose box is not finite on some frame, or
    that never shows a box inside the image, is rejected then."""

    n_frames: int
    frame_interval_ms: float
    width: int
    height: int
    trajectories: tuple[TrajectorySpec, ...]
    ground_truth: tuple[GroundTruthTable, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _parse_fields(self, _SCENE_PARSERS, "scene ")
        if not self.frame_interval_ms > 0:  # a finite float by now, which the message shows
            raise InvalidConfig(f"scene frame_interval_ms {self.frame_interval_ms}: must be finite and > 0")
        k = np.arange(self.n_frames)
        # clipping to the image: the min corner from below, the max corner from above
        lo = np.array([0.0, 0.0, -math.inf, -math.inf])
        hi = np.array([math.inf, math.inf, float(self.width), float(self.height)])
        clipped = np.empty((self.n_frames, len(self.trajectories), 4))
        shown = np.empty((self.n_frames, len(self.trajectories)), dtype=bool)
        for i, traj in enumerate(self.trajectories):
            raw = traj.corners(self.n_frames)
            bad = ~np.isfinite(raw).all(axis=1)
            if bad.any():
                raise InvalidConfig(f"trajectory {i}: its box is not finite at frame {int(np.argmax(bad))}")
            box = np.where(raw < lo, lo, raw)
            clipped[:, i] = box = np.where(box > hi, hi, box)
            shown[:, i] = (box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3])
            if traj.occlusion_window is not None:
                first, last = traj.occlusion_window
                shown[:, i] &= (k < first) | (k > last)
            if not shown[:, i].any():
                raise InvalidConfig(f"trajectory {i} never appears inside the image")
        frame, track = np.nonzero(shown)  # frame by frame, each in trajectory order
        boxes = clipped[frame, track]
        area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
        category = np.array([t.category for t in self.trajectories], dtype=np.int64)
        track_id = np.array([i if t.track_id is None else t.track_id for i, t in enumerate(self.trajectories)],
                            dtype=np.int64)
        table = GroundTruthTable(boxes, category[track], track_id[track], frame, area)
        object.__setattr__(self, "ground_truth", table.split(shown.sum(axis=1).tolist()))


@dataclass(frozen=True, eq=False)
class SceneDescriptor:
    """Synthetic image payload: the (n, 4) corners of one frame's visible
    boxes.  Rasterizes to a binary grayscale image on demand."""

    width: int
    height: int
    boxes: np.ndarray

    def rasterize(self) -> np.ndarray:
        img = np.zeros((self.height, self.width))
        for x_min, y_min, x_max, y_max in self.boxes.tolist():
            x0, y0 = max(0, math.floor(x_min)), max(0, math.floor(y_min))
            img[y0:min(self.height, math.ceil(y_max)), x0:min(self.width, math.ceil(x_max))] = 1.0
        return img


def generate_scenario(scene: SyntheticScene) -> list[tuple[Frame, GroundTruthTable]]:
    """Per frame, the frame, whose pixels rasterize its visible boxes, and
    its ground truth: every trajectory's closed-form box, clipped to the
    image and dropped while occluded or fully outside."""
    return [
        (Frame(k, k * scene.frame_interval_ms, SceneDescriptor(scene.width, scene.height, gts.boxes)), gts)
        for k, gts in enumerate(scene.ground_truth)
    ]


def scene_from_dict(data: dict) -> SyntheticScene:
    """A scene from its JSON form: {"n_frames", "width", "height" (required),
    "frame_interval_ms", "trajectories": [{"kind", "initial_bbox"
    (required), "velocity", "acceleration", "turn_rate", "occlusion_window",
    "category", "track_id"}, ...]}.  Only keys are matched here (an unknown
    or missing key is an InvalidConfig, a null takes the default); each
    value goes as given to SyntheticScene or TrajectorySpec, which parse
    it, so that one built in code meets the same rules and wording.  A
    trajectory's refusal is prefixed with "scene trajectories[i]"."""
    scene = _given(data, "scene", _SCENE_PARSERS, ("n_frames", "width", "height"))

    def trajectory(i: int, raw) -> TrajectorySpec:
        section = f"scene trajectories[{i}]"
        fields = _given(raw, section, _TRAJECTORY_PARSERS, ("kind", "initial_bbox"))
        try:
            return TrajectorySpec(**fields)
        except InvalidConfig as exc:
            raise InvalidConfig(f"{section} {exc}") from None

    if isinstance(trajectories := scene.get("trajectories", []), list):  # anything else SyntheticScene refuses
        scene["trajectories"] = [trajectory(i, raw) for i, raw in enumerate(trajectories)]
    return SyntheticScene(**{"frame_interval_ms": DEFAULT_FRAME_INTERVAL_MS, **scene})


def bundled_scene_names() -> list[str]:
    files = resources.files("longshort").joinpath("scenes")
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def bundled_scene(name: str) -> SyntheticScene:
    """Load one of the scene definitions shipped with the package."""
    path = resources.files("longshort").joinpath("scenes").joinpath(f"{name}.json")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise KeyError(f"no bundled scene {name!r}; available: {bundled_scene_names()}") from None
    return scene_from_dict(json.loads(text))
