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

from .boxes import BBox, GroundTruthTable
from .fusion import InvalidConfig
from .metrics import AREA_SMALL
from .network import Frame
from .streaming import DEFAULT_FRAME_INTERVAL_MS


class DegenerateTrajectory(InvalidConfig):
    """A trajectory's box is not finite on some frame, or never visible
    inside the image."""


class TrajectoryKind(Enum):
    UNIFORM = "uniform"
    ACCELERATING = "accelerating"
    TURNING = "turning"
    OCCLUDED = "occluded"
    SMALL_OBJECT = "small_object"


@dataclass(frozen=True)
class TrajectorySpec:
    """One track's motion: starting box, velocity (px/frame), acceleration
    (px/frame^2), turn rate (rad/frame), and an optional inclusive frame
    window during which the track is absent from the ground truth."""

    kind: TrajectoryKind
    initial_bbox: BBox
    velocity: tuple[float, float] = (0.0, 0.0)
    acceleration: tuple[float, float] = (0.0, 0.0)
    turn_rate: float = 0.0
    occlusion_window: Optional[tuple[int, int]] = None
    category: int = 0
    track_id: Optional[int] = None

    def __post_init__(self):
        if self.kind is TrajectoryKind.ACCELERATING and self.acceleration == (0.0, 0.0):
            raise InvalidConfig("accelerating trajectory needs a nonzero acceleration")
        if self.kind is TrajectoryKind.TURNING and self.turn_rate == 0.0:
            raise InvalidConfig("turning trajectory needs a nonzero turn_rate")
        if self.kind is TrajectoryKind.OCCLUDED and self.occlusion_window is None:
            raise InvalidConfig("occluded trajectory needs an occlusion_window")
        if self.kind is TrajectoryKind.SMALL_OBJECT and self.initial_bbox.area >= AREA_SMALL[1]:
            raise InvalidConfig(
                f"small-object box area {self.initial_bbox.area} is not below {AREA_SMALL[1]}"
            )

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
            return np.array(self.initial_bbox.as_tuple(), dtype=np.float64) + np.stack([dx, dy, dx, dy], axis=1)


@dataclass(frozen=True)
class SyntheticScene:
    """A scene and, in `ground_truth`, every frame's visible boxes: one
    GroundTruthTable per frame, computed once when the scene is built.  A
    trajectory whose box is not finite on some frame, or that never shows
    a box inside the image, is rejected then, naming it."""

    n_frames: int
    frame_interval_ms: float
    width: int
    height: int
    trajectories: tuple[TrajectorySpec, ...]
    ground_truth: tuple[GroundTruthTable, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_frames < 2:
            raise InvalidConfig(f"scene n_frames {self.n_frames}: must be >= 2")
        if not 0 < self.frame_interval_ms < math.inf:
            raise InvalidConfig(f"scene frame_interval_ms {self.frame_interval_ms}: must be finite and > 0")
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
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
                raise DegenerateTrajectory(f"trajectory {i}: its box is not finite at frame {int(np.argmax(bad))}")
            box = np.where(raw < lo, lo, raw)
            clipped[:, i] = box = np.where(box > hi, hi, box)
            shown[:, i] = (box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3])
            if traj.occlusion_window is not None:
                first, last = traj.occlusion_window
                shown[:, i] &= (k < first) | (k > last)
            if not shown[:, i].any():
                raise DegenerateTrajectory(f"trajectory {i} never appears inside the image")
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
    "category", "track_id"}, ...]}.  An unknown or missing key, or a value
    its key's parser refuses (every value is a number, not a string, and
    counts are whole), is an InvalidConfig naming the key, and a trajectory
    that breaks its kind's rule is one naming the trajectory; a null takes
    the default."""
    from .config import _FINITE, _parsed_section, _whole  # config imports this module

    def list_of(n: int, parse: Callable) -> Callable:
        def parse_all(value) -> tuple:
            if not isinstance(value, (list, tuple)) or len(value) != n:
                raise TypeError(f"must be a list of {n} numbers")
            return tuple(map(parse, value))
        return parse_all

    def trajectories(value) -> list:
        if not isinstance(value, list):
            raise TypeError("must be a list of trajectories")
        return value

    trajectory_parsers = {
        "kind": TrajectoryKind, "initial_bbox": lambda v: BBox(*list_of(4, _FINITE)(v)),
        "velocity": list_of(2, _FINITE), "acceleration": list_of(2, _FINITE), "turn_rate": _FINITE,
        "occlusion_window": list_of(2, _whole), "category": _whole, "track_id": _whole,
    }
    scene = _parsed_section(data, "scene", {
        "n_frames": _whole, "frame_interval_ms": _FINITE, "width": _whole, "height": _whole,
        "trajectories": trajectories,
    }, ("n_frames", "width", "height"))

    def trajectory(i: int, raw) -> TrajectorySpec:
        section = f"scene trajectories[{i}]"
        fields = _parsed_section(raw, section, trajectory_parsers, ("kind", "initial_bbox"))
        try:
            return TrajectorySpec(**fields)
        except InvalidConfig as exc:  # a rule of the trajectory's kind
            raise InvalidConfig(f"{section}: {exc}") from None

    specs = tuple(trajectory(i, td) for i, td in enumerate(scene.pop("trajectories", [])))
    return SyntheticScene(**{"frame_interval_ms": DEFAULT_FRAME_INTERVAL_MS, **scene}, trajectories=specs)


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
