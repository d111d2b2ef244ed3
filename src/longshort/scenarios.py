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
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Callable, Optional, Sequence

import numpy as np

from .boxes import BBox, GroundTruthBox
from .network import Frame

SMALL_AREA_THRESHOLD = 32.0 * 32.0


class DegenerateTrajectory(ValueError):
    """A trajectory never places a visible box inside the image."""


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
            raise ValueError("accelerating trajectory needs a nonzero acceleration")
        if self.kind is TrajectoryKind.TURNING and self.turn_rate == 0.0:
            raise ValueError("turning trajectory needs a nonzero turn_rate")
        if self.kind is TrajectoryKind.OCCLUDED and self.occlusion_window is None:
            raise ValueError("occluded trajectory needs an occlusion_window")
        if self.kind is TrajectoryKind.SMALL_OBJECT and self.initial_bbox.area >= SMALL_AREA_THRESHOLD:
            raise ValueError(
                f"small-object box area {self.initial_bbox.area} is not below {SMALL_AREA_THRESHOLD}"
            )

    def occluded_at(self, k: int) -> bool:
        if self.occlusion_window is None:
            return False
        lo, hi = self.occlusion_window
        return lo <= k <= hi

    def box_at(self, k: int) -> Optional[BBox]:
        """Unclipped box at frame k, or None while occluded."""
        if self.occluded_at(k):
            return None
        vx, vy = self.velocity
        ax, ay = self.acceleration
        dx = vx * k + 0.5 * ax * k * k
        dy = vy * k + 0.5 * ay * k * k
        if self.turn_rate != 0.0:
            theta = self.turn_rate * k
            c, s = math.cos(theta), math.sin(theta)
            dx, dy = c * dx - s * dy, s * dx + c * dy
        return self.initial_bbox.shifted(dx, dy)


@dataclass(frozen=True)
class SyntheticScene:
    n_frames: int
    frame_interval_ms: float
    width: int
    height: int
    trajectories: tuple[TrajectorySpec, ...]
    seed: int = 0

    def __post_init__(self):
        if self.n_frames < 2:
            raise ValueError(f"a scene needs at least 2 frames, got {self.n_frames}")
        if self.frame_interval_ms <= 0:
            raise ValueError("frame_interval_ms must be positive")
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        for i, traj in enumerate(self.trajectories):
            if all(self.visible_box(traj, k) is None for k in range(self.n_frames)):
                raise DegenerateTrajectory(f"trajectory {i} never appears inside the image")

    def visible_box(self, traj: TrajectorySpec, k: int) -> Optional[BBox]:
        """The trajectory's box at frame k clipped to the image, or None
        while it is occluded or wholly outside."""
        raw = traj.box_at(k)
        return None if raw is None else raw.clipped(self.width, self.height)


@dataclass(frozen=True)
class SceneDescriptor:
    """Synthetic image payload: the visible boxes of one frame.  Rasterizes
    to a binary grayscale image on demand."""

    width: int
    height: int
    boxes: tuple[BBox, ...]

    def rasterize(self) -> np.ndarray:
        img = np.zeros((self.height, self.width))
        for b in self.boxes:
            x0 = max(0, int(math.floor(b.x_min)))
            y0 = max(0, int(math.floor(b.y_min)))
            x1 = min(self.width, int(math.ceil(b.x_max)))
            y1 = min(self.height, int(math.ceil(b.y_max)))
            img[y0:y1, x0:x1] = 1.0
        return img


def generate_scenario(scene: SyntheticScene) -> list[tuple[Frame, list[GroundTruthBox]]]:
    """Roll the scene forward: per frame, every trajectory contributes its
    closed-form box, clipped to the image and dropped while occluded or
    fully outside."""
    out = []
    for k in range(scene.n_frames):
        gts = []
        for i, traj in enumerate(scene.trajectories):
            clipped = scene.visible_box(traj, k)
            if clipped is None:
                continue
            track = traj.track_id if traj.track_id is not None else i
            gts.append(GroundTruthBox(bbox=clipped, category=traj.category, track_id=track, frame_index=k))
        frame = Frame(
            index=k,
            timestamp_ms=k * scene.frame_interval_ms,
            pixels=SceneDescriptor(scene.width, scene.height, tuple(g.bbox for g in gts)),
        )
        out.append((frame, gts))
    return out


def gts_by_frame(scenario: Sequence[tuple[Frame, list[GroundTruthBox]]]) -> list[list[GroundTruthBox]]:
    return [gts for _, gts in scenario]


def frames_of(scenario: Sequence[tuple[Frame, list[GroundTruthBox]]]) -> list[Frame]:
    return [frame for frame, _ in scenario]


def scene_from_dict(data: dict) -> SyntheticScene:
    """A scene from its JSON form: {"n_frames", "width", "height" (required),
    "frame_interval_ms", "seed", "trajectories": [{"kind", "initial_bbox"
    (required), "velocity", "acceleration", "turn_rate", "occlusion_window",
    "category", "track_id"}, ...]}.  An unknown or missing key, or a value
    its key's parser refuses (every value is a number, not a string, and
    counts are whole), is an InvalidConfig naming the key; a null takes the
    default."""
    from .config import _number, _parsed_section, _whole  # config imports this module

    def real(value) -> float:
        return float(_number(value))

    def whole(value) -> int:
        return _whole(_number(value))

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
        "kind": TrajectoryKind, "initial_bbox": lambda v: BBox(*list_of(4, real)(v)),
        "velocity": list_of(2, real), "acceleration": list_of(2, real), "turn_rate": real,
        "occlusion_window": list_of(2, whole), "category": whole, "track_id": whole,
    }
    scene = _parsed_section(data, "scene", {
        "n_frames": whole, "frame_interval_ms": real, "width": whole, "height": whole,
        "trajectories": trajectories, "seed": whole,
    }, ("n_frames", "width", "height"))
    specs = tuple(
        TrajectorySpec(**_parsed_section(td, f"scene trajectories[{i}]", trajectory_parsers, ("kind", "initial_bbox")))
        for i, td in enumerate(scene.pop("trajectories", []))
    )
    return SyntheticScene(**{"frame_interval_ms": 33.33, **scene}, trajectories=specs)


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
