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
from typing import Optional, Sequence

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
    visible_counts = [0] * len(scene.trajectories)
    out = []
    for k in range(scene.n_frames):
        gts = []
        for i, traj in enumerate(scene.trajectories):
            raw = traj.box_at(k)
            if raw is None:
                continue
            clipped = raw.clipped(scene.width, scene.height)
            if clipped is None:
                continue
            visible_counts[i] += 1
            track = traj.track_id if traj.track_id is not None else i
            gts.append(GroundTruthBox(bbox=clipped, category=traj.category, track_id=track, frame_index=k))
        frame = Frame(
            index=k,
            timestamp_ms=k * scene.frame_interval_ms,
            pixels=SceneDescriptor(scene.width, scene.height, tuple(g.bbox for g in gts)),
        )
        out.append((frame, gts))
    for i, count in enumerate(visible_counts):
        if count == 0:
            raise DegenerateTrajectory(f"trajectory {i} never appears inside the image")
    return out


def gts_by_frame(scenario: Sequence[tuple[Frame, list[GroundTruthBox]]]) -> list[list[GroundTruthBox]]:
    return [gts for _, gts in scenario]


def frames_of(scenario: Sequence[tuple[Frame, list[GroundTruthBox]]]) -> list[Frame]:
    return [frame for frame, _ in scenario]


def scene_from_dict(data: dict) -> SyntheticScene:
    trajectories = []
    for td in data.get("trajectories", []):
        x0, y0, x1, y1 = td["initial_bbox"]
        window = td.get("occlusion_window")
        trajectories.append(
            TrajectorySpec(
                kind=TrajectoryKind(td["kind"]),
                initial_bbox=BBox(x0, y0, x1, y1),
                velocity=tuple(td.get("velocity", (0.0, 0.0))),
                acceleration=tuple(td.get("acceleration", (0.0, 0.0))),
                turn_rate=td.get("turn_rate", 0.0),
                occlusion_window=tuple(window) if window else None,
                category=td.get("category", 0),
                track_id=td.get("track_id"),
            )
        )
    return SyntheticScene(
        n_frames=data["n_frames"],
        frame_interval_ms=data.get("frame_interval_ms", 33.33),
        width=data["width"],
        height=data["height"],
        trajectories=tuple(trajectories),
        seed=data.get("seed", 0),
    )


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
