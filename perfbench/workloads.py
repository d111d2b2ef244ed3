"""Seeded workload inputs and the operation each workload runs.

A workload turns a seed into a list of cases.  A case is one input the
program receives exactly as a user would hand it over: a run config dict
(for `run_eval`) or a sweep base config plus the sweep values (for
`run_sweep`).  Everything here is drawn from `random.Random(seed)`, so the
same seed gives the same inputs on every machine.

Why these two workloads:

* forecast-dense loads the per-box code (the `long-short` forecaster and the
  greedy IoU matching in `metrics`) with ~40 boxes per frame, reads each
  clip back from a COCO file (`coco_io`), and bypasses the network.  One
  clip in four has tracks that leave the image, which trips the known
  edge-exit defect; those clips stay in so the defect shows in the error
  rate.
* pyramid-sweep spends nearly all of its time in `network`, `fusion` and
  `tensor` (model size L, five fusion variants, each with its own fusion
  path) and almost none in per-box code.  Its frames are generated from the
  scene (`scenarios`), and `run_sweep` rebuilds run data for every row, so
  runner-level caching shows here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WIDTH, HEIGHT = 640, 480
INTERVAL_MS = 33.33
KINDS = ("uniform", "accelerating", "turning", "occluded", "small_object")
SWEEP_VALUES = ("EfAvg", "EfDil", "LfAvg", "LfDil", "LfDil*")

# Workload sizes.  "full" is what the benchmark measures; "smoke" runs every
# code path of every workload in a few seconds for the benchmark's own test.
SIZES = {
    "full": {
        "dense_frames": 200, "dense_tracks": 40, "dense_exiting": 10,
        "sweep_frames": 12, "sweep_model": "L", "sweep_width": WIDTH, "sweep_height": HEIGHT,
    },
    "smoke": {
        "dense_frames": 40, "dense_tracks": 8, "dense_exiting": 4,
        "sweep_frames": 5, "sweep_model": "S", "sweep_width": 160, "sweep_height": 120,
    },
}

# Clips per forecast-dense round, of which the last has exiting tracks.  A
# run always completes whole rounds, so the share of such clips is exact.
DENSE_ROUND = 4


@dataclass(frozen=True)
class Case:
    """One operation's input.  `config` is a run config dict; a sweep case
    also carries the fusion-variant values.  `frames` is the number of
    frames the operation scores (times the sweep rows for a sweep)."""

    label: str
    config: dict
    frames: int
    sweep_values: Optional[tuple] = None


def _inside(box, width, height, margin=1.0):
    x0, y0, x1, y1 = box
    return x0 >= margin and y0 >= margin and x1 <= width - margin and y1 <= height - margin


def _path(traj: dict, n_frames: int):
    """Closed-form unclipped box per frame (the scene schema's motion model:
    displacement v*k + a*k^2/2, rotated by turn_rate*k about the start)."""
    x0, y0, x1, y1 = traj["initial_bbox"]
    vx, vy = traj["velocity"]
    ax, ay = traj["acceleration"]
    rate = traj["turn_rate"]
    for k in range(n_frames):
        dx = vx * k + 0.5 * ax * k * k
        dy = vy * k + 0.5 * ay * k * k
        if rate:
            c, s = math.cos(rate * k), math.sin(rate * k)
            dx, dy = c * dx - s * dy, s * dx + c * dy
        yield (x0 + dx, y0 + dy, x1 + dx, y1 + dy)


def _draw_track(rng: random.Random, kind: str, n_frames: int, width: int, height: int,
                category: int, exits: bool) -> dict:
    """Rejection-sample one trajectory of `kind`.  A staying track keeps its
    whole box inside the image on every frame; an exiting track starts
    inside and crosses the border in the middle half of the clip."""
    reach = min(width, height) / n_frames  # px/frame that crosses ~the image once
    for _ in range(10_000):
        if kind == "small_object":
            w, h = rng.uniform(8, 30), rng.uniform(8, 30)
        else:
            w, h = rng.uniform(0.05, 0.25) * width, rng.uniform(0.05, 0.25) * height
        x = rng.uniform(0, width - w)
        y = rng.uniform(0, height - h)
        speed = rng.uniform(0.1, 0.6 if not exits else 2.0) * reach
        angle = rng.uniform(0, 2 * math.pi)
        traj = {
            "kind": kind,
            "initial_bbox": [x, y, x + w, y + h],
            "velocity": [speed * math.cos(angle), speed * math.sin(angle)],
            "acceleration": [0.0, 0.0],
            "turn_rate": 0.0,
            "occlusion_window": None,
            "category": category,
        }
        if kind == "accelerating":
            acc = rng.uniform(0.5, 1.5) * reach / n_frames
            phi = rng.uniform(0, 2 * math.pi)
            traj["acceleration"] = [acc * math.cos(phi), acc * math.sin(phi)]
        elif kind == "turning":
            traj["turn_rate"] = rng.choice((-1, 1)) * rng.uniform(2.0, 6.0) / n_frames
        elif kind == "occluded":
            start = rng.randrange(n_frames // 4, n_frames // 2)
            traj["occlusion_window"] = [start, start + rng.randrange(3, max(4, n_frames // 8))]
        boxes = list(_path(traj, n_frames))
        if not exits:
            if all(_inside(b, width, height) for b in boxes):
                return traj
        elif _inside(boxes[0], width, height):
            crossing = next((k for k, b in enumerate(boxes) if not _inside(b, width, height, 0.0)), None)
            if crossing is not None and n_frames // 4 <= crossing <= 3 * n_frames // 4:
                return traj
    raise RuntimeError(f"could not place a {kind} track")


def _scene(rng, n_frames, width, height, n_tracks, n_exiting=0, n_categories=3) -> dict:
    trajectories = []
    for i in range(n_tracks):
        trajectories.append(_draw_track(
            rng, KINDS[i % len(KINDS)], n_frames, width, height,
            category=i % n_categories, exits=i >= n_tracks - n_exiting,
        ))
    return {"n_frames": n_frames, "frame_interval_ms": INTERVAL_MS, "width": width,
            "height": height, "trajectories": trajectories}


def forecast_dense(seed: int, size: str, workdir: Path) -> list[Case]:
    """Writes the COCO files the cases read; this is input preparation, done
    once per run before anything is timed."""
    from longshort.coco_io import export_scenario
    from longshort.scenarios import generate_scenario, scene_from_dict

    p = SIZES[size]
    rng = random.Random(f"forecast-dense/{seed}")
    cases = []
    for i in range(DENSE_ROUND):
        exiting = p["dense_exiting"] if i == DENSE_ROUND - 1 else 0
        scene = scene_from_dict(_scene(rng, p["dense_frames"], WIDTH, HEIGHT, p["dense_tracks"], exiting))
        path = workdir / f"dense{i}.json"
        export_scenario(generate_scenario(scene), scene, path)
        # Between one and two frame intervals: every other frame is skipped
        # and the forecaster looks two steps ahead.
        latency = INTERVAL_MS * rng.uniform(1.15, 1.85)
        config = {
            "dataset": str(path),
            "stream": {"latency_ms": latency, "dispatch": "latest"},
            "detector": {"kind": "long-short", "n_history": 3, "delta_t": 1},
            "seed": seed,
            "output": str(workdir / f"dense{i}"),
        }
        label = f"clip{i}" + ("-exiting" if exiting else "")
        cases.append(Case(label, config, p["dense_frames"]))
    return cases


def pyramid_sweep(seed: int, size: str, workdir: Path) -> list[Case]:
    p = SIZES[size]
    rng = random.Random(f"pyramid-sweep/{seed}")
    scene = _scene(rng, p["sweep_frames"], p["sweep_width"], p["sweep_height"],
                   n_tracks=rng.randint(3, 5), n_categories=1)
    config = {
        "scene": scene,
        "stream": {"latency_ms": 0.0},
        "detector": {"kind": "pyramid", "model_size": p["sweep_model"],
                     "weight_seed": rng.randint(1, 2**31 - 1), "threshold": 0.3},
        "fusion": {"variant": "LfDil", "n_history": 3, "delta_t": 1, "ratio": 0.5, "residual": True},
        "seed": seed,
    }
    return [Case("sweep", config, p["sweep_frames"] * len(SWEEP_VALUES), SWEEP_VALUES)]


WORKLOADS = {
    "forecast-dense": forecast_dense,
    "pyramid-sweep": pyramid_sweep,
}
