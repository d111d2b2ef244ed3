"""Seeded fuzz over run configs.

Each drawn config is either rejected by run_config_from_dict or runs
run_eval to completion; nothing may fail halfway through a stream.  The one
check that needs the data, a horizon that holds no ground truth, rejects in
build_run_data, which runs before any detector is built.  A copy of an
accepted config given a horizon beyond its scene, or a per-frame latency
list shorter than its horizon, must be rejected at load, naming the key.
A completed run
keeps the north-star invariants: sAP in [0, 1], records ordered by
completion time, and a perfect zero-latency detector scoring 1.0.  The
forecasters (hold, const-velocity, long-short) of every accepted config give
the per-track reference's detections on every frame.
"""

import json
from collections import Counter
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from longshort.config import DETECTOR_KINDS, run_config_from_dict
from longshort.fusion import FusionVariant, InvalidConfig
from longshort.runner import build_run_data, make_detector, run_eval
from longshort.scenarios import TrajectoryKind
from longshort.streaming import DispatchPolicy
from oracles import reference_forecast_detect

SEED = 3
N_CONFIGS = 200


def draw_trajectory(rng, n_frames, width, height):
    kind = rng.choice([k.value for k in TrajectoryKind])
    if kind == "small_object":
        w, h = rng.uniform(3, 30, size=2)
    else:
        w, h = rng.uniform(0.05, 0.5) * width, rng.uniform(0.05, 0.5) * height
    # starts inside the image or off its left/top edge, so that some tracks
    # enter late, some exit, and some never appear
    x, y = rng.uniform(-0.4 * width, 0.9 * width), rng.uniform(-0.4 * height, 0.9 * height)
    reach = 2.0 * max(width, height) / n_frames  # fast enough to cross the image
    traj = {
        "kind": kind,
        "initial_bbox": [x, y, x + w, y + h],
        "velocity": list(rng.uniform(-reach, reach, size=2)),
        "category": int(rng.integers(0, 3)),
    }
    if kind == "accelerating":
        traj["acceleration"] = list(rng.uniform(-reach, reach, size=2) / n_frames + 0.01)
    elif kind == "turning":
        traj["turn_rate"] = float(rng.choice([-1, 1]) * rng.uniform(0.05, 0.5))
    elif kind == "occluded":
        start = int(rng.integers(0, n_frames))
        traj["occlusion_window"] = [start, start + int(rng.integers(0, n_frames))]
    return traj


def draw_latency(rng, n_frames, interval):
    """One of the two latency forms: zero, a whole multiple of the frame
    interval (a boundary tie), any constant, or a per-frame list."""
    form = int(rng.integers(0, 4))
    if form == 0:
        return {"latency_ms": 0.0}
    if form == 1:
        return {"latency_ms": int(rng.integers(1, 4)) * interval}
    if form == 2:
        return {"latency_ms": float(rng.uniform(0, 3 * interval))}
    return {"latency_per_frame_ms": list(rng.uniform(0, 3 * interval, size=n_frames) * (rng.random() < 0.8))}


def draw_detector(rng, kind):
    if kind == "delayed-gt":
        return {"kind": kind, "latency_frames": int(rng.integers(0, 3))}
    if kind == "pyramid":
        return {"kind": kind, "model_size": "S", "weight_seed": int(rng.integers(0, 100)),
                "threshold": float(rng.uniform(0.05, 0.9))}
    detector = {"kind": kind, "n_history": int(rng.integers(0, 6)), "delta_t": int(rng.integers(1, 4))}
    if rng.random() < 0.7:
        detector["forecast_steps"] = int(rng.integers(0, 4))
    return detector


def draw_config(rng) -> dict:
    kind = str(rng.choice(DETECTOR_KINDS))
    width, height = int(rng.integers(32, 161)), int(rng.integers(24, 121))
    n_frames = int(rng.integers(2, 10 if kind == "pyramid" else 30))
    interval = float(rng.choice([20.0, 33.33, 50.0]))
    scene = {
        "n_frames": n_frames, "frame_interval_ms": interval, "width": width, "height": height,
        "trajectories": [draw_trajectory(rng, n_frames, width, height) for _ in range(int(rng.integers(1, 5)))],
    }
    stream = {"dispatch": str(rng.choice([p.value for p in DispatchPolicy]))}
    stream.update(draw_latency(rng, n_frames, interval))
    if rng.random() < 0.4:
        stream["horizon_frames"] = int(rng.integers(1, n_frames + 1))
    config = {
        "scene": scene,
        "stream": stream,
        "detector": draw_detector(rng, kind),
        "fusion": {
            "variant": str(rng.choice([v.value for v in FusionVariant])),
            "n_history": int(rng.integers(0, 6)),
            "delta_t": int(rng.integers(1, 3)),
            "ratio": float(rng.choice([0.25, 0.5, 0.75])),
            "residual": bool(rng.random() < 0.5),
        },
        "seed": int(rng.integers(0, 1000)),
    }
    if rng.random() < 0.3:
        config["max_dets_per_frame"] = int(rng.integers(1, 4))
    if rng.random() < 0.1:  # one value out of its range, which load must reject
        section, key, bad = [
            ("stream", "frame_interval_ms", 0.0), ("stream", "horizon_frames", 0),
            ("fusion", "ratio", 1.0), ("fusion", "delta_t", 0), ("detector", "delta_t", 0),
        ][int(rng.integers(0, 5))]
        config[section][key] = bad
    return config


def with_knowable_defect(rng, data) -> tuple[Optional[str], dict]:
    """Maybe a copy of an accepted config with one value that the scene's
    frame count makes wrong: a horizon beyond the scene, or a per-frame
    latency list shorter than the horizon.  Returns the key and the copy."""
    n_frames = data["scene"]["n_frames"]
    stream = dict(data["stream"])
    horizon = stream.get("horizon_frames", n_frames)
    form = int(rng.integers(0, 3))
    if form == 1:
        stream["horizon_frames"] = int(rng.integers(n_frames + 1, 2 * n_frames + 1))
        return "horizon_frames", {**data, "stream": stream}
    if form == 2:
        stream.pop("latency_ms", None)
        stream["latency_per_frame_ms"] = [0.0] * int(rng.integers(0, horizon))
        data = {**data, "stream": stream}
        if data["detector"]["kind"] in ("const-velocity", "long-short"):
            data["detector"] = {**data["detector"], "forecast_steps": 1}
        return "latency_per_frame_ms", data
    return None, data


def test_every_config_is_rejected_at_load_or_runs_to_completion(tmp_path):
    rng = np.random.default_rng(SEED)
    defect_rng = np.random.default_rng(SEED + 1)  # leaves the configs drawn from rng as they are
    completed = perfect = empty_horizons = forecasters = 0
    knowable = Counter()
    for i in range(N_CONFIGS):
        data = draw_config(rng)
        try:
            cfg = run_config_from_dict(data)
        except ValueError:
            continue
        key, bad = with_knowable_defect(defect_rng, data)
        if key is not None:
            with pytest.raises(InvalidConfig, match=key):
                run_config_from_dict(bad)
            knowable[key] += 1
        try:
            run_data = build_run_data(cfg)
        except InvalidConfig as exc:
            assert "horizon_frames" in str(exc), data
            empty_horizons += 1
            continue
        if cfg.detector_kind in ("hold", "const-velocity", "long-short"):
            det = make_detector(cfg, run_data)
            want = reference_forecast_detect(det.gts_by_frame, det.n_history, det.delta_t, det.forecast_steps)
            assert [det(k) for k in range(len(want))] == want, data
            forecasters += 1
        out = tmp_path / str(i)
        cfg = replace(cfg, output=str(out))
        report = run_eval(cfg)  # must not raise: the config was accepted
        completed += 1
        assert 0.0 <= report.sap <= 1.0, data
        records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        times = [r["completion_ms"] for r in records]
        assert times == sorted(times), data
        horizon = cfg.horizon_frames or cfg.scene.n_frames
        zero_latency = all(cfg.latency_model.latency_for(k) == 0.0 for k in range(horizon))
        if (cfg.detector_kind == "delayed-gt" and cfg.detector_settings["latency_frames"] == 0
                and zero_latency and cfg.max_dets_per_frame is None):
            perfect += 1
            assert report.sap == 1.0, data
    # the draw reaches every outcome and the perfect-detector case
    assert N_CONFIGS // 4 < completed < N_CONFIGS
    assert perfect > 0 and empty_horizons > 0 and forecasters > 0
    assert knowable["horizon_frames"] > 0 and knowable["latency_per_frame_ms"] > 0
