"""Seeded fuzz over run configs.

Each drawn config is either rejected by run_config_from_dict or runs
run_eval to completion; nothing may fail halfway through a stream.  The one
check that needs the data, a horizon that holds no ground truth, rejects in
build_run_data, which runs before any detector is built.  A copy of an
accepted config given a horizon beyond its scene, or a per-frame latency
list shorter than its horizon, must be rejected at load, naming the key,
and so must a copy with one number given as a string or a bool.  A copy
with the keys of a row of tests/refusals.py tagged "string" (a number in
place of the output, scene_name or dataset string, or a scene_name that
names no bundled scene), "shape" (the stream, fusion or detector section,
or the config itself, given as a string, a number or a list) or "negative"
(the seed, or a pyramid detector's weight_seed, negative) is rejected at
load with the row's message.  A copy with the keys of a row tagged "null"
(the seed, the stream, fusion or detector section or the detector's kind
null) loads as the copy without them.  A completed run keeps the
north-star invariants: sAP in [0, 1], records ordered by
completion time, and a perfect zero-latency detector scoring 1.0; and
scoring its records log again gives its report files byte for byte.  The
forecasters (hold, const-velocity, long-short) of every accepted config give
the per-track reference's detections on every frame.

Some accepted configs are run a second time from a `dataset` source: their
scene exported to a COCO file, in some files without the exact corners
(read back from COCO's x, y, w, h) or without track ids (each box its own
track).  That run keeps the same invariants, and a file that keeps both
gives the scene run's report and records byte for byte.

A second draw sets one scene value (a trajectory's initial_bbox, velocity,
acceleration or turn_rate, or the scene's frame_interval_ms), or the
stream's frame_interval_ms, of an accepted config to NaN, +-inf or 1e308.
NaN and +-inf are rejected at load, naming the key.  1e308 is rejected at
load or in build_run_data, both before any detector is built (a motion
that overflows, or a stream clock that does, some as `dataset` sources),
or the run completes with the invariants above.
"""

import copy
import json
import re
from collections import Counter
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from longshort.coco_io import export_scenario
from longshort.config import DETECTOR_KINDS, FORECASTER_HISTORY, run_config_from_dict
from longshort.fusion import FusionVariant, InvalidConfig
from longshort.runner import build_run_data, make_detector, run_eval, run_score
from longshort.scenarios import TrajectoryKind, generate_scenario
from longshort.streaming import DispatchPolicy
from oracles import objects, reference_forecast_detect
from refusals import Row, rows, without_keys

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


NUMBER_KEYS = ("seed", "max_dets_per_frame", "latency_ms", "latency_per_frame_ms", "frame_interval_ms",
               "horizon_frames", "n_history", "delta_t", "ratio", "forecast_steps", "latency_frames", "threshold", "weight_seed")


FUZZ_TAGS = ("string", "shape", "null", "negative")


def pick(rng, cases: list):
    return cases[int(rng.integers(0, len(cases)))]


def wrong_type(rng, data: dict) -> tuple[str, object, dict]:
    """A copy of an accepted config with one value of the wrong type.
    Mostly a number, given or not, set to its string form or to true: the
    seed, max_dets_per_frame, or a stream, fusion or detector number (one
    entry of a per-frame latency list).  Otherwise the keys of a row tagged
    "string", "shape" or "null".  Returns the case (the key, for a number,
    else the row's tag and id), what loading the copy gives, and the copy.
    What it gives is the row's message, a pattern of the message for a
    number, or for a null the config without the row's keys, which the copy
    must load as."""
    draw = rng.random()
    for tag, below in (("string", 0.1), ("shape", 0.35), ("null", 0.45)):
        if draw < below:
            row = pick(rng, rows(tag))
            return f"{tag}: {row.id}", row.message or without_keys(data, row.keys), row.config(data)
    data = copy.deepcopy(data)
    stream, detector = data["stream"], data["detector"]
    places = [(data, "seed"), (data, "max_dets_per_frame"), (stream, "frame_interval_ms"), (stream, "horizon_frames")]
    places += [(data["fusion"], key) for key in ("n_history", "delta_t", "ratio")]
    places += [(detector, key) for key in detector if key not in ("kind", "model_size")]
    places += [(stream, key) for key in ("latency_ms", "latency_per_frame_ms") if key in stream]
    section, name = places[int(rng.integers(0, len(places)))]
    key = name
    if name == "latency_per_frame_ms":
        section, key = section[name], int(rng.integers(0, len(section[name])))
    given = section[key] if isinstance(key, int) else section.get(key, 1)
    section[key] = str(given) if rng.random() < 0.5 else True
    return name, re.compile(f"{name} .*must be a number"), data


def negative_seed(rng, data: dict) -> Row:
    """A row tagged "negative" whose detector kind, if it sets one, is the
    config's: its seed negative, or for a pyramid detector, half the time,
    its weight_seed."""
    kind = data["detector"]["kind"]
    return pick(rng, [row for row in rows("negative") if row.keys.get("detector.kind", kind) == kind])


def loaded(data: dict):
    """The config `data` loads as, or the message of its refusal."""
    try:
        return run_config_from_dict(data)
    except InvalidConfig as exc:
        return str(exc)


def as_dataset(rng, cfg, data: dict, path) -> tuple[str, dict]:
    """Maybe export the config's scene to a COCO file at `path`, without the
    exact corners, the track ids, both or neither.  Returns which was left
    out ("" for neither) and the config reading the file, or (None, data)."""
    if cfg.detector_kind == "pyramid" or rng.random() >= 0.5:
        return None, data
    export_scenario(generate_scenario(cfg.scene), cfg.scene, path)
    dropped = [("", ()), ("corners", ("bbox_corners",)), ("track ids", ("track_id",)),
               ("corners and track ids", ("bbox_corners", "track_id"))][int(rng.integers(0, 4))]
    if dropped[1]:
        coco = json.loads(path.read_text())
        for ann in coco["annotations"]:
            for key in dropped[1]:
                del ann[key]
        path.write_text(json.dumps(coco))
    data = {key: value for key, value in data.items() if key != "scene"}
    return dropped[0], {**data, "dataset": str(path)}


def run_with_invariants(cfg, data: dict, out) -> tuple:
    """run_eval with outputs in `out`; checks the forecasters against the
    per-track reference, that run_score on the records gives the same
    report files, sAP in [0, 1], records ordered by completion time and a
    perfect zero-latency detector scoring 1.0.  Returns the report and
    whether the perfect-detector check ran."""
    run_data = build_run_data(cfg)
    if cfg.detector_kind in FORECASTER_HISTORY:
        det = make_detector(cfg, run_data)
        want = reference_forecast_detect(det.gts_by_frame, det.n_history, det.delta_t, det.forecast_steps)
        assert [objects(det(k)) for k in range(len(want))] == want, data
    cfg = replace(cfg, output=str(out))
    report = run_eval(cfg)  # must not raise: the config was accepted
    assert run_score(cfg, out / "records.jsonl", out / "score") == report, data
    for name in ("report.txt", "report.csv", "report_table.txt"):
        assert (out / "score" / name).read_bytes() == (out / name).read_bytes(), (name, data)
    assert 0.0 <= report.sap <= 1.0, data
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    times = [r["completion_ms"] for r in records]
    assert times == sorted(times), data
    horizon = len(run_data.frames)
    zero_latency = all(cfg.latency_model.latency_for(k) == 0.0 for k in range(horizon))
    perfect = (cfg.detector_kind == "delayed-gt" and cfg.detector_settings["latency_frames"] == 0
               and zero_latency and cfg.max_dets_per_frame is None)
    if perfect:
        assert report.sap == 1.0, data
    return report, perfect


def test_every_config_is_rejected_at_load_or_runs_to_completion(tmp_path):
    rng = np.random.default_rng(SEED)
    defect_rng = np.random.default_rng(SEED + 1)  # leaves the configs drawn from rng as they are
    dataset_rng = np.random.default_rng(SEED + 2)
    type_rng = np.random.default_rng(SEED + 4)
    negative_rng = np.random.default_rng(SEED + 5)
    completed = perfect = empty_horizons = forecasters = 0
    knowable, datasets, wrong_types = Counter(), Counter(), Counter()
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
        for _ in range(3):
            case, expected, bad = wrong_type(type_rng, data)
            got = loaded(bad)
            if isinstance(expected, dict):
                assert got == loaded(expected), case
            elif isinstance(expected, re.Pattern):
                assert isinstance(got, str) and expected.search(got), (case, got)
            else:
                assert got == expected, case
            wrong_types[case] += 1
        row = negative_seed(negative_rng, data)
        assert loaded(row.config(data)) == row.message
        wrong_types[f"negative: {row.id}"] += 1
        try:
            run_data = build_run_data(cfg)
        except InvalidConfig as exc:
            assert "horizon_frames" in str(exc), data
            empty_horizons += 1
            continue
        forecasters += cfg.detector_kind in FORECASTER_HISTORY
        report, was_perfect = run_with_invariants(cfg, data, tmp_path / str(i))
        completed += 1
        perfect += was_perfect
        dropped, from_file = as_dataset(dataset_rng, cfg, data, tmp_path / f"{i}.json")
        if dropped is not None:
            file_cfg = run_config_from_dict(from_file)
            file_report, _ = run_with_invariants(file_cfg, from_file, tmp_path / f"{i}-dataset")
            datasets[dropped] += 1
            if dropped == "":  # the exact corners and the track ids: the scene run, byte for byte
                assert file_report == report, from_file
                for name in ("report.txt", "records.jsonl"):
                    assert (tmp_path / f"{i}-dataset" / name).read_bytes() == (tmp_path / str(i) / name).read_bytes()
    # the draw reaches every outcome and the perfect-detector case
    assert N_CONFIGS // 4 < completed < N_CONFIGS
    assert perfect > 0 and empty_horizons > 0 and forecasters > 0
    assert knowable["horizon_frames"] > 0 and knowable["latency_per_frame_ms"] > 0
    cases = (*NUMBER_KEYS, *(f"{tag}: {row.id}" for tag in FUZZ_TAGS for row in rows(tag)))
    assert all(wrong_types[case] > 0 for case in cases), wrong_types
    assert all(datasets[k] > 0 for k in ("", "corners", "track ids", "corners and track ids")), datasets


# ------------------------------------------------ non-finite and huge values

POISON = (float("nan"), float("inf"), float("-inf"), 1e308)
POISONED_KEYS = ("initial_bbox", "velocity", "acceleration", "turn_rate", "frame_interval_ms", "stream frame_interval_ms")


def poisoned(rng, data: dict, value: float) -> tuple[str, dict]:
    """A copy of `data` with one scene value, or the stream's
    frame_interval_ms, set to `value` (one coordinate of a list).  Returns
    the key and the copy."""
    data = copy.deepcopy(data)
    key = POISONED_KEYS[int(rng.integers(0, len(POISONED_KEYS)))]
    scene = data["scene"]
    traj = scene["trajectories"][int(rng.integers(0, len(scene["trajectories"])))]
    if key == "stream frame_interval_ms":
        data["stream"]["frame_interval_ms"] = value
    elif key in ("frame_interval_ms", "turn_rate"):
        (scene if key == "frame_interval_ms" else traj)[key] = value
    else:
        coords = list(traj.get(key, [0.0, 0.0]))
        coords[int(rng.integers(0, len(coords)))] = value
        traj[key] = coords
    return key, data


def test_non_finite_and_huge_values_are_rejected_before_any_detector_call_or_run(tmp_path):
    rng = np.random.default_rng(SEED + 3)
    outcomes = Counter()
    for i in range(100):
        data = draw_config(rng)
        try:
            cfg = run_config_from_dict(data)
        except ValueError:
            continue  # only accepted configs are poisoned, so that a rejection is the poison's
        as_file = cfg.detector_kind != "pyramid" and rng.random() < 0.5
        if as_file:  # the stream's interval over a dataset, whose frame count load does not know
            export_scenario(generate_scenario(cfg.scene), cfg.scene, tmp_path / f"{i}.json")
        for value in POISON:
            key, bad = poisoned(rng, data, value)
            if as_file and key == "stream frame_interval_ms":
                bad = {**{k: v for k, v in bad.items() if k != "scene"}, "dataset": str(tmp_path / f"{i}.json")}
            try:
                bad_cfg = run_config_from_dict(bad)
            except ValueError as exc:
                if value != 1e308:
                    assert isinstance(exc, InvalidConfig) and key.split()[-1] in str(exc), (bad, exc)
                outcomes["rejected at load", repr(value)] += 1
                continue
            assert value == 1e308, bad  # NaN and +-inf never load
            try:
                build_run_data(bad_cfg)
            except InvalidConfig as exc:
                assert "frame_interval_ms" in str(exc) or "horizon_frames" in str(exc), (bad, exc)
                outcomes["rejected in build_run_data", "dataset" in bad] += 1
                continue
            run_with_invariants(bad_cfg, bad, tmp_path / f"{i}-{key}")  # must not raise: the config was accepted
            outcomes["ran", key] += 1
    assert all(outcomes["rejected at load", repr(value)] > 0 for value in POISON), outcomes
    assert outcomes["rejected in build_run_data", True] > 0, outcomes  # a dataset's overflowing clock
    assert sum(n for (outcome, _), n in outcomes.items() if outcome == "ran") > 0, outcomes  # 1e308 that fits
