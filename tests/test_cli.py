import json
import re
from pathlib import Path

import pytest

from longshort.cli import main
from longshort.coco_io import ParseError
from longshort.config import (
    SweepAxis,
    SweepSpec,
    apply_sweep_value,
    load_run_config,
    run_config_from_dict,
)
from longshort.fusion import FusionVariant, InvalidConfig
from longshort.runner import SweepRow, build_run_data, run_eval, run_sweep, sweep_to_csv
from longshort.streaming import ConstantLatency, PerFrameLatency


def base_config_dict(**extra):
    cfg = {
        "scene_name": "uniform",
        "stream": {"latency_ms": 0.0},
        "detector": {"kind": "delayed-gt"},
        "seed": 0,
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------- config


def test_config_requires_exactly_one_source():
    with pytest.raises(InvalidConfig):
        run_config_from_dict({"detector": {"kind": "hold"}})
    with pytest.raises(InvalidConfig):
        run_config_from_dict({"scene_name": "uniform", "dataset": "x.json"})


def test_config_rejects_unknown_detector():
    with pytest.raises(InvalidConfig):
        run_config_from_dict(base_config_dict(detector={"kind": "alexnet"}))


def test_config_rejects_unknown_detector_key_naming_it():
    with pytest.raises(InvalidConfig, match="n_histroy"):
        run_config_from_dict(base_config_dict(detector={"kind": "long-short", "n_histroy": 9}))
    with pytest.raises(InvalidConfig, match="'n_history'.*'pyramid'"):
        run_config_from_dict(base_config_dict(detector={"kind": "pyramid", "n_history": 3}))
    with pytest.raises(InvalidConfig, match="forecast_steps"):
        run_config_from_dict(base_config_dict(detector={"kind": "delayed-gt", "forecast_steps": 1}))


def test_config_rejects_unknown_top_level_and_stream_keys_naming_them():
    with pytest.raises(InvalidConfig, match=r"'detecter'.*'detector'"):
        run_config_from_dict({"scene_name": "uniform", "detecter": {"kind": "hold"}})
    with pytest.raises(InvalidConfig, match=r"'latncy_ms'.*'latency_ms'"):
        run_config_from_dict(base_config_dict(stream={"latncy_ms": 50}))


def test_config_rejects_both_latency_forms():
    stream = {"latency_ms": 10.0, "latency_per_frame_ms": [0.0] * 20}
    with pytest.raises(InvalidConfig, match="latency_ms.*latency_per_frame_ms"):
        run_config_from_dict(base_config_dict(stream=stream))


@pytest.mark.parametrize("bad", [0, -1])
def test_config_rejects_max_dets_per_frame_below_one(bad):
    with pytest.raises(InvalidConfig, match="max_dets_per_frame"):
        run_config_from_dict(base_config_dict(max_dets_per_frame=bad))
    assert run_config_from_dict(base_config_dict(max_dets_per_frame=1)).max_dets_per_frame == 1


@pytest.mark.parametrize(
    "section, value, key",
    [
        ("detector", {"kind": "delayed-gt", "latency_frames": -1}, "latency_frames"),
        ("detector", {"kind": "long-short", "n_history": -1}, "n_history"),
        ("detector", {"kind": "long-short", "n_history": "x"}, "n_history"),
        ("detector", {"kind": "hold", "delta_t": 0}, "delta_t"),
        ("detector", {"kind": "const-velocity", "forecast_steps": -1}, "forecast_steps"),
        ("detector", {"kind": "pyramid", "model_size": "XL"}, "model_size"),
        ("detector", {"kind": "pyramid", "threshold": float("nan")}, "threshold"),
        ("detector", {"kind": "pyramid", "threshold": float("inf")}, "threshold"),
        ("fusion", {"ratio": 1.5}, "ratio"),
        ("fusion", {"ratio": 0.0}, "ratio"),
        ("fusion", {"delta_t": 0}, "delta_t"),
        ("stream", {"frame_interval_ms": 0}, "frame_interval_ms"),
        ("stream", {"frame_interval_ms": -33.33}, "frame_interval_ms"),
        ("stream", {"horizon_frames": 0}, "horizon_frames"),
        ("stream", {"dispatch": "lifo"}, "dispatch"),
    ],
)
def test_config_rejects_bad_values_naming_the_key(section, value, key):
    with pytest.raises(InvalidConfig, match=key):
        run_config_from_dict(base_config_dict(**{section: value}))


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"detector": {"kind": "long-short", "n_history": 3.9}}, "n_history"),
        ({"detector": {"kind": "hold", "delta_t": 1.5}}, "delta_t"),
        ({"detector": {"kind": "long-short", "forecast_steps": 2.5}}, "forecast_steps"),
        ({"detector": {"kind": "delayed-gt", "latency_frames": 0.5}}, "latency_frames"),
        ({"detector": {"kind": "pyramid", "weight_seed": 4.2}}, "weight_seed"),
        ({"detector": {"kind": "pyramid", "category": 1.5}}, "category"),
        ({"fusion": {"n_history": 2.7}}, "n_history"),
        ({"fusion": {"delta_t": 1.5}}, "delta_t"),
        ({"stream": {"horizon_frames": 7.9}}, "horizon_frames"),
        ({"max_dets_per_frame": 2.5}, "max_dets_per_frame"),
        ({"seed": 1.5}, "seed"),
        ({"seed": float("inf")}, "seed"),
    ],
)
def test_config_rejects_a_fractional_count_naming_the_key(extra, key):
    with pytest.raises(InvalidConfig, match=f"{key} .*whole number"):
        run_config_from_dict(base_config_dict(**extra))


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"seed": "7"}, "seed"),
        ({"seed": True}, "seed"),
        ({"max_dets_per_frame": "5"}, "max_dets_per_frame"),
        ({"max_dets_per_frame": True}, "max_dets_per_frame"),
        ({"stream": {"latency_ms": "10"}}, "latency_ms"),
        ({"stream": {"latency_ms": True}}, "latency_ms"),
        ({"stream": {"frame_interval_ms": "33"}}, "frame_interval_ms"),
        ({"stream": {"frame_interval_ms": True}}, "frame_interval_ms"),
        ({"stream": {"horizon_frames": "5"}}, "horizon_frames"),
        ({"stream": {"latency_per_frame_ms": [0.0] * 19 + ["10"]}}, "latency_per_frame_ms"),
        ({"fusion": {"n_history": "3"}}, "n_history"),
        ({"fusion": {"delta_t": True}}, "delta_t"),
        ({"fusion": {"ratio": "0.5"}}, "ratio"),
        ({"detector": {"kind": "delayed-gt", "latency_frames": "1"}}, "latency_frames"),
        ({"detector": {"kind": "long-short", "n_history": "2"}}, "n_history"),
        ({"detector": {"kind": "pyramid", "threshold": "0.3"}}, "threshold"),
        ({"detector": {"kind": "pyramid", "threshold": True}}, "threshold"),
        ({"detector": {"kind": "pyramid", "weight_seed": True}}, "weight_seed"),
    ],
)
def test_config_rejects_a_value_that_is_not_a_json_number_naming_the_key(extra, key):
    with pytest.raises(InvalidConfig, match=f"{key} .*must be a number"):
        run_config_from_dict(base_config_dict(**extra))


def test_config_takes_a_whole_float_as_a_count():
    cfg = run_config_from_dict(base_config_dict(seed=2.0, fusion={"n_history": 4.0}, stream={"horizon_frames": 7.0}))
    assert (cfg.seed, cfg.fusion.n_history, cfg.horizon_frames) == (2, 4, 7)
    assert all(type(n) is int for n in (cfg.seed, cfg.fusion.n_history, cfg.horizon_frames))


@pytest.mark.parametrize(
    "stream, key",
    [
        ({"latency_ms": "x"}, "latency_ms"),
        ({"latency_ms": -5.0}, "latency_ms"),
        ({"latency_ms": [10.0]}, "latency_ms"),
        ({"latency_per_frame_ms": 5}, "latency_per_frame_ms"),
        ({"latency_per_frame_ms": "12345678901234567890"}, "latency_per_frame_ms"),
        ({"latency_per_frame_ms": [0.0] * 19 + ["x"]}, "latency_per_frame_ms"),
        ({"latency_per_frame_ms": [0.0] * 19 + [-1.0]}, "latency_per_frame_ms"),
    ],
)
def test_config_rejects_a_bad_latency_naming_the_key(stream, key):
    with pytest.raises(InvalidConfig, match=key):
        run_config_from_dict(base_config_dict(stream=stream))


def test_config_null_latency_takes_the_default():
    assert run_config_from_dict(base_config_dict(stream={"latency_ms": None})).latency_model == ConstantLatency(0.0)
    stream = {"latency_ms": None, "latency_per_frame_ms": [5.0] * 20}
    assert run_config_from_dict(base_config_dict(stream=stream)).latency_model == PerFrameLatency((5.0,) * 20)


def _load_benchmark_workloads():
    import importlib.util
    import sys

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_detector_key_schema_accepts_bundled_and_benchmark_configs(tmp_path):
    bundled = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert bundled
    for path in bundled:
        load_run_config(path)
        out = tmp_path / "bundled" / path.stem
        assert main(["eval", "--config", str(path), "--output", str(out)]) == 0
        assert (out / "report.txt").is_file()
    workloads = _load_benchmark_workloads()
    for make_cases in workloads.WORKLOADS.values():
        for case in make_cases(1, "smoke", tmp_path):
            run_config_from_dict(case.config)
    # the keys a temporal-range sweep writes, over every forecaster base
    for kind in ("hold", "const-velocity", "long-short"):
        base = run_config_from_dict(base_config_dict(detector={"kind": kind, "forecast_steps": 1}))
        spec = SweepSpec(axis=SweepAxis.TEMPORAL_RANGE, base=base)
        for value in spec.values:
            apply_sweep_value(spec, value)


def test_config_rejects_pyramid_detector_on_dataset_source():
    with pytest.raises(InvalidConfig, match="'dataset'"):
        run_config_from_dict({"dataset": "ann.json", "detector": {"kind": "pyramid"}})


@pytest.mark.parametrize("kind", ["const-velocity", "long-short"])
def test_config_rejects_per_frame_latency_without_forecast_steps(kind):
    stream = {"latency_per_frame_ms": [33.33] * 20}
    with pytest.raises(InvalidConfig, match="forecast_steps"):
        run_config_from_dict(base_config_dict(stream=stream, detector={"kind": kind}))
    cfg = run_config_from_dict(base_config_dict(stream=stream, detector={"kind": kind, "forecast_steps": 1}))
    assert 0.0 <= run_eval(cfg, write=False).sap <= 1.0


def test_cli_history_flags_reach_only_detectors_that_take_them(tmp_path):
    cfg_path = write_config(tmp_path, base_config_dict())  # delayed-gt
    assert main(["eval", "--config", str(cfg_path), "--output", str(tmp_path / "o"), "--n-history", "2",
                 "--delta-t", "2"]) == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_config_rejects_non_finite_latency_naming_the_key(bad):
    with pytest.raises(ValueError, match="latency_ms"):
        run_config_from_dict(base_config_dict(stream={"latency_ms": bad}))
    with pytest.raises(ValueError, match="latency_per_frame_ms"):
        run_config_from_dict(base_config_dict(stream={"latency_per_frame_ms": [10.0, bad, 10.0]}))


def test_horizon_without_ground_truth_rejected_before_the_detector_is_built(monkeypatch):
    import longshort.runner as runner

    def no_detector(cfg, data):
        raise AssertionError("the detector was built for a horizon with no ground truth")

    monkeypatch.setattr(runner, "make_detector", no_detector)
    scene = {
        "n_frames": 20, "width": 100, "height": 100,
        "trajectories": [{"kind": "uniform", "initial_bbox": [-30, 10, -10, 20], "velocity": [1, 0]}],
    }
    cfg = run_config_from_dict({"scene": scene, "stream": {"horizon_frames": 5}, "detector": {"kind": "hold"}})
    with pytest.raises(InvalidConfig, match="horizon_frames"):
        run_eval(cfg, write=False)


def test_short_per_frame_latency_list_rejected_before_any_detector_call(tmp_path, monkeypatch, capsys):
    # A scene source is rejected at load (the next tests); a dataset's frame
    # count is known only once run_eval reads the file.
    import longshort.runner as runner

    def no_detector(cfg, data):
        raise AssertionError("the detector was built before the latency list was checked")

    monkeypatch.setattr(runner, "make_detector", no_detector)
    assert main(["gen-scene", "--scene", "uniform", "--output", str(tmp_path / "ann.json")]) == 0
    cfg = run_config_from_dict({"dataset": str(tmp_path / "ann.json"), "stream": {"latency_per_frame_ms": [0.0] * 5}})
    with pytest.raises(ValueError, match=r"latency_per_frame_ms has 5 values, fewer than the 20 frames"):
        run_eval(cfg, write=False)


@pytest.mark.parametrize("source", [{"scene_name": "uniform"}, {"scene": {
    "n_frames": 20, "width": 100, "height": 100,
    "trajectories": [{"kind": "uniform", "initial_bbox": [10, 10, 30, 30], "velocity": [1, 0]}],
}}])
def test_scene_source_rejects_a_horizon_beyond_its_frames_at_load(source):
    with pytest.raises(InvalidConfig, match="horizon_frames 30 exceeds the scene's 20 frames"):
        run_config_from_dict({**source, "stream": {"horizon_frames": 30}})
    assert run_config_from_dict({**source, "stream": {"horizon_frames": 20}}).horizon_frames == 20


def test_scene_source_rejects_a_per_frame_latency_list_shorter_than_the_horizon_at_load():
    with pytest.raises(InvalidConfig, match="latency_per_frame_ms has 5 values, fewer than the 20 frames"):
        run_config_from_dict(base_config_dict(stream={"latency_per_frame_ms": [0.0] * 5}))
    with pytest.raises(InvalidConfig, match="latency_per_frame_ms has 5 values, fewer than the 6 frames"):
        run_config_from_dict(base_config_dict(stream={"latency_per_frame_ms": [0.0] * 5, "horizon_frames": 6}))
    cfg = run_config_from_dict(base_config_dict(stream={"latency_per_frame_ms": [0.0] * 5, "horizon_frames": 5}))
    assert run_eval(cfg, write=False).sap == 1.0


@pytest.mark.parametrize(
    "value, key",
    [
        ({"n_history": "x"}, "n_history"),
        ({"n_history": [3]}, "n_history"),
        ({"delta_t": "two"}, "delta_t"),
        ({"ratio": "x"}, "ratio"),
        ({"ratio": "nan"}, "ratio"),
        ({"residual": "false"}, "residual"),
        ({"variant": "LfMax"}, "variant"),
    ],
)
def test_fusion_values_are_cast_at_load_naming_the_key(value, key):
    with pytest.raises(InvalidConfig, match=key):
        run_config_from_dict(base_config_dict(fusion=value))


def inline_scene(**extra):
    scene = {"n_frames": 8, "width": 100, "height": 80, "trajectories": [
        {"kind": "uniform", "initial_bbox": [10, 10, 30, 30], "velocity": [2, 1], "category": 1}]}
    scene.update(extra)
    return scene


def test_inline_scene_loads_with_its_values_cast():
    scene = run_config_from_dict({"scene": inline_scene(frame_interval_ms=None, seed=3.0)}).scene
    assert (scene.n_frames, scene.width, scene.height, scene.seed, scene.frame_interval_ms) == (8, 100, 80, 3, 33.33)
    assert scene.trajectories[0].category == 1 and scene.trajectories[0].velocity == (2.0, 1.0)


def test_inline_scene_rejects_an_unknown_key():
    with pytest.raises(InvalidConfig, match="unknown scene key 'colour'"):
        run_config_from_dict({"scene": inline_scene(colour=1)})
    scene = inline_scene()
    scene["trajectories"][0]["speed"] = 1
    with pytest.raises(InvalidConfig, match=r"unknown scene trajectories\[0\] key 'speed'"):
        run_config_from_dict({"scene": scene})


def test_inline_scene_rejects_a_fractional_frame_count():
    with pytest.raises(InvalidConfig, match="scene n_frames 7.5: must be a whole number"):
        run_config_from_dict({"scene": inline_scene(n_frames=7.5)})


def test_inline_scene_rejects_a_missing_width():
    scene = inline_scene()
    del scene["width"]
    with pytest.raises(InvalidConfig, match="scene is missing 'width'"):
        run_config_from_dict({"scene": scene})


def test_inline_scene_rejects_a_fractional_category():
    scene = inline_scene()
    scene["trajectories"][0]["category"] = 1.5
    with pytest.raises(InvalidConfig, match=r"scene trajectories\[0\] category 1.5: must be a whole number"):
        run_config_from_dict({"scene": scene})


def test_inline_scene_rejects_a_width_given_as_a_string():
    with pytest.raises(InvalidConfig, match="scene width '100': must be a number"):
        run_config_from_dict({"scene": inline_scene(width="100")})


EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "custom_scene_example.json"
NAN, INF = float("nan"), float("inf")


def example_with(tmp_path, *edits):
    """configs/custom_scene_example.json with each (path, value) of `edits`
    set, where a path is the keys and list indices down to the value,
    written as JSON (NaN and Infinity included) and loaded back."""
    data = json.loads(EXAMPLE.read_text())
    for path, value in edits:
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return load_run_config(write_config(tmp_path, data))


def forbid_detectors(monkeypatch):
    import longshort.runner as runner

    def no_detector(cfg, data):
        raise AssertionError("a detector was built for a config that should have been rejected")

    monkeypatch.setattr(runner, "make_detector", no_detector)


TRAJ = ("scene", "trajectories")


@pytest.mark.parametrize("edits, match", [
    ([(TRAJ + (0, "velocity", 0), NAN)], r"scene trajectories\[0\] velocity \[nan, 0.5\]: must be finite"),
    ([(TRAJ + (2, "initial_bbox", 3), NAN)], r"scene trajectories\[2\] initial_bbox .*: must be finite"),
    ([(TRAJ + (4, "acceleration", 1), -INF)], r"scene trajectories\[4\] acceleration .*: must be finite"),
    ([(TRAJ + (1, "turn_rate"), NAN)], r"scene trajectories\[1\] turn_rate nan: must be finite"),
    ([(TRAJ + (1, "turn_rate"), INF)], r"scene trajectories\[1\] turn_rate inf: must be finite"),
    ([(("scene", "frame_interval_ms"), NAN)], "scene frame_interval_ms nan: must be finite"),
    ([(("scene", "frame_interval_ms"), INF)], "scene frame_interval_ms inf: must be finite"),
    # finite values whose motion overflows: the angle, or v*k + a*k^2/2 (inf - inf)
    ([(TRAJ + (1, "turn_rate"), 1e308)], "trajectory 1: its box is not finite at frame 2"),
    ([(TRAJ + (0, "velocity"), [-1e308, 0]), (TRAJ + (0, "acceleration"), [1e308, 0])],
     "trajectory 0: its box is not finite at frame 2"),
    # a finite interval whose stream clock overflows, and a FIFO queue whose latencies add up past it
    ([(("stream", "frame_interval_ms"), 1e308)], "frame_interval_ms 1e[+]308: 24 frames"),
    ([(("scene", "frame_interval_ms"), 1e308)], "frame_interval_ms 1e[+]308: 24 frames"),
    ([(("stream",), {"latency_ms": 1e307, "dispatch": "fifo"})], "frame_interval_ms 33.33: 24 frames with latencies up to 1e[+]307"),
], ids=["velocity-nan", "initial_bbox-nan", "acceleration-neg-inf", "turn_rate-nan", "turn_rate-inf",
        "scene-interval-nan", "scene-interval-inf", "turn_rate-1e308", "velocity-acceleration-1e308",
        "stream-interval-1e308", "scene-interval-1e308", "fifo-latency-1e307"])
def test_non_finite_or_overflowing_scene_and_stream_values_are_rejected_at_load(tmp_path, edits, match):
    with pytest.raises(InvalidConfig, match=match):
        example_with(tmp_path, *edits)


def test_overflowing_frame_interval_of_a_dataset_is_rejected_before_any_detector_call(tmp_path, monkeypatch):
    assert main(["gen-scene", "--scene", "uniform", "--output", str(tmp_path / "ann.json")]) == 0
    forbid_detectors(monkeypatch)
    for stream in ({"frame_interval_ms": 1e308}, {"latency_ms": 1e307, "dispatch": "fifo"}):
        cfg = run_config_from_dict({"dataset": str(tmp_path / "ann.json"), "stream": stream})
        with pytest.raises(InvalidConfig, match="frame_interval_ms .*: 20 frames with latencies up to"):
            run_eval(cfg, write=False)


@pytest.mark.parametrize("edit, match", [
    ((4, "acceleration", [0.0, 0.0]), "accelerating trajectory needs a nonzero acceleration"),
    ((1, "turn_rate", 0.0), "turning trajectory needs a nonzero turn_rate"),
    ((2, "occlusion_window", None), "occluded trajectory needs an occlusion_window"),
    ((3, "initial_bbox", [40.0, 180.0, 90.0, 230.0]), "small-object box area 2500.0 is not below 1024.0"),
], ids=["accelerating", "turning", "occluded", "small_object"])
def test_a_trajectory_breaking_its_kinds_rule_is_rejected_at_load_naming_it(tmp_path, edit, match):
    i, key, value = edit
    with pytest.raises(InvalidConfig, match=re.escape(f"scene trajectories[{i}]: {match}")):
        example_with(tmp_path, (TRAJ + (i, key), value))


def exported_uniform(tmp_path, **info):
    """The bundled uniform scene exported as a COCO file, with `info` set."""
    path = tmp_path / "ann.json"
    assert main(["gen-scene", "--scene", "uniform", "--output", str(path)]) == 0
    data = json.loads(path.read_text())
    data["info"].update(info)
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("interval", [-5.0, "abc", 0, True, NAN, INF, 10**400],
                         ids=["negative", "string", "zero", "bool", "nan", "inf", "int-beyond-float"])
def test_a_bad_frame_interval_in_a_dataset_is_rejected_at_load_naming_file_and_key(tmp_path, monkeypatch, interval):
    path = exported_uniform(tmp_path, frame_interval_ms=interval)
    forbid_detectors(monkeypatch)
    cfg = run_config_from_dict({"dataset": str(path)})
    with pytest.raises(ParseError, match=re.escape(f"{path}: info.frame_interval_ms must be a finite number > 0")):
        run_eval(cfg, write=False)


def test_a_dataset_without_a_frame_interval_runs_at_the_default(tmp_path):
    for info, want in (({"frame_interval_ms": None}, 33.33), ({"frame_interval_ms": 50}, 50)):
        cfg = run_config_from_dict({"dataset": str(exported_uniform(tmp_path, **info))})
        assert build_run_data(cfg).frame_interval_ms == want


def test_a_one_frame_horizon_keeps_a_huge_frame_interval(tmp_path):
    cfg = example_with(tmp_path, (("stream", "frame_interval_ms"), 1e308), (("stream", "horizon_frames"), 1))
    assert 0.0 <= run_eval(cfg, write=False).sap <= 1.0


def test_fusion_values_cast_like_detector_values():
    # a whole float is a count, and a string is not a number, as for a
    # detector's values
    fusion = {"variant": "EfDil", "n_history": 2, "delta_t": 3.0, "ratio": 0.25, "residual": False}
    got = run_config_from_dict(base_config_dict(fusion=fusion)).fusion
    assert (got.variant, got.n_history, got.delta_t, got.ratio, got.residual) == (FusionVariant.EF_DIL, 2, 3, 0.25, False)
    assert type(got.delta_t) is int
    assert run_config_from_dict(base_config_dict(fusion={"n_history": None})).fusion.n_history == 3
    for key, bad in [("n_history", "2"), ("ratio", "0.25")]:
        with pytest.raises(InvalidConfig, match=f"fusion {key} '{bad}': must be a number"):
            run_config_from_dict(base_config_dict(fusion={**fusion, key: bad}))


def eval_config(monkeypatch, argv):
    """The RunConfig `longshort eval argv` derives and runs."""
    import longshort.cli as cli

    seen = []
    monkeypatch.setattr(cli, "run_eval", lambda cfg: seen.append(cfg) or run_eval(cfg, write=False))
    assert main(["eval", *argv]) == 0
    return seen[0]


def test_overrides_win_over_file_values(tmp_path, monkeypatch):
    path = write_config(tmp_path, base_config_dict())
    cfg = eval_config(monkeypatch, ["--config", str(path), "--seed", "9", "--latency-ms", "50", "--detector", "hold"])
    assert cfg.seed == 9
    assert cfg.latency_model.ms == 50.0
    assert cfg.detector_kind == "hold"
    assert cfg.fusion.variant is FusionVariant.LF_DIL  # untouched default


def test_override_can_switch_data_source(tmp_path, monkeypatch):
    path = write_config(tmp_path, base_config_dict())
    cfg = eval_config(monkeypatch, ["--config", str(path), "--scene-name", "mixed"])
    assert cfg.scene.n_frames == 18


def test_latency_flag_replaces_the_files_per_frame_latency(tmp_path):
    stream = {"latency_per_frame_ms": [10.0] * 20}
    path = write_config(tmp_path, base_config_dict(stream=stream))
    out = tmp_path / "out"
    assert main(["eval", "--config", str(path), "--output", str(out), "--latency-ms", "50"]) == 0
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    assert records
    for r in records:
        assert abs(r["completion_ms"] - r["issue_ms"] - 50.0) <= 1e-9


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--frame-interval-ms", "0"], "frame_interval_ms"),
        (["--detector", "long-short", "--delta-t", "0"], "delta_t"),
        (["--detector", "long-short", "--ratio", "1.5"], "ratio"),
    ],
)
def test_flag_values_are_checked_like_file_values(tmp_path, capsys, flags, key):
    path = write_config(tmp_path, base_config_dict())
    assert main(["eval", "--config", str(path), "--output", str(tmp_path / "o"), *flags]) == 1
    err = capsys.readouterr().err
    assert "InvalidConfig" in err and key in err


# -------------------------------------------------------------- run_eval


def test_zero_latency_oracle_config_scores_one(tmp_path):
    cfg = run_config_from_dict(base_config_dict(output=str(tmp_path / "out")))
    report = run_eval(cfg)
    assert report.sap == report.sap50 == report.sap75 == 1.0
    assert (tmp_path / "out" / "report.txt").exists()
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "records.jsonl").exists()


def test_eval_is_deterministic_byte_for_byte(tmp_path):
    for run in ("a", "b"):
        cfg = run_config_from_dict(
            base_config_dict(
                output=str(tmp_path / run),
                stream={"latency_ms": 40.0},
                detector={"kind": "long-short", "n_history": 3},
                seed=5,
            )
        )
        run_eval(cfg)
    for name in ("report.txt", "report.csv", "records.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_long_history_beats_const_velocity_on_accelerating_scene():
    def sap_for(kind):
        cfg = run_config_from_dict(
            {
                "scene_name": "accelerating",
                "stream": {"latency_ms": 33.33},
                "detector": {"kind": kind},
            }
        )
        return run_eval(cfg, write=False).sap

    assert sap_for("long-short") > sap_for("const-velocity") > sap_for("hold")


def test_pyramid_detector_runs_end_to_end():
    cfg = run_config_from_dict(
        {
            "scene_name": "mixed",
            "stream": {"latency_ms": 0.0},
            "detector": {"kind": "pyramid", "model_size": "S"},
            "fusion": {"variant": "LfDil", "n_history": 2, "delta_t": 1},
        }
    )
    report = run_eval(cfg, write=False)
    assert 0.0 <= report.sap <= 1.0


def test_dataset_source_round_trip(tmp_path):
    # export a scene, then evaluate from the annotation file
    assert main(["gen-scene", "--scene", "uniform", "--output", str(tmp_path / "ann.json")]) == 0
    cfg = run_config_from_dict(
        {"dataset": str(tmp_path / "ann.json"), "detector": {"kind": "delayed-gt"}}
    )
    report = run_eval(cfg, write=False)
    assert report.sap == 1.0


# -------------------------------------------------------------- run_sweep


def sweep_rows(axis, base=None, values=None):
    base = base or run_config_from_dict(base_config_dict())
    spec = SweepSpec(axis=axis, base=base, values=values)
    return spec, run_sweep(spec)


def test_temporal_sweep_has_eleven_default_rows():
    base = run_config_from_dict(
        base_config_dict(stream={"latency_ms": 33.33}, detector={"kind": "long-short"}, scene_name="accelerating")
    )
    spec, rows = sweep_rows(SweepAxis.TEMPORAL_RANGE, base)
    assert len(rows) == 11
    csv_text = sweep_to_csv(spec, rows)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 12
    assert lines[0].startswith("N,delta_t,sAP,")
    assert lines[1].startswith("0,-,")
    assert all(r.error is None for r in rows)


def test_ratio_sweep_has_three_rows():
    spec, rows = sweep_rows(SweepAxis.DILATION_RATIO)
    assert [r.value for r in rows] == [0.25, 0.5, 0.75]
    assert len(sweep_to_csv(spec, rows).strip().splitlines()) == 4


def test_variant_sweep_matches_fusion_table_rows():
    spec, rows = sweep_rows(SweepAxis.FUSION_VARIANT)
    assert [r.value for r in rows] == ["EfAvg", "EfDil", "LfAvg", "LfDil", "LfDil*"]
    starred = apply_sweep_value(spec, "LfDil*")
    assert starred.fusion.variant is FusionVariant.LF_DIL
    assert starred.fusion.residual is False
    plain = apply_sweep_value(spec, "LfDil")
    assert plain.fusion.residual is True


def test_temporal_sweep_reconfigures_forecaster_detectors():
    base = run_config_from_dict(base_config_dict(detector={"kind": "long-short"}))
    spec = SweepSpec(axis=SweepAxis.TEMPORAL_RANGE, base=base)
    cfg0 = apply_sweep_value(spec, (0, None))
    assert cfg0.detector_kind == "hold"
    assert cfg0.fusion.n_history == 0
    cfg32 = apply_sweep_value(spec, (3, 2))
    assert cfg32.detector_kind == "long-short"
    assert cfg32.detector_params["n_history"] == 3
    assert cfg32.detector_params["delta_t"] == 2
    assert cfg32.fusion.delta_t == 2


def test_temporal_sweep_rejects_a_fractional_value_naming_the_key():
    base = run_config_from_dict(base_config_dict(detector={"kind": "long-short"}))
    spec = SweepSpec(axis=SweepAxis.TEMPORAL_RANGE, base=base)
    with pytest.raises(InvalidConfig, match="sweep n_history 2.7: must be a whole number"):
        apply_sweep_value(spec, (2.7, 1.5))
    with pytest.raises(InvalidConfig, match="sweep delta_t 1.5: must be a whole number"):
        apply_sweep_value(spec, (2, 1.5))
    cfg = apply_sweep_value(spec, (2.0, 1.0))
    assert (cfg.detector_params["n_history"], cfg.detector_params["delta_t"]) == (2, 1)
    with pytest.raises(InvalidConfig, match="sweep n_history '2': must be a number"):
        apply_sweep_value(spec, ("2", 1))


def test_dilation_sweep_rejects_a_value_that_is_not_a_number_naming_the_key():
    base = run_config_from_dict(base_config_dict(detector={"kind": "pyramid"}))
    spec = SweepSpec(axis=SweepAxis.DILATION_RATIO, base=base, values=("0.5",))
    with pytest.raises(InvalidConfig, match="sweep ratio '0.5': must be a number"):
        apply_sweep_value(spec, "0.5")
    assert apply_sweep_value(spec, 0.5).fusion.ratio == 0.5
    [row] = run_sweep(spec)
    assert row.report is None and row.error == "InvalidConfig: sweep ratio '0.5': must be a number"


def test_sweep_records_per_run_failures_and_continues():
    base = run_config_from_dict(base_config_dict(detector={"kind": "pyramid"}))
    spec = SweepSpec(axis=SweepAxis.DILATION_RATIO, base=base, values=(0.5, 2.0, 0.75))
    rows = run_sweep(spec)
    assert rows[0].error is None
    assert rows[1].report is None and "InvalidConfig" in rows[1].error
    assert rows[2].error is None
    csv_text = sweep_to_csv(spec, rows)
    assert len(csv_text.strip().splitlines()) == 4


def per_row_sweep(spec):
    """run_sweep as one run_eval per row, each building its own run data."""
    rows = []
    for value in spec.values:
        try:
            rows.append(SweepRow(value, run_eval(apply_sweep_value(spec, value), write=False), None))
        except Exception as exc:
            rows.append(SweepRow(value, None, f"{type(exc).__name__}: {exc}"))
    return rows


def test_a_sweep_builds_its_run_data_once(tmp_path, monkeypatch):
    import longshort.runner as runner

    loads = []
    load = runner.load_coco_annotations
    monkeypatch.setattr(runner, "load_coco_annotations", lambda path: loads.append(path) or load(path))
    dataset = str(exported_uniform(tmp_path))
    values = ((0, None), (2.5, 1), (3, 2), (1, 1))  # one value fails its own check
    for stream in ({"latency_ms": 40.0}, {"latency_ms": 40.0, "horizon_frames": 500}):  # the second: a data error
        base = run_config_from_dict({"dataset": dataset, "stream": stream, "detector": {"kind": "long-short"}})
        spec = SweepSpec(SweepAxis.TEMPORAL_RANGE, base, values)
        loads.clear()
        rows = run_sweep(spec)
        assert len(loads) == 1
        assert sweep_to_csv(spec, rows) == sweep_to_csv(spec, per_row_sweep(spec))
        errors = [row.error for row in rows]
        assert errors[1].startswith("InvalidConfig: sweep n_history 2.5")
        data_error = "InvalidConfig: horizon 500 exceeds the 20 available frames" if "horizon_frames" in stream else None
        assert errors[:1] + errors[2:] == [data_error] * 3


def test_sweep_values_override(tmp_path):
    spec, rows = sweep_rows(SweepAxis.TEMPORAL_RANGE, values=((0, None), (2, 2)))
    assert len(rows) == 2


@pytest.mark.parametrize("values", [[], (), {}, {"a": 1}, "abc", 5])
def test_sweep_rejects_a_value_set_that_is_not_a_non_empty_list(values):
    base = run_config_from_dict(base_config_dict())
    with pytest.raises(InvalidConfig, match="sweep values must be a non-empty list"):
        SweepSpec(SweepAxis.DILATION_RATIO, base, values)
    assert SweepSpec(SweepAxis.DILATION_RATIO, base).values == (0.25, 0.5, 0.75)


@pytest.mark.parametrize("values", ["[]", '{"a": 1}'])
def test_cli_sweep_rejects_an_empty_or_object_value_list(tmp_path, capsys, values):
    cfg_path = write_config(tmp_path, base_config_dict())
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--config", str(cfg_path), "--axis", "dilation-ratio", "--values", values, "--output", str(out)]
    assert main(args) == 1
    assert "error: InvalidConfig: sweep values must be a non-empty list" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_labels_each_rejected_value_as_given(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config_dict(detector={"kind": "long-short"}))

    def sweep(axis, values):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_path), "--axis", axis, "--values", values, "--output", str(out)]) == 0
        return [line.split(",") for line in out.read_text().splitlines()[1:]]

    rows = sweep("temporal-range", '[[1], 5, ["x", 1], [2, "y"], [1, 2, 3], [2, 1]]')
    assert [row[:2] for row in rows] == [["[1]", ""], ["5", ""], ["x", "1"], ["2", "y"], ["[1; 2; 3]", ""], ["2", "1"]]
    pair = "InvalidConfig: sweep temporal-range value {}: must be a pair of N and delta_t"
    assert [row[-1] for row in rows] == [
        pair.format("[1]"), pair.format(5), "InvalidConfig: sweep n_history 'x': must be a number",
        "InvalidConfig: sweep delta_t 'y': must be a number", pair.format("[1; 2; 3]"), "",
    ]
    rows = sweep("dilation-ratio", '["abc", "a,b", true, 0.5]')
    assert [(row[0], row[-1]) for row in rows] == [
        ("abc", "InvalidConfig: sweep ratio 'abc': must be a number"),
        ("a;b", "InvalidConfig: sweep ratio 'a;b': must be a number"),
        ("True", "InvalidConfig: sweep ratio True: must be a number"),
        ("0.5", ""),
    ]
    rows = sweep("fusion-variant", '["LfDil**", "LfDil*"]')  # one "*" marks the residual-free variant
    assert [(row[0], row[-1]) for row in rows] == [
        ("LfDil**", "InvalidConfig: unknown fusion variant 'LfDil*'"),
        ("LfDil*", ""),
    ]


# -------------------------------------------------------------------- cli


def test_cli_eval_writes_reports(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config_dict())
    out = tmp_path / "out"
    assert main(["eval", "--config", str(cfg_path), "--output", str(out)]) == 0
    assert (out / "report.csv").read_text().splitlines()[0] == "sAP,sAP50,sAP75,sAP_s,sAP_m,sAP_l"
    assert "100.0" in capsys.readouterr().out


def test_cli_eval_honors_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("LONGSHORT_OUT_DIR", str(tmp_path / "envout"))
    cfg_path = write_config(tmp_path, base_config_dict())
    assert main(["eval", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "envout" / "run" / "report.txt").exists()


def test_cli_eval_flag_overrides(tmp_path):
    cfg_path = write_config(tmp_path, base_config_dict())
    out = tmp_path / "o2"
    assert main([
        "eval", "--config", str(cfg_path), "--output", str(out),
        "--scene-name", "accelerating", "--latency-ms", "33.33",
        "--detector", "long-short", "--n-history", "3",
    ]) == 0
    report = (out / "report.txt").read_text()
    assert report.startswith("sAP = 0.85")


def test_cli_sweep_deterministic_csv(tmp_path):
    cfg_path = write_config(
        tmp_path,
        base_config_dict(scene_name="accelerating", stream={"latency_ms": 33.33}, detector={"kind": "long-short"}),
    )
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main([
            "sweep", "--config", str(cfg_path), "--axis", "temporal-range",
            "--values", "[[0, null], [1, 1], [3, 1]]", "--output", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().strip().splitlines()
    assert len(lines) == 4


def test_cli_gen_scene_and_export_report(tmp_path):
    ann = tmp_path / "scene.json"
    assert main(["gen-scene", "--scene", "mixed", "--output", str(ann)]) == 0
    data = json.loads(ann.read_text())
    assert {img["id"] for img in data["images"]} == set(range(18))

    cfg_path = write_config(tmp_path, base_config_dict(output=str(tmp_path / "out")))
    assert main(["eval", "--config", str(cfg_path)]) == 0
    csv_out = tmp_path / "report_again.csv"
    assert main([
        "export-report", "--report", str(tmp_path / "out" / "report.txt"),
        "--format", "csv", "--output", str(csv_out),
    ]) == 0
    assert csv_out.read_text() == (tmp_path / "out" / "report.csv").read_text()


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["eval", "--config", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err
