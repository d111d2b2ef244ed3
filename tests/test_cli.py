import contextlib
import io
import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from longshort.cli import build_parser, main
from longshort.coco_io import ParseError
from longshort.config import (
    SweepAxis,
    SweepSpec,
    apply_sweep_value,
    load_run_config,
    run_config_from_dict,
)
from longshort.fusion import FusionVariant, InvalidConfig
from longshort.network import BoxFilterExtractor
from longshort.runner import SweepRow, build_run_data, run_eval, run_sweep, sweep_to_csv
from longshort.streaming import ConstantLatency, PerFrameLatency, write_records
from oracles import load_benchmark_workloads
from record_refusals import CONFIG as RECORD_CONFIG, RECORD_ROWS, line, log
from refusals import BASES, INF, NAN, ROWS, rows, with_keys


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


@pytest.mark.parametrize("row", rows("null"), ids=lambda row: row.id)
def test_a_null_section_seed_or_detector_kind_takes_its_default(row, tmp_path):
    assert run_config_from_dict(row.config()) == run_config_from_dict(BASES[row.base])
    assert main(["eval", "--config", str(write_config(tmp_path, row.config())), "--output", str(tmp_path / "o")]) == 0


def test_config_takes_a_whole_float_as_a_count():
    data = base_config_dict(seed=2.0, fusion={"n_history": 4.0}, stream={"horizon_frames": 7.0}, max_dets_per_frame=1.0)
    cfg = run_config_from_dict(data)
    counts = (cfg.seed, cfg.fusion.n_history, cfg.horizon_frames, cfg.max_dets_per_frame)
    assert counts == (2, 4, 7, 1) and all(type(n) is int for n in counts)


def test_config_null_latency_takes_the_default():
    assert run_config_from_dict(base_config_dict(stream={"latency_ms": None})).latency_model == ConstantLatency(0.0)
    stream = {"latency_ms": None, "latency_per_frame_ms": [5.0] * 20}
    assert run_config_from_dict(base_config_dict(stream=stream)).latency_model == PerFrameLatency((5.0,) * 20)


def test_detector_key_schema_accepts_bundled_and_benchmark_configs(tmp_path):
    bundled = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert bundled
    for path in bundled:
        load_run_config(path)
        out = tmp_path / "bundled" / path.stem
        assert main(["eval", "--config", str(path), "--output", str(out)]) == 0
        assert (out / "report.txt").is_file()
    workloads = load_benchmark_workloads()
    for make_cases in workloads.WORKLOADS.values():
        for case in make_cases(1, "smoke", tmp_path):
            run_config_from_dict(case.config)
    # the keys a temporal-range sweep writes, over every forecaster base
    for kind in ("hold", "const-velocity", "long-short"):
        base = run_config_from_dict(base_config_dict(detector={"kind": kind, "forecast_steps": 1}))
        spec = SweepSpec(axis=SweepAxis.TEMPORAL_RANGE, base=base)
        for value in spec.values:
            apply_sweep_value(spec, value)


@pytest.mark.parametrize("kind", ["const-velocity", "long-short"])
def test_config_rejects_per_frame_latency_without_forecast_steps(kind):
    stream = {"latency_per_frame_ms": [33.33] * 20}
    with pytest.raises(InvalidConfig, match="forecast_steps"):
        run_config_from_dict(base_config_dict(stream=stream, detector={"kind": kind}))
    cfg = run_config_from_dict(base_config_dict(stream=stream, detector={"kind": kind, "forecast_steps": 1}))
    assert 0.0 <= run_eval(cfg).sap <= 1.0


def test_cli_history_flags_reach_only_detectors_that_take_them(tmp_path):
    cfg_path = write_config(tmp_path, base_config_dict())  # delayed-gt
    assert main(["eval", "--config", str(cfg_path), "--output", str(tmp_path / "o"), "--n-history", "2",
                 "--delta-t", "2"]) == 0


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
        run_eval(cfg)


def test_short_per_frame_latency_list_rejected_before_any_detector_call(tmp_path, monkeypatch, capsys):
    # A scene source is rejected at load (the next tests); a dataset's frame
    # count is known only once run_eval reads the file.
    import longshort.runner as runner

    def no_detector(cfg, data):
        raise AssertionError("the detector was built before the latency list was checked")

    monkeypatch.setattr(runner, "make_detector", no_detector)
    assert main(["gen-scene", "--scene", "uniform", "--output", str(tmp_path / "ann.json")]) == 0
    cfg = run_config_from_dict({"dataset": str(tmp_path / "ann.json"), "stream": {"latency_per_frame_ms": [0.0] * 5}})
    with pytest.raises(InvalidConfig, match=r"latency_per_frame_ms has 5 values, fewer than the 20 frames"):
        run_eval(cfg)


@pytest.mark.parametrize("source", [{"scene_name": "uniform"}, {"scene": {
    "n_frames": 20, "width": 100, "height": 100,
    "trajectories": [{"kind": "uniform", "initial_bbox": [10, 10, 30, 30], "velocity": [1, 0]}],
}}])
def test_scene_source_rejects_a_horizon_beyond_its_frames_at_load(source):
    with pytest.raises(InvalidConfig, match="stream horizon_frames 30: exceeds the source's 20 frames"):
        run_config_from_dict({**source, "stream": {"horizon_frames": 30}})
    assert run_config_from_dict({**source, "stream": {"horizon_frames": 20}}).horizon_frames == 20


def test_scene_source_rejects_a_per_frame_latency_list_shorter_than_the_horizon_at_load():
    with pytest.raises(InvalidConfig, match="latency_per_frame_ms has 5 values, fewer than the 20 frames"):
        run_config_from_dict(base_config_dict(stream={"latency_per_frame_ms": [0.0] * 5}))
    with pytest.raises(InvalidConfig, match="latency_per_frame_ms has 5 values, fewer than the 6 frames"):
        run_config_from_dict(base_config_dict(stream={"latency_per_frame_ms": [0.0] * 5, "horizon_frames": 6}))
    cfg = run_config_from_dict(base_config_dict(stream={"latency_per_frame_ms": [0.0] * 5, "horizon_frames": 5}))
    assert run_eval(cfg).sap == 1.0


def inline_scene(**extra):
    scene = {"n_frames": 8, "width": 100, "height": 80, "trajectories": [
        {"kind": "uniform", "initial_bbox": [10, 10, 30, 30], "velocity": [2, 1], "category": 1}]}
    scene.update(extra)
    return scene


def test_inline_scene_loads_with_its_values_cast():
    scene = run_config_from_dict({"scene": inline_scene(frame_interval_ms=None, width=100.0)}).scene
    assert (scene.n_frames, scene.width, scene.height, scene.frame_interval_ms) == (8, 100, 80, 33.33)
    assert type(scene.width) is int
    assert scene.trajectories[0].category == 1 and scene.trajectories[0].velocity == (2.0, 1.0)
    # a scene has no seed: the config's seed draws the extractor's lifts
    with pytest.raises(InvalidConfig, match="unknown scene key 'seed'"):
        run_config_from_dict({"scene": inline_scene(seed=3)})


def forbid_detectors(monkeypatch):
    import longshort.runner as runner

    def no_detector(cfg, data):
        raise AssertionError("a detector was built for a config that should have been rejected")

    monkeypatch.setattr(runner, "make_detector", no_detector)


def test_overflowing_frame_interval_of_a_dataset_is_rejected_before_any_detector_call(tmp_path, monkeypatch):
    assert main(["gen-scene", "--scene", "uniform", "--output", str(tmp_path / "ann.json")]) == 0
    forbid_detectors(monkeypatch)
    for stream in ({"frame_interval_ms": 1e308}, {"latency_ms": 1e307, "dispatch": "fifo"}):
        cfg = run_config_from_dict({"dataset": str(tmp_path / "ann.json"), "stream": stream})
        with pytest.raises(InvalidConfig, match="frame_interval_ms .*: 20 frames with latencies up to"):
            run_eval(cfg)


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
        run_eval(cfg)


def test_an_empty_dataset_is_refused_as_a_horizon_without_a_box(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, {"images": [], "annotations": []}, name="ann.json")
    forbid_detectors(monkeypatch)
    assert main(["eval", "--config", str(write_config(tmp_path, {"dataset": str(path)}))]) == 1
    assert capsys.readouterr().err == "error: InvalidConfig: horizon_frames 0: no ground-truth box in the first 0 frames\n"


def test_a_dataset_without_a_frame_interval_runs_at_the_default(tmp_path):
    for info, want in (({"frame_interval_ms": None}, 33.33), ({"frame_interval_ms": 50}, 50)):
        cfg = run_config_from_dict({"dataset": str(exported_uniform(tmp_path, **info))})
        assert build_run_data(cfg).stream.frame_interval_ms == want


def test_a_one_frame_horizon_keeps_a_huge_frame_interval(tmp_path):
    data = with_keys(BASES["example"], {"stream.frame_interval_ms": 1e308, "stream.horizon_frames": 1})
    cfg = load_run_config(write_config(tmp_path, data))
    assert 0.0 <= run_eval(cfg).sap <= 1.0


def test_fusion_values_cast_like_detector_values():
    # a whole float is a count, as for a detector's values
    fusion = {"variant": "EfDil", "n_history": 2, "delta_t": 3.0, "ratio": 0.25, "residual": False}
    got = run_config_from_dict(base_config_dict(fusion=fusion)).fusion
    assert (got.variant, got.n_history, got.delta_t, got.ratio, got.residual) == (FusionVariant.EF_DIL, 2, 3, 0.25, False)
    assert type(got.delta_t) is int
    assert run_config_from_dict(base_config_dict(fusion={"n_history": None})).fusion.n_history == 3


def eval_config(monkeypatch, argv):
    """The RunConfig `longshort eval argv` derives and runs."""
    import longshort.cli as cli

    seen = []
    monkeypatch.setattr(cli, "run_eval", lambda cfg: seen.append(cfg) or run_eval(replace(cfg, output=None)))
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


# flag -> (an argument, the config key path it sets, and the value it sets);
# a count flag takes any number, so "2.0" is the count 2
EVAL_FLAGS = {
    "--seed": ("9", "seed", 9),
    "--scene-name": ("mixed", "scene_name", "mixed"),
    "--latency-ms": ("50", "stream.latency_ms", 50.0),
    "--frame-interval-ms": ("20", "stream.frame_interval_ms", 20.0),
    "--dispatch": ("fifo", "stream.dispatch", "fifo"),
    "--detector": ("long-short", "detector.kind", "long-short"),
    "--variant": ("EfAvg", "fusion.variant", "EfAvg"),
    "--n-history": ("2.0", "fusion.n_history", 2),
    "--delta-t": ("2", "fusion.delta_t", 2),
    "--ratio": ("0.25", "fusion.ratio", 0.25),
    "--no-residual": (None, "fusion.residual", False),
    "--output": ("elsewhere", "output", "elsewhere"),
}


@pytest.mark.parametrize("flag", EVAL_FLAGS)
def test_an_eval_flag_is_its_config_key(flag, tmp_path, monkeypatch):
    data = base_config_dict(output=str(tmp_path / "out"))  # delayed-gt takes no fusion key
    arg, path, value = EVAL_FLAGS[flag]
    cfg = eval_config(monkeypatch, ["--config", str(write_config(tmp_path, data)), flag, *([arg] if arg else [])])
    assert cfg == run_config_from_dict(with_keys(data, {path: value}))


def test_a_fusion_flag_is_also_the_detector_key_of_a_kind_that_takes_it(tmp_path, monkeypatch):
    data = base_config_dict(detector={"kind": "long-short", "forecast_steps": 1}, output=str(tmp_path / "out"))
    cfg = eval_config(monkeypatch, ["--config", str(write_config(tmp_path, data)), "--n-history", "2", "--ratio", "0.25"])
    keys = {"fusion.n_history": 2, "fusion.ratio": 0.25, "detector.n_history": 2}
    assert cfg == run_config_from_dict(with_keys(data, keys))


# ------------------------------------------------------------- refusals
# Each row of tests/refusals.py through every entry path that reaches it.

REFUSALS = [row for row in ROWS if row.message]


def refused_eval(argv, tmp_path, monkeypatch, capsys) -> str:
    """The stderr of `longshort eval argv --output out` run in tmp_path,
    which must exit 1 and write nothing."""
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(["eval", *argv, "--output", "out"]) == 1
    assert sorted(tmp_path.iterdir()) == before
    return capsys.readouterr().err


def flag_args(row):
    """The eval flags that set each key of the row, or None when a key has
    no flag or argparse does not pass its value on unchanged."""
    flags = {path: flag for flag, (arg, path, _) in EVAL_FLAGS.items() if arg}
    if row.base is None or not set(row.keys) <= set(flags):
        return None
    args = [arg for path, value in row.keys.items() for arg in (flags[path], str(value))]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            parsed = vars(build_parser().parse_args(["eval", "--config", "run.json", *args]))
    except SystemExit:
        return None
    given = [repr(parsed[flags[path][2:].replace("-", "_")]) for path in row.keys]
    return args if given == [repr(value) for value in row.keys.values()] else None


def sweep_value(row):
    """The axis and value of a sweep row that sets the row's keys, save its
    detector kind, or None."""
    keys = set(row.keys) - {"detector.kind"} if row.base == "uniform" else set()
    if keys and keys <= {"fusion.n_history", "fusion.delta_t"}:
        return SweepAxis.TEMPORAL_RANGE, [row.keys.get("fusion.n_history", 1), row.keys.get("fusion.delta_t")]
    for axis, key in ((SweepAxis.DILATION_RATIO, "fusion.ratio"), (SweepAxis.FUSION_VARIANT, "fusion.variant")):
        if keys == {key}:
            return axis, row.keys[key]
    return None


@pytest.mark.parametrize("row", REFUSALS, ids=lambda row: row.id)
def test_a_refused_config_file_prints_its_message(row, tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, row.config())
    assert refused_eval(["--config", path.name], tmp_path, monkeypatch, capsys) == f"error: InvalidConfig: {row.message}\n"


@pytest.mark.parametrize("row", [row for row in REFUSALS if flag_args(row)], ids=lambda row: row.id)
def test_a_refused_flag_prints_its_config_keys_message(row, tmp_path, monkeypatch, capsys):
    argv = ["--config", write_config(tmp_path, BASES[row.base]).name, *flag_args(row)]
    assert refused_eval(argv, tmp_path, monkeypatch, capsys) == f"error: InvalidConfig: {row.message}\n"


# each sweep row over its own detector kind, else over delayed-gt and a
# forecaster, which also takes the temporal keys
SWEPT_REFUSALS = [(row, kind) for row in REFUSALS if sweep_value(row)
                  for kind in ([row.keys["detector.kind"]] if "detector.kind" in row.keys else ["delayed-gt", "long-short"])]


@pytest.mark.parametrize("row, kind", SWEPT_REFUSALS, ids=[f"{row.id}-{kind}" for row, kind in SWEPT_REFUSALS])
def test_a_refused_sweep_value_fails_its_row_with_its_config_keys_message(row, kind):
    axis, value = sweep_value(row)
    base = run_config_from_dict(with_keys(BASES[row.base], {"detector.kind": kind}))
    [got] = run_sweep(SweepSpec(axis, base, (value,)))
    assert (got.report, got.error) == (None, f"InvalidConfig: {row.message}")


def test_a_file_that_is_not_json_is_refused_naming_it(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"scene_name": "uniform",\n}')
    message = f"{path}: invalid JSON at line 2: Expecting property name enclosed in double quotes"
    with pytest.raises(InvalidConfig, match=re.escape(message)):
        load_run_config(path)
    out = tmp_path / "out"
    for command in (["eval", "--config"], ["sweep", "--axis", "dilation-ratio", "--config"], ["gen-scene", "--scene"]):
        assert main([*command, str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: InvalidConfig: {message}\n"
    assert not out.exists()


def test_sweep_values_that_are_not_json_are_refused_before_any_row_runs(tmp_path, capsys, monkeypatch):
    import longshort.cli as cli

    monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("a row ran"))
    out = tmp_path / "sweep.csv"
    args = ["--config", str(write_config(tmp_path, base_config_dict())), "--values", "[0.5", "--output", str(out)]
    assert main(["sweep", "--axis", "dilation-ratio", *args]) == 1
    assert capsys.readouterr().err == "error: InvalidConfig: sweep values: invalid JSON at line 1: Expecting ',' delimiter\n"
    assert not out.exists()


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
        return run_eval(cfg).sap

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
    report = run_eval(cfg)
    assert 0.0 <= report.sap <= 1.0


def test_dataset_source_round_trip(tmp_path):
    # export a scene, then evaluate from the annotation file
    assert main(["gen-scene", "--scene", "uniform", "--output", str(tmp_path / "ann.json")]) == 0
    cfg = run_config_from_dict(
        {"dataset": str(tmp_path / "ann.json"), "detector": {"kind": "delayed-gt"}}
    )
    report = run_eval(cfg)
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
            rows.append(SweepRow(value, run_eval(apply_sweep_value(spec, value)), None))
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
        assert errors[1].startswith("InvalidConfig: fusion n_history 2.5")
        data_error = "InvalidConfig: stream horizon_frames 500: exceeds the source's 20 frames" if "horizon_frames" in stream else None
        assert errors[:1] + errors[2:] == [data_error] * 3


# every fusion-variant sweep value: each variant with and without its residual
EVERY_VARIANT = [v.value + star for v in FusionVariant for star in ("", "*")]


def pyramid_base(**fusion):
    scene = inline_scene(n_frames=9, width=96, height=64)
    scene["trajectories"].append({"kind": "uniform", "initial_bbox": [50, 30, 70, 50], "velocity": [-1, 0]})
    return run_config_from_dict({"scene": scene, "detector": {"kind": "pyramid", "weight_seed": 3}, "fusion": fusion})


def test_sweep_rows_pair_when_their_configs_differ_in_the_residual_alone():
    from longshort.runner import _pairs

    base = pyramid_base(n_history=2)
    fusions = [
        {"variant": "LfDil", "residual": False},
        {"variant": "EfAvg"}, {"variant": "LfDil"}, {"variant": "EfAvg", "residual": False},  # EfAvg has no residual
        {"variant": "LfAvg", "ratio": 0.25}, {"variant": "LfAvg", "residual": False},  # the ratio differs
        {"variant": "LfDil", "residual": False},  # its LfDil is taken
        {"variant": "EfDil", "n_history": 0}, {"variant": "EfDil", "n_history": 0, "residual": False},  # no history
    ]
    cfgs = {i: run_config_from_dict({"fusion": fusion}, base) for i, fusion in enumerate(fusions)}
    assert _pairs(cfgs) == [(2, 0)]  # (X, X*), whatever the row order
    assert _pairs({i: cfgs[i] for i in (2, 6)}) == [(2, 6)]
    other_kind = run_config_from_dict(base_config_dict(detector={"kind": "long-short"}))  # no network to share
    assert _pairs({i: run_config_from_dict({"fusion": fusions[i]}, other_kind) for i in (0, 2)}) == []


def write_records_text(records):
    out = io.StringIO()
    write_records(records, out)
    return out.getvalue()


@pytest.mark.parametrize("seed", range(8))
def test_a_shared_pass_gives_each_row_what_it_gets_alone(seed, monkeypatch):
    """Random pyramid fusion-variant sweeps: the rows that share a network
    pass give the CSV and the records that one run per row gives, and each
    shared pass calls its extractor once per dispatched frame."""
    import longshort.runner as runner

    rng = random.Random(seed)
    base = pyramid_base(n_history=rng.randint(1, 4), delta_t=rng.randint(1, 2), ratio=rng.uniform(0.05, 0.95))
    # 50 ms on 33.33 ms frames skips every other frame, so history lookups meet pads
    base = run_config_from_dict({"stream": {"latency_ms": (0.0, 50.0)[seed % 2]},
                                 "detector": {"weight_seed": rng.randint(1, 2**31 - 1)}}, base)
    spec = SweepSpec(SweepAxis.FUSION_VARIANT, base, tuple(rng.sample(EVERY_VARIANT, len(EVERY_VARIANT))))
    extractors, runs = [], []
    monkeypatch.setattr(runner, "BoxFilterExtractor", lambda **kw: extractors.append(BoxFilterExtractor(**kw)) or extractors[-1])
    report = runner._report

    def spy(cfg, data, records):  # the records each row is scored on
        runs.append((cfg, write_records_text(records)))
        return report(cfg, data, records)

    monkeypatch.setattr(runner, "_report", spy)
    csv_text = sweep_to_csv(spec, run_sweep(spec))
    shared_runs, shared_extractors = runs[:], extractors[:]
    runs.clear()
    assert csv_text == sweep_to_csv(spec, per_row_sweep(spec))
    for value in spec.values:
        cfg = apply_sweep_value(spec, value)
        assert [text for c, text in shared_runs if c == cfg] == [text for c, text in runs if c == cfg], value
    # EfDil, LfAvg and LfDil each share a pass with their starred row; EfAvg and EfAvg* run alone
    assert len(shared_extractors) == len(EVERY_VARIANT) - 3
    dispatched = len(runs[0][1].splitlines())
    assert [e.calls for e in shared_extractors] == [dispatched] * len(shared_extractors)
    assert dispatched == (9, 5)[seed % 2]
    assert any('"bbox"' in text for _, text in runs)  # some row detects something


def test_a_sweep_scores_each_pair_on_one_stream(monkeypatch):
    import longshort.runner as runner

    streams = []
    simulate = runner.simulate_stream
    monkeypatch.setattr(runner, "simulate_stream", lambda *args: streams.append(args) or simulate(*args))
    spec = SweepSpec(SweepAxis.FUSION_VARIANT, pyramid_base(n_history=2), tuple(reversed(EVERY_VARIANT)))
    rows = run_sweep(spec)
    assert [row.error for row in rows] == [None] * len(EVERY_VARIANT)
    # EfDil, LfAvg and LfDil each pair with their starred row; EfAvg and EfAvg* run alone
    assert len(streams) == len(EVERY_VARIANT) - 3


def test_a_sweep_with_repeated_values_pairs_each_starred_row_with_a_free_twin(monkeypatch):
    import longshort.runner as runner

    streams = []
    simulate = runner.simulate_stream
    monkeypatch.setattr(runner, "simulate_stream", lambda *args: streams.append(args) or simulate(*args))
    base = run_config_from_dict({"stream": {"latency_ms": 50.0}}, pyramid_base(n_history=2))
    spec = SweepSpec(SweepAxis.FUSION_VARIANT, base, ("LfDil*", "LfDil", "LfDil", "LfDil*", "EfAvg*"))
    rows = run_sweep(spec)
    # each LfDil* takes the first LfDil still free; EfAvg* runs alone
    assert runner._pairs({i: apply_sweep_value(spec, value) for i, value in enumerate(spec.values)}) == [(1, 0), (2, 3)]
    assert len(streams) == 3
    assert [row.error for row in rows] == [None] * 5
    assert sweep_to_csv(spec, rows) == sweep_to_csv(spec, per_row_sweep(spec))


@pytest.mark.parametrize("broken", ["shared pass", "every head"])
def test_a_shared_pass_that_raises_leaves_each_row_the_error_it_gets_alone(broken, monkeypatch):
    import longshort.runner as runner

    raised = []

    def fail(self, pyramid):
        raised.append(broken)
        raise RuntimeError(f"{broken} fails")

    # the pass alone fails, so both rows then run alone and succeed; or
    # every head fails, so every row fails alone too
    monkeypatch.setattr(runner._ResidualPair if broken == "shared pass" else runner.BlobHead, "predict", fail)
    spec = SweepSpec(SweepAxis.FUSION_VARIANT, pyramid_base(n_history=2), ("LfDil", "EfAvg", "LfDil*"))
    rows = run_sweep(spec)
    assert raised
    alone = per_row_sweep(spec)
    assert [row.error for row in rows] == [row.error for row in alone]
    assert [row.error for row in rows] == [None] * 3 if broken == "shared pass" else ["RuntimeError: every head fails"] * 3
    assert sweep_to_csv(spec, rows) == sweep_to_csv(spec, alone)


@pytest.mark.parametrize(
    "axis, value, keys",
    [
        ("temporal-range", [2, 2], {"fusion.n_history": 2, "fusion.delta_t": 2,
                                    "detector.kind": "long-short", "detector.n_history": 2, "detector.delta_t": 2}),
        ("temporal-range", [0, None], {"fusion.n_history": 0, "fusion.delta_t": 1,
                                       "detector.kind": "hold", "detector.n_history": 0, "detector.delta_t": 1}),
        ("dilation-ratio", 0.25, {"fusion.ratio": 0.25}),
        ("fusion-variant", "EfDil*", {"fusion.variant": "EfDil", "fusion.residual": False}),
        ("fusion-variant", "EfDil", {"fusion.variant": "EfDil", "fusion.residual": True}),
        # a whole float is a count
        ("temporal-range", [2.0, 1.0], {"fusion.n_history": 2, "fusion.delta_t": 1,
                                        "detector.kind": "long-short", "detector.n_history": 2, "detector.delta_t": 1}),
    ],
)
def test_a_sweep_value_is_its_config_keys(axis, value, keys, tmp_path, monkeypatch):
    import longshort.runner as runner

    seen = []
    evaluate = runner._evaluate
    monkeypatch.setattr(runner, "_evaluate", lambda cfg, data: seen.append(cfg) or evaluate(cfg, data))
    # const-velocity takes the temporal keys, and its forecast_steps stays
    data = base_config_dict(detector={"kind": "const-velocity", "forecast_steps": 1}, fusion={"residual": False})
    args = ["--config", str(write_config(tmp_path, data)), "--axis", axis, "--values", json.dumps([value])]
    assert main(["sweep", *args, "--seed", "5", "--output", str(tmp_path / "sweep.csv")]) == 0
    assert seen == [run_config_from_dict(with_keys(data, {"seed": 5, **keys}))]


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

    # a null delta_t runs delta_t 1 under the "-" label; a null N is refused
    rows = sweep("temporal-range", '[[1], 5, ["x", 1], [2, "y"], [1, 2, 3], [2, 1], [2, null], [null, 1]]')
    assert [row[:2] for row in rows] == [
        ["[1]", ""], ["5", ""], ["x", "1"], ["2", "y"], ["[1; 2; 3]", ""], ["2", "1"], ["2", "-"], ["-", "1"],
    ]
    pair = "InvalidConfig: sweep temporal-range value {}: must be a pair of N and delta_t"
    assert [row[-1] for row in rows] == [
        pair.format("[1]"), pair.format(5), "InvalidConfig: fusion n_history 'x': must be a number",
        "InvalidConfig: fusion delta_t 'y': must be a number", pair.format("[1; 2; 3]"), "", "",
        "InvalidConfig: fusion n_history None: must be a number",
    ]
    assert rows[6][2:-1] == rows[5][2:-1]  # [2, null] is [2, 1]
    # a null ratio is refused, not run at the base's ratio
    rows = sweep("dilation-ratio", '["abc", "a,b", true, null, 0.5]')
    assert [(row[0], row[-1]) for row in rows] == [
        ("abc", "InvalidConfig: fusion ratio 'abc': must be a number"),
        ("a;b", "InvalidConfig: fusion ratio 'a;b': must be a number"),
        ("True", "InvalidConfig: fusion ratio True: must be a number"),
        ("None", "InvalidConfig: fusion ratio None: must be a number"),
        ("0.5", ""),
    ]
    rows = sweep("fusion-variant", '["LfDil**", null, "LfDil*"]')  # one "*" marks the residual-free variant
    variants = "must be one of ['EfAvg'; 'EfDil'; 'LfAvg'; 'LfDil']"
    assert [(row[0], row[-1]) for row in rows] == [
        ("LfDil**", f"InvalidConfig: fusion variant 'LfDil*': {variants}"),
        ("None", f"InvalidConfig: fusion variant None: {variants}"),
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


REPORT_FILES = ("report.txt", "report.csv", "report_table.txt")


def test_cli_gen_scene_eval_and_score(tmp_path):
    ann = tmp_path / "scene.json"
    assert main(["gen-scene", "--scene", "mixed", "--output", str(ann)]) == 0
    data = json.loads(ann.read_text())
    assert {img["id"] for img in data["images"]} == set(range(18))

    cfg_path = write_config(tmp_path, {"dataset": str(ann), "stream": {"latency_ms": 40.0}, "detector": {"kind": "hold"}})
    assert main(["eval", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
    records = tmp_path / "out" / "records.jsonl"
    assert main(["score", "--config", str(cfg_path), "--records", str(records), "--output", str(tmp_path / "s")]) == 0
    for name in REPORT_FILES:
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name


def test_score_writes_next_to_evals_default_output_not_over_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LONGSHORT_OUT_DIR", str(tmp_path / "runs"))
    cfg_path = write_config(tmp_path, base_config_dict(stream={"latency_ms": 50.0}))
    assert main(["eval", "--config", str(cfg_path)]) == 0
    evaluated = capsys.readouterr().out
    records = tmp_path / "runs" / "run" / "records.jsonl"
    before = {name: (tmp_path / "runs" / "run" / name).stat().st_mtime_ns for name in REPORT_FILES}
    assert main(["score", "--config", str(cfg_path), "--records", str(records)]) == 0
    out = tmp_path / "runs" / "run-score"
    assert capsys.readouterr().out == evaluated.replace(str(tmp_path / "runs" / "run"), str(out))
    assert {name: (tmp_path / "runs" / "run" / name).stat().st_mtime_ns for name in REPORT_FILES} == before
    for name in REPORT_FILES:
        assert (out / name).read_bytes() == (tmp_path / "runs" / "run" / name).read_bytes(), name


def test_score_reads_back_a_negative_category(tmp_path):
    # a scene or BlobHead category may be negative; its AP_cat_-1 line is scored again
    cfg_path = write_config(tmp_path, with_keys(BASES["scene"], {"scene.trajectories.0.category": -1}))
    assert main(["eval", "--config", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report.txt").read_bytes()
    assert b"AP_cat_-1 = " in report
    records = tmp_path / "out" / "records.jsonl"
    assert main(["score", "--config", str(cfg_path), "--records", str(records), "--output", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "report.txt").read_bytes() == report


@pytest.mark.parametrize("row", RECORD_ROWS, ids=lambda row: row.id)
def test_score_refuses_a_bad_records_line_naming_the_file_the_line_and_the_key(row, tmp_path, capsys):
    cfg_path = write_config(tmp_path, RECORD_CONFIG)
    path = tmp_path / "records.jsonl"
    path.write_text(log(line()))
    assert main(["score", "--config", str(cfg_path), "--records", str(path), "--output", str(tmp_path / "good")]) == 0
    path.write_text(log(row.line))
    assert main(["score", "--config", str(cfg_path), "--records", str(path), "--output", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == f"error: ParseError: {path} line 2: {row.message}\n"
    assert not (tmp_path / "bad").exists()


def test_cli_gen_scene_reads_a_scene_file(tmp_path):
    scene_path = write_config(tmp_path, inline_scene(), name="scene.json")
    assert main(["gen-scene", "--scene", str(scene_path), "--output", str(tmp_path / "ann.json")]) == 0
    assert len(json.loads((tmp_path / "ann.json").read_text())["images"]) == 8


def test_cli_gen_scene_rejects_an_unknown_scene_listing_the_bundled_ones(tmp_path, capsys):
    out = tmp_path / "ann.json"
    assert main(["gen-scene", "--scene", "turning", "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: InvalidConfig: config scene_name 'turning': must be one of ['accelerating', 'mixed', 'uniform']\n"
    )
    assert not out.exists()


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["eval", "--config", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err
