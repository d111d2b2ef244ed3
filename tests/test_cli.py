import json
from pathlib import Path

import pytest

from longshort.cli import main
from longshort.config import (
    SweepAxis,
    SweepSpec,
    apply_sweep_value,
    load_run_config,
    run_config_from_dict,
)
from longshort.fusion import FusionVariant, InvalidConfig
from longshort.runner import run_eval, run_sweep, sweep_to_csv


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


def test_short_per_frame_latency_list_rejected_before_any_detector_call(monkeypatch):
    import longshort.runner as runner

    def no_detector(cfg, data):
        raise AssertionError("the detector was built before the latency list was checked")

    monkeypatch.setattr(runner, "make_detector", no_detector)
    cfg = run_config_from_dict(base_config_dict(stream={"latency_per_frame_ms": [0.0] * 5}))
    with pytest.raises(ValueError, match=r"latency_per_frame_ms has 5 values, fewer than the 20 frames"):
        run_eval(cfg, write=False)


def test_overrides_win_over_file_values(tmp_path):
    path = write_config(tmp_path, base_config_dict())
    cfg = load_run_config(path, {"seed": 9, "stream": {"latency_ms": 50.0}, "detector": {"kind": "hold"}})
    assert cfg.seed == 9
    assert cfg.latency_model.ms == 50.0
    assert cfg.detector_kind == "hold"
    assert cfg.fusion.variant is FusionVariant.LF_DIL  # untouched default


def test_override_can_switch_data_source(tmp_path):
    path = write_config(tmp_path, base_config_dict())
    cfg = load_run_config(path, {"scene_name": "mixed"})
    assert cfg.scene.n_frames == 18


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


def sweep_rows(axis, base=None, values=()):
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


def test_sweep_values_override(tmp_path):
    spec, rows = sweep_rows(SweepAxis.TEMPORAL_RANGE, values=((0, None), (2, 2)))
    assert len(rows) == 2


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
