"""The package's public names, and what its library entry points refuse."""

import re

import numpy as np
import pytest

import longshort
from longshort import metrics, scenarios
from longshort.config import RunConfig, run_config_from_dict
from longshort.detectors import ForecastDetector
from longshort.fusion import FusionSettings, FusionVariant, InvalidConfig, LsfmWeights, fuse, plan_channels
from longshort.network import BoxFilterExtractor, Frame
from longshort.scenarios import SyntheticScene, TrajectoryKind, TrajectorySpec, bundled_scene
from refusals import BASES, ROWS


def test_every_name_in_all_resolves_on_the_package():
    assert len(set(longshort.__all__)) == len(longshort.__all__)
    assert [name for name in longshort.__all__ if not hasattr(longshort, name)] == []
    namespace = {}
    exec("from longshort import *", namespace)
    assert set(longshort.__all__) <= set(namespace)


FORECAST_RULE = "need n_history >= 0, delta_t >= 1, forecast_steps >= 0"
REFUSALS = {
    "forecaster n_history -1": (lambda: ForecastDetector([], n_history=-1), ValueError, FORECAST_RULE),
    "forecaster delta_t 0": (lambda: ForecastDetector([], delta_t=0), ValueError, FORECAST_RULE),
    "forecaster forecast_steps -1": (lambda: ForecastDetector([], forecast_steps=-1), ValueError, FORECAST_RULE),
    "extractor model size": (lambda: BoxFilterExtractor("Q"), ValueError, "model_size must be one of ['L', 'M', 'S']"),
    "frame without pixels": (
        lambda: BoxFilterExtractor().extract(Frame(4, 0.0)), ValueError, "frame 4 carries no image payload"),
    "crossed start box": (
        lambda: TrajectorySpec(TrajectoryKind.UNIFORM, (30, 10, 10, 30)), InvalidConfig,
        "initial_bbox (30, 10, 10, 30): degenerate box, corners [30.0, 10.0, 10.0, 30.0] cross"),
    "3-number start box": (
        lambda: TrajectorySpec(TrajectoryKind.UNIFORM, [0, 0, 10]), InvalidConfig,
        "initial_bbox [0, 0, 10]: must be a list of 4 numbers"),
    "report without ground truth": (
        lambda: metrics.compute_sap_report([], []), ValueError, "no ground truth supplied; the report is undefined"),
    "weights without a projection": (
        lambda: fuse(FusionSettings(d=8), LsfmWeights(), np.zeros((8, 2, 2)), [np.zeros((8, 2, 2))] * 3),
        InvalidConfig, "weights are missing the long projection required by this variant"),
    "bundled scene name": (
        lambda: bundled_scene("nope"), KeyError, "no bundled scene 'nope'; available: ['accelerating', 'mixed', 'uniform']"),
    "fusion delta_t 0": (lambda: FusionSettings(delta_t=0), InvalidConfig, "fusion delta_t 0: must be >= 1"),
    "fusion n_history -1": (lambda: FusionSettings(n_history=-1), InvalidConfig, "fusion n_history -1: must be >= 0"),
    "level without history": (
        lambda: FusionSettings(n_history=0).config_for(8), InvalidConfig, "fusion n_history 0: must be >= 1"),
    "plan without a width": (
        lambda: plan_channels(FusionSettings()), InvalidConfig,
        "fusion settings without a channel width d have no plan; use config_for(d)"),
    "fusion ratio as a string": (lambda: FusionSettings(ratio="0.5"), InvalidConfig, "fusion ratio '0.5': must be a number"),
    "fractional fusion n_history": (
        lambda: FusionSettings(n_history=2.5), InvalidConfig, "fusion n_history 2.5: must be a whole number"),
    "fusion residual as a string": (
        lambda: FusionSettings(residual="no"), InvalidConfig, "fusion residual 'no': must be true or false"),
    "fractional scene n_frames": (
        lambda: SyntheticScene(2.5, 33.33, 100, 100, ()), InvalidConfig, "scene n_frames 2.5: must be a whole number"),
    "fractional scene width": (
        lambda: SyntheticScene(8, 33.33, 100.5, 100, ()), InvalidConfig, "scene width 100.5: must be a whole number"),
    # a run's stream takes the source's horizon and interval only where the config gives none
    "run horizon 0": (
        lambda: RunConfig(scene=bundled_scene("uniform"), horizon_frames=0), InvalidConfig, "horizon_frames must be >= 1"),
    "run frame interval 0": (
        lambda: RunConfig(scene=bundled_scene("uniform"), frame_interval_ms=0.0), InvalidConfig,
        "frame_interval_ms must be positive"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_library_entry_point_refuses_a_bad_argument_by_name(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_fusion_settings_take_a_variant_by_name():
    assert FusionSettings(variant="LfDil").variant is FusionVariant.LF_DIL
    assert FusionSettings(variant="EfAvg") == FusionSettings(variant=FusionVariant.EF_AVG)


def section_of(path: str):
    """The settings object a config key path sets: "fusion", "scene", a
    trajectory's index, or None for any other."""
    parts = path.split(".")
    if parts[:2] == ["scene", "trajectories"] and len(parts) > 3:
        return int(parts[2])
    return parts[0] if len(parts) > 1 and parts[0] in ("fusion", "scene") else None


def given(raw: dict) -> dict:
    """The keys of a config section that are given: a null is not."""
    return {key: value for key, value in raw.items() if value is not None}


def in_code(row):
    """A call that builds in code, from the row's values, the one settings
    object whose keys the row sets, and the message it must raise: the
    row's, a trajectory's without its place.  None where the rule is not
    that object's own: a key of another section, an unknown or missing
    key, or a rule that relates keys."""
    if row.message is None or not isinstance(row.keys, dict):
        return None
    sections = {section_of(path) for path in row.keys if path != "detector.kind"}
    if len(sections) != 1 or None in sections or "is missing" in row.message or "n_history x delta_t" in row.message:
        return None
    (section,) = sections
    place = {"fusion": "fusion ", "scene": "scene "}.get(section, f"scene trajectories[{section}] ")
    if not row.message.startswith(place):
        return None
    config = row.config()
    if section == "fusion":
        return (lambda: FusionSettings(**config["fusion"])), row.message
    if isinstance(section, int):
        raw = config["scene"]["trajectories"][section]
        return (lambda: TrajectorySpec(**given(raw))), row.message.removeprefix(place)
    scene = given(config["scene"])
    trajectories = scene.pop("trajectories", [])
    if isinstance(trajectories, list):
        trajectories = [TrajectorySpec(**given(raw)) for raw in trajectories]
    return (lambda: SyntheticScene(**{"frame_interval_ms": 33.33, **scene}, trajectories=trajectories)), row.message


IN_CODE = [(row, *in_code(row)) for row in ROWS if in_code(row)]


@pytest.mark.parametrize("row, call, message", IN_CODE, ids=[row.id for row, *_ in IN_CODE])
def test_settings_built_in_code_meet_the_config_rules_and_wording(row, call, message):
    with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
        call()


def test_every_kind_of_settings_row_is_built_in_code():
    sections = [section_of(next(p for p in row.keys if p != "detector.kind")) for row, *_ in IN_CODE]
    assert {"fusion", "scene"} <= set(sections) and any(isinstance(s, int) for s in sections)
    assert len(IN_CODE) >= 47


def test_a_loaded_trajectory_parses_each_field_once(monkeypatch):
    calls = []
    for key, parse in scenarios._TRAJECTORY_PARSERS.items():
        monkeypatch.setitem(scenarios._TRAJECTORY_PARSERS, key, lambda v, key=key, parse=parse: calls.append(key) or parse(v))
    cfg = run_config_from_dict(BASES["example"])
    n = len(cfg.scene.trajectories)
    assert sorted(calls) == sorted(list(scenarios._TRAJECTORY_PARSERS) * n)
