"""The package's public names, and what its library entry points refuse."""

import re

import numpy as np
import pytest

import longshort
from longshort import metrics
from longshort.detectors import ForecastDetector
from longshort.fusion import FusionSettings, InvalidConfig, LsfmWeights, fuse, plan_channels
from longshort.network import BoxFilterExtractor, Frame
from longshort.scenarios import TrajectoryKind, TrajectorySpec, bundled_scene


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
        "initial_bbox: degenerate box, corners [30.0, 10.0, 10.0, 30.0] cross"),
    "3-number start box": (
        lambda: TrajectorySpec(TrajectoryKind.UNIFORM, [0, 0, 10]), InvalidConfig,
        "initial_bbox: a box takes 4 finite numbers, got [0, 0, 10]"),
    "report without ground truth": (
        lambda: metrics.compute_sap_report([], []), ValueError, "no ground truth supplied; the report is undefined"),
    "weights without a projection": (
        lambda: fuse(FusionSettings(d=8), LsfmWeights(), np.zeros((8, 2, 2)), [np.zeros((8, 2, 2))] * 3),
        InvalidConfig, "weights are missing the long projection required by this variant"),
    "bundled scene name": (
        lambda: bundled_scene("nope"), KeyError, "no bundled scene 'nope'; available: ['accelerating', 'mixed', 'uniform']"),
    "fusion delta_t 0": (lambda: FusionSettings(delta_t=0), InvalidConfig, "delta_t must be >= 1, got 0"),
    "fusion n_history -1": (lambda: FusionSettings(n_history=-1), InvalidConfig, "n_history must be >= 0, got -1"),
    "level without history": (
        lambda: FusionSettings(n_history=0).config_for(8), InvalidConfig, "n_history must be >= 1, got 0"),
    "plan without a width": (
        lambda: plan_channels(FusionSettings()), InvalidConfig,
        "fusion settings without a channel width d have no plan; use config_for(d)"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_library_entry_point_refuses_a_bad_argument_by_name(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
