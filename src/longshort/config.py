"""Run and sweep configuration.

Configs are plain JSON with explicit keys (schema below); CLI flags override
file values.  A run names exactly one data source: an inline synthetic
scene, a bundled scene by name, or a COCO-format annotation file.

    {
      "seed": 7,
      "scene": { ... scene schema ... } | "scene_name": "uniform" |
      "dataset": "annotations.json",
      "stream": {
        "latency_ms": 33.33,            # or "latency_per_frame_ms": [...]
        "frame_interval_ms": 33.33,     # defaults to the scene's interval
        "dispatch": "latest",           # or "fifo"
        "horizon_frames": null          # defaults to the frame count
      },
      "fusion": {"variant": "LfDil", "n_history": 3, "delta_t": 1,
                 "ratio": 0.5, "residual": true},
      "detector": {"kind": "delayed-gt", "latency_frames": 0},
      "max_dets_per_frame": null,
      "output": "out/run1"
    }

Detector kinds and their keys (DETECTOR_KEYS; any other key is rejected):
"delayed-gt" (latency_frames); "hold", "const-velocity", "long-short"
(n_history, delta_t, forecast_steps, the last defaulting to the pairing
staleness of a constant-latency stream and required with
latency_per_frame_ms); and "pyramid" (model_size, weight_seed, threshold,
category), which runs the dual-path network over rasterized frames and so
needs a scene source, not a dataset.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Optional, Union

from .fusion import FusionSettings, FusionVariant, InvalidConfig
from .scenarios import SyntheticScene, bundled_scene, scene_from_dict
from .streaming import ConstantLatency, DispatchPolicy, LatencyModel, PerFrameLatency

# The keys runner.make_detector reads per kind.  The three forecasters share
# one key set: a temporal-range sweep writes n_history/delta_t onto hold and
# long-short and turns one into the other, and const-velocity (one frame
# back) ignores n_history the way hold ignores all three.
_FORECASTER_KEYS = ("n_history", "delta_t", "forecast_steps")
DETECTOR_KEYS = {
    "delayed-gt": ("latency_frames",),
    "hold": _FORECASTER_KEYS,
    "const-velocity": _FORECASTER_KEYS,
    "long-short": _FORECASTER_KEYS,
    "pyramid": ("model_size", "weight_seed", "threshold", "category"),
}
DETECTOR_KINDS = tuple(DETECTOR_KEYS)

OUTPUT_DIR_ENV = "LONGSHORT_OUT_DIR"


@dataclass(frozen=True)
class RunConfig:
    scene: Optional[SyntheticScene] = None
    dataset_path: Optional[str] = None
    latency_model: LatencyModel = ConstantLatency(0.0)
    frame_interval_ms: Optional[float] = None
    dispatch_policy: DispatchPolicy = DispatchPolicy.LATEST_FRAME_ON_FREE
    horizon_frames: Optional[int] = None
    fusion: FusionSettings = field(default_factory=FusionSettings)
    detector_kind: str = "delayed-gt"
    detector_params: dict = field(default_factory=dict)
    max_dets_per_frame: Optional[int] = None
    seed: int = 0
    output: Optional[str] = None

    def __post_init__(self):
        if (self.scene is None) == (self.dataset_path is None):
            raise InvalidConfig("exactly one data source (scene or dataset) is required")
        kind = self.detector_kind
        if kind not in DETECTOR_KINDS:
            raise InvalidConfig(f"unknown detector kind {kind!r}; use one of {DETECTOR_KINDS}")
        allowed = DETECTOR_KEYS[kind]
        for key in self.detector_params:
            if key not in allowed:
                raise InvalidConfig(f"unknown detector key {key!r} for kind {kind!r}; use one of {allowed}")
        if kind == "pyramid" and self.dataset_path is not None:
            raise InvalidConfig("detector kind 'pyramid' needs rendered frames; a 'dataset' source has no pixels")
        per_frame = isinstance(self.latency_model, PerFrameLatency)
        if kind in ("const-velocity", "long-short") and per_frame and self.detector_params.get("forecast_steps") is None:
            raise InvalidConfig(f"detector kind {kind!r} with latency_per_frame_ms needs a forecast_steps")


def _parse_stream(raw: dict) -> dict:
    out: dict[str, Any] = {}
    if "latency_per_frame_ms" in raw:
        out["latency_model"] = PerFrameLatency(tuple(raw["latency_per_frame_ms"]))
    elif "latency_ms" in raw:
        out["latency_model"] = ConstantLatency(float(raw["latency_ms"]))
    if raw.get("frame_interval_ms") is not None:
        out["frame_interval_ms"] = float(raw["frame_interval_ms"])
    if raw.get("dispatch") is not None:
        out["dispatch_policy"] = DispatchPolicy(raw["dispatch"])
    if raw.get("horizon_frames") is not None:
        out["horizon_frames"] = int(raw["horizon_frames"])
    return out


def run_config_from_dict(data: dict) -> RunConfig:
    data = copy.deepcopy(data)
    kwargs: dict[str, Any] = {}
    sources = [k for k in ("scene", "scene_name", "dataset") if data.get(k) is not None]
    if len(sources) != 1:
        raise InvalidConfig(f"exactly one of scene/scene_name/dataset required, got {sources}")
    if "scene" in sources:
        kwargs["scene"] = scene_from_dict(data["scene"])
    elif "scene_name" in sources:
        kwargs["scene"] = bundled_scene(data["scene_name"])
    else:
        kwargs["dataset_path"] = str(data["dataset"])
    kwargs.update(_parse_stream(data.get("stream", {})))
    if "fusion" in data:
        kwargs["fusion"] = FusionSettings.from_dict(data["fusion"])
    detector = dict(data.get("detector", {}))
    kwargs["detector_kind"] = detector.pop("kind", "delayed-gt")
    kwargs["detector_params"] = detector
    if data.get("max_dets_per_frame") is not None:
        kwargs["max_dets_per_frame"] = int(data["max_dets_per_frame"])
    kwargs["seed"] = int(data.get("seed", 0))
    if data.get("output") is not None:
        kwargs["output"] = str(data["output"])
    return RunConfig(**kwargs)


def load_run_config(path: Union[str, Path], overrides: Optional[dict] = None) -> RunConfig:
    """Read a JSON run config; `overrides` (same schema, flat merge per
    section) wins over file values."""
    data = json.loads(Path(path).read_text())
    if overrides:
        data = _merge(data, overrides)
    return run_config_from_dict(data)


def _merge(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            if key in ("scene", "scene_name", "dataset"):
                for src in ("scene", "scene_name", "dataset"):
                    out.pop(src, None)
            out[key] = value
    return out


class SweepAxis(Enum):
    TEMPORAL_RANGE = "temporal-range"
    DILATION_RATIO = "dilation-ratio"
    FUSION_VARIANT = "fusion-variant"


DEFAULT_SWEEP_VALUES: dict[SweepAxis, list] = {
    # (N, delta_t) grid; (0, None) disables the history path entirely.
    SweepAxis.TEMPORAL_RANGE: [
        (0, None), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1),
        (3, 2), (4, 1), (4, 2), (5, 1), (5, 2),
    ],
    SweepAxis.DILATION_RATIO: [0.25, 0.5, 0.75],
    # The trailing "*" marks the residual-connection-removed variant.
    SweepAxis.FUSION_VARIANT: ["EfAvg", "EfDil", "LfAvg", "LfDil", "LfDil*"],
}


@dataclass(frozen=True)
class SweepSpec:
    axis: SweepAxis
    base: RunConfig
    values: tuple = ()

    def __post_init__(self):
        values = tuple(self.values) if self.values else tuple(DEFAULT_SWEEP_VALUES[self.axis])
        if not values:
            raise InvalidConfig("sweep needs a non-empty value list")
        object.__setattr__(self, "values", values)


def apply_sweep_value(spec: SweepSpec, value) -> RunConfig:
    """Derive one run configuration from the sweep's base."""
    base = spec.base
    if spec.axis is SweepAxis.TEMPORAL_RANGE:
        n, dt = value
        n = int(n)
        dt = 1 if dt is None else int(dt)
        fusion = replace(base.fusion, n_history=n, delta_t=dt)
        cfg = replace(base, fusion=fusion)
        if base.detector_kind in ("hold", "const-velocity", "long-short"):
            params = dict(base.detector_params)
            params["n_history"] = n
            params["delta_t"] = dt
            cfg = replace(cfg, detector_kind="hold" if n == 0 else "long-short", detector_params=params)
        return cfg
    if spec.axis is SweepAxis.DILATION_RATIO:
        return replace(base, fusion=replace(base.fusion, ratio=float(value)))
    # FUSION_VARIANT
    name = str(value)
    residual = not name.endswith("*")
    variant = FusionVariant.parse(name.rstrip("*"))
    return replace(base, fusion=replace(base.fusion, variant=variant, residual=residual))


def sweep_key_columns(axis: SweepAxis) -> list[str]:
    if axis is SweepAxis.TEMPORAL_RANGE:
        return ["N", "delta_t"]
    if axis is SweepAxis.DILATION_RATIO:
        return ["ratio"]
    return ["fusion"]


def sweep_key_cells(axis: SweepAxis, value) -> list[str]:
    if axis is SweepAxis.TEMPORAL_RANGE:
        n, dt = value
        return [str(int(n)), "-" if dt is None else str(int(dt))]
    if axis is SweepAxis.DILATION_RATIO:
        return [repr(float(value))]
    return [str(value)]
