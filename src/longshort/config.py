"""Run and sweep configuration.

Configs are plain JSON with explicit keys (schema below); each CLI flag
replaces one field of the parsed RunConfig.  A run names exactly one data
source: an inline synthetic scene, a bundled scene by name, or a COCO-format
annotation file.

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

Unknown keys are rejected in every section (an inline scene and its
trajectories too), naming the key, and "stream" takes one latency form, a
constant or a per-frame list, not both.  Bad values are rejected too,
naming the key: each value is checked by its key's parser, so a number
must be a JSON number, not a string or a bool (a sweep value too), a count
refuses a fractional value instead of truncating it, and a null takes the
default.  The range checks run when a RunConfig, or a FusionSettings or
scene it holds, is built, so a config derived with dataclasses.replace (a
CLI flag, a sweep value) is checked like a file.  For a scene source that
includes what the scene's frame count decides: a horizon beyond it, a
per-frame latency list shorter than the horizon, and a frame interval so
large that the stream's clock overflows (for a dataset source
build_run_data checks that last one).

DETECTOR_KEYS is the one detector schema: kind -> key -> (default, parser
that casts and checks a given value).  A null value takes the default.  The
forecasters' forecast_steps defaults to the pairing staleness of a
constant-latency stream and is required with latency_per_frame_ms.  Kind
"pyramid" runs the dual-path network over rasterized frames and so needs a
scene source, not a dataset.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .fusion import FusionSettings, FusionVariant, InvalidConfig
from .network import MODEL_CHANNELS
from .scenarios import SyntheticScene, bundled_scene, scene_from_dict
from .streaming import ConstantLatency, DispatchPolicy, LatencyModel, PerFrameLatency


def _checked(cast: Callable, ok: Callable[[Any], bool], rule: str) -> Callable:
    """A parser that casts a value and raises ValueError(rule) unless ok."""
    def parse(value):
        value = cast(value)
        if not ok(value):
            raise ValueError(rule)
        return value
    return parse


def _number(value):
    """value, refusing anything but a number (a bool or a string too)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):  # int, float: the fast checks
        raise TypeError("must be a number")
    return value


def _whole(value) -> int:
    """int(value) of a number, refusing a fractional one instead of
    truncating it."""
    value = _number(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("must be a whole number")
    return int(value)


def _real(value) -> float:
    """float(value) of a number."""
    return float(_number(value))


def _per_frame_latency(values) -> PerFrameLatency:
    if not isinstance(values, (list, tuple)):
        raise TypeError("must be a list of latencies")
    return PerFrameLatency(tuple(map(_real, values)))


_COUNT = _checked(_whole, lambda n: n >= 0, "must be >= 0")
_STRIDE = _checked(_whole, lambda n: n >= 1, "must be >= 1")
_FINITE = _checked(_real, math.isfinite, "must be finite")
_MODEL_SIZE = _checked(str, MODEL_CHANNELS.__contains__, f"must be one of {sorted(MODEL_CHANNELS)}")

# kind -> key -> (default, parse).  The three forecasters share one key set:
# a temporal-range sweep writes n_history/delta_t onto hold and long-short and
# turns one into the other, and const-velocity (one frame back) ignores
# n_history the way hold ignores all three.
_FORECASTER_KEYS = {"n_history": (3, _COUNT), "delta_t": (1, _STRIDE), "forecast_steps": (None, _COUNT)}
DETECTOR_KEYS = {
    "delayed-gt": {"latency_frames": (0, _COUNT)},
    "hold": _FORECASTER_KEYS,
    "const-velocity": _FORECASTER_KEYS,
    "long-short": _FORECASTER_KEYS,
    "pyramid": {"model_size": ("S", _MODEL_SIZE), "weight_seed": (0, _whole), "threshold": (0.3, _FINITE), "category": (0, _whole)},
}
DETECTOR_KINDS = tuple(DETECTOR_KEYS)
RUN_KEYS = ("seed", "scene", "scene_name", "dataset", "stream", "fusion", "detector", "max_dets_per_frame", "output")
# stream key -> (the RunConfig field it sets, parse)
_STREAM_FIELDS = {
    "latency_ms": ("latency_model", lambda v: ConstantLatency(_real(v))),
    "latency_per_frame_ms": ("latency_model", _per_frame_latency),
    "frame_interval_ms": ("frame_interval_ms", _real),
    "dispatch": ("dispatch_policy", DispatchPolicy),
    "horizon_frames": ("horizon_frames", _whole),
}
STREAM_KEYS = tuple(_STREAM_FIELDS)
_BOOL = _checked(lambda v: v, lambda v: isinstance(v, bool), "must be true or false")
_FUSION_PARSERS = {"variant": FusionVariant.parse, "n_history": _whole, "delta_t": _whole, "ratio": _real, "residual": _BOOL}

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
        object.__setattr__(self, "detector_params", _parse_detector(kind, self.detector_params))
        if kind == "pyramid" and self.dataset_path is not None:
            raise InvalidConfig("detector kind 'pyramid' needs rendered frames; a 'dataset' source has no pixels")
        per_frame = isinstance(self.latency_model, PerFrameLatency)
        if kind in ("const-velocity", "long-short") and per_frame and "forecast_steps" not in self.detector_params:
            raise InvalidConfig(f"detector kind {kind!r} with latency_per_frame_ms needs a forecast_steps")
        if not (self.frame_interval_ms is None or 0 < self.frame_interval_ms < math.inf):
            raise InvalidConfig(f"frame_interval_ms must be finite and > 0, got {self.frame_interval_ms}")
        if self.horizon_frames is not None and self.horizon_frames < 1:
            raise InvalidConfig(f"horizon_frames must be >= 1, got {self.horizon_frames}")
        if self.scene is not None:  # a scene's frame count is known at load
            horizon = self.horizon_frames or self.scene.n_frames
            if horizon > self.scene.n_frames:
                raise InvalidConfig(f"horizon_frames {horizon} exceeds the scene's {self.scene.n_frames} frames")
            if per_frame and len(self.latency_model.values_ms) < horizon:
                raise InvalidConfig(
                    f"latency_per_frame_ms has {len(self.latency_model.values_ms)} values,"
                    f" fewer than the {horizon} frames of the horizon"
                )
            self.check_stream_span(horizon, self.frame_interval_ms or self.scene.frame_interval_ms)
        if self.max_dets_per_frame is not None and self.max_dets_per_frame < 1:
            raise InvalidConfig(f"max_dets_per_frame must be >= 1, got {self.max_dets_per_frame}")

    def check_stream_span(self, horizon: int, interval: float) -> None:
        """InvalidConfig unless `horizon` frames `interval` ms apart, each
        taking at most the largest latency, all end at a finite time, so
        that every event time of the stream is a finite float."""
        latency = self.latency_model
        largest = max(latency.values_ms[:horizon], default=0.0) if isinstance(latency, PerFrameLatency) else latency.ms
        if not math.isfinite(horizon * (interval + largest)):
            raise InvalidConfig(
                f"frame_interval_ms {interval}: {horizon} frames with latencies up to {largest} ms"
                " overflow the stream's clock"
            )

    @property
    def detector_settings(self) -> dict:
        """Every key of the detector's kind: its given value, else its default."""
        table = DETECTOR_KEYS[self.detector_kind]
        return {key: self.detector_params.get(key, default) for key, (default, _) in table.items()}


def _reject_unknown_keys(data: dict, allowed: tuple, section: str, context: str = "") -> None:
    for key in data:
        if key not in allowed:
            raise InvalidConfig(f"unknown {section} key {key!r}{context}; use one of {allowed}")


def _parsed(section: str, key: str, value, parse: Callable):
    """parse(value), or an InvalidConfig that names the key."""
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"{section} {key} {value!r}: {exc}") from None


def _parsed_section(raw, section: str, parsers: dict, required: tuple = ()) -> dict:
    """The keys given in `raw`, each cast by its parser; an unknown or
    missing key, or a value its parser refuses, is an InvalidConfig naming
    the key.  A null value is left out, so the key's default applies."""
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{section} must be an object, got {raw!r}")
    _reject_unknown_keys(raw, tuple(parsers), section)
    for key in required:
        if raw.get(key) is None:
            raise InvalidConfig(f"{section} is missing {key!r}")
    return {key: _parsed(section, key, value, parsers[key]) for key, value in raw.items() if value is not None}


def _parse_detector(kind: str, params: dict) -> dict:
    """The given keys of a detector of `kind`, cast and checked; a null value
    is left out, so the key's default applies."""
    table = DETECTOR_KEYS[kind]
    _reject_unknown_keys(params, tuple(table), "detector", f" for kind {kind!r}")
    return {key: _parsed("detector", key, value, table[key][1]) for key, value in params.items() if value is not None}


def _parse_stream(raw: dict) -> dict:
    """The stream section as RunConfig fields, each given value cast by its
    key's parser; a null value is left out, so the field's default applies."""
    _reject_unknown_keys(raw, STREAM_KEYS, "stream")
    given = {key: value for key, value in raw.items() if value is not None}
    if "latency_ms" in given and "latency_per_frame_ms" in given:
        raise InvalidConfig("stream sets both latency_ms and latency_per_frame_ms; give one")
    return {_STREAM_FIELDS[key][0]: _parsed("stream", key, value, _STREAM_FIELDS[key][1]) for key, value in given.items()}


def _parse_fusion(raw: dict) -> FusionSettings:
    """The fusion section, each given value cast by its key's parser; a null
    value is left out, so the key's default applies.  FusionSettings checks
    the ranges."""
    return FusionSettings(**_parsed_section(raw, "fusion", _FUSION_PARSERS))


def run_config_from_dict(data: dict) -> RunConfig:
    _reject_unknown_keys(data, RUN_KEYS, "config")
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
        kwargs["fusion"] = _parse_fusion(data["fusion"])
    detector = dict(data.get("detector", {}))
    kwargs["detector_kind"] = detector.pop("kind", "delayed-gt")
    kwargs["detector_params"] = detector
    if data.get("max_dets_per_frame") is not None:
        kwargs["max_dets_per_frame"] = _parsed("config", "max_dets_per_frame", data["max_dets_per_frame"], _whole)
    kwargs["seed"] = _parsed("config", "seed", data.get("seed", 0), _whole)
    if data.get("output") is not None:
        kwargs["output"] = str(data["output"])
    return RunConfig(**kwargs)


def load_run_config(path: Union[str, Path]) -> RunConfig:
    """Read a JSON run config."""
    return run_config_from_dict(json.loads(Path(path).read_text()))


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
    """values: a non-empty list, or None for the axis's default grid.  Each
    value is checked when its row runs, so a bad one fails that row only."""

    axis: SweepAxis
    base: RunConfig
    values: Optional[tuple] = None

    def __post_init__(self):
        values = DEFAULT_SWEEP_VALUES[self.axis] if self.values is None else self.values
        if not isinstance(values, (list, tuple)) or not values:
            raise InvalidConfig(f"sweep values must be a non-empty list, got {values!r}")
        object.__setattr__(self, "values", tuple(values))


def apply_sweep_value(spec: SweepSpec, value) -> RunConfig:
    """Derive one run configuration from the sweep's base."""
    base = spec.base
    if spec.axis is SweepAxis.TEMPORAL_RANGE:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise InvalidConfig(f"sweep temporal-range value {value!r}: must be a pair of N and delta_t")
        n = _parsed("sweep", "n_history", value[0], _COUNT)
        dt = 1 if value[1] is None else _parsed("sweep", "delta_t", value[1], _STRIDE)
        cfg = replace(base, fusion=replace(base.fusion, n_history=n, delta_t=dt))
        if "n_history" in DETECTOR_KEYS[base.detector_kind]:
            params = {**base.detector_params, "n_history": n, "delta_t": dt}
            cfg = replace(cfg, detector_kind="hold" if n == 0 else "long-short", detector_params=params)
        return cfg
    if spec.axis is SweepAxis.DILATION_RATIO:
        return replace(base, fusion=replace(base.fusion, ratio=_parsed("sweep", "ratio", value, _real)))
    # FUSION_VARIANT
    name = str(value)
    residual = not name.endswith("*")
    variant = FusionVariant.parse(name.removesuffix("*"))
    return replace(base, fusion=replace(base.fusion, variant=variant, residual=residual))


def sweep_key_columns(axis: SweepAxis) -> list[str]:
    if axis is SweepAxis.TEMPORAL_RANGE:
        return ["N", "delta_t"]
    if axis is SweepAxis.DILATION_RATIO:
        return ["ratio"]
    return ["fusion"]


def _key_cell(value) -> str:
    """A whole number as an int, null as "-", anything else (which the row
    rejects) as given."""
    try:
        return "-" if value is None else str(_whole(value))
    except (TypeError, ValueError):
        return str(value)


def sweep_key_cells(axis: SweepAxis, value) -> list[str]:
    if axis is not SweepAxis.TEMPORAL_RANGE:
        return [str(value)]  # as given: the str of a valid ratio, a float, is its repr
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        return [str(value), ""]
    return [_key_cell(n) for n in value]
