"""Run and sweep configuration.

Configs are plain JSON with explicit keys (schema below); a CLI flag or a
sweep value is the config key of its name, given over a parsed RunConfig.
A run names exactly one data source: an inline synthetic scene, a bundled
scene by name, or a COCO-format annotation file.

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

Every section (the config itself, stream, fusion, detector, an inline scene
and its trajectories) must be an object, and one parser walks them all: an
unknown key, or a value its key's parser refuses, is rejected naming the
key.  So a number must be a JSON number, not a string or a bool (a flag's
or sweep's value too), a count refuses a fractional value instead of
truncating it, a value outside its key's range is refused as "section key
value: rule" (fusion ratio 1.5: must lie in (0, 1)), scene_name, dataset
and output must be strings, and a scene_name must name a bundled scene.  A
null is not given: it takes the default (the base's value over a base), a
null section or detector kind too.  "stream" takes one latency form, a
constant or a per-frame list, not both.  The checks that relate keys run
when a RunConfig is built.  The stream's rules (a horizon within the
source's frames, a per-frame latency list that covers it, a clock that
stays finite) are one set of checks, RunConfig.stream_for and the
StreamConfig it builds: they run at load for a scene source, whose frame
count is known then, and when build_run_data reads a dataset's file.

DETECTOR_KEYS is the one detector schema: kind -> key -> (default, parser
that casts and checks a given value).  The forecasters hold, const-velocity
and long-short are one ForecastDetector at the n_history FORECASTER_HISTORY
names (0, 1, the key's).  Their forecast_steps defaults to the pairing
staleness of a constant-latency stream and is required with
latency_per_frame_ms, save for hold, which forecasts nothing.  Kind
"pyramid" runs the dual-path network over rasterized frames and so needs a
scene source, not a dataset, and a fusion history that fits its stream:
n_history x delta_t below the horizon.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .coco_io import parse_json
from .fusion import FusionSettings, FusionVariant, InvalidConfig
from .network import MODEL_CHANNELS
from .scenarios import SyntheticScene, bundled_scene, bundled_scene_names, scene_from_dict
from .streaming import ConstantLatency, DispatchPolicy, LatencyModel, PerFrameLatency, StreamConfig


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
    truncating it, and one outside the 64-bit range."""
    value = _number(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("must be a whole number")
    if not -(2**63) <= value < 2**63:
        raise ValueError("must be a 64-bit whole number")
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
_INTERVAL = _checked(_real, lambda v: 0 < v < math.inf, "must be finite and > 0")
_RATIO = _checked(_real, lambda r: 0 < r < 1, "must lie in (0, 1)")
_MODEL_SIZE = _checked(str, MODEL_CHANNELS.__contains__, f"must be one of {sorted(MODEL_CHANNELS)}")

# forecaster kind -> the n_history of its ForecastDetector preset; None: the
# detector's own n_history key
FORECASTER_HISTORY = {"hold": 0, "const-velocity": 1, "long-short": None}
# kind -> key -> (default, parse).  The forecasters share one key set, and a
# preset's fixed n_history wins over the key.
_FORECASTER_KEYS = {"n_history": (3, _COUNT), "delta_t": (1, _STRIDE), "forecast_steps": (None, _COUNT)}
DETECTOR_KEYS = {
    "delayed-gt": {"latency_frames": (0, _COUNT)},
    **dict.fromkeys(FORECASTER_HISTORY, _FORECASTER_KEYS),
    "pyramid": {"model_size": ("S", _MODEL_SIZE), "weight_seed": (0, _COUNT), "threshold": (0.3, _FINITE), "category": (0, _whole)},
}
DETECTOR_KINDS = tuple(DETECTOR_KEYS)
_DETECTOR_PARSERS = {kind: {key: parse for key, (_, parse) in keys.items()} for kind, keys in DETECTOR_KEYS.items()}
_STREAM_PARSERS = {"latency_ms": lambda v: ConstantLatency(_real(v)), "latency_per_frame_ms": _per_frame_latency,
                   "frame_interval_ms": _INTERVAL, "dispatch": DispatchPolicy, "horizon_frames": _STRIDE}
_BOOL = _checked(lambda v: v, lambda v: isinstance(v, bool), "must be true or false")
_STRING = _checked(lambda v: v, lambda v: isinstance(v, str), "must be a string")


_FUSION_PARSERS = {"variant": FusionVariant.parse, "n_history": _COUNT, "delta_t": _STRIDE, "ratio": _RATIO, "residual": _BOOL}
# config key -> the RunConfig field it sets, where the two differ
_FIELDS = {"scene_name": "scene", "dataset": "dataset_path", "latency_ms": "latency_model",
           "latency_per_frame_ms": "latency_model", "dispatch": "dispatch_policy"}

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
        kind = self.detector_kind
        if kind not in DETECTOR_KINDS:
            raise InvalidConfig(f"unknown detector kind {kind!r}; use one of {DETECTOR_KINDS}")
        params = _parsed_section(self.detector_params, "detector", _DETECTOR_PARSERS[kind],
                                 context=f" for kind {kind!r}")
        object.__setattr__(self, "detector_params", params)
        if kind == "pyramid" and self.dataset_path is not None:
            raise InvalidConfig("detector kind 'pyramid' needs rendered frames; a 'dataset' source has no pixels")
        per_frame = isinstance(self.latency_model, PerFrameLatency)
        if FORECASTER_HISTORY.get(kind, 0) != 0 and per_frame and "forecast_steps" not in self.detector_params:
            raise InvalidConfig(f"detector kind {kind!r} with latency_per_frame_ms needs a forecast_steps")
        if self.scene is not None:  # a scene's frame count is known at load
            horizon = self.stream_for(self.scene.n_frames, self.scene.frame_interval_ms).horizon_frames
            # the network fuses n_history maps delta_t frames apart; one reaching
            # the horizon back would be a pad on every frame
            n, dt = self.fusion.n_history, self.fusion.delta_t
            if kind == "pyramid" and n * dt >= horizon:
                raise InvalidConfig(f"fusion n_history {n}: n_history x delta_t ({n} x {dt}) must be below "
                                    f"the stream's {horizon} frames")

    def stream_for(self, n_frames: int, source_interval_ms: float) -> StreamConfig:
        """The stream of this run over a source of `n_frames` frames
        `source_interval_ms` apart: horizon_frames, else every frame, at
        frame_interval_ms, else the source's interval.  A horizon beyond the
        source, or a stream that breaks a StreamConfig rule, is refused."""
        horizon = self.horizon_frames or n_frames
        if horizon > n_frames:
            raise InvalidConfig(f"stream horizon_frames {horizon}: exceeds the source's {n_frames} frames")
        interval = self.frame_interval_ms or source_interval_ms
        return StreamConfig(horizon, self.latency_model, interval, self.dispatch_policy)

    @property
    def detector_settings(self) -> dict:
        """Every key of the detector's kind: its given value, else its default."""
        table = DETECTOR_KEYS[self.detector_kind]
        return {key: self.detector_params.get(key, default) for key, (default, _) in table.items()}


def _object(raw, section: str) -> dict:
    """raw, or an InvalidConfig naming the section unless it is an object."""
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{section} must be an object, got {raw!r}")
    return raw


def _parsed(section: str, key: str, value, parse: Callable):
    """parse(value), or an InvalidConfig that names the key; a nested
    section's own InvalidConfig, which names it already, passes unchanged."""
    try:
        return parse(value)
    except InvalidConfig:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"{section} {key} {value!r}: {exc}") from None


def _parsed_section(raw, section: str, parsers: dict, required: tuple = (), context: str = "") -> dict:
    """The keys given in the object `raw`, each cast by its parser; a raw
    that is not an object, an unknown or missing key, or a value its parser
    refuses is an InvalidConfig naming the section or key (an unknown one
    followed by `context`).  A null value is left out: the default applies."""
    for key in _object(raw, section):
        if key not in parsers:
            raise InvalidConfig(f"unknown {section} key {key!r}{context}; use one of {tuple(parsers)}")
    for key in required:
        if raw.get(key) is None:
            raise InvalidConfig(f"{section} is missing {key!r}")
    return {key: _parsed(section, key, value, parsers[key]) for key, value in raw.items() if value is not None}


def _stream(raw) -> dict:
    """The stream section, which takes one latency form."""
    stream = _parsed_section(raw, "stream", _STREAM_PARSERS)
    if "latency_ms" in stream and "latency_per_frame_ms" in stream:
        raise InvalidConfig("stream sets both latency_ms and latency_per_frame_ms; give one")
    return stream


def _scene_name(name) -> SyntheticScene:
    """The bundled scene `name`, refusing a name that is not one."""
    names = bundled_scene_names()
    return bundled_scene(_checked(_STRING, names.__contains__, f"must be one of {names}")(name))


# config key -> parse; "stream" gives several RunConfig fields, and the
# detector's keys, which RunConfig checks against its kind's table, are kept
_RUN_PARSERS = {
    "seed": _COUNT, "scene": scene_from_dict, "scene_name": _scene_name, "dataset": _STRING, "stream": _stream,
    "fusion": lambda raw: _parsed_section(raw, "fusion", _FUSION_PARSERS),
    "detector": lambda raw: dict(_object(raw, "detector")), "max_dets_per_frame": _STRIDE, "output": _STRING,
}


def run_config_from_dict(data: dict, base: Optional[RunConfig] = None) -> RunConfig:
    """The RunConfig of the config object `data`, or `base` with each key
    `data` gives replacing that value alone (a data source or latency form
    the base's; a detector kind keeps the base's detector keys)."""
    given = _parsed_section(data, "config", _RUN_PARSERS)
    sources = [key for key in ("scene", "scene_name", "dataset") if key in given]
    if len(sources) != 1 and (base is None or sources):
        raise InvalidConfig(f"exactly one of scene/scene_name/dataset required, got {sources}")
    fields = {} if base is None else dict(vars(base))
    if sources:
        fields.update(scene=None, dataset_path=None)
    fields["fusion"] = replace(fields.get("fusion", FusionSettings()), **given.pop("fusion", {}))
    detector = given.pop("detector", {})
    if (kind := detector.pop("kind", None)) is not None:
        fields["detector_kind"] = kind
    # a null detector key keeps the base's value; RunConfig drops it once it has checked the key
    params = fields.get("detector_params", {})
    fields["detector_params"] = {**detector, **{k: v for k, v in params.items() if detector.get(k) is None}}
    given.update(given.pop("stream", {}))
    return RunConfig(**{**fields, **{_FIELDS.get(key, key): value for key, value in given.items()}})


def load_run_config(path: Union[str, Path]) -> RunConfig:
    """Read a JSON run config."""
    return run_config_from_dict(parse_json(Path(path).read_text(), path, InvalidConfig))


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
    """The sweep's base with the config keys `value` sets: temporal-range (N,
    delta_t) the fusion n_history and delta_t (a null delta_t is 1), and the
    detector's, with kind hold for N = 0 else long-short, if its kind takes
    them; dilation-ratio the fusion ratio; fusion-variant X or X* the fusion
    variant X and residual, false for X* only."""
    if spec.axis is SweepAxis.TEMPORAL_RANGE:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise InvalidConfig(f"sweep temporal-range value {value!r}: must be a pair of N and delta_t")
        n, dt = value[0], 1 if value[1] is None else value[1]
        keys = {"fusion": {"n_history": n, "delta_t": dt}}
        if spec.base.detector_kind in FORECASTER_HISTORY:
            keys["detector"] = {"kind": "hold" if n == 0 else "long-short", "n_history": n, "delta_t": dt}
    elif spec.axis is SweepAxis.DILATION_RATIO:
        keys = {"fusion": {"ratio": value}}
    else:  # FUSION_VARIANT
        starred = isinstance(value, str) and value.endswith("*")
        keys = {"fusion": {"variant": value[:-1] if starred else value, "residual": not starred}}
    for key in [key for key, given in keys["fusion"].items() if given is None]:
        _parsed("fusion", key, None, _FUSION_PARSERS[key])  # a null key is not given: its parser refuses it here
    return run_config_from_dict(keys, spec.base)


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
