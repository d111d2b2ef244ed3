"""Every load-time refusal of a run config, with its exact message.

A row gives the config keys it sets over a named base config, as key
paths: "fusion.ratio" is the ratio of the fusion section, and
"scene.trajectories.0.velocity.0" the first coordinate of the first
trajectory's velocity.  A row whose base is None gives the whole config.
Loading that config raises `error` (InvalidConfig or a subclass) with the
message; a row whose message is None instead loads as the base without its
keys (a null is not given).  tests/test_cli.py runs each row through every
entry path that reaches it: the config file, the eval flags and the sweep
axes.  The tags name the rows that tests/test_fuzz.py sets over its drawn
configs.
"""

import copy
import json
from pathlib import Path
from typing import Any, NamedTuple, Optional

NAN, INF = float("nan"), float("inf")

BASES = {
    "uniform": {"scene_name": "uniform"},
    "scene": {"scene": {"n_frames": 8, "width": 100, "height": 80, "trajectories": [
        {"kind": "uniform", "initial_bbox": [10, 10, 30, 30], "velocity": [2, 1], "category": 1}]}},
    "example": json.loads((Path(__file__).resolve().parents[1] / "configs" / "custom_scene_example.json").read_text()),
}


def with_keys(data, keys: dict):
    """A copy of the config `data` with each key path of `keys` set."""
    data = copy.deepcopy(data)
    for path, value in keys.items():
        *parents, last = [int(part) if part.isdigit() else part for part in path.split(".")]
        node = data
        for key in parents:
            node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
        node[last] = value
    return data


def without_keys(data, keys: dict):
    """A copy of the config `data` without the key paths of `keys`."""
    data = copy.deepcopy(data)
    for path in keys:
        *parents, last = path.split(".")
        node = data
        for key in parents:
            node = node[key]
        node.pop(last, None)
    return data


class Row(NamedTuple):
    keys: Any
    message: Optional[str]
    tags: tuple = ()
    base: Optional[str] = "uniform"
    error: str = "InvalidConfig"

    @property
    def id(self) -> str:
        """The message, with the key paths where another row shares it."""
        if self.message is None:
            return "-".join(path.replace(".", "-") for path in self.keys)
        shared = sum(row.message == self.message for row in ROWS) > 1
        return f"{self.message} ({', '.join(self.keys)})" if shared else self.message

    def config(self, data=None):
        """The row's keys set over `data`, by default its base."""
        if self.base is None:
            return self.keys
        return with_keys(BASES[self.base] if data is None else data, self.keys)


TRAJ = "scene.trajectories."
ROWS = [
    # unknown keys and kinds, sections that are not objects, both latency forms, not one data source
    Row({"detecter": {"kind": "hold"}}, "unknown config key 'detecter'; use one of ('seed', 'scene', 'scene_name', "
        "'dataset', 'stream', 'fusion', 'detector', 'max_dets_per_frame', 'output')"),
    Row({"stream.latncy_ms": 50}, "unknown stream key 'latncy_ms'; use one of ('latency_ms', 'latency_per_frame_ms', "
        "'frame_interval_ms', 'dispatch', 'horizon_frames')"),
    Row({"detector.kind": "alexnet"},
        "unknown detector kind 'alexnet'; use one of ('delayed-gt', 'hold', 'const-velocity', 'long-short', 'pyramid')"),
    Row({"detector.kind": "long-short", "detector.n_histroy": 9},
        "unknown detector key 'n_histroy' for kind 'long-short'; use one of ('n_history', 'delta_t', 'forecast_steps')"),
    Row({"detector.kind": "pyramid", "detector.n_history": 3}, "unknown detector key 'n_history' for kind 'pyramid';"
        " use one of ('model_size', 'weight_seed', 'threshold', 'category')"),
    Row({"detector.forecast_steps": 1}, "unknown detector key 'forecast_steps' for kind 'delayed-gt'; use one of ('latency_frames',)"),
    Row({"scene.colour": 1}, "unknown scene key 'colour'; use one of ('n_frames', 'frame_interval_ms', 'width', "
        "'height', 'trajectories')", base="scene"),
    Row({TRAJ + "0.speed": 1}, "unknown scene trajectories[0] key 'speed'; use one of ('kind', 'initial_bbox', "
        "'velocity', 'acceleration', 'turn_rate', 'occlusion_window', 'category', 'track_id')", base="scene"),
    Row({"stream": "latency_ms"}, "stream must be an object, got 'latency_ms'", ("shape",)),
    Row({"stream": 5}, "stream must be an object, got 5", ("shape",)),
    Row({"stream": ["latency_ms"]}, "stream must be an object, got ['latency_ms']", ("shape",)),
    Row({"fusion": "LfDil"}, "fusion must be an object, got 'LfDil'", ("shape",)),
    Row({"fusion": 3}, "fusion must be an object, got 3", ("shape",)),
    Row({"fusion": ["ratio"]}, "fusion must be an object, got ['ratio']", ("shape",)),
    Row({"detector": "pyramid"}, "detector must be an object, got 'pyramid'", ("shape",)),
    Row({"detector": 1}, "detector must be an object, got 1", ("shape",)),
    Row({"detector": []}, "detector must be an object, got []", ("shape",)),
    Row("uniform", "config must be an object, got 'uniform'", ("shape",), base=None),
    Row(5, "config must be an object, got 5", ("shape",), base=None),
    Row(["scene_name"], "config must be an object, got ['scene_name']", ("shape",), base=None),
    Row({"stream.latency_ms": 10.0, "stream.latency_per_frame_ms": [0.0] * 20},
        "stream sets both latency_ms and latency_per_frame_ms; give one"),
    Row({"scene_name": None}, "exactly one of scene/scene_name/dataset required, got []"),
    Row({"dataset": "x.json"}, "exactly one of scene/scene_name/dataset required, got ['scene_name', 'dataset']"),
    # a null is not given: it loads as the config without it
    Row({"seed": None}, None, ("null",)),
    Row({"stream": None}, None, ("null",)),
    Row({"fusion": None}, None, ("null",)),
    Row({"detector": None}, None, ("null",)),
    Row({"detector.kind": None}, None, ("null",)),
    # counts: fractional or negative
    Row({"seed": 1.5}, "config seed 1.5: must be a whole number"),
    Row({"seed": INF}, "config seed inf: must be a whole number"),
    Row({"seed": -3}, "config seed -3: must be >= 0", ("negative",)),
    Row({"detector.kind": "pyramid", "seed": -1}, "config seed -1: must be >= 0"),
    Row({"detector.kind": "pyramid", "detector.weight_seed": -1}, "detector weight_seed -1: must be >= 0", ("negative",)),
    Row({"detector.kind": "pyramid", "detector.weight_seed": 4.2}, "detector weight_seed 4.2: must be a whole number"),
    Row({"detector.kind": "pyramid", "detector.category": 1.5}, "detector category 1.5: must be a whole number"),
    Row({"max_dets_per_frame": 2.5}, "config max_dets_per_frame 2.5: must be a whole number"),
    Row({"max_dets_per_frame": 0}, "config max_dets_per_frame 0: must be >= 1"),
    Row({"max_dets_per_frame": -1}, "config max_dets_per_frame -1: must be >= 1"),
    Row({"stream.horizon_frames": 7.9}, "stream horizon_frames 7.9: must be a whole number"),
    Row({"stream.horizon_frames": 0}, "stream horizon_frames 0: must be >= 1"),
    Row({"fusion.n_history": 2.7}, "fusion n_history 2.7: must be a whole number"),
    Row({"fusion.n_history": -1}, "fusion n_history -1: must be >= 0"),
    Row({"fusion.delta_t": 1.5}, "fusion delta_t 1.5: must be a whole number"),
    Row({"fusion.delta_t": 0}, "fusion delta_t 0: must be >= 1"),
    Row({"detector.kind": "long-short", "fusion.delta_t": 0}, "fusion delta_t 0: must be >= 1"),
    Row({"detector.latency_frames": 0.5}, "detector latency_frames 0.5: must be a whole number"),
    Row({"detector.latency_frames": -1}, "detector latency_frames -1: must be >= 0"),
    Row({"detector.kind": "long-short", "detector.n_history": 3.9}, "detector n_history 3.9: must be a whole number"),
    Row({"detector.kind": "long-short", "detector.n_history": -1}, "detector n_history -1: must be >= 0"),
    Row({"detector.kind": "hold", "detector.delta_t": 1.5}, "detector delta_t 1.5: must be a whole number"),
    Row({"detector.kind": "hold", "detector.delta_t": 0}, "detector delta_t 0: must be >= 1"),
    Row({"detector.kind": "long-short", "detector.forecast_steps": 2.5}, "detector forecast_steps 2.5: must be a whole number"),
    Row({"detector.kind": "const-velocity", "detector.forecast_steps": -1}, "detector forecast_steps -1: must be >= 0"),
    Row({"scene.n_frames": 7.5}, "scene n_frames 7.5: must be a whole number", base="scene"),
    Row({TRAJ + "0.category": 1.5}, "scene trajectories[0] category 1.5: must be a whole number", base="scene"),
    # numbers given as strings, bools or lists, and lists given as numbers or strings
    Row({"seed": "7"}, "config seed '7': must be a number"),
    Row({"seed": True}, "config seed True: must be a number"),
    Row({"max_dets_per_frame": "5"}, "config max_dets_per_frame '5': must be a number"),
    Row({"max_dets_per_frame": True}, "config max_dets_per_frame True: must be a number"),
    Row({"stream.latency_ms": "10"}, "stream latency_ms '10': must be a number"),
    Row({"stream.latency_ms": "x"}, "stream latency_ms 'x': must be a number"),
    Row({"stream.latency_ms": True}, "stream latency_ms True: must be a number"),
    Row({"stream.latency_ms": [10.0]}, "stream latency_ms [10.0]: must be a number"),
    Row({"stream.latency_per_frame_ms": [0.0, "10"]}, "stream latency_per_frame_ms [0.0, '10']: must be a number"),
    Row({"stream.latency_per_frame_ms": [0.0, "x"]}, "stream latency_per_frame_ms [0.0, 'x']: must be a number"),
    Row({"stream.latency_per_frame_ms": 5}, "stream latency_per_frame_ms 5: must be a list of latencies"),
    Row({"stream.latency_per_frame_ms": "12345678901234567890"},
        "stream latency_per_frame_ms '12345678901234567890': must be a list of latencies"),
    Row({"stream.frame_interval_ms": "33"}, "stream frame_interval_ms '33': must be a number"),
    Row({"stream.frame_interval_ms": True}, "stream frame_interval_ms True: must be a number"),
    Row({"stream.horizon_frames": "5"}, "stream horizon_frames '5': must be a number"),
    Row({"fusion.n_history": "x"}, "fusion n_history 'x': must be a number"),
    Row({"fusion.n_history": "2"}, "fusion n_history '2': must be a number"),
    Row({"fusion.n_history": "3"}, "fusion n_history '3': must be a number"),
    Row({"fusion.n_history": [3]}, "fusion n_history [3]: must be a number"),
    Row({"fusion.delta_t": "two"}, "fusion delta_t 'two': must be a number"),
    Row({"fusion.delta_t": True}, "fusion delta_t True: must be a number"),
    Row({"fusion.ratio": "x"}, "fusion ratio 'x': must be a number"),
    Row({"fusion.ratio": "nan"}, "fusion ratio 'nan': must be a number"),
    Row({"fusion.ratio": "0.5"}, "fusion ratio '0.5': must be a number"),
    Row({"fusion.ratio": "0.25"}, "fusion ratio '0.25': must be a number"),
    Row({"detector.latency_frames": "1"}, "detector latency_frames '1': must be a number"),
    Row({"detector.kind": "long-short", "detector.n_history": "x"}, "detector n_history 'x': must be a number"),
    Row({"detector.kind": "long-short", "detector.n_history": "2"}, "detector n_history '2': must be a number"),
    Row({"detector.kind": "pyramid", "detector.threshold": "0.3"}, "detector threshold '0.3': must be a number"),
    Row({"detector.kind": "pyramid", "detector.threshold": True}, "detector threshold True: must be a number"),
    Row({"detector.kind": "pyramid", "detector.weight_seed": True}, "detector weight_seed True: must be a number"),
    Row({"scene.width": "100"}, "scene width '100': must be a number", base="scene"),
    Row({"scene.trajectories": 5}, "scene trajectories 5: must be a list of trajectories", base="scene"),
    Row({TRAJ + "0.velocity": 5}, "scene trajectories[0] velocity 5: must be a list of 2 numbers", base="scene"),
    Row({TRAJ + "0.initial_bbox": "abcd"}, "scene trajectories[0] initial_bbox 'abcd': must be a list of 4 numbers",
        base="scene"),
    # strings: not a string, or not a name the key takes
    Row({"output": 5}, "config output 5: must be a string", ("string",)),
    Row({"scene_name": 5}, "config scene_name 5: must be a string", ("string",)),
    Row({"dataset": 5}, "config dataset 5: must be a string", ("string",)),
    Row({"scene_name": "turning"}, "config scene_name 'turning': must be one of ['accelerating', 'mixed', 'uniform']",
        ("string",)),
    Row({"stream.dispatch": "lifo"}, "stream dispatch 'lifo': 'lifo' is not a valid DispatchPolicy"),
    Row({"fusion.variant": "LfMax"}, "fusion variant 'LfMax': must be one of ['EfAvg', 'EfDil', 'LfAvg', 'LfDil']"),
    Row({"fusion.residual": "false"}, "fusion residual 'false': must be true or false"),
    Row({"detector.kind": "pyramid", "detector.model_size": "XL"}, "detector model_size 'XL': must be one of ['L', 'M', 'S']"),
    # values out of range or not finite
    Row({"fusion.ratio": 1.5}, "fusion ratio 1.5: must lie in (0, 1)"),
    Row({"fusion.ratio": 0.0}, "fusion ratio 0.0: must lie in (0, 1)"),
    Row({"detector.kind": "long-short", "fusion.ratio": 1.5}, "fusion ratio 1.5: must lie in (0, 1)"),
    Row({"stream.frame_interval_ms": 0}, "stream frame_interval_ms 0: must be finite and > 0"),
    Row({"stream.frame_interval_ms": 0.0}, "stream frame_interval_ms 0.0: must be finite and > 0"),
    Row({"stream.frame_interval_ms": -33.33}, "stream frame_interval_ms -33.33: must be finite and > 0"),
    Row({"stream.frame_interval_ms": INF}, "stream frame_interval_ms inf: must be finite and > 0"),
    Row({"stream.latency_ms": -5.0}, "stream latency_ms -5.0: latency_ms must be finite and >= 0, got -5.0"),
    Row({"stream.latency_ms": NAN}, "stream latency_ms nan: latency_ms must be finite and >= 0, got nan"),
    Row({"stream.latency_ms": INF}, "stream latency_ms inf: latency_ms must be finite and >= 0, got inf"),
    Row({"stream.latency_per_frame_ms": [0.0, -1.0]},
        "stream latency_per_frame_ms [0.0, -1.0]: latency_per_frame_ms values must be finite and >= 0"),
    Row({"stream.latency_per_frame_ms": [10.0, NAN, 10.0]},
        "stream latency_per_frame_ms [10.0, nan, 10.0]: latency_per_frame_ms values must be finite and >= 0"),
    Row({"stream.latency_per_frame_ms": [10.0, INF, 10.0]},
        "stream latency_per_frame_ms [10.0, inf, 10.0]: latency_per_frame_ms values must be finite and >= 0"),
    Row({"detector.kind": "pyramid", "detector.threshold": NAN}, "detector threshold nan: must be finite"),
    Row({"detector.kind": "pyramid", "detector.threshold": INF}, "detector threshold inf: must be finite"),
    Row({"scene.n_frames": 1}, "scene n_frames 1: must be >= 2", base="scene"),
    Row({"scene.frame_interval_ms": 0}, "scene frame_interval_ms 0.0: must be finite and > 0", base="scene"),
    Row({"scene.frame_interval_ms": -33.33}, "scene frame_interval_ms -33.33: must be finite and > 0", base="scene"),
    Row({"scene.frame_interval_ms": NAN}, "scene frame_interval_ms nan: must be finite", base="example"),
    Row({"scene.frame_interval_ms": INF}, "scene frame_interval_ms inf: must be finite", base="example"),
    Row({TRAJ + "0.velocity.0": NAN}, "scene trajectories[0] velocity [nan, 0.5]: must be finite", base="example"),
    Row({TRAJ + "2.initial_bbox.3": NAN},
        "scene trajectories[2] initial_bbox [220.0, 40.0, 260.0, nan]: must be finite", base="example"),
    Row({TRAJ + "4.acceleration.1": -INF}, "scene trajectories[4] acceleration [0.25, -inf]: must be finite", base="example"),
    Row({TRAJ + "1.turn_rate": NAN}, "scene trajectories[1] turn_rate nan: must be finite", base="example"),
    Row({TRAJ + "1.turn_rate": INF}, "scene trajectories[1] turn_rate inf: must be finite", base="example"),
    # finite values whose motion overflows (the angle, or v*k + a*k^2/2 as inf - inf), a stream clock
    # that overflows, and a FIFO queue whose latencies add up past it
    Row({TRAJ + "1.turn_rate": 1e308}, "trajectory 1: its box is not finite at frame 2", base="example",
        error="DegenerateTrajectory"),
    Row({TRAJ + "0.velocity": [-1e308, 0], TRAJ + "0.acceleration": [1e308, 0]},
        "trajectory 0: its box is not finite at frame 2", base="example", error="DegenerateTrajectory"),
    Row({"stream.frame_interval_ms": 1e308},
        "frame_interval_ms 1e+308: 24 frames with latencies up to 66.66 ms overflow the stream's clock", base="example"),
    Row({"scene.frame_interval_ms": 1e308},
        "frame_interval_ms 1e+308: 24 frames with latencies up to 66.66 ms overflow the stream's clock", base="example"),
    Row({"stream.latency_ms": 1e307, "stream.dispatch": "fifo"},
        "frame_interval_ms 33.33: 24 frames with latencies up to 1e+307 ms overflow the stream's clock", base="example"),
    # what a scene's frame count decides
    Row({"stream.horizon_frames": 30}, "stream horizon_frames 30: exceeds the source's 20 frames"),
    Row({"stream.latency_per_frame_ms": [0.0] * 5}, "latency_per_frame_ms has 5 values, fewer than the 20 frames of the horizon"),
    Row({"stream.latency_per_frame_ms": [0.0] * 5, "stream.horizon_frames": 6},
        "latency_per_frame_ms has 5 values, fewer than the 6 frames of the horizon"),
    # a trajectory's kind rule
    Row({TRAJ + "4.acceleration": [0.0, 0.0]},
        "scene trajectories[4]: accelerating trajectory needs a nonzero acceleration", base="example"),
    Row({TRAJ + "1.turn_rate": 0.0}, "scene trajectories[1]: turning trajectory needs a nonzero turn_rate", base="example"),
    Row({TRAJ + "2.occlusion_window": None},
        "scene trajectories[2]: occluded trajectory needs an occlusion_window", base="example"),
    Row({TRAJ + "3.initial_bbox": [40.0, 180.0, 90.0, 230.0]},
        "scene trajectories[3]: small-object box area 2500.0 is not below 1024.0", base="example"),
    Row({"scene.width": None}, "scene is missing 'width'", base="scene"),
    # what a detector kind needs
    Row({"scene_name": None, "dataset": "ann.json", "detector.kind": "pyramid"},
        "detector kind 'pyramid' needs rendered frames; a 'dataset' source has no pixels"),
    Row({"detector.kind": "const-velocity", "stream.latency_per_frame_ms": [33.33] * 20},
        "detector kind 'const-velocity' with latency_per_frame_ms needs a forecast_steps"),
    Row({"detector.kind": "long-short", "stream.latency_per_frame_ms": [33.33] * 20},
        "detector kind 'long-short' with latency_per_frame_ms needs a forecast_steps"),
    # a pyramid's fusion history must fit its stream: n_history x delta_t below the horizon
    Row({"detector.kind": "pyramid", "fusion.n_history": 20},
        "fusion n_history 20: n_history x delta_t (20 x 1) must be below the stream's 20 frames"),
    Row({"detector.kind": "pyramid", "fusion.n_history": 2**62},
        f"fusion n_history {2**62}: n_history x delta_t ({2**62} x 1) must be below the stream's 20 frames"),
    Row({"detector.kind": "pyramid", "fusion.n_history": 1, "fusion.delta_t": 10**19},
        f"fusion n_history 1: n_history x delta_t (1 x {10**19}) must be below the stream's 20 frames"),
    Row({"detector.kind": "pyramid", "stream.horizon_frames": 3},
        "fusion n_history 3: n_history x delta_t (3 x 1) must be below the stream's 3 frames"),
]


def rows(tag: str) -> list[Row]:
    return [row for row in ROWS if tag in row.tags]
