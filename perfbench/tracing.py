"""Spans around the calls into each layer of longshort, recorded from outside.

The tracer swaps public names in `longshort.runner` for wrappers (and wraps
the network's extractor, head and frame payloads in proxies), so the program
itself is untouched.  Each call into a layer becomes one span with a name,
start, end, parent span and operation id.  Spans stay in memory and are
written out when the run ends.  A name the program no longer has is skipped
and the metrics that need it are reported absent.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import statistics
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from typing import Optional

# Per-layer metrics, with their units, in the order they are reported.
LAYER_METRICS = {
    "config.parse_ms": "ms",
    "runner.build_run_data_s": "s",
    "runner.make_detector_s": "s",
    "runner.glue_s": "s",
    "scenarios.generate_s": "s",
    "coco_io.load_s": "s",
    "detectors.calls": "count",
    "detectors.dets_per_call": "count",
    "detectors.busy_s": "s",
    "detectors.call_ms_p50": "ms",
    "detectors.call_ms_tail": "ms",
    "metrics.report_s": "s",
    "metrics.report_ms_per_frame": "ms",
    "metrics.det_gt_pairs": "count",
    "streaming.simulate_self_s": "s",
    "streaming.pair_s": "s",
    "streaming.write_records_s": "s",
    "streaming.dispatched": "count",
    "streaming.skipped": "count",
    "streaming.unpaired": "count",
    "streaming.staleness_mean": "frames",
    "network.step_ms_p50": "ms",
    "network.step_ms_tail": "ms",
    "network.extract_ms": "ms",
    "network.head_ms": "ms",
    "network.fuse_ms": "ms",
    "network.extractor_calls": "count",
    "network.peak_alloc_mb": "MB",
    "scenarios.rasterize_ms": "ms",
    "trace.overhead_ms": "ms",
}
FUSION_KEYS = ("EfAvg", "EfDil", "LfAvg", "LfDil", "LfDil-nores")
PYRAMID_LEVELS = 3
for _key in FUSION_KEYS:
    for _i in range(PYRAMID_LEVELS):
        LAYER_METRICS[f"fusion.{_key}.level{_i}.ms"] = "ms"
        LAYER_METRICS[f"fusion.{_key}.level{_i}.mflop"] = "MFLOP"
        LAYER_METRICS[f"fusion.{_key}.level{_i}.gflop_per_s"] = "GFLOP/s"
for _i in range(PYRAMID_LEVELS):
    LAYER_METRICS[f"tensor.project_1x1.level{_i}.gflop_per_s"] = "GFLOP/s"

# Which wrapped program name each metric family depends on.
_NEEDS = {
    "config.": "config.run_config_from_dict",
    "runner.build_run_data": "runner.build_run_data",
    "runner.make_detector": "runner.make_detector",
    "scenarios.generate": "runner.generate_scenario",
    "coco_io.": "runner.load_coco_annotations",
    "detectors.": "runner.make_detector",
    "metrics.": "runner.compute_sap_report",
    "streaming.simulate": "runner.simulate_stream",
    "streaming.dispatched": "runner.simulate_stream",
    "streaming.skipped": "runner.simulate_stream",
    "streaming.pair": "runner.pair_for_eval",
    "streaming.unpaired": "runner.pair_for_eval",
    "streaming.staleness": "runner.pair_for_eval",
    "streaming.write_records": "runner.write_records",
    "network.step": "runner.DualPathNetwork",
    "network.fuse": "runner.DualPathNetwork",
    "network.peak_alloc": "runner.DualPathNetwork",
    "network.extract": "runner.BoxFilterExtractor",
    "network.head": "runner.BlobHead",
    "scenarios.rasterize": "runner.BoxFilterExtractor",
    "fusion.": "fusion.fuse",
    "tensor.": "tensor.project_1x1",
}


class Tracer:
    """In-memory span recorder for one process; single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: Optional[int] = None
        self.enabled = False
        self.alloc_peak = 0  # bytes, from tracemalloc, over network steps

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fp:
            fp.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fp.write(json.dumps(rec) + "\n")


class _Proxy:
    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Detector(_Proxy):
    def __call__(self, frame_index):
        with self._tracer.span("detectors.call") as rec:
            dets = self._inner(frame_index)
        rec["dets"] = len(dets)
        return dets


class _Raster(_Proxy):
    def rasterize(self):
        with self._tracer.span("scenarios.rasterize"):
            return self._inner.rasterize()


class _Extractor(_Proxy):
    def extract(self, frame):
        pixels = getattr(frame, "pixels", None)
        if hasattr(pixels, "rasterize"):
            try:
                frame = dataclasses.replace(frame, pixels=_Raster(self._tracer, pixels))
            except TypeError:
                pass  # not a dataclass any more: time extract without its raster step
        with self._tracer.span("network.extract"):
            return self._inner.extract(frame)


class _Head(_Proxy):
    def predict(self, pyramid):
        with self._tracer.span("network.head"):
            return self._inner.predict(pyramid)


class _Network(_Proxy):
    def step(self, frame):
        tracer = self._tracer
        if tracemalloc.is_tracing():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dets = self._inner.step(frame)
            tracer.alloc_peak = max(tracer.alloc_peak, tracemalloc.get_traced_memory()[1] - before)
            return dets
        with tracer.span("network.step"):
            return self._inner.step(frame)


def _pairs_per_frame(pairings, gts_by_frame) -> int:
    """Sum over frames and categories of detections x ground truths: the
    number of IoU pairs a per-frame, per-category matcher has to consider."""
    total = 0
    for p in pairings:
        record = p.paired_record
        dets = Counter(d.category for d in record.detections) if record is not None else Counter()
        gts = Counter(g.category for g in gts_by_frame[p.query_frame_index])
        total += sum(n * gts[c] for c, n in dets.items())
    return total


class Hooks:
    """Installs the wrappers into the program's modules and takes them out."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: set[str] = set()
        self._saved: list[tuple] = []

    def _wrap(self, module, attr, make):
        mod = importlib.import_module(f"longshort.{module}")
        orig = getattr(mod, attr, None)
        if orig is None:
            self.missing.add(f"{module}.{attr}")
            return
        self._saved.append((mod, attr, orig))
        setattr(mod, attr, make(orig))

    def _timed(self, name, after=None):
        tracer = self.tracer

        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name) as rec:
                    out = fn(*args, **kwargs)
                if after is not None and tracer.enabled:
                    with tracer.span("bench.bookkeeping"):
                        after(rec, out, *args)
                return out
            return wrapper
        return make

    def _proxied(self, cls):
        tracer = self.tracer

        def make(fn):
            def wrapper(*args, **kwargs):
                return cls(tracer, fn(*args, **kwargs))
            return wrapper
        return make

    def install(self) -> None:
        def simulated(rec, records, stream_cfg, *_):
            rec["dispatched"] = len(records)
            rec["skipped"] = stream_cfg.horizon_frames - len(records)

        def paired(rec, pairings, *_):
            stale = [p.query_frame_index - p.paired_record.source_frame_index
                     for p in pairings if p.paired_record is not None]
            rec["unpaired"] = len(pairings) - len(stale)
            rec["staleness_sum"] = sum(stale)
            rec["paired"] = len(stale)

        def reported(rec, _report, pairings, gts_by_frame, *_):
            rec["frames"] = len(pairings)
            rec["det_gt_pairs"] = _pairs_per_frame(pairings, gts_by_frame)

        def detector(make_detector):
            timed = self._timed("runner.make_detector")(make_detector)
            return lambda *a, **kw: _Detector(self.tracer, timed(*a, **kw))

        self._wrap("config", "run_config_from_dict", self._timed("config.parse"))
        self._wrap("runner", "build_run_data", self._timed("runner.build_run_data"))
        self._wrap("runner", "generate_scenario", self._timed("scenarios.generate"))
        self._wrap("runner", "load_coco_annotations", self._timed("coco_io.load"))
        self._wrap("runner", "make_detector", detector)
        self._wrap("runner", "BoxFilterExtractor", self._proxied(_Extractor))
        self._wrap("runner", "BlobHead", self._proxied(_Head))
        self._wrap("runner", "DualPathNetwork", self._proxied(_Network))
        self._wrap("runner", "simulate_stream", self._timed("streaming.simulate", simulated))
        self._wrap("runner", "pair_for_eval", self._timed("streaming.pair", paired))
        self._wrap("runner", "compute_sap_report", self._timed("metrics.report", reported))
        self._wrap("runner", "write_records", self._timed("streaming.write_records"))
        self.tracer.enabled = True

    def remove(self) -> None:
        self.tracer.enabled = False
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


def _tail(values: list[float], name: str, notes: dict) -> float:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are fewer than a hundred samples; `notes` records
    which one was taken."""
    if not values:
        return 0.0
    values = sorted(values)
    n = len(values)
    for p in (0.999, 0.99, 0.9):
        if n * (1 - p) >= 10:
            notes[name] = f"p{p * 100:g} of {n}"
            return values[math.ceil(p * n) - 1]
    notes[name] = f"max of {n}"
    return values[-1]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ok_ops: set[int]) -> tuple[dict, dict]:
    """Per-layer numbers from the spans of the successful operations.

    Layer times are self times (a span's duration minus its children's),
    summed per operation, then the median over operations.  Per-call
    latencies pool every call and are inclusive.  Returns the metric values
    and, for the tail latencies, which percentile was taken.
    """
    spans = [s for s in tracer.spans if s["op"] in ok_ops]
    child_time: Counter = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["self"] = s["dur"] - child_time[s["id"]]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def per_op(name, field="self"):
        """Median over operations of a per-operation sum; field "calls"
        counts the spans."""
        sums = {op: 0.0 for op in ok_ops}
        for s in named(name):
            sums[s["op"]] += 1 if field == "calls" else s.get(field, 0)
        return _median(sums.values())

    def per_call_ms(name, field="dur"):
        return [s[field] * 1e3 for s in named(name)]

    out: dict[str, float] = {}
    notes: dict[str, str] = {}
    out["config.parse_ms"] = _median(per_call_ms("config.parse"))
    out["runner.build_run_data_s"] = per_op("runner.build_run_data")
    out["runner.make_detector_s"] = per_op("runner.make_detector")
    out["runner.glue_s"] = per_op("op")
    out["scenarios.generate_s"] = per_op("scenarios.generate")
    out["coco_io.load_s"] = per_op("coco_io.load")

    calls = named("detectors.call")
    out["detectors.calls"] = per_op("detectors.call", "calls")
    out["detectors.dets_per_call"] = sum(s["dets"] for s in calls) / len(calls) if calls else 0.0
    out["detectors.busy_s"] = per_op("detectors.call")
    call_ms = per_call_ms("detectors.call")
    out["detectors.call_ms_p50"] = _median(call_ms)
    out["detectors.call_ms_tail"] = _tail(call_ms, "detectors.call_ms_tail", notes)

    reports = named("metrics.report")
    out["metrics.report_s"] = per_op("metrics.report")
    frames = sum(s.get("frames", 0) for s in reports)
    out["metrics.report_ms_per_frame"] = sum(s["dur"] for s in reports) * 1e3 / frames if frames else 0.0
    out["metrics.det_gt_pairs"] = per_op("metrics.report", "det_gt_pairs")

    out["streaming.simulate_self_s"] = per_op("streaming.simulate")
    out["streaming.pair_s"] = per_op("streaming.pair")
    out["streaming.write_records_s"] = per_op("streaming.write_records")
    out["streaming.dispatched"] = per_op("streaming.simulate", "dispatched")
    out["streaming.skipped"] = per_op("streaming.simulate", "skipped")
    out["streaming.unpaired"] = per_op("streaming.pair", "unpaired")
    pairs = named("streaming.pair")
    paired = sum(s.get("paired", 0) for s in pairs)
    out["streaming.staleness_mean"] = sum(s.get("staleness_sum", 0) for s in pairs) / paired if paired else 0.0

    step_ms = per_call_ms("network.step")
    out["network.step_ms_p50"] = _median(step_ms)
    out["network.step_ms_tail"] = _tail(step_ms, "network.step_ms_tail", notes)
    out["network.extract_ms"] = _median(per_call_ms("network.extract", "self"))
    out["network.head_ms"] = _median(per_call_ms("network.head"))
    out["network.fuse_ms"] = _median(per_call_ms("network.step", "self"))
    out["network.extractor_calls"] = per_op("network.extract", "calls")
    out["scenarios.rasterize_ms"] = _median(per_call_ms("scenarios.rasterize"))
    return out, notes


def absent_metrics(missing: set[str]) -> set[str]:
    """Metrics that cannot be measured because a wrapped name is gone."""
    gone = set()
    for name in LAYER_METRICS:
        for prefix, needed in _NEEDS.items():
            if name.startswith(prefix) and needed in missing:
                gone.add(name)
    return gone


def fusion_micro(case_config: dict, reps: int = 5) -> tuple[dict, set[str]]:
    """Time the public `fuse` per variant and pyramid level on real
    extractor pyramids of the case's first frames, next to the FLOPs that
    `count_fusion_flops` gives; and `project_1x1` per level the same way.
    Returns the metrics and the program names found missing."""
    from longshort import config as config_mod, fusion, network, runner, tensor

    needed = {"fusion": ("fuse", "init_weights", "plan_channels", "count_fusion_flops",
                         "FusionSettings", "FusionVariant"),
              "network": ("BoxFilterExtractor",), "tensor": ("project_1x1",)}
    mods = {"fusion": fusion, "network": network, "tensor": tensor}
    missing = {f"{m}.{a}" for m, attrs in needed.items() for a in attrs if not hasattr(mods[m], a)}
    if missing - {"tensor.project_1x1"}:
        return {}, missing | {"fusion.fuse"}  # every fusion.* metric is then absent

    cfg = config_mod.run_config_from_dict(case_config)
    params = case_config["detector"]
    data = runner.build_run_data(cfg)
    extractor = network.BoxFilterExtractor(model_size=params["model_size"], seed=cfg.seed)
    n = case_config["fusion"]["n_history"]
    pyramids = [extractor.extract(f) for f in data.frames[: n + 1]]
    current, history = pyramids[-1], pyramids[-2::-1]  # history most recent first

    def median_ms(fn) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    out = {}
    for key in FUSION_KEYS:
        settings = fusion.FusionSettings(
            variant=fusion.FusionVariant.parse(key.removesuffix("-nores")), n_history=n,
            delta_t=1, ratio=0.5, residual=not key.endswith("-nores"))
        for i, level in enumerate(current.levels):
            d, h, w = level.shape
            lcfg = settings.config_for(d)
            plan = fusion.plan_channels(lcfg)
            weights = fusion.init_weights(lcfg, plan, params["weight_seed"])
            hist = [p.levels[i] for p in history]
            ms = median_ms(lambda: fusion.fuse(lcfg, weights, level, hist))
            mflop = fusion.count_fusion_flops(lcfg, plan, h, w) / 1e6
            out[f"fusion.{key}.level{i}.ms"] = ms
            out[f"fusion.{key}.level{i}.mflop"] = mflop
            out[f"fusion.{key}.level{i}.gflop_per_s"] = mflop / ms  # MFLOP per ms
            if key == "LfDil" and "tensor.project_1x1" not in missing:
                proj = weights.short_proj
                ms = median_ms(lambda: tensor.project_1x1(level, proj))
                mflop = 2 * h * w * proj.in_channels * proj.out_channels / 1e6
                out[f"tensor.project_1x1.level{i}.gflop_per_s"] = mflop / ms
    return out, missing
