"""Latency-aware streaming simulation.

Frames arrive on a fixed-rate clock and a single non-preemptive worker runs
the detector with a modeled latency.  Under the default dispatch policy the
worker always takes the newest frame: a frame arriving while the worker is
busy is skipped outright, so work starts only at arrival instants.  A
detector maps a frame index to a DetectionTable.  Each completed inference
becomes a timestamped record, and evaluation pairs every annotated frame
with the latest record completed by that frame's arrival time (ties count
as available).
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, TextIO, Union

from .boxes import BBox, Detection, DetectionTable, detection_table
from .fusion import InvalidConfig
from .network import Frame

Detector = Callable[[int], DetectionTable]


@dataclass(frozen=True)
class ConstantLatency:
    ms: float

    def __post_init__(self):
        if not (math.isfinite(self.ms) and self.ms >= 0):
            raise ValueError(f"latency_ms must be finite and >= 0, got {self.ms}")

    def latency_for(self, frame_index: int) -> float:
        return self.ms


@dataclass(frozen=True)
class PerFrameLatency:
    values_ms: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values_ms", tuple(float(v) for v in self.values_ms))
        if not all(math.isfinite(v) and v >= 0 for v in self.values_ms):
            raise ValueError("latency_per_frame_ms values must be finite and >= 0")

    def latency_for(self, frame_index: int) -> float:
        return self.values_ms[frame_index]


LatencyModel = Union[ConstantLatency, PerFrameLatency]


class DispatchPolicy(Enum):
    # Take the newest frame when free; stale pending frames are dropped.
    LATEST_FRAME_ON_FREE = "latest"
    # Queue every frame and process in order, starting as soon as free.
    FIFO = "fifo"


DEFAULT_FRAME_INTERVAL_MS = 33.33  # a source that gives none runs at 30 fps


@dataclass(frozen=True)
class StreamConfig:
    """One stream's clock, and the one home of its rules: a horizon of at
    least one frame, a positive frame interval, a per-frame latency list
    that covers the horizon, and event times that all stay finite.  A
    config that breaks one is an InvalidConfig."""

    horizon_frames: int
    latency_model: LatencyModel = ConstantLatency(0.0)
    frame_interval_ms: float = DEFAULT_FRAME_INTERVAL_MS
    dispatch_policy: DispatchPolicy = DispatchPolicy.LATEST_FRAME_ON_FREE

    def __post_init__(self):
        horizon, interval, latency = self.horizon_frames, self.frame_interval_ms, self.latency_model
        if horizon < 1:
            raise InvalidConfig("horizon_frames must be >= 1")
        if not interval > 0:  # NaN too
            raise InvalidConfig("frame_interval_ms must be positive")
        if isinstance(latency, PerFrameLatency) and (n := len(latency.values_ms)) < horizon:
            raise InvalidConfig(f"latency_per_frame_ms has {n} values, fewer than the {horizon} frames of the horizon")
        largest = max(map(latency.latency_for, range(horizon)))
        if not math.isfinite(horizon * (interval + largest)):
            raise InvalidConfig(
                f"frame_interval_ms {interval}: {horizon} frames with latencies up to {largest} ms"
                " overflow the stream's clock"
            )


@dataclass(frozen=True)
class PredictionRecord:
    """One completed inference and its detections."""

    source_frame_index: int
    issue_time_ms: float
    completion_time_ms: float
    detections: DetectionTable

    def __post_init__(self):
        if self.completion_time_ms < self.issue_time_ms:
            raise ValueError("completion before issue")


@dataclass(frozen=True)
class EvalPairing:
    query_frame_index: int
    paired_record: Optional[PredictionRecord]


def simulate_stream(cfg: StreamConfig, detector: Detector) -> list[PredictionRecord]:
    """Run the event-driven clock and return records sorted by completion.

    Under LATEST_FRAME_ON_FREE the worker starts frame k at its arrival
    k * interval unless the last record completes after it, compared as the
    float times the records carry: a frame is skipped exactly when
    pair_for_eval, which compares those floats, sees the worker busy at its
    arrival.  Under FIFO every frame queues and is processed in order as
    soon as the worker frees up.

    Event times accumulate as exact rationals, so that a long stream does
    not drift; record timestamps are the float values of those exact times.
    """
    interval = Fraction(cfg.frame_interval_ms)
    records: list[PredictionRecord] = []
    free_at = Fraction(0)
    for k in range(cfg.horizon_frames):
        arrival = k * interval
        if cfg.dispatch_policy is DispatchPolicy.LATEST_FRAME_ON_FREE:
            if float(arrival) < float(free_at):
                continue  # worker busy: frame is skipped, never queued
            start = arrival
        else:
            start = max(arrival, free_at)
        completion = start + Fraction(cfg.latency_model.latency_for(k))
        records.append(
            PredictionRecord(
                source_frame_index=k,
                issue_time_ms=float(start),
                completion_time_ms=float(completion),
                detections=detector(k),
            )
        )
        free_at = completion
    return records


def pair_for_eval(records: Sequence[PredictionRecord], frames: Iterable[Frame]) -> list[EvalPairing]:
    """One pairing per annotated frame with the record of greatest
    completion time <= its arrival timestamp (None before the first).
    Records must be sorted by completion time; their times are listed once
    and each frame bisects them."""
    times = [r.completion_time_ms for r in records]
    pairings = []
    for f in frames:
        i = bisect.bisect_right(times, f.timestamp_ms)
        pairings.append(EvalPairing(f.index, records[i - 1] if i > 0 else None))
    return pairings


def write_records(records: Sequence[PredictionRecord], fp: TextIO) -> None:
    """Line-delimited export for external replay: one JSON object per record."""
    for r in records:
        fp.write(json.dumps(_record_to_json(r)) + "\n")


def read_records(fp: TextIO) -> list[PredictionRecord]:
    """Records from write_records' format; each detection is checked as a
    Detection on the way in."""
    return [_record_from_json(json.loads(line)) for line in fp if line.strip()]


def _record_to_json(r: PredictionRecord) -> dict:
    d = r.detections
    return {
        "source_frame": r.source_frame_index,
        "issue_ms": r.issue_time_ms,
        "completion_ms": r.completion_time_ms,
        "detections": [
            {"bbox": box, "category": category, "score": score}
            for box, category, score in zip(d.boxes.tolist(), d.category.tolist(), d.score.tolist())
        ],
    }


def _record_from_json(data: dict) -> PredictionRecord:
    return PredictionRecord(
        source_frame_index=data["source_frame"],
        issue_time_ms=data["issue_ms"],
        completion_time_ms=data["completion_ms"],
        detections=detection_table(
            Detection(bbox=BBox(*d["bbox"]), category=d["category"], score=d["score"]) for d in data["detections"]
        ),
    )
