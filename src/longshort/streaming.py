"""Latency-aware streaming simulation.

Frames arrive on a fixed-rate clock and a single non-preemptive worker runs
the detector with a modeled latency.  Under the default dispatch policy the
worker always takes the newest frame: a frame arriving while the worker is
busy is skipped outright, so work starts only at arrival instants.  Each
completed inference becomes a timestamped record, and evaluation pairs every
annotated frame with the latest record completed by that frame's arrival
time (ties count as available).
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, TextIO, Union

from .boxes import BBox, Detection
from .network import Frame

Detector = Callable[[int], list[Detection]]


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


@dataclass(frozen=True)
class StreamConfig:
    horizon_frames: int
    latency_model: LatencyModel = ConstantLatency(0.0)
    frame_interval_ms: float = 33.33
    dispatch_policy: DispatchPolicy = DispatchPolicy.LATEST_FRAME_ON_FREE

    def __post_init__(self):
        if self.horizon_frames < 1:
            raise ValueError("horizon_frames must be >= 1")
        if self.frame_interval_ms <= 0:
            raise ValueError("frame_interval_ms must be positive")
        if isinstance(self.latency_model, PerFrameLatency):
            n = len(self.latency_model.values_ms)
            if n < self.horizon_frames:
                raise ValueError(
                    f"latency_per_frame_ms has {n} values, fewer than the {self.horizon_frames} frames of the horizon"
                )


@dataclass(frozen=True)
class PredictionRecord:
    source_frame_index: int
    issue_time_ms: float
    completion_time_ms: float
    detections: tuple[Detection, ...]

    def __post_init__(self):
        if self.completion_time_ms < self.issue_time_ms:
            raise ValueError("completion before issue")
        object.__setattr__(self, "detections", tuple(self.detections))


@dataclass(frozen=True)
class EvalPairing:
    query_frame_index: int
    paired_record: Optional[PredictionRecord]


def simulate_stream(cfg: StreamConfig, detector: Detector) -> list[PredictionRecord]:
    """Run the event-driven clock and return records sorted by completion.

    Under LATEST_FRAME_ON_FREE the worker starts frame k at its arrival
    k * interval iff it is idle then; under FIFO every frame queues and is
    processed in order as soon as the worker frees up.

    Event times are kept as exact rationals internally so that boundary
    ties (e.g. latency equal to a whole number of frame intervals) resolve
    exactly; record timestamps are the float values of those exact times.
    """
    interval = Fraction(cfg.frame_interval_ms)
    records: list[PredictionRecord] = []
    free_at = Fraction(0)
    for k in range(cfg.horizon_frames):
        arrival = k * interval
        if cfg.dispatch_policy is DispatchPolicy.LATEST_FRAME_ON_FREE:
            if arrival < free_at:
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
                detections=tuple(detector(k)),
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
    return [_record_from_json(json.loads(line)) for line in fp if line.strip()]


def _record_to_json(r: PredictionRecord) -> dict:
    return {
        "source_frame": r.source_frame_index,
        "issue_ms": r.issue_time_ms,
        "completion_ms": r.completion_time_ms,
        "detections": [
            {"bbox": list(d.bbox.as_tuple()), "category": d.category, "score": d.score}
            for d in r.detections
        ],
    }


def _record_from_json(data: dict) -> PredictionRecord:
    return PredictionRecord(
        source_frame_index=data["source_frame"],
        issue_time_ms=data["issue_ms"],
        completion_time_ms=data["completion_ms"],
        detections=tuple(
            Detection(bbox=BBox(*d["bbox"]), category=d["category"], score=d["score"])
            for d in data["detections"]
        ),
    )
