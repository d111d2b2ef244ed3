"""Latency-aware streaming simulation.

Frames arrive on a fixed-rate clock and a single non-preemptive worker runs
the detector with a modeled latency.  Under the default dispatch policy the
worker always takes the newest frame: a frame arriving while the worker is
busy is skipped outright, so work starts only at arrival instants.  A
detector maps a frame index to a DetectionTable.  Each completed inference
becomes a timestamped record, and evaluation pairs every annotated frame
with the latest record completed by that frame's arrival time (ties count
as available).  A run's records log holds one JSON line per record, and
read_records is the one checked boundary of such a file.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .boxes import DetectionTable, InvalidConfig, ParseError, _real, box_corners, column, is_number, whole_numbers
from .network import Frame

Detector = Callable[[int], DetectionTable]


@dataclass(frozen=True)
class ConstantLatency:
    ms: float

    def __post_init__(self):
        object.__setattr__(self, "ms", _real(self.ms))
        if not (math.isfinite(self.ms) and self.ms >= 0):
            raise ValueError(f"latency_ms must be finite and >= 0, got {self.ms}")

    def latency_for(self, frame_index: int) -> float:
        return self.ms


@dataclass(frozen=True)
class PerFrameLatency:
    values_ms: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.values_ms, (list, tuple)):
            raise TypeError("must be a list of latencies")
        object.__setattr__(self, "values_ms", tuple(map(_real, self.values_ms)))
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
    """One completed inference and its detections.  Its times are finite
    numbers, the completion no earlier than the issue (a ValueError names
    them by their records log keys)."""

    source_frame_index: int
    issue_time_ms: float
    completion_time_ms: float
    detections: DetectionTable

    def __post_init__(self):
        issue, completion = self.issue_time_ms, self.completion_time_ms
        for key, t in (("issue_ms", issue), ("completion_ms", completion)):
            if not is_number(t):
                raise ValueError(f"{key} must be a finite number, got {t!r}")
        if completion < issue:
            raise ValueError(f"completion_ms {completion!r} is before issue_ms {issue!r}")


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
        records.append(PredictionRecord(k, float(start), float(completion), detector(k)))
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
    """The records log: one JSON object per record, in completion order."""
    for r in records:
        d = r.detections
        fp.write(json.dumps({
            "source_frame": r.source_frame_index,
            "issue_ms": r.issue_time_ms,
            "completion_ms": r.completion_time_ms,
            "detections": [
                {"bbox": box, "category": category, "score": score}
                for box, category, score in zip(d.boxes.tolist(), d.category.tolist(), d.score.tolist())
            ],
        }) + "\n")


def read_records(fp: TextIO, source, horizon_frames: int) -> list[PredictionRecord]:
    """The records of a records log, one JSON object per line (blank lines
    are skipped), each line's detections read column by column: a
    source_frame in [0, horizon_frames), times as PredictionRecord takes
    them, completions in line order, each bbox 4 numbers with finite,
    uncrossed corners, category a 64-bit whole number, score in [0, 1].  A
    refusal is a ParseError naming `source`, the line and the key."""
    records: list[PredictionRecord] = []
    for n, line in enumerate(fp, 1):
        if not line.strip():
            continue
        where = f"{source} line {n}"
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where}: invalid JSON: {exc.msg}") from None
        if type(data) is not dict:
            raise ParseError(f"{where}: a record must be an object, got {data!r}")
        for key in ("source_frame", "issue_ms", "completion_ms", "detections"):
            if key not in data:
                raise ParseError(f"{where}: missing field {key!r}")
        frame, dets = data["source_frame"], data["detections"]
        if not (is_number(frame, whole=True) and 0 <= frame < horizon_frames):
            raise ParseError(f"{where}: source_frame must be a whole number in [0, {horizon_frames}), got {frame!r}")
        if type(dets) is not list:
            raise ParseError(f"{where}: detections must be a list, got {dets!r}")
        boxes = box_corners(where, column(where, dets, "bbox", "detections"), "detections[{}].bbox")
        category = whole_numbers(where, dets, "detections", "category")
        score = column(where, dets, "score", "detections")
        j = next((j for j, s in enumerate(score) if not (is_number(s) and 0 <= s <= 1)), None)
        if j is not None:
            raise ParseError(f"{where}: detections[{j}].score must be a number in [0, 1], got {score[j]!r}")
        table = DetectionTable(boxes, category, np.array(score, dtype=np.float64))
        try:
            record = PredictionRecord(int(frame), data["issue_ms"], data["completion_ms"], table)
        except ValueError as exc:  # its time rule
            raise ParseError(f"{where}: {exc}") from None
        if records and (last := records[-1].completion_time_ms) > record.completion_time_ms:
            raise ParseError(f"{where}: completion_ms {record.completion_time_ms!r} is before the line before's {last!r}")
        records.append(record)
    return records
