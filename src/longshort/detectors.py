"""Forecaster detectors.

These make the long-vs-short temporal claim testable at the geometric level:
a delayed ground-truth reader (an offline detector whose knowledge lags), a
two-sample constant-velocity extrapolator, and a least-squares polynomial
fit over a longer history.  Each also comes wrapped as a streaming detector
callable usable by the latency simulator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .boxes import BBox, Detection, GroundTruthBox
from .network import DualPathNetwork, Frame


class SingularFit(ValueError):
    """Polynomial fit received duplicate frame indices."""


def delayed_gt_detect(
    gts_by_frame: Sequence[Sequence[GroundTruthBox]],
    latency_frames: int,
    frame_index: int,
) -> list[Detection]:
    """Ground truth of frame max(0, k - latency_frames), reported with
    full confidence."""
    src = max(0, frame_index - latency_frames)
    return [Detection(bbox=g.bbox, category=g.category, score=1.0) for g in gts_by_frame[src]]


def const_velocity_forecast(box_prev: BBox, box_curr: BBox, steps: int) -> BBox:
    """Extrapolate each corner coordinate: out = curr + steps * (curr - prev)."""
    p, c = box_prev.as_tuple(), box_curr.as_tuple()
    return BBox(*(ci + steps * (ci - pi) for pi, ci in zip(p, c)))


def long_short_forecast(history: Sequence[tuple[int, BBox]], target_index: int) -> BBox:
    """Fit each corner coordinate by least squares over the frame index and
    evaluate at target_index.

    Degree is min(2, len(history) - 1): two samples reproduce the
    constant-velocity extrapolation exactly, three or more capture
    acceleration.  Accepts any history length >= 2.
    """
    if len(history) < 2:
        raise ValueError(f"need at least 2 samples, got {len(history)}")
    indices = [idx for idx, _ in history]
    if len(set(indices)) != len(indices):
        raise SingularFit(f"frame indices must be distinct, got {indices}")
    ks = np.array(indices, dtype=np.float64)
    degree = min(2, len(history) - 1)
    coords = np.array([b.as_tuple() for _, b in history])  # (n, 4): one lstsq, four right-hand sides
    return BBox(*np.polyval(np.polyfit(ks, coords, degree), target_index).tolist())


class DelayedGtDetector:
    """Streaming detector that replays stale ground truth."""

    def __init__(self, gts_by_frame: Sequence[Sequence[GroundTruthBox]], latency_frames: int = 0):
        if latency_frames < 0:
            raise ValueError("latency_frames must be >= 0")
        self.gts_by_frame = gts_by_frame
        self.latency_frames = latency_frames

    def __call__(self, frame_index: int) -> list[Detection]:
        return delayed_gt_detect(self.gts_by_frame, self.latency_frames, frame_index)


class ForecastDetector:
    """Streaming detector that extrapolates each visible track forward.

    At frame k it collects the track's boxes at k, k - delta_t, ...,
    k - n_history * delta_t (skipping gaps, e.g. occlusions) and predicts
    frame k + forecast_steps.  n_history = 0 is the zero-motion hold; a
    single available sample also degrades to a hold.
    """

    def __init__(
        self,
        gts_by_frame: Sequence[Sequence[GroundTruthBox]],
        n_history: int = 3,
        delta_t: int = 1,
        forecast_steps: int = 1,
    ):
        if n_history < 0 or delta_t < 1 or forecast_steps < 0:
            raise ValueError("need n_history >= 0, delta_t >= 1, forecast_steps >= 0")
        self.n_history = n_history
        self.delta_t = delta_t
        self.forecast_steps = forecast_steps
        self._track_boxes: dict[tuple[int, int], BBox] = {}
        self._track_meta: dict[int, int] = {}
        for gts in gts_by_frame:
            for g in gts:
                self._track_boxes[(g.track_id, g.frame_index)] = g.bbox
                self._track_meta[g.track_id] = g.category
        self.gts_by_frame = gts_by_frame

    def _history(self, track_id: int, k: int) -> list[tuple[int, BBox]]:
        samples = []
        for i in range(self.n_history, -1, -1):  # oldest first for the fit
            idx = k - i * self.delta_t
            box = self._track_boxes.get((track_id, idx))
            if box is not None:
                samples.append((idx, box))
        return samples

    def __call__(self, frame_index: int) -> list[Detection]:
        dets = []
        for g in self.gts_by_frame[frame_index]:
            samples = self._history(g.track_id, frame_index)
            if self.n_history == 0 or len(samples) < 2 or self.forecast_steps == 0:
                box = g.bbox
            else:
                box = long_short_forecast(samples, frame_index + self.forecast_steps)
            dets.append(Detection(bbox=box, category=g.category, score=1.0))
        return dets


class PyramidDetector:
    """Streaming detector backed by the dual-path network; the simulator
    hands it frame indices and it steps the network over the corresponding
    frames (frames it never receives are simply absent from the buffer)."""

    def __init__(self, frames: Sequence[Frame], network: DualPathNetwork):
        self.frames = frames
        self.network = network

    def __call__(self, frame_index: int) -> list[Detection]:
        return self.network.step(self.frames[frame_index])
