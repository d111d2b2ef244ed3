"""The box-space forecaster.

It makes the long-vs-short temporal claim testable at the geometric level:
a least-squares polynomial fit over a track's history, of which the
one-sample fit is the zero-motion hold and the two-sample fit is
constant-velocity extrapolation.  It is a streaming detector callable for
the latency simulator: it takes one GroundTruthTable per frame and returns
a DetectionTable per call.  Every box-space detector kind is this detector
at a preset; delayed-gt, an offline detector whose knowledge lags, is the
hold read latency_frames frames back (runner.make_detector).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from .boxes import DetectionTable, GroundTruthTable, concat_tables


def _certain(gts: GroundTruthTable) -> DetectionTable:
    """The ground truth reported back with full confidence."""
    return DetectionTable(gts.boxes, gts.category, np.ones(len(gts)))


class ForecastDetector:
    """Streaming detector that extrapolates each visible track forward.

    At frame k it reads the track's boxes at k - n_history * delta_t, ...,
    k - delta_t, k (skipping gaps, e.g. occlusions) and predicts frame
    k + forecast_steps with a least-squares polynomial of degree min(2,
    samples - 1) in the frame index, fit to each corner coordinate: two
    samples give constant-velocity extrapolation, three or more capture
    acceleration.  n_history = 0 is the zero-motion hold; a single
    available sample also degrades to a hold.  A track whose forecast
    corners cross (a box shrinking at the image edge, extrapolated inside
    out) is forecast to have left the image and reports nothing.

    The boxes are held as one (tracks, frames, 4) array with a (tracks,
    frames) presence mask, both indexed by frame_index; tracks with a single
    box share one empty row.  A hold (n_history or forecast_steps 0) reads
    no other frame, so it builds neither.  A frame's tracks are forecast
    together: the tracks whose windows have the same samples present share
    one design matrix, so each such pattern is a single np.polyfit whose
    right-hand side holds four columns per track.  LAPACK solves each
    column on its own, so every forecast is bit for bit the fit of the
    track alone.
    """

    def __init__(
        self,
        gts_by_frame: Sequence[GroundTruthTable],
        n_history: int = 3,
        delta_t: int = 1,
        forecast_steps: int = 1,
    ):
        if n_history < 0 or delta_t < 1 or forecast_steps < 0:
            raise ValueError("need n_history >= 0, delta_t >= 1, forecast_steps >= 0")
        self.n_history = n_history
        self.delta_t = delta_t
        self.forecast_steps = forecast_steps
        self.gts_by_frame = tuple(gts_by_frame)
        if n_history == 0 or forecast_steps == 0:
            return
        flat = concat_tables([GroundTruthTable.empty(), *self.gts_by_frame])
        _, rows, counts = np.unique(flat.track_id, return_inverse=True, return_counts=True)
        # A track with one box is always held, so all such tracks share row 0,
        # which stays empty; the arrays then grow with the tracks that can be
        # fit, not with the boxes of a dataset without track ids, where
        # coco_io makes each box its own track.
        fit = counts > 1
        self._rows = np.where(fit[rows], np.cumsum(fit)[rows], 0)
        shape = (fit.sum() + 1, flat.frame.max(initial=-1) + 1)
        self._boxes = np.full((*shape, 4), np.nan)
        self._present = np.zeros(shape, dtype=bool)
        self._boxes[self._rows, flat.frame] = flat.boxes
        self._present[self._rows, flat.frame] = True
        self._present[0] = False
        # frame k's track rows, in the frame's order, are _rows[_starts[k]:_starts[k + 1]]
        self._starts = list(accumulate(map(len, self.gts_by_frame), initial=0))

    def __call__(self, frame_index: int) -> DetectionTable:
        gts = self.gts_by_frame[frame_index]
        if self.n_history == 0 or self.forecast_steps == 0 or not gts:
            return _certain(gts)
        # the frames n_history * delta_t, ..., delta_t, 0 back, oldest first, in
        # Python ints so that a history longer than the stream stops at frame 0
        back = range(min(self.n_history, frame_index // self.delta_t), -1, -1)
        window = np.array([frame_index - self.delta_t * i for i in back])
        rows = self._rows[self._starts[frame_index]:self._starts[frame_index + 1]]
        present = self._present[rows[:, None], window]  # (tracks, len(window))
        # each track's mask as one opaque item, so that np.unique groups the tracks by pattern
        patterns, group = np.unique(present.view(f"V{len(window)}").ravel(), return_inverse=True)
        corners = np.full((len(rows), 4), np.nan)  # NaN: held, not fitted
        for p in range(len(patterns)):
            sel = np.flatnonzero(group == p)
            ks = window[present[sel[0]]]
            if len(ks) < 2:
                continue
            samples = self._boxes[rows[sel, None], ks]  # (tracks, len(ks), 4)
            rhs = samples.transpose(1, 0, 2).reshape(len(ks), -1)  # four columns per track
            fit = np.polyfit(ks, rhs, min(2, len(ks) - 1))
            corners[sel] = np.polyval(fit, frame_index + self.forecast_steps).reshape(-1, 4)
        held = np.isnan(corners[:, 0])
        corners[held] = gts.boxes[held]
        kept = ~((corners[:, 0] > corners[:, 2]) | (corners[:, 1] > corners[:, 3]))
        return DetectionTable(corners[kept], gts.category[kept], np.ones(int(kept.sum())))
