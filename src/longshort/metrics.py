"""Streaming average precision.

Standard detection AP applied to latency-paired detections: greedy IoU
matching per frame in descending score order, 101-point interpolated AP per
(category, IoU threshold), averaged category-first.  The headline number
averages IoU thresholds 0.50:0.05:0.95; companion numbers report the 0.50
and 0.75 thresholds and the small/medium/large area splits.  A query frame
with no completed prediction simply contributes zero detections against its
ground truth.

Detections and ground truth arrive as column tables (boxes.py) and are
pooled across the query frames in pairing order.  Each category is picked
with a mask; the IoUs of all its query frames go in one padded (frames, D,
G) block, as COCO's evaluator caches IoUs per image and category, and one
greedy walk over score rank matches every frame at all ten thresholds.
Each category's pool is score-sorted once into a (category, threshold,
area range) AP table that every report field is read from; the table's
rows are computed together, from the true positives of one (ranges x
thresholds, detections) block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boxes import DetectionTable, GroundTruthTable, concat_tables
from .streaming import EvalPairing

IOU_THRESHOLDS = tuple(i / 100 for i in range(50, 100, 5))

AREA_ALL = (0.0, math.inf)
AREA_SMALL = (0.0, 32.0**2)
AREA_MEDIUM = (32.0**2, 96.0**2)
AREA_LARGE = (96.0**2, math.inf)
AREA_RANGES = (AREA_ALL, AREA_SMALL, AREA_MEDIUM, AREA_LARGE)

RECALL_POINTS = tuple(i / 100 for i in range(101))

# Cells of the padded IoU block (and of the per-threshold claim and match
# blocks) that one chunk of frames may fill: 2 MB per float64 block.
_BLOCK_CELLS = 1 << 18


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., D, 4) x (..., G, 4) corner arrays -> (..., D, G) intersection
    over union; 0 where the union is empty.  Each entry takes the scalar
    operation order (per-axis min - max, product of the clamped extents,
    a + b - inter), so it does not depend on what else is in the batch."""
    a, b = a[..., :, None, :], b[..., None, :, :]
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def _greedy_match(ious: np.ndarray, thrs: np.ndarray) -> np.ndarray:
    """(F, T, D) ground-truth index taken by each detection at each
    threshold, -1 for none, from the (F, D, G) IoUs of F frames whose
    detections are in descending score order (ties in insertion order).
    All frames walk the score ranks together: at rank r each frame's r-th
    detection takes its unclaimed ground truth of highest IoU >= threshold;
    argmax returns the first maximum, so IoU ties go to the lowest
    ground-truth index.  Padding (an all-zero box, which has no extent)
    reads IoU 0 and so matches nothing at a threshold > 0."""
    n_frames, n_dets, _ = ious.shape
    matched = np.full((n_frames, len(thrs), n_dets), -1)
    claimed = np.zeros((n_frames, len(thrs), ious.shape[2]))  # -inf once claimed
    for r in range(n_dets):
        masked = ious[:, None, r, :] + claimed  # (F, T, G)
        best = masked.argmax(axis=2)
        f, t = np.nonzero(np.take_along_axis(masked, best[..., None], axis=2)[..., 0] >= thrs)
        matched[f, t, r] = best[f, t]
        claimed[f, t, best[f, t]] = -np.inf
    return matched


def _match_pooled(det_boxes, scores, det_query, gt_boxes, gt_query, thrs) -> np.ndarray:
    """(T, N) index into the M pooled ground-truth rows taken by each of the
    N pooled detections at each threshold, -1 for none.  det_query and
    gt_query give the query each row is scored in (rows are grouped by it),
    and a query's ground truth is matched only by that query's detections.
    The queries that have both are matched in chunks whose padded (queries,
    D, G) blocks stay within _BLOCK_CELLS, or hold one query."""
    n_queries = max(det_query.max(initial=-1), gt_query.max(initial=-1)) + 1
    n_det = np.bincount(det_query, minlength=n_queries)
    n_gt = np.bincount(gt_query, minlength=n_queries)
    det_start, gt_start = np.cumsum(n_det) - n_det, np.cumsum(n_gt) - n_gt
    order = np.lexsort((-scores, det_query))  # by query, then descending score; ties keep pooling order
    rank = np.empty(len(scores), dtype=np.int64)
    rank[order] = np.arange(len(scores)) - det_start[det_query[order]]
    column = np.arange(len(gt_query)) - gt_start[gt_query]
    matched = np.full((len(thrs), len(scores)), -1)
    queries = np.flatnonzero((n_det > 0) & (n_gt > 0))
    if not len(queries):
        return matched
    d_max, g_max = n_det[queries].max(), n_gt[queries].max()
    chunk = max(1, _BLOCK_CELLS // (max(d_max, len(thrs)) * max(g_max, len(thrs))))
    for lo in range(0, len(queries), chunk):
        part = queries[lo:lo + chunk]
        slot = np.full(n_queries, -1)  # the query's row in this chunk's blocks
        slot[part] = np.arange(len(part))
        d = np.flatnonzero(slot[det_query] >= 0)
        g = np.flatnonzero(slot[gt_query] >= 0)
        det_block = np.zeros((len(part), d_max, 4))
        det_block[slot[det_query[d]], rank[d]] = det_boxes[d]
        gt_block = np.zeros((len(part), g_max, 4))
        gt_block[slot[gt_query[g]], column[g]] = gt_boxes[g]
        local = _greedy_match(_iou_matrix(det_block, gt_block), thrs)[slot[det_query[d]], :, rank[d]]  # (len(d), T)
        matched[:, d] = np.where(local < 0, -1, local + gt_start[det_query[d], None]).T
    return matched


def _ap_table(scores: np.ndarray, matched: np.ndarray, gt_areas: np.ndarray, area_ranges) -> list[list]:
    """101-point interpolated AP per [area range][threshold] of one
    category's pooled detections: scores (N,) and matched (T, N) (pooled
    ground-truth index or -1) in pooling order, gt_areas (M,) of the pooled
    ground truth.  Ground truth outside a range is ignored, a detection
    matched to it is neither true nor false positive, and a range with no
    ground truth reads None.

    Every (range, threshold) pair is one row of a (rows, N) block in score
    order.  The precision envelope at a detection is the highest precision
    at or after it, which is reached at a true positive: each false positive
    lowers the precision, and one before the first true positive has 0.
    So only the true positives' precisions are computed, i / (i + false
    positives before it) for the row's i-th, and the envelope at recall r is
    read at the first true positive reaching it, or is 0 if none does.  The
    101 grid values are summed in order, as the last column of a cumulative
    sum: np.sum pairs terms and would change the bits of a sequential sum."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")  # ties keep pooling order
    matched = matched[:, order]
    gt_areas = np.asarray(gt_areas, dtype=np.float64)
    n_thr, n = matched.shape
    gt_ok = np.array([(lo <= gt_areas) & (gt_areas < hi) for lo, hi in area_ranges])  # (ranges, M)
    n_gt = gt_ok.sum(axis=1).tolist()
    rows = len(n_gt) * n_thr
    hit = np.array([np.append(ok, False)[matched] for ok in gt_ok]).reshape(rows, n)  # -1 reads the appended False
    false_pos = np.cumsum(matched < 0, axis=1)  # an unmatched detection is a false positive in every range
    at = np.flatnonzero(hit)  # the true positives, row by row
    count = np.count_nonzero(hit, axis=1)
    first = np.cumsum(count) - count  # each row's first in `at`
    rank = np.arange(len(at)) - np.repeat(first, count) + 1
    fp_before = false_pos.ravel()[at % false_pos.size]  # each range's rows repeat the (T, N) layout
    precision = np.append(rank / (rank + fp_before), 0.0)
    # the least true-positive count i with i / n_gt >= r (the recall's own
    # division), at least 1, for each row and recall point r
    least = [np.searchsorted(np.arange(g + 1) / max(g, 1), RECALL_POINTS, side="left") for g in n_gt]
    least = np.maximum(np.repeat(least, n_thr, axis=0), 1)
    reached = least <= count[:, None]
    # Row by row, reduceat takes the maximum from each point's true positive
    # up to the next point's; the last reached one runs to the row's end,
    # where the next row's true positives (or the appended 0) begin, which
    # is where an unreached point starts, masked to 0.  Two points reached
    # at one true positive leave an empty segment, which reduceat reads as
    # that true positive's precision, within the envelope from there on.
    starts = first[:, None] + np.minimum(least, count[:, None] + 1) - 1
    segments = np.where(reached, np.maximum.reduceat(precision, starts.ravel()).reshape(rows, -1), 0.0)
    grid = np.maximum.accumulate(segments[:, ::-1], axis=1)[:, ::-1]
    ap = (np.cumsum(grid, axis=1)[:, -1] / len(RECALL_POINTS)).reshape(len(n_gt), n_thr).tolist()
    return [[None] * n_thr if g == 0 else row for g, row in zip(n_gt, ap)]


@dataclass(frozen=True)
class SapReport:
    """Aggregate streaming-AP numbers, each in [0, 1] (None when the
    corresponding area split holds no ground truth)."""

    sap: float
    sap50: float
    sap75: float
    sap_small: Optional[float]
    sap_medium: Optional[float]
    sap_large: Optional[float]
    per_category: dict[int, float]


REPORT_COLUMNS = ("sAP", "sAP50", "sAP75", "sAP_s", "sAP_m", "sAP_l")


def _report_values(report: SapReport) -> tuple[Optional[float], ...]:
    return (report.sap, report.sap50, report.sap75, report.sap_small, report.sap_medium, report.sap_large)


def compute_sap_report(
    pairings: Sequence[EvalPairing],
    gts_by_frame: Sequence[GroundTruthTable],
    max_dets_per_frame: Optional[int] = None,
) -> SapReport:
    """Score latency-paired detections against the ground truth, one table
    per frame.

    Categories are averaged first (those without ground truth are excluded),
    IoU thresholds second.  Area splits use the ground-truth box area:
    small < 32^2, medium in [32^2, 96^2), large >= 96^2.
    """
    no_gts, no_dets = GroundTruthTable.empty(), DetectionTable.empty()
    dets, gts = [], []
    for p in pairings:
        d = p.paired_record.detections if p.paired_record is not None else no_dets
        if max_dets_per_frame is not None and len(d) > max_dets_per_frame:
            d = d.rows(np.sort(np.argsort(-d.score, kind="stable")[:max_dets_per_frame]))
        dets.append(d)
        gts.append(gts_by_frame[p.query_frame_index])
    # every pairing's detections and ground truth, pooled in pairing order
    det_query = np.repeat(np.arange(len(dets)), [len(d) for d in dets])
    gt_query = np.repeat(np.arange(len(gts)), [len(g) for g in gts])
    dets, gts = concat_tables([no_dets, *dets]), concat_tables([no_gts, *gts])
    categories = np.unique(gts.category).tolist()  # those with pooled ground truth
    thrs = np.array(IOU_THRESHOLDS)
    # table[c][a][t]: category c, area range a (AREA_RANGES order), threshold t
    table = []
    for cat in categories:
        d, g = np.flatnonzero(dets.category == cat), np.flatnonzero(gts.category == cat)
        matched = _match_pooled(dets.boxes[d], dets.score[d], det_query[d], gts.boxes[g], gt_query[g], thrs)
        table.append(_ap_table(dets.score[d], matched, gts.area[g], AREA_RANGES))

    def mean_ap(thr_indices: Sequence[int], area: int) -> Optional[float]:
        per_thr = []
        for t in thr_indices:
            vals = [aps[area][t] for aps in table if aps[area][t] is not None]
            if vals:
                per_thr.append(sum(vals) / len(vals))
        return sum(per_thr) / len(per_thr) if per_thr else None

    every = range(len(IOU_THRESHOLDS))
    sap = mean_ap(every, 0)
    if sap is None:
        raise ValueError("no ground truth supplied; the report is undefined")
    return SapReport(
        sap=sap,
        sap50=mean_ap((IOU_THRESHOLDS.index(0.50),), 0),
        sap75=mean_ap((IOU_THRESHOLDS.index(0.75),), 0),
        sap_small=mean_ap(every, 1),
        sap_medium=mean_ap(every, 2),
        sap_large=mean_ap(every, 3),
        per_category={cat: sum(aps[0]) / len(aps[0]) for cat, aps in zip(categories, table)},
    )


def report_to_text(report: SapReport) -> str:
    """Flat key-value block, one metric per line."""
    lines = [f"{name} = {'' if v is None else repr(v)}" for name, v in zip(REPORT_COLUMNS, _report_values(report))]
    lines += [f"AP_cat_{cat} = {report.per_category[cat]!r}" for cat in sorted(report.per_category)]
    return "\n".join(lines) + "\n"


def report_to_csv_row(report: SapReport) -> str:
    return ",".join("" if v is None else repr(v) for v in _report_values(report))


def report_to_csv(report: SapReport) -> str:
    """The header line and the report's row."""
    return ",".join(REPORT_COLUMNS) + "\n" + report_to_csv_row(report) + "\n"


def report_to_human_table(report: SapReport) -> str:
    """Percent rendering (x100, one decimal), the way result tables print."""
    header = " | ".join(f"{c:>6}" for c in REPORT_COLUMNS)
    cells = " | ".join(f"{'-':>6}" if v is None else f"{100.0 * v:>6.1f}" for v in _report_values(report))
    return header + "\n" + cells + "\n"
