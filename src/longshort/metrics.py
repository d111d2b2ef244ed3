"""Streaming average precision.

Standard detection AP applied to latency-paired detections: greedy IoU
matching per frame in descending score order, 101-point interpolated AP per
(category, IoU threshold), averaged category-first.  The headline number
averages IoU thresholds 0.50:0.05:0.95; companion numbers report the 0.50
and 0.75 thresholds and the small/medium/large area splits.  A query frame
with no completed prediction simply contributes zero detections against its
ground truth.

One IoU matrix per (frame, category) feeds the greedy match at all ten
thresholds, as COCO's evaluator caches IoUs per image and category; each
category is pooled and score-sorted once into a (category, threshold, area
range) AP table that every report field is read from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .boxes import BBox, Detection, GroundTruthBox
from .streaming import EvalPairing

IOU_THRESHOLDS = tuple(i / 100 for i in range(50, 100, 5))

AREA_ALL = (0.0, math.inf)
AREA_SMALL = (0.0, 32.0**2)
AREA_MEDIUM = (32.0**2, 96.0**2)
AREA_LARGE = (96.0**2, math.inf)
AREA_RANGES = (AREA_ALL, AREA_SMALL, AREA_MEDIUM, AREA_LARGE)

RECALL_POINTS = tuple(i / 100 for i in range(101))


def _corners(boxes: Iterable[BBox]) -> np.ndarray:
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(D, 4) x (G, 4) corner arrays -> (D, G) intersection over union; 0
    where the union is empty.  Each entry takes the scalar operation order
    (per-axis min - max, product of the clamped extents, a + b - inter), so
    it does not depend on what else is in the batch."""
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def _greedy_match(dets: Sequence[Detection], gts: Sequence[GroundTruthBox], thrs: np.ndarray) -> np.ndarray:
    """(T, D) ground-truth index taken by each detection at each threshold,
    -1 for none.  Detections go in descending score order (ties keep
    insertion order) and each takes the unclaimed ground truth of highest
    IoU >= threshold; argmax returns the first maximum, so IoU ties go to
    the lowest ground-truth index."""
    matched = np.full((len(thrs), len(dets)), -1)
    if not dets or not gts:
        return matched
    ious = _iou_matrix(_corners(d.bbox for d in dets), _corners(g.bbox for g in gts))
    # A detection whose single candidate (IoU >= the lowest threshold) is no
    # other detection's candidate takes it wherever its IoU clears the
    # threshold, in any order; only the contested rest needs the greedy walk.
    cand = ious >= thrs.min()
    best = ious.argmax(axis=1)
    alone = (cand.sum(axis=1) == 1) & (cand.sum(axis=0)[best] == 1)
    hit = alone & (ious[np.arange(len(dets)), best] >= thrs[:, None])
    matched[hit] = np.broadcast_to(best, hit.shape)[hit]
    order = np.argsort([-d.score for d in dets], kind="stable")
    covered = np.zeros((len(thrs), len(gts)), dtype=bool)
    rows = np.arange(len(thrs))
    for i in order[(cand.any(axis=1) & ~alone)[order]]:
        masked = np.where(covered, -np.inf, ious[i])
        best = masked.argmax(axis=1)
        hit = masked[rows, best] >= thrs
        matched[hit, i] = best[hit]
        covered[rows[hit], best[hit]] = True
    return matched


def _ap(is_tp: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of detections in descending score order."""
    if not len(is_tp):
        return 0.0
    tp = np.cumsum(is_tp)
    precision = tp / np.arange(1, len(tp) + 1)
    # Right-to-left precision envelope read at the recall grid; grid points
    # beyond the last recall read the appended 0.
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    total = 0.0
    for v in envelope[np.searchsorted(tp / n_gt, RECALL_POINTS, side="left")].tolist():
        total += v  # sequential on purpose: np.sum pairs terms and changes bits
    return total / len(RECALL_POINTS)


def _ap_table(scores: list[float], matched: np.ndarray, gt_areas: list[float], area_ranges) -> list[list]:
    """AP per [area range][threshold] of one category's pooled detections:
    scores (N,) and matched (T, N) (pooled ground-truth index or -1) in
    pooling order, gt_areas (M,) of the pooled ground truth.  Ground truth
    outside a range is ignored, a detection matched to it is neither true
    nor false positive, and a range with no ground truth reads None."""
    order = np.argsort(-np.array(scores, dtype=np.float64), kind="stable")  # ties keep pooling order
    matched = matched[:, order]
    gt_areas = np.array(gt_areas, dtype=np.float64)
    table = []
    for lo, hi in area_ranges:
        gt_ok = (lo <= gt_areas) & (gt_areas < hi)
        n_gt = int(gt_ok.sum())
        keep = np.append(gt_ok, True)[matched]  # index -1 (unmatched) reads the appended True
        table.append([None if n_gt == 0 else _ap(m[k] >= 0, n_gt) for m, k in zip(matched, keep)])
    return table


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
    gts_by_frame: Sequence[Sequence[GroundTruthBox]],
    max_dets_per_frame: Optional[int] = None,
) -> SapReport:
    """Score latency-paired detections against per-frame ground truth.

    Categories are averaged first (those without ground truth are excluded),
    IoU thresholds second.  Area splits use the ground-truth box area:
    small < 32^2, medium in [32^2, 96^2), large >= 96^2.
    """
    categories = sorted({g.category for gts in gts_by_frame for g in gts})
    thrs = np.array(IOU_THRESHOLDS)
    # per category: scores, matched blocks (T, D_frame), ground-truth areas
    pools = {cat: ([], [np.empty((len(thrs), 0), dtype=np.int64)], []) for cat in categories}
    for p in pairings:
        dets = tuple(p.paired_record.detections) if p.paired_record is not None else ()
        if max_dets_per_frame is not None and len(dets) > max_dets_per_frame:
            keep = sorted(range(len(dets)), key=lambda i: -dets[i].score)[:max_dets_per_frame]
            dets = tuple(dets[i] for i in sorted(keep))
        for cat, (scores, matched, gt_areas) in pools.items():
            dets_c = [d for d in dets if d.category == cat]
            gts_c = [g for g in gts_by_frame[p.query_frame_index] if g.category == cat]
            m = _greedy_match(dets_c, gts_c, thrs)
            matched.append(np.where(m < 0, -1, m + len(gt_areas)))
            scores += [d.score for d in dets_c]
            gt_areas += [g.area for g in gts_c]
    # table[c][a][t]: category c, area range a (AREA_RANGES order), threshold t
    table = [_ap_table(s, np.concatenate(m, axis=1), a, AREA_RANGES) for s, m, a in pools.values()]

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
    lines = []
    for name, value in zip(REPORT_COLUMNS, _report_values(report)):
        lines.append(f"{name} = {'' if value is None else repr(value)}")
    for cat in sorted(report.per_category):
        lines.append(f"AP_cat_{cat} = {report.per_category[cat]!r}")
    return "\n".join(lines) + "\n"


def report_from_text(text: str) -> SapReport:
    fields: dict[str, Optional[float]] = {}
    per_category: dict[int, float] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, raw = line.partition(" = ")
        value = float(raw) if raw.strip() else None
        if key.startswith("AP_cat_"):
            per_category[int(key[len("AP_cat_"):])] = value
        else:
            fields[key] = value
    return SapReport(
        sap=fields["sAP"],
        sap50=fields["sAP50"],
        sap75=fields["sAP75"],
        sap_small=fields.get("sAP_s"),
        sap_medium=fields.get("sAP_m"),
        sap_large=fields.get("sAP_l"),
        per_category=per_category,
    )


def report_csv_header() -> str:
    return ",".join(REPORT_COLUMNS)


def report_to_csv_row(report: SapReport) -> str:
    return ",".join("" if v is None else repr(v) for v in _report_values(report))


def report_to_human_table(report: SapReport) -> str:
    """Percent rendering (x100, one decimal), the way result tables print."""
    header = " | ".join(f"{c:>6}" for c in REPORT_COLUMNS)
    cells = " | ".join(
        f"{'-':>6}" if v is None else f"{100.0 * v:>6.1f}" for v in _report_values(report)
    )
    return header + "\n" + cells + "\n"
