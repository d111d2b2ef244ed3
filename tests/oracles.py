"""Independent reference implementations used only by the tests.

Everything here is written with explicit Python loops over plain lists --
deliberately avoiding the package's numpy code paths -- so agreement between
the two is meaningful.
"""

from __future__ import annotations

from longshort.boxes import BBox


# ---------------------------------------------------------------- tensors


def arr3(fm) -> list:
    """(C, H, W) array -> nested [c][h][w] lists."""
    return fm.tolist()


def naive_concat(maps3: list[list]) -> list:
    out = []
    for m in maps3:
        for ch in m:
            out.append([row[:] for row in ch])
    return out


def naive_add(a3: list, b3: list) -> list:
    return [
        [[a3[c][h][w] + b3[c][h][w] for w in range(len(a3[0][0]))] for h in range(len(a3[0]))]
        for c in range(len(a3))
    ]


def naive_sum(maps3: list[list]) -> list:
    acc = [[row[:] for row in ch] for ch in maps3[0]]
    for m in maps3[1:]:
        acc = naive_add(acc, m)
    return acc


def naive_project(x3: list, matrix: list, bias: list) -> list:
    n_out = len(matrix)
    n_in = len(x3)
    height, width = len(x3[0]), len(x3[0][0])
    out = [[[0.0] * width for _ in range(height)] for _ in range(n_out)]
    for h in range(height):
        for w in range(width):
            for c in range(n_out):
                acc = bias[c]
                for k in range(n_in):
                    acc += matrix[c][k] * x3[k][h][w]
                out[c][h][w] = acc
    return out


def naive_fuse(cfg, weights, current3: list, history3: list[list]) -> list:
    """Loop-based re-implementation of all four fusion schemes.

    Zero-width branches (tiny d with deep history) contribute nothing; an
    entirely empty concatenation degenerates to a zero map of width d.
    """
    from longshort.fusion import FusionVariant, plan_channels

    if cfg.variant is FusionVariant.EF_AVG:
        return naive_sum([current3] + history3)

    def proj(x3, w):
        return naive_project(x3, w.matrix.tolist(), w.bias.tolist())

    plan = plan_channels(cfg)
    blocks = []
    if cfg.variant is FusionVariant.EF_DIL:
        if plan.short_out > 0:
            blocks.append(proj(current3, weights.short_proj))
        if plan.long_out > 0:
            blocks.append(naive_sum([proj(m, weights.long_proj) for m in history3]))
    elif cfg.variant is FusionVariant.LF_AVG:
        if plan.short_out > 0:
            blocks.extend(proj(m, weights.long_proj) for m in [current3] + history3)
    else:  # LF_DIL
        if plan.short_out > 0:
            blocks.append(proj(current3, weights.short_proj))
        if plan.long_out > 0:
            blocks.extend(proj(m, weights.long_proj) for m in history3)

    if blocks:
        fused = naive_concat(blocks)
        if plan.needs_output_projection:
            fused = proj(fused, weights.output_proj)
    else:
        height, width = len(current3[0]), len(current3[0][0])
        fused = [[[0.0] * width for _ in range(height)] for _ in range(len(current3))]
    if cfg.residual:
        fused = naive_add(fused, current3)
    return fused


# ------------------------------------------------------------- streaming


def brute_force_pairings(records, query_times: list[float]) -> list:
    """Quadratic scan over all (record, query) pairs."""
    out = []
    for q in query_times:
        best = None
        for r in records:
            if r.completion_time_ms <= q and (best is None or r.completion_time_ms > best.completion_time_ms):
                best = r
        out.append(best)
    return out


# --------------------------------------------------------------- metrics


def grid_count_iou(a: BBox, b: BBox, cells_per_unit: int = 10) -> float:
    """Rasterized-grid IoU: count sub-pixel cells inside each box."""
    x0 = min(a.x_min, b.x_min)
    y0 = min(a.y_min, b.y_min)
    x1 = max(a.x_max, b.x_max)
    y1 = max(a.y_max, b.y_max)
    nx = int(round((x1 - x0) * cells_per_unit))
    ny = int(round((y1 - y0) * cells_per_unit))
    inter = union = 0
    for i in range(nx):
        cx = x0 + (i + 0.5) / cells_per_unit
        for j in range(ny):
            cy = y0 + (j + 0.5) / cells_per_unit
            in_a = a.x_min < cx < a.x_max and a.y_min < cy < a.y_max
            in_b = b.x_min < cx < b.x_max and b.y_min < cy < b.y_max
            inter += in_a and in_b
            union += in_a or in_b
    return inter / union if union else 0.0


IOU_THRS = [i / 100 for i in range(50, 100, 5)]
GRID = [i / 100 for i in range(101)]
RANGES = {
    "all": (0.0, float("inf")),
    "small": (0.0, 1024.0),
    "medium": (1024.0, 9216.0),
    "large": (9216.0, float("inf")),
}


def _oracle_iou(a: BBox, b: BBox) -> float:
    w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    ua = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    ub = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return inter / (ua + ub - inter)


def oracle_greedy_match(dets, gts, thr):
    """Returns matched gt index per det (input order), or None."""
    taken = set()
    matched = [None] * len(dets)
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        best, best_v = None, -1.0
        for j in range(len(gts)):
            if j in taken:
                continue
            v = _oracle_iou(dets[i].bbox, gts[j].bbox)
            if v >= thr and v > best_v:
                best, best_v = j, v
        if best is not None:
            matched[i] = best
            taken.add(best)
    return matched


def _oracle_ap(pooled, n_gt):
    """pooled: (score, tp) rows in pooling order; 101-point interpolation."""
    if n_gt == 0:
        return None
    if not pooled:
        return 0.0
    rows = sorted(pooled, key=lambda r: -r[0])
    points = []
    tp = fp = 0
    for _, is_tp in rows:
        tp += 1 if is_tp else 0
        fp += 0 if is_tp else 1
        points.append((tp / n_gt, tp / (tp + fp)))
    total = 0.0
    for r in GRID:
        best = 0.0
        for rec, prec in points:
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / len(GRID)


def oracle_sap_report(det_lists, gts_by_frame) -> dict:
    """From-scratch streaming-AP evaluator.

    det_lists[k] are the detections evaluated against frame k's ground
    truth.  Returns {"sAP":, "sAP50":, "sAP75":, "small":, "medium":,
    "large":, "per_category": {cat: ap}}.
    """
    cats = sorted({g.category for gts in gts_by_frame for g in gts})
    ap = {}  # (cat, thr, range) -> ap or None
    for cat in cats:
        for thr in IOU_THRS:
            frame_rows = []
            for k in range(len(gts_by_frame)):
                dets = [d for d in det_lists[k] if d.category == cat]
                gts = [g for g in gts_by_frame[k] if g.category == cat]
                matched = oracle_greedy_match(dets, gts, thr)
                frame_rows.append((dets, gts, matched))
            for name, (lo, hi) in RANGES.items():
                pooled = []
                n_gt = 0
                for dets, gts, matched in frame_rows:
                    ok = [lo <= g.area < hi for g in gts]
                    n_gt += sum(ok)
                    for i, d in enumerate(dets):
                        if matched[i] is None:
                            pooled.append((d.score, False))
                        elif ok[matched[i]]:
                            pooled.append((d.score, True))
                ap[(cat, thr, name)] = _oracle_ap(pooled, n_gt)

    def mean_over(thrs, name):
        per_thr = []
        for thr in thrs:
            vals = [ap[(c, thr, name)] for c in cats if ap[(c, thr, name)] is not None]
            if vals:
                per_thr.append(sum(vals) / len(vals))
        return sum(per_thr) / len(per_thr) if per_thr else None

    return {
        "sAP": mean_over(IOU_THRS, "all"),
        "sAP50": mean_over([0.50], "all"),
        "sAP75": mean_over([0.75], "all"),
        "small": mean_over(IOU_THRS, "small"),
        "medium": mean_over(IOU_THRS, "medium"),
        "large": mean_over(IOU_THRS, "large"),
        "per_category": {
            c: sum(ap[(c, t, "all")] for t in IOU_THRS) / len(IOU_THRS) for c in cats
        },
    }


def prefix_ap(n_tp: int, n_gt: int) -> float:
    """Closed-form 101-point AP when every detection scores 1.0 and the true
    positives form a prefix of the pooled order: precision is 1 up to recall
    n_tp/n_gt and the interpolated precision is 0 beyond."""
    import math

    if n_gt == 0:
        raise ValueError("undefined without ground truth")
    if n_tp == 0:
        return 0.0
    return (math.floor(100 * n_tp / n_gt) + 1) / 101


# ------------------------------------------------- scalar reference engine


def _ref_iou(a: BBox, b: BBox) -> float:
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def _ref_match(dets, gts, thr):
    det_matched = [None] * len(dets)
    covered = [False] * len(gts)
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        best_j, best_iou = None, 0.0
        for j, g in enumerate(gts):
            if covered[j]:
                continue
            v = _ref_iou(dets[i].bbox, g.bbox)
            if v >= thr and (best_j is None or v > best_iou):
                best_j, best_iou = j, v
        if best_j is not None:
            det_matched[i] = best_j
            covered[best_j] = True
    return det_matched


def _ref_ap(frames, area_range):
    lo, hi = area_range
    n_gt = 0
    rows = []
    for dets, gts, matched in frames:
        gt_ok = [lo <= g.area < hi for g in gts]
        n_gt += sum(gt_ok)
        for i, d in enumerate(dets):
            j = matched[i]
            if j is None:
                rows.append((d.score, False))
            elif gt_ok[j]:
                rows.append((d.score, True))
    if n_gt == 0:
        return None
    if not rows:
        return 0.0
    rows.sort(key=lambda r: -r[0])
    precisions, recalls = [], []
    tp = fp = 0
    for _, is_tp in rows:
        tp += is_tp
        fp += not is_tp
        precisions.append(tp / (tp + fp))
        recalls.append(tp / n_gt)
    envelope = precisions[:]
    for i in range(len(envelope) - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])
    total = 0.0
    j = 0
    for r in GRID:
        while j < len(recalls) and recalls[j] < r:
            j += 1
        total += envelope[j] if j < len(recalls) else 0.0
    return total / len(GRID)


def reference_sap_report(pairings, gts_by_frame, max_dets_per_frame=None):
    """The scalar evaluator the package's matrix engine replaced, kept as a
    bit-exact reference: scalar IoU per (detection, ground truth, threshold),
    one greedy match per threshold, AP recomputed per report field.
    Returns a `longshort.metrics.SapReport`."""
    from longshort.metrics import SapReport

    ranges = [RANGES[name] for name in ("all", "small", "medium", "large")]
    categories = sorted({g.category for gts in gts_by_frame for g in gts})
    frame_dets = []
    for p in pairings:
        dets = tuple(p.paired_record.detections) if p.paired_record is not None else ()
        if max_dets_per_frame is not None and len(dets) > max_dets_per_frame:
            keep = sorted(range(len(dets)), key=lambda i: -dets[i].score)[:max_dets_per_frame]
            dets = tuple(dets[i] for i in sorted(keep))
        frame_dets.append((p.query_frame_index, dets))
    matches = {}
    for cat in categories:
        for thr in IOU_THRS:
            per_frame = []
            for q, dets in frame_dets:
                dets_c = [d for d in dets if d.category == cat]
                gts_c = [g for g in gts_by_frame[q] if g.category == cat]
                per_frame.append((dets_c, gts_c, _ref_match(dets_c, gts_c, thr)))
            matches[(cat, thr)] = per_frame

    def mean_ap(thrs, area_range):
        per_thr = []
        for thr in thrs:
            vals = [ap for cat in categories
                    if (ap := _ref_ap(matches[(cat, thr)], area_range)) is not None]
            if vals:
                per_thr.append(sum(vals) / len(vals))
        return sum(per_thr) / len(per_thr) if per_thr else None

    sap = mean_ap(IOU_THRS, ranges[0])
    if sap is None:
        raise ValueError("no ground truth supplied; the report is undefined")
    per_category = {}
    for cat in categories:
        vals = [_ref_ap(matches[(cat, thr)], ranges[0]) for thr in IOU_THRS]
        per_category[cat] = sum(vals) / len(vals)
    return SapReport(
        sap=sap,
        sap50=mean_ap([0.50], ranges[0]),
        sap75=mean_ap([0.75], ranges[0]),
        sap_small=mean_ap(IOU_THRS, ranges[1]),
        sap_medium=mean_ap(IOU_THRS, ranges[2]),
        sap_large=mean_ap(IOU_THRS, ranges[3]),
        per_category=per_category,
    )


# ------------------------------------------------ concatenating fusion kernel


def reference_fuse_projected(cfg, w, current, projected_current, projected_history):
    """The fuse_projected() that the package's copy-free kernel replaced,
    kept as a bit-exact reference: each branch is its own array, joined by
    np.concatenate, with the bias and the residual added out of place and
    the EfAvg/EfDil sums taken with the builtin sum()."""
    import numpy as np

    from longshort.fusion import FusionVariant, plan_channels
    from longshort.tensor import project_1x1

    if cfg.variant is FusionVariant.EF_AVG:
        return sum(projected_history, current)

    plan = plan_channels(cfg)
    parts = []
    if cfg.variant is FusionVariant.EF_DIL:
        if plan.short_out > 0:
            parts.append(project_1x1(current, w.short_proj))
        if plan.long_out > 0:
            parts.append(sum(projected_history[1:], projected_history[0]))
    elif cfg.variant is FusionVariant.LF_AVG:
        if plan.short_out > 0:
            parts.append(projected_current)
            parts.extend(projected_history)
    else:  # LF_DIL
        if plan.short_out > 0:
            parts.append(project_1x1(current, w.short_proj))
        if plan.long_out > 0:
            parts.extend(projected_history)

    if parts:
        fused = np.concatenate(parts, axis=0)
        if plan.needs_output_projection:
            fused = project_1x1(fused, w.output_proj)
    else:
        fused = np.zeros((cfg.d, *current.shape[1:]))
    if cfg.residual:
        fused = fused + current
    return fused


# ------------------------------------------------------ per-track forecaster


def reference_forecast_detect(gts_by_frame, n_history, delta_t, forecast_steps) -> list:
    """The per-track ForecastDetector that the batched fit replaced, kept as
    a bit-exact reference: a (track, frame) -> box dict, and one np.polyfit
    per track per frame.  Returns every frame's detections, frame by frame."""
    import numpy as np

    from longshort.boxes import Detection

    track_boxes = {(g.track_id, g.frame_index): g.bbox for gts in gts_by_frame for g in gts}
    out = []
    for k, gts in enumerate(gts_by_frame):
        dets = []
        for g in gts:
            samples = []
            for i in range(n_history, -1, -1):  # oldest first for the fit
                box = track_boxes.get((g.track_id, k - i * delta_t))
                if box is not None:
                    samples.append((k - i * delta_t, box))
            if n_history == 0 or len(samples) < 2 or forecast_steps == 0:
                box = g.bbox
            else:
                ks = np.array([idx for idx, _ in samples], dtype=np.float64)
                coords = np.array([b.as_tuple() for _, b in samples])
                fit = np.polyfit(ks, coords, min(2, len(samples) - 1))
                x_min, y_min, x_max, y_max = np.polyval(fit, k + forecast_steps).tolist()
                if x_min > x_max or y_min > y_max:
                    continue
                box = BBox(x_min, y_min, x_max, y_max)
            dets.append(Detection(bbox=box, category=g.category, score=1.0))
        out.append(dets)
    return out


# ---------------------------------------------------------------- scenes


def reference_scene_ground_truth(scene) -> list:
    """The frame-by-frame scene walk that the vectorized one replaced, kept
    as a bit-exact reference: each trajectory's box displaced, rotated and
    clipped in Python floats.  Returns every frame's GroundTruthBox list."""
    import math

    from longshort.boxes import GroundTruthBox

    out = []
    for k in range(scene.n_frames):
        gts = []
        for i, traj in enumerate(scene.trajectories):
            if traj.occlusion_window is not None and traj.occlusion_window[0] <= k <= traj.occlusion_window[1]:
                continue
            (vx, vy), (ax, ay) = traj.velocity, traj.acceleration
            dx = vx * k + 0.5 * ax * k * k
            dy = vy * k + 0.5 * ay * k * k
            if traj.turn_rate != 0.0:
                c, s = math.cos(traj.turn_rate * k), math.sin(traj.turn_rate * k)
                dx, dy = c * dx - s * dy, s * dx + c * dy
            b = traj.initial_bbox
            x0, y0 = max(b.x_min + dx, 0.0), max(b.y_min + dy, 0.0)
            x1, y1 = min(b.x_max + dx, float(scene.width)), min(b.y_max + dy, float(scene.height))
            if x0 < x1 and y0 < y1:
                track = i if traj.track_id is None else traj.track_id
                gts.append(GroundTruthBox(BBox(x0, y0, x1, y1), traj.category, track, k))
        out.append(gts)
    return out


# --------------------------------------------------------- forecast fits


class SingularFit(ValueError):
    """Polynomial fit received duplicate frame indices."""


def const_velocity_forecast(box_prev: BBox, box_curr: BBox, steps: int) -> BBox:
    """Extrapolate each corner coordinate: out = curr + steps * (curr - prev)."""
    p, c = box_prev.as_tuple(), box_curr.as_tuple()
    return BBox(*(ci + steps * (ci - pi) for pi, ci in zip(p, c)))


def long_short_forecast(history, target_index: int) -> BBox:
    """Fit each corner coordinate of the (frame index, BBox) history by
    least squares over the frame index and evaluate at target_index.

    Degree is min(2, len(history) - 1): two samples reproduce the
    constant-velocity extrapolation exactly, three or more capture
    acceleration.  Accepts any history length >= 2.  Raises ValueError when
    the forecast corners cross (a shrinking box extrapolated inside out).
    """
    import numpy as np

    if len(history) < 2:
        raise ValueError(f"need at least 2 samples, got {len(history)}")
    indices = [idx for idx, _ in history]
    if len(set(indices)) != len(indices):
        raise SingularFit(f"frame indices must be distinct, got {indices}")
    coords = np.array([b.as_tuple() for _, b in history], dtype=np.float64)
    fit = np.polyfit(np.array(indices, dtype=np.float64), coords, min(2, len(history) - 1))
    return BBox(*np.polyval(fit, target_index).tolist())


# -------------------------------------------------------------- blob head


def reference_blob_detect(saliency, threshold: float, category: int, rate: int) -> list:
    """The BlobHead decoder that the find_objects one replaced, kept as a
    bit-exact reference: one np.nonzero(labels == lab) scan of the whole
    map per blob.  Returns the Detection of each blob in label order."""
    import numpy as np
    from scipy import ndimage

    from longshort.boxes import Detection

    labels, count = ndimage.label(saliency > threshold)
    dets = []
    for lab in range(1, count + 1):
        rows, cols = np.nonzero(labels == lab)
        box = BBox(
            x_min=float(cols.min() * rate),
            y_min=float(rows.min() * rate),
            x_max=float((cols.max() + 1) * rate),
            y_max=float((rows.max() + 1) * rate),
        )
        score = float(min(1.0, max(0.0, saliency[rows, cols].mean())))
        dets.append(Detection(bbox=box, category=category, score=score))
    return dets
