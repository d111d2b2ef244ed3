import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from longshort import metrics
from longshort.detectors import DelayedGtDetector
from longshort.metrics import (
    AREA_ALL,
    AREA_RANGES,
    AREA_SMALL,
    IOU_THRESHOLDS,
    SapReport,
    _ap_table,
    _iou_matrix,
    _match_pooled,
    compute_sap_report,
    report_to_csv,
    report_to_csv_row,
    report_to_human_table,
    report_to_text,
)
from longshort.scenarios import (
    SyntheticScene,
    TrajectoryKind,
    TrajectorySpec,
    bundled_scene,
    generate_scenario,
)
from longshort.streaming import EvalPairing, PredictionRecord
from oracles import (
    BBox,
    Detection,
    GroundTruthBox,
    _ref_ap,
    detection_table,
    grid_count_iou,
    ground_truth_table,
    objects,
    oracle_greedy_match,
    oracle_sap_report,
    reference_sap_report,
)


def gt(x0, y0, x1, y1, cat=0, track=0, frame=0):
    return GroundTruthBox(BBox(x0, y0, x1, y1), category=cat, track_id=track, frame_index=frame)


def det(x0, y0, x1, y1, score=1.0, cat=0):
    return Detection(BBox(x0, y0, x1, y1), category=cat, score=score)


def shifted(box, dx):
    return BBox(box.x_min + dx, box.y_min + 0.0, box.x_max + dx, box.y_max + 0.0)


def pairings_from_dets(det_lists):
    """Wrap per-frame detections (a table or a list) as identity pairings."""
    out = []
    for k, dets in enumerate(det_lists):
        rec = PredictionRecord(k, k * 33.33, k * 33.33, detection_table(dets))
        out.append(EvalPairing(k, rec))
    return out


def tables(gts):
    """One ground-truth table per frame of boxes (or of a table)."""
    return [ground_truth_table(frame) for frame in gts]


def report_via(det_lists, gts):
    return compute_sap_report(pairings_from_dets(det_lists), tables(gts))


def scene_gts(scene):
    return [gts for _, gts in generate_scenario(scene)]


def uniform_scene_gts(v=(5.0, 0.0), n=10, box=(0, 0, 20, 20), width=400, height=200):
    traj = TrajectorySpec(TrajectoryKind.UNIFORM, box, velocity=v)
    return scene_gts(SyntheticScene(n, 33.33, width, height, (traj,)))


# ------------------------------------------------------------ _iou_matrix


def _corners(boxes):
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def test_iou_identity_and_disjoint():
    a = BBox(0, 0, 2, 2)
    got = _iou_matrix(_corners([a]), _corners([a, BBox(5, 5, 7, 7)]))
    assert got.tolist() == [[1.0, 0.0]]


def test_iou_partial_overlap_matches_grid_counting_oracle():
    a, b = BBox(0, 0, 2, 2), BBox(1, 0, 3, 2)
    assert _iou_matrix(_corners([a]), _corners([b]))[0, 0] == pytest.approx(1 / 3, abs=1e-12)
    assert grid_count_iou(a, b) == pytest.approx(1 / 3, abs=1e-9)


def test_iou_degenerate_union():
    z = _corners([BBox(1, 1, 1, 1)])
    assert _iou_matrix(z, z)[0, 0] == 0.0


# ---------------------------------------------------------- _match_pooled


def _greedy_match(dets, gts, thrs):
    """(T, D) ground-truth index taken by each detection of one frame."""
    d, g = detection_table(dets), ground_truth_table(gts)
    return _match_pooled(d.boxes, d.score, np.zeros(len(d), int), g.boxes, np.zeros(len(g), int), thrs)


def match_at(dets, gts, thr):
    """Ground-truth index taken by each detection at one threshold, or None."""
    return [None if j < 0 else j for j in _greedy_match(dets, gts, np.array([thr]))[0].tolist()]


def test_single_exact_detection_matches_at_every_threshold():
    gts = [gt(0, 0, 10, 10)]
    dets = [det(0, 0, 10, 10, score=0.7)]
    assert _greedy_match(dets, gts, np.array(IOU_THRESHOLDS)).tolist() == [[0]] * len(IOU_THRESHOLDS)


def test_duplicate_detections_only_best_scorer_matches():
    gts = [gt(0, 0, 10, 10)]
    dets = [det(0, 0, 10, 10, score=0.4), det(0, 0, 10, 10, score=0.9)]
    assert match_at(dets, gts, 0.5) == [None, 0]  # higher scorer wins, the other is a false positive


def test_score_ties_resolve_by_insertion_order():
    gts = [gt(0, 0, 10, 10)]
    dets = [det(0, 0, 10, 10, score=0.5), det(0, 0, 10, 10, score=0.5)]
    assert match_at(dets, gts, 0.5) == [0, None]


def test_gt_ties_resolve_by_lowest_index():
    gts = [gt(0, 0, 10, 10), gt(0, 0, 10, 10)]
    assert match_at([det(0, 0, 10, 10)], gts, 0.5) == [0]


def test_match_agrees_with_exhaustive_oracle_on_random_frames():
    rng = np.random.default_rng(17)
    thrs = np.array(IOU_THRESHOLDS)
    for trial in range(30):
        gts = []
        for j in range(3):
            x, y = rng.uniform(0, 60, 2)
            w, h = rng.uniform(5, 25, 2)
            gts.append(gt(x, y, x + w, y + h, track=j))
        dets = []
        for _ in range(5):
            x, y = rng.uniform(0, 60, 2)
            w, h = rng.uniform(5, 25, 2)
            dets.append(det(x, y, x + w, y + h, score=float(rng.uniform(0, 1))))
        got = _greedy_match(dets, gts, thrs)
        for thr, row in zip(IOU_THRESHOLDS, got.tolist()):
            want = oracle_greedy_match(dets, gts, thr)
            assert [None if j < 0 else j for j in row] == want, (trial, thr)


# -------------------------------------------------------------- _ap_table


def ap_at(dets, gts, thr=0.5, area_range=AREA_ALL):
    """One frame's AP at one threshold and area range."""
    matched = _greedy_match(dets, gts, np.array([thr]))
    return _ap_table([d.score for d in dets], matched, [g.area for g in gts], [area_range])[0][0]


def test_ap_single_true_positive_is_one():
    assert ap_at([det(0, 0, 10, 10, 0.8)], [gt(0, 0, 10, 10)]) == 1.0


def test_ap_false_positive_above_true_positive_halves():
    gts = [gt(0, 0, 10, 10)]
    dets = [det(50, 50, 60, 60, score=0.9), det(0, 0, 10, 10, score=0.5)]
    assert ap_at(dets, gts) == pytest.approx(0.5, abs=1e-12)


def test_ap_no_detections_is_zero_and_no_gt_is_undefined():
    assert ap_at([], [gt(0, 0, 10, 10)]) == 0.0
    assert ap_at([det(0, 0, 10, 10)], []) is None


def test_ap_ignores_gt_outside_area_range():
    # one small (8x8=64) and one large GT; dets on both
    gts = [gt(0, 0, 8, 8), gt(100, 100, 200, 200)]
    dets = [det(0, 0, 8, 8, 0.9), det(100, 100, 200, 200, 0.8)]
    # small split: the large-GT detection is neither TP nor FP
    assert ap_at(dets, gts, area_range=AREA_SMALL) == 1.0


def test_ap_table_is_bit_identical_to_the_scalar_reference_row_by_row():
    # One category's whole (range, threshold) table against the scalar
    # evaluator's AP, one row at a time: score ties, detections matched to
    # ground truth outside a range, rows with no detection kept, ground-truth
    # counts that put recall exactly on the 101-point grid, and long pools.
    rng = np.random.default_rng(13)
    seen = Counter()
    for trial in range(300):
        n = int(rng.choice([0, 1, 5, 40, 400]))
        m = int(rng.choice([0, 1, 7, 50, 100]))
        scores = (rng.choice([0.2, 0.5, 0.9], n) if trial % 2 else rng.uniform(0, 1, n)).tolist()
        areas = rng.choice([100.0, 1024.0, 5000.0, 9216.0, 20000.0], m).tolist()
        matched = np.full((len(IOU_THRESHOLDS), n), -1)
        for row in matched:
            k = int(rng.integers(0, min(n, m) + 1))
            row[rng.choice(n, k, replace=False)] = rng.choice(m, k, replace=False)
        dets = [Detection(BBox(0, 0, 1, 1), category=0, score=s) for s in scores]
        gts = [GroundTruthBox(BBox(0, 0, 1, 1), category=0, track_id=0, frame_index=0, area=a) for a in areas]
        want = [[_ref_ap([(dets, gts, [None if j < 0 else j for j in row.tolist()])], area) for row in matched]
                for area in AREA_RANGES]
        got = _ap_table(np.array(scores), matched, np.array(areas), AREA_RANGES)
        assert repr(got) == repr(want), trial
        seen.update(none=any(r[0] is None for r in got), long=n == 400, grid=m in (50, 100) and n >= 40)
    assert all(seen[k] > 0 for k in ("none", "long", "grid"))


# ------------------------------------------------------ compute_sap_report


def test_zero_latency_oracle_scores_perfectly():
    gts = scene_gts(bundled_scene("uniform"))
    detector = DelayedGtDetector(gts, 0)
    report = report_via([detector(k) for k in range(len(gts))], gts)
    assert report.sap == report.sap50 == report.sap75 == 1.0
    assert report.sap_small == report.sap_medium == report.sap_large == 1.0
    assert all(v == 1.0 for v in report.per_category.values())


def test_static_scene_is_insensitive_to_detector_staleness():
    gts = uniform_scene_gts(v=(0.0, 0.0))
    detector = DelayedGtDetector(gts, 1)
    report = report_via([detector(k) for k in range(len(gts))], gts)
    assert report.sap == 1.0


def test_report_agrees_with_independent_evaluator_on_moving_scene():
    gts = uniform_scene_gts(v=(5.0, 0.0), box=(0, 0, 20, 20))
    detector = DelayedGtDetector(gts, 1)
    det_lists = [detector(k) for k in range(len(gts))]
    report = report_via(det_lists, gts)
    want = oracle_sap_report(det_lists, gts)
    assert report.sap == pytest.approx(want["sAP"], abs=1e-9)
    assert report.sap50 == pytest.approx(want["sAP50"], abs=1e-9)
    assert report.sap75 == pytest.approx(want["sAP75"], abs=1e-9)


def test_report_agrees_with_independent_evaluator_on_random_scenes():
    rng = np.random.default_rng(23)
    for trial in range(10):
        n_frames = int(rng.integers(1, 6))
        gts, det_lists = [], []
        for k in range(n_frames):
            frame_gts, frame_dets = [], []
            for j in range(int(rng.integers(0, 7))):
                x, y = rng.uniform(0, 150, 2)
                w, h = rng.uniform(4, 110, 2)
                frame_gts.append(gt(x, y, x + w, y + h, cat=int(rng.integers(0, 3)), track=j, frame=k))
            for _ in range(int(rng.integers(0, 7))):
                x, y = rng.uniform(0, 150, 2)
                w, h = rng.uniform(4, 110, 2)
                frame_dets.append(
                    det(x, y, x + w, y + h, score=float(rng.uniform(0, 1)), cat=int(rng.integers(0, 3)))
                )
            gts.append(frame_gts)
            det_lists.append(frame_dets)
        if not any(gts):
            continue
        report = report_via(det_lists, gts)
        want = oracle_sap_report(det_lists, gts)
        for got_v, want_v in [
            (report.sap, want["sAP"]),
            (report.sap50, want["sAP50"]),
            (report.sap75, want["sAP75"]),
            (report.sap_small, want["small"]),
            (report.sap_medium, want["medium"]),
            (report.sap_large, want["large"]),
        ]:
            if want_v is None:
                assert got_v is None
            else:
                assert got_v == pytest.approx(want_v, abs=1e-9), trial
        for cat, ap in report.per_category.items():
            assert ap == pytest.approx(want["per_category"][cat], abs=1e-9)


def random_eval_scene(rng, max_frames=7):
    """Pairings, ground truth and a detection cap drawn to hit the matcher's
    corner cases: duplicate boxes (IoU ties), equal scores, 1-3 categories
    (one of them possibly never detected), empty frames, frames with no
    completed record, and integer corners that make overlaps coincide."""
    n_cats = int(rng.integers(1, 4))
    undetected = n_cats - 1 if n_cats > 1 and rng.random() < 0.5 else None
    snap = rng.random() < 0.5

    def box():
        x, y = rng.uniform(0, 200, 2)
        w, h = rng.uniform(4, 130, 2)
        c = [x, y, x + w, y + h]
        return [float(round(v)) for v in c] if snap else c

    gts, pairings = [], []
    for k in range(int(rng.integers(1, max_frames + 1))):
        frame_gts, frame_dets = [], []
        if rng.random() >= 0.2:  # otherwise an empty frame
            for j in range(int(rng.integers(0, 8))):
                frame_gts.append(gt(*box(), cat=int(rng.integers(0, n_cats)), track=j, frame=k))
            if frame_gts and rng.random() < 0.3:  # same box twice, annotated area possibly differing
                g = frame_gts[int(rng.integers(len(frame_gts)))]
                area = float(rng.uniform(1, 12000)) if rng.random() < 0.5 else -1.0
                frame_gts.append(GroundTruthBox(g.bbox, g.category, len(frame_gts), k, area))
            for g in frame_gts:
                if g.category == undetected or rng.random() < 0.3:
                    continue
                corners = np.array(g.bbox.as_tuple()) + rng.integers(-4, 5, 4)
                x0, x1 = sorted(corners[0::2])
                y0, y1 = sorted(corners[1::2])
                score = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
                frame_dets.append(det(x0, y0, x1, y1, score=score, cat=g.category))
            if frame_gts and frame_gts[0].category != undetected and rng.random() < 0.3:
                # a detection halfway between two ground truths ties on IoU; a
                # lower-scored one on the second shows which of them it took
                g = frame_gts[0]
                step = float(rng.integers(1, 4))
                twin = shifted(g.bbox, 2 * step)
                frame_gts.append(GroundTruthBox(twin, g.category, len(frame_gts), k))
                frame_dets.append(Detection(shifted(g.bbox, step), g.category, 1.0))
                frame_dets.append(Detection(twin, g.category, 0.5))
            for _ in range(int(rng.integers(0, 4))):
                cats = [c for c in range(n_cats) if c != undetected]
                frame_dets.append(det(*box(), score=float(rng.uniform(0, 1)), cat=int(rng.choice(cats))))
            if frame_dets and rng.random() < 0.4:
                frame_dets.append(frame_dets[int(rng.integers(len(frame_dets)))])
        gts.append(frame_gts)
        record = None if rng.random() < 0.1 else PredictionRecord(k, k * 33.33, k * 33.33, detection_table(frame_dets))
        pairings.append(EvalPairing(k, record))
    if not any(gts):
        gts[0].append(gt(*box(), cat=0, frame=0))
    cap = None if rng.random() < 0.5 else int(rng.integers(1, 6))
    return pairings, gts, cap


def test_report_text_is_byte_identical_to_scalar_reference_engine():
    rng = np.random.default_rng(2020)
    for trial in range(200):
        pairings, gts, cap = random_eval_scene(rng)
        got = report_to_text(compute_sap_report(pairings, tables(gts), max_dets_per_frame=cap))
        assert got == report_to_text(reference_sap_report(pairings, gts, max_dets_per_frame=cap)), trial


def oracle_report(pairings, gts, cap) -> SapReport:
    """oracle_sap_report of the detections each query frame is scored with:
    the record's, the cap's top scorers in record order, none if unpaired."""
    det_lists = []
    for p in pairings:
        dets = objects(p.paired_record.detections) if p.paired_record is not None else []
        if cap is not None and len(dets) > cap:
            dets = [dets[i] for i in sorted(sorted(range(len(dets)), key=lambda i: -dets[i].score)[:cap])]
        det_lists.append(dets)
    want = oracle_sap_report(det_lists, gts)
    return SapReport(want["sAP"], want["sAP50"], want["sAP75"], want["small"], want["medium"], want["large"],
                     want["per_category"])


@pytest.mark.parametrize("block_cells", [None, 1])
def test_batched_report_is_byte_identical_to_both_scalar_references(monkeypatch, block_cells):
    # Many frames per report, so one greedy walk matches every frame of a
    # category at once; block_cells=1 makes each frame its own chunk.
    if block_cells is not None:
        monkeypatch.setattr(metrics, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(2024)
    seen = Counter()
    for trial in range(25):
        pairings, gts, cap = random_eval_scene(rng, max_frames=30)
        got = report_to_text(compute_sap_report(pairings, tables(gts), max_dets_per_frame=cap))
        assert got == report_to_text(reference_sap_report(pairings, gts, max_dets_per_frame=cap)), trial
        assert got == report_to_text(oracle_report(pairings, gts, cap)), trial
        cats = {g.category for frame in gts for g in frame}
        for p, frame in zip(pairings, gts):
            dets = objects(p.paired_record.detections) if p.paired_record is not None else []
            boxes = [d.bbox for d in dets] + [g.bbox for g in frame]
            seen.update(frames=1, empty=not frame, unpaired=p.paired_record is None,
                        capped=cap is not None and len(dets) > cap,
                        same_box=len(set(boxes)) < len(boxes),
                        same_score=len({d.score for d in dets}) < len(dets),
                        missing_category=bool(frame) and {g.category for g in frame} != cats)
    assert seen["frames"] >= 200
    assert all(seen[k] > 0 for k in ("empty", "unpaired", "capped", "same_box", "same_score", "missing_category"))


def test_sap50_always_upper_bounds_sap():
    # AP is non-increasing in the IoU threshold, so the 0.50 number bounds
    # the 10-threshold mean from above.  This direction is a theorem.
    for name in ("uniform", "accelerating", "mixed"):
        gts = scene_gts(bundled_scene(name))
        for latency in (0, 1, 2, 3):
            detector = DelayedGtDetector(gts, latency)
            report = report_via([detector(k) for k in range(len(gts))], gts)
            assert report.sap50 >= report.sap


def test_threshold_ordering_with_spread_ious():
    # With overlap quality spread across the threshold range the familiar
    # sAP50 >= sAP >= sAP75 ordering holds.
    for name, latency in (("uniform", 2), ("accelerating", 1), ("accelerating", 2), ("mixed", 2)):
        gts = scene_gts(bundled_scene(name))
        detector = DelayedGtDetector(gts, latency)
        report = report_via([detector(k) for k in range(len(gts))], gts)
        assert report.sap50 >= report.sap >= report.sap75, (name, latency)


def test_sap75_can_exceed_sap_when_ious_cluster_above_075():
    # Deliberate counterexample to "sAP >= sAP75 always": every overlap on
    # this scene at staleness 1 lies in (0.75, 0.97), so the 0.75 threshold
    # scores perfectly while the stricter thresholds drag the mean down.
    gts = scene_gts(bundled_scene("uniform"))
    detector = DelayedGtDetector(gts, 1)
    report = report_via([detector(k) for k in range(len(gts))], gts)
    assert report.sap75 == 1.0
    assert report.sap75 > report.sap


def test_delayed_gt_sap_non_increasing_in_latency():
    gts = uniform_scene_gts(v=(5.0, 0.0))
    values = []
    for latency in range(6):
        detector = DelayedGtDetector(gts, latency)
        values.append(report_via([detector(k) for k in range(len(gts))], gts).sap)
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_score_scaling_leaves_report_unchanged():
    gts = uniform_scene_gts(v=(3.0, 1.0), height=300)
    rng = np.random.default_rng(29)
    det_lists = [
        [det(g.bbox.x_min + 1, g.bbox.y_min, g.bbox.x_max + 1, g.bbox.y_max, score=float(rng.uniform(0.2, 1.0)))
         for g in objects(frame)]
        for frame in gts
    ]
    scaled = [[Detection(d.bbox, d.category, d.score * 0.5) for d in frame] for frame in det_lists]
    assert report_via(det_lists, gts) == report_via(scaled, gts)


def test_duplicate_detection_never_improves_ap():
    gts = uniform_scene_gts(v=(2.0, 0.0))
    detector = DelayedGtDetector(gts, 1)
    det_lists = [detector(k) for k in range(len(gts))]
    base = report_via(det_lists, gts)
    dup_lists = [objects(frame) + objects(frame)[:1] for frame in det_lists]
    dup = report_via(dup_lists, gts)
    assert dup.sap <= base.sap
    assert dup.sap50 <= base.sap50
    assert dup.sap75 <= base.sap75


def test_max_detections_cap():
    gts = [[gt(0, 0, 10, 10)]]
    dets = [[det(0, 0, 10, 10, score=0.3)] + [det(40, 40, 50, 50, score=0.9)] * 3]
    capped = compute_sap_report(pairings_from_dets(dets), tables(gts), max_dets_per_frame=2)
    # the low-scoring true positive is dropped by the cap
    assert capped.sap == 0.0
    uncapped = compute_sap_report(pairings_from_dets(dets), tables(gts))
    assert uncapped.sap > 0.0


def test_empty_pairing_counts_as_no_detections():
    gts = [[gt(0, 0, 10, 10)], [gt(0, 0, 10, 10)]]
    pairings = [EvalPairing(0, None), pairings_from_dets([[], [det(0, 0, 10, 10)]])[1]]
    report = compute_sap_report(pairings, tables(gts))
    assert report.sap == pytest.approx(0.5, abs=1e-2)  # one of two GTs covered


def test_a_category_only_in_frames_no_pairing_queries_is_not_scored():
    gts = [[gt(0, 0, 10, 10, cat=0)], [gt(0, 0, 10, 10, cat=1, frame=1)]]
    report = compute_sap_report(pairings_from_dets([[det(0, 0, 10, 10, cat=0)]]), tables(gts))
    assert report.sap == 1.0
    assert report.per_category == {0: 1.0}


# ----------------------------------------------------------- serialization


def test_report_csv_and_table_columns():
    gts = uniform_scene_gts()
    detector = DelayedGtDetector(gts, 1)
    report = report_via([detector(k) for k in range(len(gts))], gts)
    header, row = report_to_csv(report).splitlines()
    assert header == "sAP,sAP50,sAP75,sAP_s,sAP_m,sAP_l"
    assert row == report_to_csv_row(report) and len(row.split(",")) == 6
    table = report_to_human_table(report)
    assert table.splitlines()[0].split(" | ")[0].strip() == "sAP"


# ------------------------------------------------------------ README example


def test_readme_library_example_scores_one():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = [block for block in re.findall(r"```python\n(.*?)```", readme, re.S) if "compute_sap_report(" in block]
    namespace = {}
    exec(example, namespace)
    assert namespace["report"].sap == 1.0
    assert list(namespace["record"].detections) == [((0.0, 0.0, 10.0, 10.0), 0, 0.9)]
