import tracemalloc

import numpy as np
import pytest

from longshort.cli import main
from longshort.detectors import ForecastDetector
from longshort.config import RunConfig, run_config_from_dict
from longshort.fusion import InvalidConfig
from longshort.metrics import _iou_matrix
from longshort.runner import RunData, build_run_data, make_detector, run_eval
from longshort.scenarios import (
    SyntheticScene,
    TrajectoryKind,
    TrajectorySpec,
    bundled_scene,
    bundled_scene_names,
    generate_scenario,
)
from oracles import (
    BBox,
    GroundTruthBox,
    SingularFit,
    const_velocity_forecast,
    ground_truth_table,
    long_short_forecast,
    objects,
    reference_delayed_gt,
    reference_forecast_detect,
)


def scene_gts(scene):
    return [gts for _, gts in generate_scenario(scene)]


def uniform_gts(v=(5.0, 0.0), n=10, box=(0, 0, 10, 10), width=400, height=100):
    traj = TrajectorySpec(TrajectoryKind.UNIFORM, box, velocity=v)
    return scene_gts(SyntheticScene(n, 33.33, width, height, (traj,)))


def shifted(box, dx, dy):
    return BBox(box.x_min + dx, box.y_min + dy, box.x_max + dx, box.y_max + dy)


def delayed_gt(gts, latency_frames):
    """make_detector's delayed-gt detector over the frames `gts`."""
    cfg = RunConfig(detector_params={"latency_frames": latency_frames})
    return make_detector(cfg, RunData((), tuple(gts), None))


# ------------------------------------------------------------ delayed gt

LAGS = (0, 1, 2, 5, 2**63 - 1)


def test_delayed_gt_zero_latency_is_identity():
    gts = uniform_gts()
    detector = delayed_gt(gts, latency_frames=0)
    for k in range(len(gts)):
        dets = objects(detector(k))
        assert [d.bbox for d in dets] == [g.bbox for g in objects(gts[k])]
        assert all(d.score == 1.0 for d in dets)


def test_delayed_gt_clamps_at_stream_start():
    gts = uniform_gts()
    dets = objects(delayed_gt(gts, latency_frames=2)(1))
    assert [d.bbox for d in dets] == [g.bbox for g in objects(gts[0])]


def test_delayed_gt_offset_matches_kinematics():
    gts = uniform_gts(v=(5.0, 0.0))
    detector = delayed_gt(gts, latency_frames=1)
    for k in range(1, len(gts)):
        (det,), (truth,) = objects(detector(k)), objects(gts[k])
        assert det.bbox.x_min == truth.bbox.x_min - 5.0
        assert det.bbox.y_min == truth.bbox.y_min


# ------------------------------------------------------- const velocity


def test_const_velocity_zero_motion():
    b = BBox(3, 4, 13, 24)
    assert const_velocity_forecast(b, b, 5) == b


def test_const_velocity_linear_step():
    out = const_velocity_forecast(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10), 1)
    assert out.as_tuple() == (10.0, 0.0, 20.0, 10.0)


def test_const_velocity_undershoots_quadratic_motion():
    # x(k) = k^2 sampled at k=2,3: prediction 14 vs true 16
    prev = BBox(4, 0, 14, 10)
    curr = BBox(9, 0, 19, 10)
    out = const_velocity_forecast(prev, curr, 1)
    assert out.x_min == 14.0
    assert 16.0 - out.x_min == 2.0


# ------------------------------------------------------------ long short


def test_long_short_constant_history():
    b = BBox(2, 2, 8, 8)
    hist = [(k, b) for k in range(4)]
    out = long_short_forecast(hist, 10)
    assert np.allclose(out.as_tuple(), b.as_tuple(), atol=1e-9)


def test_long_short_on_linear_history_equals_const_velocity():
    for n in (1, 2, 3, 4):
        hist = [(k, BBox(5.0 * k, 2.0 * k, 10 + 5.0 * k, 10 + 2.0 * k)) for k in range(n + 1)]
        target = n + 3
        got = long_short_forecast(hist, target)
        cv = const_velocity_forecast(hist[-2][1], hist[-1][1], target - n)
        assert np.allclose(got.as_tuple(), cv.as_tuple(), atol=1e-8)


def test_long_short_exact_on_quadratic():
    hist = [(k, BBox(k * k, 0, k * k + 10, 10)) for k in range(4)]
    out = long_short_forecast(hist, 4)
    assert np.allclose(out.x_min, 16.0, atol=1e-9)
    assert np.allclose(out.x_max, 26.0, atol=1e-9)


def test_long_short_two_samples_degenerates_to_const_velocity():
    prev, curr = BBox(0, 0, 10, 10), BBox(7, -2, 17, 8)
    got = long_short_forecast([(4, prev), (5, curr)], 6)
    want = const_velocity_forecast(prev, curr, 1)
    assert np.allclose(got.as_tuple(), want.as_tuple(), atol=1e-9)


def test_long_short_rejects_duplicate_indices():
    b = BBox(0, 0, 1, 1)
    with pytest.raises(SingularFit):
        long_short_forecast([(1, b), (1, b), (2, b)], 3)
    with pytest.raises(ValueError):
        long_short_forecast([(1, b)], 2)


def test_forecasters_are_translation_equivariant():
    rng = np.random.default_rng(31)
    for _ in range(10):
        xs = rng.uniform(0, 50, size=4)
        hist = [(k, BBox(x, x / 2, x + 10, x / 2 + 8)) for k, x in enumerate(xs)]
        dx, dy = rng.uniform(-20, 20, size=2)
        moved = [(k, shifted(b, dx, dy)) for k, b in hist]
        a = long_short_forecast(hist, 6)
        b = long_short_forecast(moved, 6)
        assert np.allclose(b.as_tuple(), shifted(a, dx, dy).as_tuple(), atol=1e-7)
    a = const_velocity_forecast(BBox(0, 0, 4, 4), BBox(2, 1, 6, 5), 2)
    b = const_velocity_forecast(BBox(3, 5, 7, 9), BBox(5, 6, 9, 10), 2)
    assert b.as_tuple() == shifted(a, 3, 5).as_tuple()


def test_long_history_beats_short_on_accelerating_tracks():
    scene = bundled_scene("accelerating")
    gts = scene_gts(scene)
    track = {g.frame_index: g.bbox for frame in gts for g in objects(frame)}
    cv, ls, truth = [], [], []
    for k in range(4, scene.n_frames - 1):
        truth.append(track[k + 1])
        cv.append(const_velocity_forecast(track[k - 1], track[k], 1))
        ls.append(long_short_forecast([(i, track[i]) for i in range(k - 3, k + 1)], k + 1))
    def corners(boxes):
        return np.array([b.as_tuple() for b in boxes])

    ious_cv = np.diag(_iou_matrix(corners(cv), corners(truth)))
    ious_ls = np.diag(_iou_matrix(corners(ls), corners(truth)))
    assert np.mean(ious_ls) > np.mean(ious_cv)


# ---------------------------------------------------- streaming wrappers


def test_forecast_detector_with_one_history_matches_const_velocity_op():
    gts = uniform_gts(v=(3.0, 1.0), n=8, width=400, height=200)
    det = ForecastDetector(gts, n_history=1, delta_t=1, forecast_steps=2)
    for k in range(1, 7):
        (got,), (prev,), (curr,) = (objects(boxes) for boxes in (det(k), gts[k - 1], gts[k]))
        want = const_velocity_forecast(prev.bbox, curr.bbox, 2)
        assert np.allclose(got.bbox.as_tuple(), want.as_tuple(), atol=1e-8)


def test_forecast_detector_holds_without_history():
    gts = uniform_gts()
    det = ForecastDetector(gts, n_history=0, delta_t=1, forecast_steps=0)
    for k in range(len(gts)):
        assert [d.bbox for d in objects(det(k))] == [g.bbox for g in objects(gts[k])]


def test_forecast_window_longer_than_the_stream_stops_at_frame_0():
    gts = scene_gts(bundled_scene("mixed"))

    def tables(**settings):
        det = ForecastDetector(gts, forecast_steps=2, **settings)
        return [list(det(k)) for k in range(len(gts))]

    assert tables(n_history=2**62) == tables(n_history=len(gts))
    assert tables(n_history=3, delta_t=10**19) == tables(n_history=0)


@pytest.mark.parametrize("kind, n_history", [("hold", 0), ("const-velocity", 1), ("long-short", 5)])
def test_forecaster_kinds_are_presets_of_forecast_detector(kind, n_history):
    cfg = run_config_from_dict({"scene_name": "mixed", "stream": {"latency_ms": 50.0},
                                "detector": {"kind": kind, "n_history": 5}})
    det = make_detector(cfg, build_run_data(cfg))
    assert type(det) is ForecastDetector and det.n_history == n_history
    if kind == "hold":  # it forecasts nothing, so a per-frame latency needs no forecast_steps
        per_frame = [50.0] * bundled_scene("mixed").n_frames
        cfg = run_config_from_dict({"stream": {"latency_per_frame_ms": per_frame}}, cfg)
        data = build_run_data(cfg)
        det = make_detector(cfg, data)
        assert [det(k) for k in range(len(data.gts))] == reference_delayed_gt(data.gts, 0)


def test_forecast_detector_skips_occluded_history_samples():
    traj = TrajectorySpec(
        TrajectoryKind.OCCLUDED, (0, 0, 10, 10), velocity=(2.0, 0.0), occlusion_window=(2, 3)
    )
    scene = SyntheticScene(8, 33.33, 300, 100, (traj,))
    gts = scene_gts(scene)
    det = ForecastDetector(gts, n_history=3, delta_t=1, forecast_steps=1)
    assert len(det(2)) == 0  # occluded now: nothing to anchor on
    dets = objects(det(4))  # history window spans the occlusion gap
    assert len(dets) == 1
    (truth,) = objects(gts[5])  # linear track: forecast should still be exact
    assert np.allclose(dets[0].bbox.as_tuple(), truth.bbox.as_tuple(), atol=1e-8)


def draw_clip(rng, n_frames=16, width=100.0, height=80.0):
    """Ground truth of a few tracks with non-contiguous ids, each starting
    and ending at a random frame, with random gaps (occlusions), quadratic
    motion plus jitter, and clipped to the image, so that a track running
    off an edge shrinks there and may leave."""
    clip = [[] for _ in range(n_frames)]
    for track_id in rng.choice(100_000, size=int(rng.integers(1, 9)), replace=False).tolist():
        first, last = np.sort(rng.integers(0, n_frames, size=2))
        x, y = rng.uniform(0, width), rng.uniform(0, height)
        w, h = rng.uniform(5, 40, size=2)
        v, a = rng.uniform(-6, 6, size=2), rng.uniform(-0.5, 0.5, size=2)
        for k in range(first, last + 1):
            if rng.random() < 0.2:  # occluded
                continue
            dx, dy = v * (k - first) + a * (k - first) ** 2 + rng.normal(0, 0.5, size=2)
            x0, y0 = max(x + dx, 0.0), max(y + dy, 0.0)  # clipped to the image
            x1, y1 = min(x + dx + w, width), min(y + dy + h, height)
            if x0 < x1 and y0 < y1:
                clip[k].append(GroundTruthBox(BBox(x0, y0, x1, y1), int(rng.integers(0, 3)), track_id, k))
    for gts in clip:
        rng.shuffle(gts)  # track rows in no particular order
    return [ground_truth_table(gts) for gts in clip]


def test_forecast_detector_matches_the_per_track_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    mutant_caught = dropped = 0
    for n_history in range(6):
        for delta_t in range(1, 4):
            for forecast_steps in range(5):
                for _ in range(3):
                    gts = draw_clip(rng)
                    want = reference_forecast_detect(gts, n_history, delta_t, forecast_steps)
                    det = ForecastDetector(gts, n_history, delta_t, forecast_steps)
                    for k in range(len(gts)):
                        assert objects(det(k)) == want[k], (n_history, delta_t, forecast_steps, k)
                    dropped += sum(len(g) - len(d) for g, d in zip(gts, want))
                    # dropping the presence mask (every window sample counted
                    # as present) must break the equality above; a hold has none
                    if n_history and forecast_steps:
                        det._present[:] = True
                        mutant_caught += any(objects(det(k)) != want[k] for k in range(len(gts)))
    assert dropped > 0
    assert mutant_caught > 50


def test_forecast_detector_does_not_grow_with_single_box_tracks():
    # a COCO file without track ids gives every box its own track
    gts = [ground_truth_table(GroundTruthBox(BBox(k, i, k + 5, i + 5), 0, 10 * k + i, k) for i in range(10))
           for k in range(300)]
    det = ForecastDetector(gts, n_history=3, delta_t=1, forecast_steps=1)
    assert det._boxes.nbytes <= 300 * 4 * 8  # one shared row, not 3000
    assert [objects(det(k)) for k in range(len(gts))] == reference_forecast_detect(gts, 3, 1, 1)


@pytest.mark.parametrize("kind, params", [
    ("hold", {}), ("long-short", {"forecast_steps": 0}), ("delayed-gt", {"latency_frames": 2}),
])
def test_a_hold_builds_no_track_grid(kind, params):
    # 50 tracks over 200 frames: long-short's (tracks, frames, 4) grid alone
    # takes 51 x 200 x 4 x 8 bytes, which a detector that reads no other
    # frame does not build
    gts = tuple(ground_truth_table(GroundTruthBox(BBox(k, i, k + 5, i + 5), 0, i, k) for i in range(50))
                for k in range(200))

    def peak_bytes(kind, params):
        tracemalloc.start()
        try:
            make_detector(RunConfig(detector_kind=kind, detector_params=params), RunData((), gts, None))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grid = 51 * 200 * 4 * 8
    assert peak_bytes("long-short", {"forecast_steps": 1}) > grid > 20 * peak_bytes(kind, params)
    det = make_detector(RunConfig(detector_kind=kind, detector_params=params), RunData((), gts, None))
    assert [det(k) for k in range(len(gts))] == reference_delayed_gt(gts, params.get("latency_frames", 0))


@pytest.mark.parametrize("kind, vy, exit_frame", [("const-velocity", -2.0, 9), ("long-short", -3.0, 6)])
def test_forecast_of_a_track_leaving_the_image_is_dropped(kind, vy, exit_frame):
    # The box is clipped at the top edge and shrinks; at exit_frame its
    # extrapolated corners cross, so the track is forecast to have left.
    scene = {"n_frames": 12, "width": 100, "height": 100, "trajectories": [
        {"kind": "uniform", "initial_bbox": [40, 10, 60, 20], "velocity": [0, vy]}]}
    cfg = run_config_from_dict({"scene": scene, "detector": {"kind": kind}, "stream": {"latency_ms": 33.33}})
    data = build_run_data(cfg)
    detector = make_detector(cfg, data)
    for k, gts in enumerate(data.gts):
        assert len(detector(k)) == (0 if k == exit_frame else len(gts)), k
    assert len(data.gts[exit_frame]) == 1
    assert 0.0 < run_eval(cfg).sap < 1.0


def test_delayed_gt_detector_callable():
    gts = uniform_gts()
    det = delayed_gt(gts, latency_frames=2)
    assert [d.bbox for d in objects(det(5))] == [g.bbox for g in objects(gts[3])]
    with pytest.raises(InvalidConfig, match="detector latency_frames -1: must be >= 0"):
        delayed_gt(gts, latency_frames=-1)


@pytest.mark.parametrize("lag", LAGS)
@pytest.mark.parametrize("name", bundled_scene_names())
def test_delayed_gt_is_the_stale_ground_truth_reference_on_every_bundled_scene(name, lag):
    cfg = run_config_from_dict({"scene_name": name, "detector": {"kind": "delayed-gt", "latency_frames": lag}})
    data = build_run_data(cfg)
    det = make_detector(cfg, data)
    assert [det(k) for k in range(len(data.gts))] == reference_delayed_gt(data.gts, lag)


def test_delayed_gt_is_the_stale_ground_truth_reference_on_a_coco_export(tmp_path):
    assert main(["gen-scene", "--scene", "mixed", "--output", str(tmp_path / "ann.json")]) == 0
    for lag in LAGS:
        cfg = run_config_from_dict({"dataset": str(tmp_path / "ann.json"),
                                    "detector": {"kind": "delayed-gt", "latency_frames": lag}})
        data = build_run_data(cfg)
        det = make_detector(cfg, data)
        assert [det(k) for k in range(len(data.gts))] == reference_delayed_gt(data.gts, lag), lag
