import numpy as np
import pytest

from longshort.boxes import BBox
from longshort.detectors import (
    DelayedGtDetector,
    ForecastDetector,
    SingularFit,
    const_velocity_forecast,
    long_short_forecast,
)
from longshort.config import run_config_from_dict
from longshort.metrics import _corners, _iou_matrix
from longshort.runner import build_run_data, make_detector, run_eval
from longshort.scenarios import (
    SyntheticScene,
    TrajectoryKind,
    TrajectorySpec,
    bundled_scene,
    generate_scenario,
    gts_by_frame,
)


def uniform_gts(v=(5.0, 0.0), n=10, box=BBox(0, 0, 10, 10), width=400, height=100):
    traj = TrajectorySpec(TrajectoryKind.UNIFORM, box, velocity=v)
    scene = SyntheticScene(n, 33.33, width, height, (traj,))
    return gts_by_frame(generate_scenario(scene))


# ------------------------------------------------------------ delayed gt


def test_delayed_gt_zero_latency_is_identity():
    gts = uniform_gts()
    detector = DelayedGtDetector(gts, latency_frames=0)
    for k in range(len(gts)):
        dets = detector(k)
        assert [d.bbox for d in dets] == [g.bbox for g in gts[k]]
        assert all(d.score == 1.0 for d in dets)


def test_delayed_gt_clamps_at_stream_start():
    gts = uniform_gts()
    dets = DelayedGtDetector(gts, latency_frames=2)(1)
    assert [d.bbox for d in dets] == [g.bbox for g in gts[0]]


def test_delayed_gt_offset_matches_kinematics():
    gts = uniform_gts(v=(5.0, 0.0))
    detector = DelayedGtDetector(gts, latency_frames=1)
    for k in range(1, len(gts)):
        det = detector(k)[0]
        truth = gts[k][0]
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
        shifted = [(k, b.shifted(dx, dy)) for k, b in hist]
        a = long_short_forecast(hist, 6)
        b = long_short_forecast(shifted, 6)
        assert np.allclose(b.as_tuple(), a.shifted(dx, dy).as_tuple(), atol=1e-7)
    a = const_velocity_forecast(BBox(0, 0, 4, 4), BBox(2, 1, 6, 5), 2)
    b = const_velocity_forecast(BBox(3, 5, 7, 9), BBox(5, 6, 9, 10), 2)
    assert b.as_tuple() == a.shifted(3, 5).as_tuple()


def test_long_history_beats_short_on_accelerating_tracks():
    scene = bundled_scene("accelerating")
    gts = gts_by_frame(generate_scenario(scene))
    track = {g.frame_index: g.bbox for frame in gts for g in frame}
    cv, ls, truth = [], [], []
    for k in range(4, scene.n_frames - 1):
        truth.append(track[k + 1])
        cv.append(const_velocity_forecast(track[k - 1], track[k], 1))
        ls.append(long_short_forecast([(i, track[i]) for i in range(k - 3, k + 1)], k + 1))
    ious_cv = np.diag(_iou_matrix(_corners(cv), _corners(truth)))
    ious_ls = np.diag(_iou_matrix(_corners(ls), _corners(truth)))
    assert np.mean(ious_ls) > np.mean(ious_cv)


# ---------------------------------------------------- streaming wrappers


def test_forecast_detector_with_one_history_matches_const_velocity_op():
    gts = uniform_gts(v=(3.0, 1.0), n=8, width=400, height=200)
    det = ForecastDetector(gts, n_history=1, delta_t=1, forecast_steps=2)
    for k in range(1, 7):
        got = det(k)[0].bbox
        want = const_velocity_forecast(gts[k - 1][0].bbox, gts[k][0].bbox, 2)
        assert np.allclose(got.as_tuple(), want.as_tuple(), atol=1e-8)


def test_forecast_detector_holds_without_history():
    gts = uniform_gts()
    det = ForecastDetector(gts, n_history=0, delta_t=1, forecast_steps=0)
    for k in range(len(gts)):
        assert [d.bbox for d in det(k)] == [g.bbox for g in gts[k]]


def test_forecast_detector_skips_occluded_history_samples():
    traj = TrajectorySpec(
        TrajectoryKind.OCCLUDED, BBox(0, 0, 10, 10), velocity=(2.0, 0.0), occlusion_window=(2, 3)
    )
    scene = SyntheticScene(8, 33.33, 300, 100, (traj,))
    gts = gts_by_frame(generate_scenario(scene))
    det = ForecastDetector(gts, n_history=3, delta_t=1, forecast_steps=1)
    assert det(2) == []  # occluded now: nothing to anchor on
    dets = det(4)  # history window spans the occlusion gap
    assert len(dets) == 1
    truth = gts[5][0].bbox  # linear track: forecast should still be exact
    assert np.allclose(dets[0].bbox.as_tuple(), truth.as_tuple(), atol=1e-8)


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
    assert 0.0 < run_eval(cfg, write=False).sap < 1.0


def test_delayed_gt_detector_callable():
    gts = uniform_gts()
    det = DelayedGtDetector(gts, latency_frames=2)
    assert [d.bbox for d in det(5)] == [g.bbox for g in gts[3]]
    with pytest.raises(ValueError):
        DelayedGtDetector(gts, latency_frames=-1)
